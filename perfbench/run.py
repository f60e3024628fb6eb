"""doatrack benchmark: one closed-loop client driving the public library API.

    python3 perfbench/run.py --workload {synth,localize,track_eval} \
        [--seed N|held-out] [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from ``src/`` beside this
directory, never from an installed copy. The workload runs whole rounds of
its op mix, one op after another, until ``--seconds`` have passed. With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` untraced and traced rounds alternate and the per-layer metrics
come from the traced ones. Op and set-up times are in reference seconds:
wall seconds scaled by the speed of a calibration kernel timed around each
op (calibration.py). Human-readable lines come first; the last line of
standard output is the JSON result. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 1
# Not used while the benchmark or a change was being tuned: check claims on it.
HELD_OUT_SEED = 20261017
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "audio_s_per_s": "s/s",
    "rtf_p50": "s/s",
    "peak_rss_mb": "MB",
}
ACCURACY_UNITS = {
    "az_err_deg": "deg",
    "p_d": "ratio",
    "far_per_s": "1/s",
    "ospa_p1_deg": "deg",
    "tfr": "1/s",
}


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_doatrack(root: Path = ROOT) -> None:
    """Import doatrack from ``root/src`` and refuse any other copy."""
    src = root / "src"
    if not (src / "doatrack" / "__init__.py").is_file():
        raise ImportError(f"no doatrack sources under {src}")
    sys.path.insert(0, str(src))
    import doatrack
    if Path(doatrack.__file__).resolve().parent != (src / "doatrack").resolve():
        raise ImportError(f"doatrack imported from {doatrack.__file__}, not from {src}")


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric a traced run reports."""
    from layertrace import COUNTER_NAMES, function_keys
    units = {}
    for key in function_keys():
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    for name in COUNTER_NAMES:
        units[name] = "bytes" if name == "corpus_io.bytes_written" else "count"
    units["localize.estimates_per_block"] = "ratio"
    units["geometry.interpolate_pose.mean_us"] = "us"
    units["trace.overhead"] = "ratio"
    units["trace.coverage"] = "ratio"
    for name, unit in ACCURACY_UNITS.items():
        units[f"accuracy.{name}"] = unit
    units["accuracy.scored_ops"] = "count"
    return units


class ScaledTimer:
    """Times calls in wall seconds and in reference seconds.

    Reference seconds are wall seconds divided by the calibration kernel's
    slowdown, averaged over its runs just before and just after the call
    (see calibration.py). The kernel runs outside the timed interval.
    """

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self._before = None
        self._start = 0.0
        self.slowdowns = []

    def start(self) -> None:
        if self._before is None:
            self._before = self.calibrate()
        self._start = perf_counter()

    def stop(self):
        """(wall seconds, reference seconds) since `start`."""
        wall = perf_counter() - self._start
        after = self.calibrate()
        slowdown = 0.5 * (self._before + after)
        self._before = after
        self.slowdowns.append(slowdown)
        return wall, wall / slowdown


@dataclass
class Tally:
    """What a set of rounds did: op count, failures, timings and scores."""

    timer: ScaledTimer
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    op_wall_s: float = 0.0  # every op attempted, checks excluded
    op_ref_s: float = 0.0  # the same in reference seconds
    audio_s: float = 0.0  # ops that passed their checks
    rtfs: list = field(default_factory=list)  # reference seconds per audio second
    scores: list = field(default_factory=list)

    def run_round(self, ops, tracer=None) -> None:
        for op in ops:
            self._attempt(op, tracer)
        self.rounds += 1

    def _attempt(self, op, tracer) -> None:
        self.attempted += 1
        error = None
        self.timer.start()
        if tracer is not None:
            tracer.active = True
        try:
            output = op.run()
        except Exception as exc:  # an op failure is counted, not fatal
            error = exc
        if tracer is not None:
            tracer.active = False
        wall, ref = self.timer.stop()
        self.op_wall_s += wall
        self.op_ref_s += ref
        if error is None:
            try:
                scores = op.check(output)
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            print(f"op {op.name} failed:", file=sys.stderr)
            traceback.print_exception(type(error), error, error.__traceback__)
            return
        self.audio_s += op.audio_s
        self.rtfs.append(ref / op.audio_s)
        if scores is not None:
            self.scores.append(scores)


def _set_up(setup, seed, workdir: Path, repeats: int, setup_args: dict, timer):
    times = []
    for i in range(repeats):
        timer.start()
        run_dir = workdir / f"setup{i}"
        run_dir.mkdir(parents=True)
        ops = setup(seed, run_dir, **setup_args)
        times.append(timer.stop()[1])
    return ops, statistics.median(times)


def _accuracy(scores: list) -> dict:
    if not scores:
        return {name: math.nan for name in ACCURACY_UNITS}
    return {name: statistics.fmean(s[name] for s in scores) for name in ACCURACY_UNITS}


def _per_layer(tracer, traced: Tally, untraced: Tally) -> dict:
    n = traced.rounds
    # span times to reference seconds, at the traced rounds' mean scale
    scale = traced.op_ref_s / traced.op_wall_s
    out = {}
    for key, (calls, self_s) in tracer.stats.items():
        out[f"{key}.calls"] = calls / n
        out[f"{key}.self_s"] = scale * self_s / n
    for name, count in tracer.counters.items():
        out[name] = count / n
    blocks = tracer.counters["localize.blocks"]
    out["localize.estimates_per_block"] = (
        tracer.counters["localize.estimates"] / blocks if blocks else 0.0)
    calls, self_s = tracer.stats["geometry.interpolate_pose"]
    out["geometry.interpolate_pose.mean_us"] = 1e6 * scale * self_s / calls if calls else 0.0
    out["trace.overhead"] = ((traced.op_ref_s / traced.rounds)
                             / (untraced.op_ref_s / untraced.rounds))
    out["trace.coverage"] = tracer.top_level_s / traced.op_wall_s
    # synth scores nothing: its accuracy values read 0 beside scored_ops = 0
    scores = traced.scores + untraced.scores
    for name, value in _accuracy(scores).items():
        out[f"accuracy.{name}"] = value if scores else 0.0
    out["accuracy.scored_ops"] = len(scores) / (traced.rounds + untraced.rounds)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_args: dict | None = None, setup_repeats: int = SETUP_REPEATS,
            workdir: Path | None = None) -> dict:
    """Set up and run one workload; returns the result and the human report."""
    from calibration import Calibrator
    from layertrace import Tracer
    from workloads import SETUPS

    timer = ScaledTimer(Calibrator())

    scratch_root = None
    if workdir is None:
        scratch_root = ROOT / ".perfbench_tmp"
        workdir = scratch_root / f"{workload}-{os.getpid()}"
    try:
        ops, setup_s = _set_up(SETUPS[workload], seed, workdir,
                               1 if trace else setup_repeats, setup_args or {}, timer)
        untraced = Tally(timer)
        traced = Tally(timer)
        start = perf_counter()
        if trace:
            # the first round pays first-call costs, so it is neither side of
            # the overhead comparison
            warm_up = Tally(timer)
            warm_up.run_round(ops)
            with Tracer() as tracer:
                while True:
                    traced.run_round(ops, tracer)
                    untraced.run_round(ops)
                    if perf_counter() - start >= seconds:
                        break
        else:
            while True:
                untraced.run_round(ops)
                if perf_counter() - start >= seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch_root is not None:
            try:
                scratch_root.rmdir()
            except OSError:
                pass  # another run still uses it

    tallies = (untraced, traced, warm_up) if trace else (untraced,)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    accuracy = _accuracy([s for t in tallies for s in t.scores])
    if trace:
        values = _per_layer(tracer, traced, untraced)
        units = per_layer_units()
    else:
        values = {
            "setup_s": setup_s,
            "audio_s_per_s": untraced.audio_s / untraced.op_ref_s,
            "rtf_p50": statistics.median(untraced.rtfs) if untraced.rtfs else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "report": {
            "ops_per_round": len(ops),
            "rounds": sum(t.rounds for t in tallies),
            "op_error_rate": failed / attempted,
            "wall_audio_s_per_s": untraced.audio_s / untraced.op_wall_s,
            "slowdown_p50": statistics.median(timer.slowdowns),
            "accuracy": accuracy,
        },
    }


def environment(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _seed(text: str) -> int:
    return HELD_OUT_SEED if text == "held-out" else int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("synth", "localize", "track_eval"))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help=f"integer, or 'held-out' for {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_doatrack()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print("env: " + json.dumps(environment(args.workload, args.seed, trace)))
    result = measure(args.workload, args.seed, args.seconds, trace)
    report = result.pop("report")
    print(f"ops: {result['attempted']} attempted, {result['failed']} failed "
          f"(op_error_rate {report['op_error_rate']:.4f}), "
          f"{report['rounds']} rounds of {report['ops_per_round']}")
    print(f"calibration: median slowdown {report['slowdown_p50']:.4f}; "
          f"unscaled audio_s_per_s {report['wall_audio_s_per_s']:.6g}")
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        for name, value in report["accuracy"].items():
            shown = "n/a" if math.isnan(value) else f"{value:.6g}"
            print(f"{'accuracy.' + name:<44} {shown:>16} {ACCURACY_UNITS[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())

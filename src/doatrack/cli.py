"""Command-line driver: simulate scenes, run the localizer+tracker pipeline
of `pipeline`, evaluate submissions, and print reports.

Exit codes: 0 success, 1 usage/config error, 2 data error. Option
precedence: built-in defaults < --config file < explicit flags. Every
command writes a manifest (config hash, seed, version) beside its outputs;
the manifest contains no wall-clock fields so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .corpus_io import (CorpusFormatError, bundle_from_scene, read_ground_truth, read_json,
                        read_recording, read_submission, write_recording, write_submission)
from .evaluate import (DEFAULT_GATE_DEG, DEFAULT_OSPA_CUTOFF_DEG, OspaParams, check_gate,
                       evaluate_submission)
from .geometry import ARRAY_PRESETS
from .localize import DEFAULT_BAND_HZ, UnsupportedGeometryError
# perfbench reads and traces the stages under these names on this module
from .pipeline import (LOCALIZERS, TRACKERS, UsageError, localize_stream, resample_tracks,
                       run_pipeline, track_stream)
from .sigproc import BLOCK_FRAMES, BLOCK_STRIDE, DEFAULT_HOP, DEFAULT_WINDOW_LENGTH
from .simulate import synthesize, task_preset

# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------

# Each command declares its options once, in a table of defaults (below, next
# to the command). A key becomes a flag (`n_sources` is --n-sources) whose
# type is its default's; a boolean default becomes a switch.
OPTION_HELP = {"task": "scenario 1..6", "duration": "seconds", "snr": "dB", "gate": "degrees",
               "ospa_p": "comma list, e.g. 1,5", "ospa_c": "cutoff, degrees",
               "band_low": "Hz; gcc-phat reads every bin and ignores it",
               "band_high": "Hz; gcc-phat reads every bin and ignores it"}
OPTION_CHOICES = {"localizer": LOCALIZERS, "tracker": TRACKERS,
                  "array": tuple(sorted(ARRAY_PRESETS)), "task": tuple(range(1, 7))}


def _merge_options(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags.

    A config value must have its default's type, except that a JSON int
    passes where the default is a float; it is kept as loaded.
    """
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        try:
            loaded = read_json(path)
        except CorpusFormatError as exc:  # text that does not decode or is not JSON
            raise UsageError(str(exc)) from None
        if not isinstance(loaded, dict):
            raise UsageError(f"{path}: expected a JSON object of options")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise UsageError(f"{path}: unknown options {sorted(unknown)}")
        for key, value in loaded.items():
            default = defaults[key]
            kinds = (int, float) if type(default) is float else type(default)
            if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, kinds):
                raise UsageError(f"{path}: option {key!r} must be {type(default).__name__}, "
                                 f"got {value!r}")
            if value not in OPTION_CHOICES.get(key, (value,)):
                raise UsageError(f"{path}: option {key!r} must be one of "
                                 f"{list(OPTION_CHOICES[key])}, got {value!r}")
        merged.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _write_manifest(out_dir: Path, command: str, options: dict) -> None:
    canonical = json.dumps(options, sort_keys=True)
    manifest = {
        "command": command,
        "config": options,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": options.get("seed"),
        "version": __version__,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "task": 1, "seed": 0, "duration": 10.0, "array": "robot_head",
    "snr": 20.0,
}


def cmd_simulate(args) -> int:
    opts = _merge_options(SIMULATE_DEFAULTS, args)
    config = task_preset(opts["task"], opts["seed"], duration=float(opts["duration"]),
                         array=opts["array"], snr_db=float(opts["snr"]))
    scene = synthesize(config)
    out = Path(args.out)
    bundle = bundle_from_scene(scene, recording_id=out.name or "sim")
    write_recording(bundle, out)
    _write_manifest(out, "simulate", opts)
    print(f"wrote scene: {out} ({scene.audio.channel_count} ch, "
          f"{scene.audio.duration:.2f} s)")
    return 0


RUN_DEFAULTS = {
    "localizer": "srp-phat", "tracker": "kalman", "n_sources": 1, "seed": 0,
    "block_frames": BLOCK_FRAMES, "block_stride": BLOCK_STRIDE,
    "window": DEFAULT_WINDOW_LENGTH, "hop": DEFAULT_HOP, "band_low": DEFAULT_BAND_HZ[0], "band_high": DEFAULT_BAND_HZ[1],
}


def cmd_run(args) -> int:
    opts = _merge_options(RUN_DEFAULTS, args)
    bundle = read_recording(args.input)
    submission = run_pipeline(
        bundle, opts["localizer"], opts["tracker"], n_sources=opts["n_sources"],
        seed=opts["seed"], block_frames=opts["block_frames"],
        block_stride=opts["block_stride"], window_length=opts["window"], hop=opts["hop"],
        band_hz=(float(opts["band_low"]), float(opts["band_high"])),
    )
    out = Path(args.out)
    write_submission(submission, out)
    _write_manifest(out.parent, "run", opts)
    print(f"wrote submission: {out} ({len(submission.times)} rows, "
          f"{submission.max_id} track id(s))")
    return 0


EVALUATE_DEFAULTS = {
    "gate": DEFAULT_GATE_DEG, "ospa_p": "1,5", "ospa_c": DEFAULT_OSPA_CUTOFF_DEG,
    "ospa_series": False,
}


def _scoring_options(opts: dict):
    """The gate (degrees) and the OSPA parameters of the evaluate options,
    checked by the library's own rules before any file is read: a value they
    reject is a usage error."""
    key = "gate"
    try:
        gate = check_gate(float(opts[key]))
        key = "ospa_c"
        cutoff = OspaParams(cutoff_deg=float(opts[key])).cutoff_deg
        key = "ospa_p"
        return gate, tuple(OspaParams(float(p), cutoff) for p in opts[key].split(",") if p)
    except ValueError as exc:
        raise UsageError(f"{key} must be valid: {exc}") from None


def cmd_evaluate(args) -> int:
    opts = _merge_options(EVALUATE_DEFAULTS, args)
    gate, ospa_params = _scoring_options(opts)
    duration, array_trajectory, source_trajectories, vaps = read_ground_truth(args.input)
    if source_trajectories is None or vaps is None:
        raise CorpusFormatError(
            f"{args.input}: recording has no ground truth (evaluation split?)")
    submission = read_submission(args.submission)
    clock = array_trajectory.timestamps
    report = evaluate_submission(
        source_trajectories, array_trajectory, vaps,
        submission, clock, recording_duration=duration,
        gate_deg=gate, ospa_params=ospa_params,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    flat = report.to_dict()
    (out_dir / "metrics.json").write_text(json.dumps(flat, indent=2, sort_keys=True))
    keys = sorted(flat)
    with open(out_dir / "metrics.csv", "w") as fh:
        fh.write(",".join(keys) + "\n")
        fh.write(",".join(str(flat[k]) for k in keys) + "\n")
    if opts["ospa_series"]:
        with open(out_dir / "ospa_series.csv", "w") as fh:
            fh.write(",".join(["timestamp"] + [f"ospa_p{p:g}_c{c:g}"
                                               for (p, c) in report.ospa]) + "\n")
            series = list(report.ospa.values())
            for i, t in enumerate(clock):
                fh.write(",".join([f"{t:.6f}"] + [f"{s.values[i]:.6f}" for s in series]) + "\n")
    _write_manifest(out_dir, "evaluate", opts)
    _print_summary(flat)
    return 0


def _print_summary(flat: dict) -> None:
    rows = [(k, flat[k]) for k in sorted(flat)]
    width = max(len(k) for k, _ in rows)
    print("-" * (width + 14))
    for key, value in rows:
        if isinstance(value, float):
            print(f"{key:<{width}}  {value:>10.4f}")
        else:
            print(f"{key:<{width}}  {value}")
    print("-" * (width + 14))


def cmd_report(args) -> int:
    for path in args.metrics:
        p = Path(path)
        flat = read_json(p)
        if not isinstance(flat, dict):
            raise CorpusFormatError(f"{p}: expected a JSON object of metrics")
        if not flat:
            raise CorpusFormatError(f"{p}: holds no metrics")
        print(f"== {p} ==")
        _print_summary(flat)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_options(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """One flag per key of a defaults table; an unset flag parses to None."""
    for key, default in defaults.items():
        kind = ({"action": "store_true"} if isinstance(default, bool) else
                {"type": type(default), "choices": OPTION_CHOICES.get(key)})
        parser.add_argument("--" + key.replace("_", "-"), default=None,
                            help=OPTION_HELP.get(key), **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="doatrack",
                     description="Sound-source localization and tracking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize a scene to disk")
    _add_options(p_sim, SIMULATE_DEFAULTS)
    p_sim.add_argument("--config", type=str, default=None, help="JSON options file")
    p_sim.add_argument("--out", type=str, required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="localize and track a recording")
    p_run.add_argument("--input", type=str, required=True, help="recording directory")
    _add_options(p_run, RUN_DEFAULTS)
    p_run.add_argument("--config", type=str, default=None)
    p_run.add_argument("--out", type=str, required=True, help="submission file")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("evaluate", help="score a submission against ground truth")
    p_eval.add_argument("--input", type=str, required=True, help="recording directory")
    p_eval.add_argument("--submission", type=str, required=True)
    _add_options(p_eval, EVALUATE_DEFAULTS)
    p_eval.add_argument("--config", type=str, default=None)
    p_eval.add_argument("--out", type=str, required=True, help="report directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="print stored metrics")
    p_rep.add_argument("metrics", nargs="+", help="metrics.json files")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"doatrack: error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, CorpusFormatError, UnsupportedGeometryError,
            ValueError) as exc:
        print(f"doatrack: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

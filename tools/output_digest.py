"""SHA-256 digest of the output of every benchmark op, one line per op.

    python3 tools/output_digest.py [--workload W ...] [--seed N|held-out ...]

Sets up each workload of ``perfbench/workloads.py`` from each seed (by
default every workload at seeds 1, 2 and held-out), runs every op of one
round once, checks its output as the benchmark does, and prints
``workload seed op sha256``. Run it at two commits and diff the lines to
show that a change keeps every output bit for bit. A scored op
(``localize``, ``track_eval``) hashes its submission rows and
``MetricsReport.to_dict()``, NaN written as null; a ``synth`` op hashes the
written and the read-back recording: audio, trajectories and activity
periods. The library is imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  perfbench/run.py: seeds, thread pinning, import from src/

WORKLOADS = ("synth", "localize", "track_eval")
SEEDS = (run.DEFAULT_SEED, 2, run.HELD_OUT_SEED)


def _update(digest, *arrays) -> None:
    for a in arrays:
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())


def _update_json(digest, value) -> None:
    digest.update(json.dumps(value, sort_keys=True, default=lambda v: v.item()).encode())


def _hash_recordings(digest, output) -> None:
    for bundle in output:  # the bundle written, then the bundle read back
        _update_json(digest, bundle.audio.sample_rate_hz)
        _update(digest, bundle.audio.samples)
        names = sorted(bundle.source_trajectories)
        _update_json(digest, names)
        for traj in [bundle.array_trajectory] + [bundle.source_trajectories[n] for n in names]:
            _update(digest, traj.timestamps, traj.translations, traj.rotations)
        _update_json(digest, sorted(bundle.vaps.intervals.items()))


def _hash_scored(digest, output) -> None:
    submission, report = output
    _update(digest, submission.times, submission.ids, submission.azimuths,
            submission.elevations)
    _update_json(digest, {k: None if isinstance(v, float) and math.isnan(v) else v
                          for k, v in report.to_dict().items()})


def digest_lines(workload: str, seed: int, workdir: Path, **setup_args):
    """Yield ``workload seed op sha256`` for every op of one round of
    `workload` set up from `seed` in `workdir`; a failing check raises."""
    from workloads import SETUPS
    hash_output = _hash_recordings if workload == "synth" else _hash_scored
    for op in SETUPS[workload](seed, workdir, **setup_args):
        output = op.run()
        op.check(output)
        digest = hashlib.sha256()
        hash_output(digest, output)
        yield f"{workload} {seed} {op.name} {digest.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", action="append", type=run._seed,
                        help=f"integer, or 'held-out' for {run.HELD_OUT_SEED}")
    args = parser.parse_args(argv)
    run.load_doatrack()
    for workload in args.workload or WORKLOADS:
        for seed in args.seed or SEEDS:
            workdir = Path(tempfile.mkdtemp(prefix=f"digest-{workload}-"))
            try:
                for line in digest_lines(workload, seed, workdir):
                    print(line, flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    run.pin_threads()
    sys.exit(main())

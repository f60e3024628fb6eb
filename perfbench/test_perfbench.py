"""Tests of the benchmark itself, on inputs far smaller than a real run.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_doatrack()

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "synth": {"mix": (("robot_head", 5, 0.3), ("dicit_32cm", 4, 0.3),
                      ("eigenmike", 4, 0.25))},
    "localize": {"scenes": (("robot_head", 4, 0.4, workloads.ALL_LOCALIZERS),
                            ("dicit_32cm", 1, 0.4, ("srp-phat", "music", "gcc-phat")))},
    "track_eval": {"scenes": ((4, 1.5), (6, 1.5))},
}
# per-layer metrics that are timings or ratios of timings
TIMED_UNITS = ("s", "us")
TIMED_NAMES = ("trace.overhead", "trace.coverage")


def _measure(workload, tmp_path, trace, seed=3):
    return run.measure(workload, seed, seconds=0.0, trace=trace,
                       setup_args=TINY[workload], setup_repeats=1,
                       workdir=tmp_path / f"{workload}-{int(trace)}")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    result = _measure(workload, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
    assert not (tmp_path / f"{workload}-{int(trace)}").exists()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_repeats_counts_and_accuracy(workload, tmp_path):
    first = _measure(workload, tmp_path / "a", trace=True)["metrics"]
    second = _measure(workload, tmp_path / "b", trace=True)["metrics"]
    exact = [name for name, m in first.items()
             if m["unit"] not in TIMED_UNITS and name not in TIMED_NAMES]
    assert "accuracy.p_d" in exact and "track.pf_weight_collapse" in exact
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def _same_report(a, b):
    a, b = a.to_dict(), b.to_dict()
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k]) and math.isnan(b[k]))
        for k in a)


@pytest.mark.parametrize("workload", ["localize", "track_eval"])
def test_tracing_changes_no_output(workload, tmp_path):
    ops = workloads.SETUPS[workload](5, tmp_path, **TINY[workload])
    plain = [op.run() for op in ops]
    with Tracer() as tracer:
        tracer.active = True
        traced = [op.run() for op in ops]
    assert tracer.stats["evaluate.evaluate_submission"][0] == len(ops)
    for op, (sub, report), (sub_t, report_t) in zip(ops, plain, traced):
        assert sub.frames == sub_t.frames, op.name
        assert _same_report(report, report_t), op.name


def test_round_trip_check_rejects_off_clock_timestamp(tmp_path):
    from doatrack.evaluate import Submission
    from doatrack.geometry import Doa
    clock = frozenset((np.arange(10) / 120.0).tolist())
    good = Submission({1 / 120.0: ((1, Doa(0.5)),)})
    workloads.check_submission(good, clock, tmp_path / "sub.txt")
    with pytest.raises(workloads.OutputCheckError):
        workloads.check_submission(Submission({0.013: ((1, Doa(0.5)),)}), clock,
                                   tmp_path / "sub.txt")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth",
                           "--seconds", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

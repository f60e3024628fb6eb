import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doatrack.evaluate import (AssociationSlice, OspaParams, Submission, ValidPair,
                               VapTable, align_vaps, angular_errors, compute_metrics,
                               detect_fragmentation, evaluate_submission,
                               gate_and_associate, ground_truth_doas, ospa,
                               ospa_series)
from doatrack.geometry import (Doa, Pose, identity_pose, static_trajectory,
                               wrap_angle)

D = math.radians


def brute_force_ospa(truth, est, p, c):
    """Exhaustive enumeration over all injections of the smaller set."""
    a, b = list(truth), list(est)
    if len(a) > len(b):
        a, b = b, a
    if not b:
        return 0.0
    if not a:
        return c
    best = math.inf
    for image in itertools.permutations(range(len(b)), len(a)):
        total = sum(
            min(c, abs(math.degrees(wrap_angle(a[i] - b[j])))) ** p
            for i, j in enumerate(image)
        )
        best = min(best, total)
    return ((best + (len(b) - len(a)) * c**p) / len(b)) ** (1.0 / p)


def test_angular_errors_wrap_and_sign():
    d_az, d_el = angular_errors(Doa(D(170)), Doa(D(-170)))
    assert math.degrees(d_az) == pytest.approx(-20.0)
    d_az, _ = angular_errors(Doa(D(-170)), Doa(D(170)))
    assert math.degrees(d_az) == pytest.approx(20.0)
    _, d_el = angular_errors(Doa(0, D(80)), Doa(0, D(100)))
    assert math.degrees(d_el) == pytest.approx(-20.0)


def test_ospa_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        na, nb = rng.integers(0, 5), rng.integers(0, 5)
        a = rng.uniform(-math.pi, math.pi, na)
        b = rng.uniform(-math.pi, math.pi, nb)
        p = float(rng.choice([1.0, 2.0, 5.0]))
        val = ospa(a, b, OspaParams(p, 30.0))
        ref = brute_force_ospa(a, b, p, 30.0)
        assert val == pytest.approx(ref, abs=1e-9)


def test_ospa_edge_cases():
    params = OspaParams(1.0, 30.0)
    assert ospa([], [], params) == 0.0
    assert ospa([0.0], [], params) == 30.0
    assert ospa([], [0.0], params) == 30.0
    assert ospa([0.0], [D(10)], params) == pytest.approx(10.0)
    # error beyond cutoff saturates
    assert ospa([0.0], [D(100)], params) == pytest.approx(30.0)
    # cardinality penalty: one matched at 0, one unmatched at c
    assert ospa([0.0], [0.0, D(170)], params) == pytest.approx(15.0)


AZIMUTH_SETS = st.lists(st.floats(-math.pi, math.pi), max_size=4)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([1.0, 2.0, 5.0]), x=AZIMUTH_SETS, y=AZIMUTH_SETS, z=AZIMUTH_SETS)
def test_ospa_metric_axioms(p, x, y, z):
    # Schuhmacher, Vo & Vo (IEEE TSP 2008): OSPA is a metric bounded by its cutoff
    params = OspaParams(p, 30.0)
    d_xy = ospa(x, y, params)
    assert ospa(x, x, params) == 0.0
    if len(x) != len(y):
        assert d_xy > 0.0
    assert 0.0 <= d_xy <= 30.0
    assert d_xy == pytest.approx(ospa(y, x, params), abs=1e-9)
    assert ospa(x, z, params) <= d_xy + ospa(y, z, params) + 1e-9


def test_gate_and_associate_inside_gate():
    sl = gate_and_associate({1: Doa(0.0)}, [(7, Doa(D(10)))], gate_deg=30.0)
    assert len(sl.pairs) == 1
    assert sl.pairs[0].source == 1 and sl.pairs[0].estimate_id == 7
    assert sl.false_ids == () and sl.missed_sources == ()


def test_gate_and_associate_rejects_over_gate():
    sl = gate_and_associate({1: Doa(0.0)}, [(7, Doa(D(35)))], gate_deg=30.0)
    assert sl.pairs == ()
    assert sl.false_ids == (7,)
    assert sl.missed_sources == (1,)


def test_gate_boundary_inclusive():
    sl = gate_and_associate({1: Doa(0.0)}, [(1, Doa(D(30)))], gate_deg=30.0)
    assert len(sl.pairs) == 1


def test_association_is_globally_optimal():
    # estimate 1 is closest to source A, but total cost favours the cross pairing
    truths = {1: Doa(D(0)), 2: Doa(D(8))}
    sl = gate_and_associate(truths, [(1, Doa(D(4))), (2, Doa(D(-3)))], gate_deg=30.0)
    got = {p.source: p.estimate_id for p in sl.pairs}
    assert got == {1: 2, 2: 1}


def test_extra_estimates_are_false_alarms():
    sl = gate_and_associate({1: Doa(0.0)},
                            [(1, Doa(D(2))), (2, Doa(D(5))), (3, Doa(D(170)))],
                            gate_deg=30.0)
    assert len(sl.pairs) == 1
    assert set(sl.false_ids) == {2, 3}


def test_vap_table_validation():
    with pytest.raises(ValueError):
        VapTable({1: ((1.0, 0.5),)})
    with pytest.raises(ValueError):
        VapTable({1: ((0.0, 1.0), (0.5, 2.0))})
    table = VapTable({1: ((0.0, 1.0), (2.0, 3.0))})
    assert table.active_sources(0.5) == [1]
    assert table.active_sources(1.5) == []
    assert table.vap_at(1, 2.5) == 1
    assert table.total_duration() == pytest.approx(2.0)


def test_align_vaps_shifts_by_propagation():
    src = static_trajectory(Pose(np.array([3.43, 0, 0]), np.eye(3)), 5.0)
    arr = static_trajectory(identity_pose(), 5.0)
    vaps = VapTable({1: ((1.0, 2.0),)})
    shifted = align_vaps(vaps, {1: src}, arr, c=343.0)
    assert shifted.intervals[1][0][0] == pytest.approx(1.01)
    assert shifted.intervals[1][0][1] == pytest.approx(2.01)


def _slice(t, pairs=(), false=(), missed=()):
    return AssociationSlice(t, tuple(pairs), tuple(false), tuple(missed))


def _pair(source, est_id, d_az=0.0):
    return ValidPair(source, est_id, d_az, 0.0)


def test_detect_fragmentation_break_and_swap():
    vaps = VapTable({1: ((0.0, 1.0),)})
    slices = [
        _slice(0.0, [_pair(1, 1)]),
        _slice(0.1, [_pair(1, 1)]),
        _slice(0.2, []),               # break
        _slice(0.3, [_pair(1, 2)]),
        _slice(0.4, [_pair(1, 3)]),    # swap
    ]
    breaks, swaps = detect_fragmentation(slices, vaps)
    assert breaks.sum() == 1 and breaks[2] == 1
    assert swaps.sum() == 1 and swaps[4] == 1


def test_detect_fragmentation_ignores_vap_boundaries():
    # losing the track between two distinct VAPs is not a break
    vaps = VapTable({1: ((0.0, 0.15), (0.35, 0.5))})
    slices = [
        _slice(0.0, [_pair(1, 1)]),
        _slice(0.1, [_pair(1, 1)]),
        _slice(0.2, []),
        _slice(0.4, [_pair(1, 2)]),
    ]
    breaks, swaps = detect_fragmentation(slices, vaps)
    assert breaks.sum() == 0 and swaps.sum() == 0


def test_compute_metrics_perfect_run():
    vaps = VapTable({1: ((0.0, 0.4),)})
    clock = np.arange(0.0, 0.5, 0.1)
    slices = [_slice(t, [_pair(1, 1)]) if t <= 0.4 else _slice(t)
              for t in clock]
    rep = compute_metrics(slices, vaps, clock, recording_duration=0.5)
    assert rep.p_d == 1.0
    assert rep.far_recording == 0.0 and rep.far_vap == 0.0
    assert rep.track_latency_s == 0.0
    assert rep.tfr == 0.0
    assert rep.mean_azimuth_error_deg == 0.0
    assert not rep.undefined


def test_compute_metrics_bias_fixture():
    vaps = VapTable({1: ((0.0, 0.4),)})
    clock = np.arange(0.0, 0.5, 0.1)
    slices = [_slice(t, [_pair(1, 1, D(5.0))]) for t in clock]
    rep = compute_metrics(slices, vaps, clock, recording_duration=0.5)
    assert rep.mean_azimuth_error_deg == pytest.approx(5.0, abs=1e-9)
    assert rep.std_azimuth_error_deg == pytest.approx(0.0, abs=1e-9)


def test_compute_metrics_latency_and_misses():
    vaps = VapTable({1: ((0.0, 1.0),)})
    clock = np.arange(0.0, 1.05, 0.1)
    slices = [_slice(t, [] if t < 0.45 else [_pair(1, 1)],
                     missed=[1] if t < 0.45 else []) for t in clock]
    rep = compute_metrics(slices, vaps, clock, recording_duration=1.1)
    assert rep.track_latency_s == pytest.approx(0.5)
    assert rep.p_d == pytest.approx(6 / 11)
    assert rep.missed_count == 5


def test_compute_metrics_false_alarm_rates():
    vaps = VapTable({1: ((0.0, 0.5),)})
    clock = np.arange(0.0, 1.05, 0.1)
    # 3 false alarms inside the VAP, 2 outside
    slices = []
    for i, t in enumerate(clock):
        in_vap = t <= 0.5
        if i in (0, 2, 4):
            slices.append(_slice(t, [_pair(1, 1)], false=[9]))
        elif i in (7, 9):
            slices.append(_slice(t, [], false=[9]))
        else:
            slices.append(_slice(t, [_pair(1, 1)] if in_vap else []))
    rep = compute_metrics(slices, vaps, clock, recording_duration=2.0)
    assert rep.far_recording == pytest.approx(5 / 2.0)
    assert rep.far_vap == pytest.approx(3 / 0.5)


def test_compute_metrics_undetected_vap():
    vaps = VapTable({1: ((0.0, 0.3),), 2: ((0.0, 0.3),)})
    clock = np.arange(0.0, 0.35, 0.1)
    slices = [_slice(t, [_pair(1, 1)], missed=[2]) for t in clock]
    rep = compute_metrics(slices, vaps, clock, recording_duration=0.4)
    assert rep.undetected_vaps == 1
    assert rep.track_latency_s == 0.0  # never-detected VAPs excluded


def test_compute_metrics_undefined_without_vaps():
    rep = compute_metrics([], VapTable({}), np.array([]), recording_duration=1.0)
    assert rep.undefined
    assert math.isnan(rep.p_d)


def test_tfr_counts_per_vap_second():
    vaps = VapTable({1: ((0.0, 2.0),)})
    clock = np.arange(0.0, 2.05, 0.1)
    slices = []
    for i, t in enumerate(clock):
        if i == 10:
            slices.append(_slice(t, []))  # one break
        else:
            slices.append(_slice(t, [_pair(1, 1 if i < 15 else 2)]))
    rep = compute_metrics(slices, vaps, clock, recording_duration=2.1)
    # one break plus one id swap over 2 s of activity
    assert rep.tfr == pytest.approx(2 / 2.0)


def test_evaluate_submission_self_evaluation_exact():
    duration = 2.0
    arr = static_trajectory(identity_pose(), duration)
    src = static_trajectory(Pose(np.array([2.0, 1.0, 0.0]), np.eye(3)), duration)
    clock = arr.timestamps
    vaps = VapTable({"s1": ((clock[24], clock[120]),)})
    truth_at = ground_truth_doas({"s1": src}, arr)
    frames = {}
    for t in clock:
        if vaps.active_sources(t):
            frames[float(t)] = ((1, truth_at(t)["s1"]),)
    sub = Submission(frames)
    rep = evaluate_submission({"s1": src}, arr, vaps, sub, clock, duration,
                              align=False)
    assert rep.p_d == 1.0
    assert rep.mean_azimuth_error_deg == 0.0
    assert rep.far_recording == 0.0
    assert rep.track_latency_s == 0.0
    assert rep.tfr == 0.0
    for series in rep.ospa.values():
        assert np.all(series.values == 0.0)


def test_evaluate_submission_samples_each_trajectory_once_per_call(monkeypatch):
    from doatrack import evaluate
    original = evaluate.sample_trajectory
    calls = []

    def counting(traj, times):
        calls.append(traj)
        return original(traj, times)

    monkeypatch.setattr(evaluate, "sample_trajectory", counting)
    counts = []
    for duration in (1.0, 4.0):
        arr = static_trajectory(identity_pose(), duration)
        src = static_trajectory(Pose(np.array([2.0, 1.0, 0.0]), np.eye(3)), duration)
        vaps = VapTable({"s1": ((0.2, 0.5), (0.6, duration - 0.2))})
        calls.clear()
        evaluate_submission({"s1": src}, arr, vaps, Submission({}), arr.timestamps, duration)
        counts.append(len(calls))
    # the VAP boundaries of source and array, then source and array on the clock
    assert counts == [4, 4]


def test_ospa_series_cardinality_gap():
    arr = static_trajectory(identity_pose(), 1.0)
    src = static_trajectory(Pose(np.array([2.0, 0.0, 0.0]), np.eye(3)), 1.0)
    clock = arr.timestamps
    vaps = VapTable({"s1": ((0.0, 1.0),)})
    truth_at = ground_truth_doas({"s1": src}, arr)
    truths = [{n: d for n, d in truth_at(t).items() if n in vaps.active_sources(t)}
              for t in clock]
    series = ospa_series(truths, Submission({}), clock, OspaParams(1.0, 30.0))
    assert np.all(series.values == 30.0)
    assert series.mean == pytest.approx(30.0)

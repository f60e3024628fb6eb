import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doatrack.assignment import gated_assignment
from doatrack.evaluate import (OspaParams, Submission, VapTable, align_vaps,
                               angular_errors, compute_metrics, detect_fragmentation,
                               evaluate_submission, gate_and_associate,
                               ground_truth_doas, ospa, ospa_series)
from doatrack.geometry import (Doa, Pose, identity_pose, static_trajectory,
                               wrap_angle)
from doatrack.simulate import SourceConfig

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
    d_az, d_el = angular_errors(D(170), D(90), D(-170), D(90))
    assert math.degrees(d_az) == pytest.approx(-20.0)
    d_az, _ = angular_errors(D(-170), D(90), D(170), D(90))
    assert math.degrees(d_az) == pytest.approx(20.0)
    _, d_el = angular_errors(0.0, D(80), 0.0, D(100))
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


def _associate(truths_deg, rows_deg, gate_deg=30.0):
    """One tick: ({source: row}, unpaired rows, unpaired sources), all as indices."""
    d_az, _ = angular_errors(np.radians(truths_deg)[:, None], 0.0, np.radians(rows_deg), 0.0)
    assigned = gate_and_associate(np.abs(np.degrees(d_az)), np.ones((len(truths_deg), 1), bool),
                                  np.zeros(len(rows_deg), int), gate_deg)[:, 0]
    pairs = {s: int(r) for s, r in enumerate(assigned) if r >= 0}
    false = tuple(r for r in range(len(rows_deg)) if r not in pairs.values())
    missed = tuple(s for s in range(len(truths_deg)) if s not in pairs)
    return pairs, false, missed


def test_gate_and_associate_inside_gate():
    pairs, false, missed = _associate([0.0], [10.0])
    assert pairs == {0: 0}
    assert false == () and missed == ()


def test_gate_and_associate_rejects_over_gate():
    pairs, false, missed = _associate([0.0], [35.0])
    assert pairs == {}
    assert false == (0,)
    assert missed == (0,)


def test_gate_boundary_inclusive():
    pairs, _, _ = _associate([0.0], [30.0])
    assert len(pairs) == 1


def test_association_is_globally_optimal():
    # row 0 is closest to source 0, but total cost favours the cross pairing
    pairs, _, _ = _associate([0.0, 8.0], [4.0, -3.0])
    assert pairs == {0: 1, 1: 0}


def test_extra_estimates_are_false_alarms():
    pairs, false, _ = _associate([0.0], [2.0, 5.0, 170.0])
    assert len(pairs) == 1
    assert set(false) == {1, 2}


def test_gate_and_associate_pairs_every_tick_of_a_recording():
    # tick 0: two sources, one row; tick 1: none active; tick 2: one source, two rows
    active = np.array([[True, False, True], [True, False, False]])
    ticks = np.array([0, 1, 2, 2])
    cost = np.array([[20.0, 1.0, 12.0, 3.0], [5.0, 1.0, 1.0, 1.0]])
    assigned = gate_and_associate(cost, active, ticks, 30.0)
    assert assigned.tolist() == [[-1, -1, 3], [0, -1, -1]]


def test_vap_table_validation():
    with pytest.raises(ValueError):
        VapTable({1: ((1.0, 0.5),)})
    with pytest.raises(ValueError):
        VapTable({1: ((0.0, 1.0), (0.5, 2.0))})
    table = VapTable({1: ((0.0, 1.0), (2.0, 3.0))})
    assert table.active_sources(0.5) == [1]
    assert table.active_sources(1.5) == []
    assert table.vap_index([2.5]).tolist() == [[1]]
    assert table.total_duration() == pytest.approx(2.0)


@pytest.mark.parametrize("spans", [((math.nan, 1.0),), ((0.0, math.nan),),
                                   ((0.0, 1.0), (math.nan, 2.0))])
def test_vap_checks_reject_a_nan_bound(spans):
    with pytest.raises(ValueError, match="source 1: VAP bound is NaN"):
        VapTable({1: spans})
    with pytest.raises(ValueError, match="VAP bound is NaN"):
        SourceConfig(static_trajectory(identity_pose(), 1.0), spans)
    # infinite bounds stay legal
    assert VapTable({1: ((-math.inf, 0.0), (1.0, math.inf))}).intervals[1][1] == (1.0, math.inf)


def test_align_vaps_shifts_by_propagation():
    src = static_trajectory(Pose(np.array([3.43, 0, 0]), np.eye(3)), 5.0)
    arr = static_trajectory(identity_pose(), 5.0)
    vaps = VapTable({1: ((1.0, 2.0),)})
    shifted = align_vaps(vaps, {1: src}, arr)
    assert shifted.intervals[1][0][0] == pytest.approx(1.01)
    assert shifted.intervals[1][0][1] == pytest.approx(2.01)


def test_vap_index_is_inclusive_and_first_vap_wins_where_two_touch():
    table = VapTable({"b": ((0.0, 0.1), (0.2, 0.3)), "a": ((0.1, 0.2), (0.2, 0.4))})
    clock = np.array([0.0, 0.1, 0.15, 0.2, 0.3, 0.35, 0.5])
    assert table.vap_index(clock).tolist() == [[-1, 0, 0, 0, 1, 1, -1],
                                               [0, 0, -1, 1, 1, -1, -1]]


def _metrics(vaps, clock, ids, recording_duration, false=None, d_az_deg=0.0):
    """compute_metrics of a hand-made association: `ids` holds one estimate id
    per source (in `vaps.sources` order) and tick, 0 where none; `false` the
    unpaired rows per tick; every association is off by `d_az_deg`."""
    ids = np.reshape(ids, (len(vaps.intervals), len(clock)))
    n_valid = int((ids > 0).sum())
    errors = np.array([np.full(n_valid, d_az_deg), np.zeros(n_valid)])
    false = np.zeros(len(clock), int) if false is None else np.array(false)
    return compute_metrics(ids, vaps.vap_index(clock), false, errors, vaps, clock,
                           recording_duration)


def test_detect_fragmentation_break_and_swap():
    vaps = VapTable({1: ((0.0, 1.0),)})
    clock = [0.0, 0.1, 0.2, 0.3, 0.4]
    ids = [[1, 1, 0, 2, 3]]  # a break at 0.2, a swap at 0.4
    breaks, swaps = detect_fragmentation(np.array(ids), vaps.vap_index(clock))
    assert breaks.sum() == 1 and breaks[2] == 1
    assert swaps.sum() == 1 and swaps[4] == 1


def test_detect_fragmentation_ignores_vap_boundaries():
    # losing the track between two distinct VAPs is not a break
    vaps = VapTable({1: ((0.0, 0.15), (0.35, 0.5))})
    clock = [0.0, 0.1, 0.2, 0.4]
    breaks, swaps = detect_fragmentation(np.array([[1, 1, 0, 2]]), vaps.vap_index(clock))
    assert breaks.sum() == 0 and swaps.sum() == 0


def test_compute_metrics_perfect_run():
    vaps = VapTable({1: ((0.0, 0.4),)})
    clock = np.arange(0.0, 0.5, 0.1)
    rep = _metrics(vaps, clock, [[1 if t <= 0.4 else 0 for t in clock]],
                   recording_duration=0.5)
    assert rep.p_d == 1.0
    assert rep.far_recording == 0.0 and rep.far_vap == 0.0
    assert rep.track_latency_s == 0.0
    assert rep.tfr == 0.0
    assert rep.mean_azimuth_error_deg == 0.0
    assert not rep.undefined


def test_compute_metrics_bias_fixture():
    vaps = VapTable({1: ((0.0, 0.4),)})
    clock = np.arange(0.0, 0.5, 0.1)
    rep = _metrics(vaps, clock, [[1] * len(clock)], recording_duration=0.5,
                   d_az_deg=abs(math.degrees(D(5.0))))
    assert rep.mean_azimuth_error_deg == pytest.approx(5.0, abs=1e-9)
    assert rep.std_azimuth_error_deg == pytest.approx(0.0, abs=1e-9)


def test_compute_metrics_latency_and_misses():
    vaps = VapTable({1: ((0.0, 1.0),)})
    clock = np.arange(0.0, 1.05, 0.1)
    rep = _metrics(vaps, clock, [[0 if t < 0.45 else 1 for t in clock]],
                   recording_duration=1.1)
    assert rep.track_latency_s == pytest.approx(0.5)
    assert rep.p_d == pytest.approx(6 / 11)
    assert rep.missed_count == 5


def test_compute_metrics_false_alarm_rates():
    vaps = VapTable({1: ((0.0, 0.5),)})
    clock = np.arange(0.0, 1.05, 0.1)
    # 3 false alarms inside the VAP, 2 outside
    ids, false = [], []
    for i, t in enumerate(clock):
        in_vap = t <= 0.5
        false.append(1 if i in (0, 2, 4, 7, 9) else 0)
        ids.append(1 if i in (0, 2, 4) or (i not in (7, 9) and in_vap) else 0)
    rep = _metrics(vaps, clock, [ids], recording_duration=2.0, false=false)
    assert rep.far_recording == pytest.approx(5 / 2.0)
    assert rep.far_vap == pytest.approx(3 / 0.5)


def test_compute_metrics_undetected_vap():
    vaps = VapTable({1: ((0.0, 0.3),), 2: ((0.0, 0.3),)})
    clock = np.arange(0.0, 0.35, 0.1)
    rep = _metrics(vaps, clock, [[1] * len(clock), [0] * len(clock)],
                   recording_duration=0.4)
    assert rep.undetected_vaps == 1
    assert rep.track_latency_s == 0.0  # never-detected VAPs excluded


def test_compute_metrics_undefined_without_vaps():
    rep = _metrics(VapTable({}), np.array([]), [], recording_duration=1.0)
    assert rep.undefined
    assert math.isnan(rep.p_d)


def test_tfr_counts_per_vap_second():
    vaps = VapTable({1: ((0.0, 2.0),)})
    clock = np.arange(0.0, 2.05, 0.1)
    # one break at tick 10, one id swap at tick 15
    ids = [0 if i == 10 else (1 if i < 15 else 2) for i in range(len(clock))]
    rep = _metrics(vaps, clock, [ids], recording_duration=2.1)
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


# an order must be finite and >= 1, a cutoff and a gate finite and > 0
UNSCORABLE = [-5.0, 0.0, math.nan, math.inf]


@pytest.mark.parametrize("value", UNSCORABLE)
def test_ospa_params_reject_an_order_or_cutoff_that_cannot_score(value):
    with pytest.raises(ValueError, match="OSPA order p must be"):
        OspaParams(value, 30.0)
    with pytest.raises(ValueError, match="OSPA cutoff must be"):
        OspaParams(1.0, value)


@pytest.mark.parametrize("gate", UNSCORABLE)
def test_a_gate_that_cannot_associate_is_rejected(gate):
    with pytest.raises(ValueError, match="gate must be"):
        gate_and_associate(np.zeros((1, 1)), np.ones((1, 1), bool), np.zeros(1, int), gate)
    # a ground-truth submission, which would score p_d 0 at such a gate
    duration = 2.0
    arr = static_trajectory(identity_pose(), duration)
    src = static_trajectory(Pose(np.array([2.0, 1.0, 0.0]), np.eye(3)), duration)
    clock = arr.timestamps
    vaps = VapTable({"s1": ((clock[24], clock[120]),)})
    truth_at = ground_truth_doas({"s1": src}, arr)
    sub = Submission({float(t): ((1, truth_at(t)["s1"]),) for t in clock[24:121]})
    assert evaluate_submission({"s1": src}, arr, vaps, sub, clock, duration,
                               align=False).p_d == 1.0
    with pytest.raises(ValueError, match="gate must be"):
        evaluate_submission({"s1": src}, arr, vaps, sub, clock, duration, gate_deg=gate,
                            align=False)


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


def test_evaluate_submission_builds_its_tick_groups_once_per_call(monkeypatch):
    # association and every OSPA parameter set read the same groups
    from doatrack import evaluate
    original = evaluate._shape_groups
    calls = []

    def counting(active, ticks):
        calls.append(len(ticks))
        return original(active, ticks)

    monkeypatch.setattr(evaluate, "_shape_groups", counting)
    duration = 2.0
    arr = static_trajectory(identity_pose(), duration)
    sources = {"s1": static_trajectory(Pose(np.array([2.0, 1.0, 0.0]), np.eye(3)), duration),
               "s2": static_trajectory(Pose(np.array([-1.0, 2.0, 0.0]), np.eye(3)), duration)}
    clock = arr.timestamps
    vaps = VapTable({"s1": ((0.2, 1.5),), "s2": ((0.6, 1.8),)})
    truth_at = ground_truth_doas(sources, arr)
    # one, two or three rows a tick: the truth, then a clutter row every third tick
    sub = Submission({float(t): ((1, truth_at(t)["s1"]),) + ((2, Doa(D(-100))),) * (k % 3 == 0)
                      for k, t in enumerate(clock[12:200])})
    for ospa_params in ((), (OspaParams(1.0),), (OspaParams(1.0), OspaParams(2.0, 20.0),
                                                  OspaParams(5.0))):
        calls.clear()
        report = evaluate_submission(sources, arr, vaps, sub, clock, duration,
                                     ospa_params=ospa_params)
        assert calls == [len(sub.times)], ospa_params
        assert len(report.ospa) == len(ospa_params)


def test_evaluate_submission_calls_no_scipy_solver_without_near_ties(monkeypatch):
    from doatrack import assignment
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return original(cost)

    original = assignment.linear_sum_assignment
    monkeypatch.setattr(assignment, "linear_sum_assignment", counting)
    duration = 1.0
    arr = static_trajectory(identity_pose(), duration)
    sources = {n: static_trajectory(Pose(np.array([2 * math.cos(D(az)), 2 * math.sin(D(az)),
                                                   0.0]), np.eye(3)), duration)
               for n, az in (("s1", 10.0), ("s2", -50.0))}
    clock = arr.timestamps
    vaps = VapTable({"s1": ((0.0, duration),), "s2": ((0.25, 0.75),)})
    # rows 2 and 3 deg off the sources and one clutter row at 150 deg: every
    # tick has one best pairing, clear of the others by at least a degree
    frames = {float(t): ((1, Doa(D(12.0))), (2, Doa(D(-47.0))), (3, Doa(D(150.0))))
              for t in clock[::2]}
    report = evaluate_submission(sources, arr, vaps, Submission(frames), clock, duration,
                                 ospa_params=(OspaParams(1.0), OspaParams(5.0)))
    assert calls == []
    assert report.valid_count > 0 and report.false_count > 0


def test_tie_with_no_admissible_pair_calls_no_scipy_solver(monkeypatch):
    from doatrack import assignment
    # tick 0: one row beyond the gate of both sources, so both clipped costs are
    # gate + 1 and tie; tick 1: the row tied 5 deg from both sources
    cost = np.array([[50.0, 5.0], [60.0, 5.0]])
    active = np.ones((2, 2), dtype=bool)
    ticks = np.array([0, 1])
    expected = np.full(active.shape, -1)
    for t in range(2):
        for i, j in gated_assignment(cost[:, ticks == t], 30.0):
            expected[i, t] = np.flatnonzero(ticks == t)[j]
    calls = []

    def counting(c):
        calls.append(c.copy())
        return original(c)

    original = assignment.linear_sum_assignment
    monkeypatch.setattr(assignment, "linear_sum_assignment", counting)
    assert np.array_equal(gate_and_associate(cost, active, ticks, 30.0), expected)
    assert expected[:, 0].tolist() == [-1, -1] and sorted(expected[:, 1]) == [-1, 1]
    # only the tie inside the gate reaches scipy
    assert len(calls) == 1 and np.all(calls[0][:, 0] == 5.0)


def _per_tick(truth_az, active, azimuths, ticks, gate_deg, params):
    """Association by `gated_assignment` and OSPA by enumeration, tick by tick."""
    cost = np.abs(np.degrees(wrap_angle(truth_az[:, ticks] - azimuths)))
    assigned = np.full(active.shape, -1)
    values = np.zeros(active.shape[1])
    for t in range(active.shape[1]):
        sources, rows = np.flatnonzero(active[:, t]), np.flatnonzero(ticks == t)
        for i, j in gated_assignment(cost[np.ix_(sources, rows)], gate_deg):
            assigned[sources[i], t] = rows[j]
        values[t] = brute_force_ospa(truth_az[sources, t], azimuths[rows], params.p,
                                     params.cutoff_deg)
    return cost, assigned, values


def _recording(case, rng):
    """(truth azimuths (S, T), active (S, T), row azimuths, row ticks) in radians."""
    n_ticks = 12
    if case == "more maps than the batched cap":  # 4 sources, 7 rows: 840 maps
        truth = rng.uniform(-np.pi, np.pi, (4, n_ticks))
        active = np.ones(truth.shape, dtype=bool)
        ticks = np.repeat(np.arange(n_ticks), 7)
        near = truth[rng.integers(0, 4, len(ticks)), ticks]
        return truth, active, near + np.radians(rng.uniform(-40.0, 40.0, len(ticks))), ticks
    if case == "exact ties":  # two sources at one azimuth, two rows at one azimuth
        truth = np.repeat(rng.uniform(-np.pi, np.pi, (1, n_ticks)), 3, axis=0)
        truth[2] += np.radians(20.0)
        active = rng.random(truth.shape) < 0.8
        ticks = np.repeat(np.arange(n_ticks), 3)
        offsets = np.repeat(np.radians(rng.uniform(-10.0, 10.0, n_ticks)), 3)
        offsets[2::3] = np.radians(25.0)
        return truth, active, truth[0, ticks] + offsets, ticks
    # more sources than rows: 5 sources, 0 to 3 rows a tick
    truth = rng.uniform(-np.pi, np.pi, (5, n_ticks))
    active = rng.random(truth.shape) < 0.9
    ticks = np.repeat(np.arange(n_ticks), rng.integers(0, 4, n_ticks))
    near = truth[rng.integers(0, 5, len(ticks)), ticks]
    return truth, active, near + np.radians(rng.uniform(-35.0, 35.0, len(ticks))), ticks


@pytest.mark.parametrize("case", ["more maps than the batched cap", "exact ties",
                                  "more sources than rows"])
@pytest.mark.parametrize("p", [1.0, 5.0])
def test_batched_ticks_match_per_tick_solvers(case, p):
    rng = np.random.default_rng(11)
    params = OspaParams(p, 30.0)
    for _ in range(5):
        truth, active, azimuths, ticks = _recording(case, rng)
        azimuths = wrap_angle(azimuths)
        cost, assigned, values = _per_tick(truth, active, azimuths, ticks, 30.0, params)
        assert np.array_equal(gate_and_associate(cost, active, ticks, 30.0), assigned)
        series = ospa_series(cost, active, ticks, params)
        np.testing.assert_allclose(series.values, values, rtol=0, atol=1e-12)


def test_ospa_series_cardinality_gap():
    clock = static_trajectory(identity_pose(), 1.0).timestamps
    vaps = VapTable({"s1": ((0.0, 1.0),)})
    series = ospa_series(np.zeros((1, 0)), vaps.vap_index(clock) >= 0, np.zeros(0, int),
                         OspaParams(1.0, 30.0))
    assert np.all(series.values == 30.0)
    assert series.mean == pytest.approx(30.0)


def test_submission_rows_sorted_by_time_and_stable_within_a_tick():
    sub = Submission({0.5: ((3, Doa(D(10))), (1, Doa(D(-10)))), 0.25: ((2, Doa(D(190))),)})
    assert sub.times.tolist() == [0.25, 0.5, 0.5]
    assert sub.ids.tolist() == [2, 3, 1]
    assert sub.azimuths[0] == Doa(D(190)).azimuth  # wrapped as Doa wraps it
    assert not sub.times.flags.writeable
    assert sub.timestamps == [0.25, 0.5] and sub.max_id == 3
    assert sub.at(0.5) == ((3, Doa(D(10))), (1, Doa(D(-10))))
    assert sub.at(0.75) == ()
    assert sub.frames == {0.25: ((2, Doa(D(190))),), 0.5: sub.at(0.5)}
    rows = Submission.from_rows([0.5, 0.25, 0.5], [3, 2, 1], [D(10), D(190), D(-10)])
    assert rows.frames == sub.frames
    with pytest.raises(ValueError):
        Submission.from_rows([0.0], [0], [0.0])


@pytest.mark.parametrize("bad_id", [1.7, 3.9999, 0.5, math.nan, math.inf])
def test_submission_rejects_an_id_that_is_not_a_whole_number(bad_id):
    # a truncated id would merge the rows of two tracks under one id
    with pytest.raises(ValueError, match=f"source id {bad_id:g} is not a whole number"):
        Submission.from_rows([0.0, 0.1], [1, bad_id], [0.1, 0.2])
    with pytest.raises(ValueError, match="not a whole number"):
        Submission({0.0: ((bad_id, Doa(0.1)),)})
    assert Submission.from_rows([0.0, 0.1], [2.0, 3], [0.1, 0.2]).ids.tolist() == [2, 3]


def test_submission_keeps_integer_ids_exact():
    # a float64 cast would read 2^53 + 1 as 2^53 and 2^62 + 1 as 2^62
    big = [2 ** 53 + 1, 2 ** 62 + 1, 2 ** 63 - 1]
    assert Submission.from_rows([0.0] * 3, big, [0.1] * 3).ids.tolist() == big
    assert Submission({0.0: tuple((k, Doa(0.1)) for k in big)}).ids.tolist() == big
    for too_big in (2 ** 63, np.uint64(2 ** 63), 2 ** 64):
        with pytest.raises(ValueError, match="not a whole number in"):
            Submission.from_rows([0.0], [too_big], [0.1])


def test_submission_rows_map_to_the_nearest_clock_tick():
    clock = np.arange(5) / 120.0
    sub = Submission.from_rows([0.008333, 2 / 120 + 9e-7, 0.033334], [1, 1, 2], [0.0] * 3)
    assert sub.ticks(clock).tolist() == [1, 2, 4]
    for t in (0.0125, 0.008333 - 1.1e-6, 0.04, -0.001, float("nan")):
        with pytest.raises(ValueError, match="not on the evaluation clock"):
            Submission.from_rows([t], [1], [0.0]).ticks(clock)
    assert Submission().ticks(clock).tolist() == []


def test_two_rows_of_one_id_at_one_clock_tick_are_rejected():
    clock = np.arange(5) / 120.0
    assert Submission.from_rows([0.008333, 0.008334], [1, 2], [0.0] * 2).ticks(clock).tolist() \
        == [1, 1]
    for times in ([0.008333, 0.008334], [0.008333, 0.008333]):
        with pytest.raises(ValueError, match="id 1 has two rows at the clock tick"):
            Submission.from_rows(times + [0.025], [1, 1, 1], [0.0] * 3).ticks(clock)

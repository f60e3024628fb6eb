"""Recording-level evaluation against the per-tick code it replaced.

The `ref_*` functions below are the tick-by-tick association, measures and
OSPA series: per-tick dicts of truth `Doa`s, one `AssociationSlice` of
`ValidPair`s per tick and a scalar cost loop. `evaluate_submission` scores
the same recording from one array of angular errors; its reports must
agree with theirs, integer fields exactly and float fields within ATOL.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from doatrack.assignment import gated_assignment, min_cost_assignment
from doatrack.evaluate import (MetricsReport, OspaParams, OspaSeries, Submission, VapTable,
                               align_vaps, evaluate_submission, ground_truth_doas)
from doatrack.geometry import (GROUND_TRUTH_RATE_HZ, Doa, Pose, identity_pose,
                               static_trajectory, wrap_angle)

ATOL = 1e-12


def ref_angular_errors(truth: Doa, est: Doa):
    d_az = math.fmod(truth.azimuth - est.azimuth + math.pi, 2 * math.pi)
    if d_az < 0:
        d_az += 2 * math.pi
    d_az -= math.pi
    d_el = truth.elevation - est.elevation
    return d_az, d_el


def ref_vap_at(vaps, n, t):
    for i, (a, b) in enumerate(vaps.intervals[n]):
        if a <= t <= b:
            return i
    return None


@dataclass(frozen=True)
class ValidPair:
    source: int
    estimate_id: int
    d_azimuth: float  # rad
    d_elevation: float  # rad


@dataclass(frozen=True)
class AssociationSlice:
    timestamp: float
    pairs: tuple  # of ValidPair
    false_ids: tuple
    missed_sources: tuple


def ref_gate_and_associate(truth_doas, estimates, gate_deg, timestamp=0.0):
    sources = sorted(truth_doas)
    estimates = list(estimates)
    if not sources or not estimates:
        return AssociationSlice(timestamp, (), tuple(k for k, _ in estimates), tuple(sources))
    cost = np.zeros((len(sources), len(estimates)))
    errors = {}
    for i, n in enumerate(sources):
        for j, (k, d) in enumerate(estimates):
            d_az, d_el = ref_angular_errors(truth_doas[n], d)
            errors[i, j] = (d_az, d_el)
            cost[i, j] = abs(math.degrees(d_az))
    pairs = gated_assignment(cost, gate_deg)
    valid = tuple(
        ValidPair(sources[i], estimates[j][0], errors[i, j][0], errors[i, j][1])
        for i, j in pairs
    )
    paired_sources = {p.source for p in valid}
    paired_est = {j for _, j in pairs}
    false_ids = tuple(estimates[j][0] for j in range(len(estimates)) if j not in paired_est)
    missed = tuple(n for n in sources if n not in paired_sources)
    return AssociationSlice(timestamp, valid, false_ids, missed)


def ref_detect_fragmentation(assoc_sequence, vaps):
    breaks = np.zeros(len(assoc_sequence), dtype=int)
    swaps = np.zeros(len(assoc_sequence), dtype=int)
    prev_assoc: dict = {}
    prev_t = None
    for i, sl in enumerate(assoc_sequence):
        current = {p.source: p.estimate_id for p in sl.pairs}
        if prev_t is not None:
            for n, prev_id in prev_assoc.items():
                if n not in vaps.intervals:
                    continue
                vap_now = ref_vap_at(vaps, n, sl.timestamp)
                vap_prev = ref_vap_at(vaps, n, prev_t)
                same_vap = vap_now is not None and vap_now == vap_prev
                if not same_vap:
                    continue
                if n not in current:
                    breaks[i] += 1
                elif current[n] != prev_id:
                    swaps[i] += 1
        prev_assoc = current
        prev_t = sl.timestamp
    return breaks, swaps


def ref_ospa(truth_azimuths, est_azimuths, params):
    a = [float(x) for x in truth_azimuths]
    b = [float(x) for x in est_azimuths]
    if len(a) > len(b):
        a, b = b, a
    if not b:
        return 0.0
    c = params.cutoff_deg
    p = params.p
    if not a:
        return c
    cost = np.empty((len(a), len(b)))
    for i, az_a in enumerate(a):
        for j, az_b in enumerate(b):
            err = abs(math.degrees(wrap_angle(az_a - az_b)))
            cost[i, j] = min(c, err) ** p
    _, best = min_cost_assignment(cost)
    total = best + (len(b) - len(a)) * c**p
    return float(min(c, (total / len(b)) ** (1.0 / p)))


def ref_ospa_series(truths, submission, clock, params):
    values = np.array([ref_ospa([d.azimuth for d in truth.values()],
                                [d.azimuth for _, d in submission.at(t)], params)
                       for truth, t in zip(truths, clock, strict=True)], dtype=float)
    mean = float(values.mean()) if len(values) else 0.0
    std = float(values.std()) if len(values) else 0.0
    return OspaSeries(params, values, mean, std)


def ref_compute_metrics(assoc_sequence, vaps, clock, recording_duration):
    clock = np.asarray(clock, dtype=float)
    total_vap = vaps.total_duration()
    valid_pairs = [p for sl in assoc_sequence for p in sl.pairs]
    false_count = sum(len(sl.false_ids) for sl in assoc_sequence)
    missed_count = sum(len(sl.missed_sources) for sl in assoc_sequence)

    if total_vap <= 0:
        return MetricsReport(*([math.nan] * 4), math.nan, math.nan, math.nan,
                             math.nan, 0, math.nan, len(valid_pairs), false_count,
                             missed_count, undefined=True)

    abs_az = np.array([abs(math.degrees(p.d_azimuth)) for p in valid_pairs])
    abs_el = np.array([abs(math.degrees(p.d_elevation)) for p in valid_pairs])
    mean_az = float(abs_az.mean()) if abs_az.size else 0.0
    std_az = float(abs_az.std()) if abs_az.size else 0.0
    mean_el = float(abs_el.mean()) if abs_el.size else 0.0
    std_el = float(abs_el.std()) if abs_el.size else 0.0

    dt = float(np.median(np.diff(clock))) if len(clock) > 1 else 1.0 / GROUND_TRUTH_RATE_HZ
    per_vap_count: dict = {}
    per_vap_valid: dict = {}
    first_valid: dict = {}
    for sl, t in zip(assoc_sequence, clock):
        assoc_sources = {p.source for p in sl.pairs}
        for n in vaps.intervals:
            vap_idx = ref_vap_at(vaps, n, t)
            if vap_idx is None:
                continue
            key = (n, vap_idx)
            per_vap_count[key] = per_vap_count.get(key, 0) + 1
            if n in assoc_sources:
                per_vap_valid[key] = per_vap_valid.get(key, 0) + 1
                if key not in first_valid:
                    first_valid[key] = t

    vap_keys = [(n, i) for n in vaps.intervals for i in range(len(vaps.intervals[n]))
                if (n, i) in per_vap_count]
    total_stamps = sum(per_vap_count.values())
    p_d = (sum(per_vap_valid.values()) / total_stamps) if total_stamps else math.nan

    latencies = []
    undetected = 0
    for key in vap_keys:
        n, i = key
        start = vaps.intervals[n][i][0]
        if key in first_valid:
            latencies.append(max(0.0, first_valid[key] - start))
        else:
            undetected += 1
    track_latency = float(np.mean(latencies)) if latencies else math.nan

    far_recording = false_count / recording_duration if recording_duration > 0 else math.nan
    false_in_vap = sum(
        len(sl.false_ids) for sl, t in zip(assoc_sequence, clock)
        if vaps.active_sources(t)
    )
    far_vap = false_in_vap / total_vap

    breaks, swaps = ref_detect_fragmentation(assoc_sequence, vaps)
    tfr = float(breaks.sum() + swaps.sum()) / total_vap

    per_vap_stats = {
        key: (per_vap_valid.get(key, 0), per_vap_valid.get(key, 0) * dt)
        for key in vap_keys
    }
    return MetricsReport(
        mean_azimuth_error_deg=mean_az, std_azimuth_error_deg=std_az,
        mean_elevation_error_deg=mean_el, std_elevation_error_deg=std_el,
        p_d=p_d, far_recording=far_recording, far_vap=far_vap,
        track_latency_s=track_latency, undetected_vaps=undetected, tfr=tfr,
        valid_count=len(valid_pairs), false_count=false_count,
        missed_count=missed_count, per_vap_valid=per_vap_stats,
    )


def ref_evaluate(source_trajectories, array_trajectory, vaps, submission, clock,
                 recording_duration, gate_deg, ospa_params, align):
    aligned = align_vaps(vaps, source_trajectories, array_trajectory) if align else vaps
    truth_at = ground_truth_doas(source_trajectories, array_trajectory)
    truths = [{n: d for n, d in truth_at(t).items() if n in aligned.active_sources(t)}
              for t in clock]
    slices = [ref_gate_and_associate(truth, submission.at(t), gate_deg, t)
              for truth, t in zip(truths, clock)]
    report = ref_compute_metrics(slices, aligned, clock, recording_duration)
    for params in ospa_params:
        report.ospa[(params.p, params.cutoff_deg)] = ref_ospa_series(truths, submission,
                                                                     clock, params)
    return report


def _assert_same_report(new, ref):
    a, b = new.to_dict(), ref.to_dict()
    assert a.keys() == b.keys()
    for key, value in b.items():
        if isinstance(value, float):
            assert (math.isnan(value) and math.isnan(a[key])) or abs(a[key] - value) <= ATOL, key
        else:
            assert a[key] == value and type(a[key]) is type(value), key
    assert new.per_vap_valid.keys() == ref.per_vap_valid.keys()
    for key, (count, seconds) in ref.per_vap_valid.items():
        assert new.per_vap_valid[key][0] == count
        assert abs(new.per_vap_valid[key][1] - seconds) <= ATOL
    for key, series in ref.ospa.items():
        assert np.max(np.abs(new.ospa[key].values - series.values), initial=0.0) <= ATOL


# azimuth offsets of a row from a source's truth: exact repeats, the gate
# and either side of it, and the far side of the circle
OFFSETS_DEG = st.one_of(st.sampled_from([0.0, 10.0, -10.0, 30.0, -30.0, 31.0, 35.0, 180.0]),
                        st.floats(-180.0, 180.0))


@st.composite
def recordings(draw):
    n_ticks = draw(st.integers(1, 24))
    clock = np.arange(n_ticks + 1) / GROUND_TRUTH_RATE_HZ
    duration = float(clock[-1])
    names = draw(st.permutations(["s1", "s2", "s3"]))[:draw(st.integers(1, 3))]
    sources, intervals = {}, {}
    for n in names:
        # repeated positions give sources equal truths, and so exact ties
        az = draw(st.one_of(st.sampled_from([0.0, 2.0]), st.floats(-math.pi, math.pi)))
        r = draw(st.one_of(st.just(2.0), st.floats(1.0, 3.0)))
        z = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
        position = np.array([r * math.cos(az), r * math.sin(az), z])
        sources[n] = static_trajectory(Pose(position, np.eye(3)), duration)
        # VAPs with bounds on clock ticks; a gap of 0 makes two VAPs touch
        spans, tick = [], draw(st.integers(0, n_ticks))
        while tick < n_ticks and len(spans) < 4:
            end = draw(st.integers(tick + 1, n_ticks))
            spans.append((float(clock[tick]), float(clock[end])))
            tick = end + draw(st.integers(0, 3))
        intervals[n] = tuple(spans)
    array = static_trajectory(identity_pose(), duration)
    truth_at = ground_truth_doas(sources, array)
    frames, costs = {}, []
    for t in clock:
        truth = truth_at(t)
        rows = []
        for k in draw(st.lists(st.integers(1, 5), max_size=4, unique=True)):
            near = truth[draw(st.sampled_from(names))]
            d = Doa(near.azimuth + math.radians(draw(OFFSETS_DEG)),
                    draw(st.floats(0.0, math.pi)))
            rows.append((k, d))
            costs += [abs(math.degrees(ref_angular_errors(doa, d)[0])) for doa in truth.values()]
        if rows:
            frames[float(t)] = tuple(rows)
    # a gate equal to one of the costs puts that pair exactly on it; a gate
    # must be > 0, so a zero cost is not one
    costs = [c for c in costs if c > 0]
    gate = draw(st.sampled_from(costs)) if costs and draw(st.booleans()) else 30.0
    p = draw(st.sampled_from([1.0, 2.0, 5.0]))
    return dict(source_trajectories=sources, array_trajectory=array,
                vaps=VapTable(intervals), submission=Submission(frames), clock=clock,
                recording_duration=duration, gate_deg=gate,
                ospa_params=(OspaParams(1.0, 30.0), OspaParams(p, 10.0)),
                align=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(recording=recordings())
def test_evaluate_submission_matches_per_tick_reference(recording):
    _assert_same_report(evaluate_submission(**recording), ref_evaluate(**recording))


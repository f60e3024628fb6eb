"""Evaluation harness: VAP alignment, gating, association, measures, OSPA.

Association uses azimuth error only (in degrees) against a 30 degree gate;
elevation errors are reported for valid pairs but never drive assignment.
All azimuth/elevation values are radians in memory; reported errors and the
OSPA cutoff are degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import gated_assignment, min_cost_assignment
from .geometry import (GROUND_TRUTH_RATE_HZ, SPEED_OF_SOUND, Doa, Trajectory,
                       global_to_local, interpolate_pose, wrap_angle)

DEFAULT_GATE_DEG = 30.0


def angular_errors(truth: Doa, est: Doa):
    """(azimuth error, elevation error) in radians.

    Azimuth is the shortest signed difference across the wrap; elevation is
    a plain difference (inclination never wraps).
    """
    d_az = math.fmod(truth.azimuth - est.azimuth + math.pi, 2 * math.pi)
    if d_az < 0:
        d_az += 2 * math.pi
    d_az -= math.pi
    d_el = truth.elevation - est.elevation
    return d_az, d_el


@dataclass(frozen=True)
class VapTable:
    """Per-source voice-activity intervals: {source: ((start, end), ...)}."""

    intervals: dict

    def __post_init__(self):
        clean = {}
        for n, spans in self.intervals.items():
            spans = tuple((float(a), float(b)) for a, b in spans)
            for a, b in spans:
                if b <= a:
                    raise ValueError(f"source {n}: VAP end must exceed start")
            for (_, b), (a2, _) in zip(spans, spans[1:]):
                if a2 < b:
                    raise ValueError(f"source {n}: VAPs overlap or are unordered")
            clean[n] = spans
        object.__setattr__(self, "intervals", clean)

    @property
    def sources(self):
        return sorted(self.intervals)

    def active_sources(self, t: float):
        return [n for n, spans in self.intervals.items()
                if any(a <= t <= b for a, b in spans)]

    def vap_at(self, n, t: float):
        """Index of the VAP of source n containing t, or None."""
        for i, (a, b) in enumerate(self.intervals[n]):
            if a <= t <= b:
                return i
        return None

    def total_duration(self) -> float:
        return sum(b - a for spans in self.intervals.values() for a, b in spans)


def align_vaps(vaps: VapTable, source_trajectories: dict, array_trajectory: Trajectory,
               c: float = SPEED_OF_SOUND) -> VapTable:
    """Shift emission-side VAP boundaries by the source-to-array propagation delay."""
    shifted = {}
    for n, spans in vaps.intervals.items():
        traj = source_trajectories[n]
        out = []
        for a, b in spans:
            out.append((a + _propagation_delay(traj, array_trajectory, a, c),
                        b + _propagation_delay(traj, array_trajectory, b, c)))
        shifted[n] = tuple(out)
    return VapTable(shifted)


def _propagation_delay(source_traj: Trajectory, array_traj: Trajectory,
                       t: float, c: float) -> float:
    src = interpolate_pose(source_traj, t).translation
    arr = interpolate_pose(array_traj, t).translation
    return float(np.linalg.norm(src - arr)) / c


@dataclass(frozen=True)
class Submission:
    """Estimates keyed by evaluation timestamp: {t: ((source_id, Doa), ...)}."""

    frames: dict

    def __post_init__(self):
        clean = {}
        for t, entries in self.frames.items():
            clean[float(t)] = tuple((int(k), d) for k, d in entries)
        object.__setattr__(self, "frames", clean)

    @property
    def timestamps(self):
        return sorted(self.frames)

    def at(self, t: float):
        return self.frames.get(float(t), ())

    @property
    def max_id(self) -> int:
        ids = [k for entries in self.frames.values() for k, _ in entries]
        return max(ids) if ids else 0


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


def gate_and_associate(truth_doas: dict, estimates, gate_deg: float = DEFAULT_GATE_DEG,
                       timestamp: float = 0.0) -> AssociationSlice:
    """Gate on azimuth error and assign sources to estimates at minimum total cost.

    `truth_doas` maps active source labels to their ground-truth Doa;
    `estimates` is a sequence of (estimate_id, Doa). Unpaired estimates are
    false; unpaired sources are missed.
    """
    sources = sorted(truth_doas)
    estimates = list(estimates)
    if not sources or not estimates:
        return AssociationSlice(
            timestamp, (),
            tuple(k for k, _ in estimates),
            tuple(sources),
        )
    cost = np.zeros((len(sources), len(estimates)))
    errors = {}
    for i, n in enumerate(sources):
        for j, (k, d) in enumerate(estimates):
            d_az, d_el = angular_errors(truth_doas[n], d)
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


def detect_fragmentation(assoc_sequence, vaps: VapTable):
    """Per-timestamp broken-track and swap counts.

    A break at t: the source was associated at t-1 but not at t, with both
    timestamps inside one VAP. A swap at t: associated at both t-1 and t
    but with different estimate IDs.
    """
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
                vap_now = vaps.vap_at(n, sl.timestamp)
                vap_prev = vaps.vap_at(n, prev_t)
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


@dataclass(frozen=True)
class OspaParams:
    p: float = 1.0
    cutoff_deg: float = 30.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("order p must be >= 1")
        if self.cutoff_deg <= 0:
            raise ValueError("cutoff must be positive")


def ospa(truth_azimuths, est_azimuths, params: OspaParams = OspaParams()) -> float:
    """Optimal subpattern assignment distance between two azimuth sets, degrees.

    Symmetric by construction: the roles are ordered so the smaller set is
    assigned into the larger, with the cardinality gap charged at cutoff.
    """
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
    return float((total / len(b)) ** (1.0 / p))


@dataclass(frozen=True)
class OspaSeries:
    params: OspaParams
    values: np.ndarray
    mean: float
    std: float


def ospa_series(truth_doas_at, submission: Submission, vaps: VapTable, clock,
                params: OspaParams = OspaParams()) -> OspaSeries:
    """OSPA at each evaluation timestamp plus its mean and standard deviation.

    `truth_doas_at(t)` must return {source: Doa} for the sources active at t
    per the (aligned) VAP table.
    """
    values = np.zeros(len(clock))
    for i, t in enumerate(clock):
        truths = truth_doas_at(t)
        active = {n: d for n, d in truths.items() if n in vaps.active_sources(t)}
        truth_az = [d.azimuth for d in active.values()]
        est_az = [d.azimuth for _, d in submission.at(t)]
        values[i] = ospa(truth_az, est_az, params)
    mean = float(values.mean()) if len(values) else 0.0
    std = float(values.std()) if len(values) else 0.0
    return OspaSeries(params, values, mean, std)


@dataclass
class MetricsReport:
    mean_azimuth_error_deg: float
    std_azimuth_error_deg: float
    mean_elevation_error_deg: float
    std_elevation_error_deg: float
    p_d: float
    far_recording: float
    far_vap: float
    track_latency_s: float
    undetected_vaps: int
    tfr: float
    valid_count: int
    false_count: int
    missed_count: int
    per_vap_valid: dict = field(default_factory=dict)  # (source, vap) -> (L_valid, Delta_valid)
    ospa: dict = field(default_factory=dict)  # (p, cutoff) -> OspaSeries
    undefined: bool = False

    def to_dict(self):
        out = {
            "mean_azimuth_error_deg": self.mean_azimuth_error_deg,
            "std_azimuth_error_deg": self.std_azimuth_error_deg,
            "mean_elevation_error_deg": self.mean_elevation_error_deg,
            "std_elevation_error_deg": self.std_elevation_error_deg,
            "p_d": self.p_d,
            "far_recording": self.far_recording,
            "far_vap": self.far_vap,
            "track_latency_s": self.track_latency_s,
            "undetected_vaps": self.undetected_vaps,
            "tfr": self.tfr,
            "valid_count": self.valid_count,
            "false_count": self.false_count,
            "missed_count": self.missed_count,
            "undefined": self.undefined,
        }
        for (p, c), series in self.ospa.items():
            key = f"ospa_p{p:g}_c{c:g}"
            out[f"{key}_mean"] = series.mean
            out[f"{key}_std"] = series.std
        return out


def compute_metrics(assoc_sequence, vaps: VapTable, clock, recording_duration: float,
                    p_d_per_source: bool = False) -> MetricsReport:
    """Aggregate one recording's association slices into the individual measures."""
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

    # per-(source, VAP) completeness and latency
    dt = float(np.median(np.diff(clock))) if len(clock) > 1 else 1.0 / GROUND_TRUTH_RATE_HZ
    per_vap_count: dict = {}
    per_vap_valid: dict = {}
    first_valid: dict = {}
    for sl, t in zip(assoc_sequence, clock):
        assoc_sources = {p.source for p in sl.pairs}
        for n in vaps.intervals:
            vap_idx = vaps.vap_at(n, t)
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
    if p_d_per_source:
        ratios = [per_vap_valid.get(k, 0) / per_vap_count[k] for k in vap_keys]
        p_d = float(np.mean(ratios)) if ratios else math.nan
    else:
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

    breaks, swaps = detect_fragmentation(assoc_sequence, vaps)
    tfr = float(breaks.sum() + swaps.sum()) / total_vap

    per_vap_stats = {
        key: (per_vap_valid.get(key, 0), per_vap_valid.get(key, 0) * dt)
        for key in vap_keys
    }
    return MetricsReport(
        mean_azimuth_error_deg=mean_az,
        std_azimuth_error_deg=std_az,
        mean_elevation_error_deg=mean_el,
        std_elevation_error_deg=std_el,
        p_d=p_d,
        far_recording=far_recording,
        far_vap=far_vap,
        track_latency_s=track_latency,
        undetected_vaps=undetected,
        tfr=tfr,
        valid_count=len(valid_pairs),
        false_count=false_count,
        missed_count=missed_count,
        per_vap_valid=per_vap_stats,
    )


def ground_truth_doas(source_trajectories: dict, array_trajectory: Trajectory):
    """Callable t -> {source: Doa} in the array's local frame at time t."""

    def lookup(t: float):
        pose = interpolate_pose(array_trajectory, t)
        out = {}
        for n, traj in source_trajectories.items():
            pos = interpolate_pose(traj, t).translation
            out[n] = global_to_local(pos, pose)
        return out

    return lookup


def evaluate_submission(source_trajectories: dict, array_trajectory: Trajectory,
                        vaps: VapTable, submission: Submission, clock,
                        recording_duration: float,
                        gate_deg: float = DEFAULT_GATE_DEG,
                        ospa_params=(OspaParams(1.0, 30.0), OspaParams(5.0, 30.0)),
                        c: float = SPEED_OF_SOUND,
                        align: bool = True) -> MetricsReport:
    """Run the complete evaluation pipeline for one recording."""
    clock = np.asarray(clock, dtype=float)
    aligned = align_vaps(vaps, source_trajectories, array_trajectory, c) if align else vaps
    truth_at = ground_truth_doas(source_trajectories, array_trajectory)
    slices = []
    for t in clock:
        active = aligned.active_sources(t)
        truths = {n: d for n, d in truth_at(t).items() if n in active}
        slices.append(gate_and_associate(truths, submission.at(t), gate_deg, t))
    report = compute_metrics(slices, aligned, clock, recording_duration)
    for params in ospa_params:
        series = ospa_series(truth_at, submission, aligned, clock, params)
        report.ospa[(params.p, params.cutoff_deg)] = series
    return report

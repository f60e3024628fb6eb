"""Evaluation harness: VAP alignment, gating, association, measures, OSPA.

A recording is scored from arrays: the truth at every clock tick, each
submission row mapped once to its tick, and one (S, R) array of angular
errors between every source and every row.

Association and OSPA are exact minimum-cost assignments at every tick. The
ticks are grouped by their number of active sources and of rows, once per
`evaluate_submission` call for association and every OSPA parameter set,
and each group is solved at once by `assignment.batched_assignment`. An
association whose optimum is not unique by a safe margin (a near tie), or
whose shape has more than `assignment.MAX_MAPS` maps, is solved tick by
tick with `gated_assignment` instead, so that its solver's tie rule, the
one of scipy's solver, decides as it always has; OSPA needs only the least
total, which a tie does not change.

Association uses azimuth error only (in degrees) against a 30 degree gate,
every error above it priced at `gated_assignment`'s one sentinel, gate + 1;
elevation errors are reported for valid pairs but never drive assignment.
All azimuth/elevation values are radians in memory; reported errors and the
OSPA cutoff are degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .assignment import (MAX_MAPS, batched_assignment, gated_assignment, map_count,
                         min_cost_assignment)
from .geometry import (GROUND_TRUTH_RATE_HZ, SPEED_OF_SOUND, Doa, Trajectory,
                       _sample_translations, global_to_local_doas, row_norms,
                       sample_trajectory, wrap_angle)

DEFAULT_GATE_DEG = 30.0
DEFAULT_OSPA_CUTOFF_DEG = 30.0
TICK_TOLERANCE_S = 1e-6  # farthest a submission row may lie from its clock tick


def angular_errors(truth_azimuths, truth_elevations, azimuths, elevations):
    """Signed (azimuth, elevation) errors, truth minus estimate, in radians.

    Arrays broadcast. Azimuth is the shortest signed difference across the
    wrap; elevation is a plain difference (inclination never wraps).
    """
    return (wrap_angle(np.subtract(truth_azimuths, azimuths)),
            np.subtract(truth_elevations, elevations))


def vap_spans(spans, source=None) -> tuple:
    """Voice-activity periods as a tuple of (start, end) floats. Raises
    ValueError, naming `source` if given, for a NaN bound, an end not after
    its start, or a start before the previous end; a bound may be infinite."""
    where = "" if source is None else f"source {source}: "
    spans = tuple((float(a), float(b)) for a, b in spans)
    for a, b in spans:
        if math.isnan(a) or math.isnan(b):
            raise ValueError(f"{where}VAP bound is NaN")
        if b <= a:
            raise ValueError(f"{where}VAP end must exceed start")
    for (_, b), (a2, _) in zip(spans, spans[1:]):
        if a2 < b:
            raise ValueError(f"{where}VAPs overlap or are unordered")
    return spans


@dataclass(frozen=True)
class VapTable:
    """Per-source voice-activity intervals: {source: ((start, end), ...)}."""

    intervals: dict

    def __post_init__(self):
        object.__setattr__(self, "intervals", {n: vap_spans(spans, n)
                                               for n, spans in self.intervals.items()})

    @property
    def sources(self):
        return sorted(self.intervals)

    def active_sources(self, t: float):
        return [n for n, spans in self.intervals.items()
                if any(a <= t <= b for a, b in spans)]

    def vap_index(self, clock) -> np.ndarray:
        """(S, T) index of the VAP of each source (in `sources` order) that
        contains each tick, -1 where none; bounds are inclusive, and where two
        VAPs touch the first one wins."""
        clock = np.asarray(clock, dtype=float)
        index = np.full((len(self.intervals), len(clock)), -1)
        for row, n in zip(index, self.sources):
            for i, (a, b) in reversed(list(enumerate(self.intervals[n]))):
                row[(clock >= a) & (clock <= b)] = i
        return index

    def total_duration(self) -> float:
        return sum(b - a for spans in self.intervals.values() for a, b in spans)


def align_vaps(vaps: VapTable, source_trajectories: dict,
               array_trajectory: Trajectory) -> VapTable:
    """Shift emission-side VAP boundaries by the source-to-array delay (no rotation is sampled)."""
    shifted = {}
    for n, spans in vaps.intervals.items():
        bounds = np.reshape(spans, -1)  # start, end, start, end, ...
        src = _sample_translations(source_trajectories[n], bounds)[0]
        arr = _sample_translations(array_trajectory, bounds)[0]
        shifted[n] = (bounds + row_norms(src - arr) / SPEED_OF_SOUND).reshape(-1, 2).tolist()
    return VapTable(shifted)


def is_source_id(k):
    """Whether `k`, a number or an array, is a whole number in [1, 2^63); an
    integer is tested on its exact value."""
    return (k >= 1) & (k < 2**63) & (k == np.floor(k))  # NaN fails all three


class Submission:
    """Direction estimates on the evaluation clock, one row per (time, id).

    The rows are four read-only arrays: `times` (s), `ids` (whole, >= 1),
    `azimuths` (rad, wrapped into [-pi, pi)) and `elevations` (rad, clipped
    to [0, pi]), sorted by time and in their given order within a time.
    `Submission({t: ((id, Doa), ...)})` builds one from the per-time form and
    `Submission.from_rows` from arrays; `frames`, `timestamps`, `at(t)` and
    `max_id` are views built on demand.
    """

    def __init__(self, frames: dict | None = None):
        rows = [(t, k, d.azimuth, d.elevation)
                for t, entries in (frames or {}).items() for k, d in entries]
        self._store(*(zip(*rows) if rows else ((), (), (), ())))

    @classmethod
    def from_rows(cls, times, ids, azimuths, elevations=np.pi / 2) -> "Submission":
        """Rows from arrays; elevations default to pi/2, the horizontal plane."""
        sub = cls.__new__(cls)
        sub._store(times, ids, azimuths, elevations)
        return sub

    def _store(self, times, ids, azimuths, elevations):
        times, ids = np.asarray(times, dtype=float), np.asarray(ids)
        if ids.dtype.kind not in "iu":  # integers are checked on their exact value
            ids = ids.astype(float)
        bad = ids[~is_source_id(ids)]
        if len(bad):
            raise ValueError(f"source id {bad[0]} is not a whole number in [1, 2^63)")
        columns = (ids.astype(np.int64),
                   wrap_angle(np.asarray(azimuths, dtype=float)),
                   np.clip(np.broadcast_to(np.asarray(elevations, dtype=float), times.shape),
                           0.0, np.pi))
        if any(column.shape != times.shape for column in columns) or times.ndim != 1:
            raise ValueError("times, ids, azimuths and elevations must be 1-D of one length")
        order = np.argsort(times, kind="stable")
        for name, column in zip(("times", "ids", "azimuths", "elevations"), (times,) + columns):
            column = column[order]
            column.flags.writeable = False
            setattr(self, name, column)

    @property
    def timestamps(self):
        return np.unique(self.times).tolist()

    def at(self, t: float):
        lo = np.searchsorted(self.times, float(t), "left")
        hi = np.searchsorted(self.times, float(t), "right")
        return tuple((int(k), Doa(a, e)) for k, a, e in
                     zip(self.ids[lo:hi], self.azimuths[lo:hi], self.elevations[lo:hi]))

    @property
    def frames(self) -> dict:
        return {t: self.at(t) for t in self.timestamps}

    @property
    def max_id(self) -> int:
        return int(self.ids.max()) if len(self.ids) else 0

    def ticks(self, clock) -> np.ndarray:
        """Index of the tick of `clock` (increasing) nearest each row.

        Raises ValueError naming the first row farther than TICK_TOLERANCE_S
        from every tick, or a row whose id already has a row at its tick.
        """
        clock = np.asarray(clock, dtype=float)
        nearest = np.searchsorted((clock[:-1] + clock[1:]) / 2, self.times)
        off = ~(np.abs(self.times - clock[nearest]) <= TICK_TOLERANCE_S)
        if off.any():
            raise ValueError(f"timestamp {self.times[off][0]} is not on the evaluation "
                             f"clock (no tick within {TICK_TOLERANCE_S:g} s)")
        order = np.lexsort((self.ids, nearest))
        repeat = order[1:][(np.diff(nearest[order]) == 0) & (np.diff(self.ids[order]) == 0)]
        if len(repeat):
            raise ValueError(f"id {self.ids[repeat[0]]} has two rows at the clock tick of "
                             f"timestamp {self.times[repeat[0]]}")
        return nearest


def _shape_groups(active, ticks) -> list:
    """The ticks of a recording grouped by their number of active sources and
    of rows: a list of (tick indices (T,), each tick's active sources in
    order (T, S), each tick's rows (T, R)), one per (S, R) shape, `ticks`
    (R,) being non-decreasing."""
    n_sources = active.sum(axis=0)
    n_rows = np.bincount(ticks, minlength=active.shape[1])
    first_row = np.cumsum(n_rows) - n_rows
    shape = n_sources * (n_rows.max(initial=0) + 1) + n_rows
    groups = []
    for key in np.unique(shape):
        at = np.flatnonzero(shape == key)
        s, r = n_sources[at[0]], n_rows[at[0]]
        groups.append((at, np.nonzero(active[:, at].T)[1].reshape(len(at), s),
                       first_row[at, None] + np.arange(r)))
    return groups


def gate_and_associate(cost, active, ticks, gate_deg: float = DEFAULT_GATE_DEG) -> np.ndarray:
    """Associate sources with submission rows at every tick of a recording.

    `cost` (S, R) holds the absolute azimuth error in degrees between every
    source and every row, `active` (S, T) the sources active at each tick,
    and `ticks` (R,) each row's tick, non-decreasing. At each tick the active
    sources and the tick's rows are paired at minimum total cost, and pairs
    costing more than `gate_deg` are inadmissible. Returns the (S, T)
    assigned row, -1 where a source has none. A ValueError unless `gate_deg`
    is finite and > 0.
    """
    return _associate(cost, active.shape, _shape_groups(active, ticks), gate_deg)


def check_gate(gate_deg: float) -> float:
    """`gate_deg`, a gate of `gate_and_associate`, if finite and > 0; else ValueError."""
    if not (math.isfinite(gate_deg) and gate_deg > 0):
        raise ValueError(f"gate must be a finite number of degrees > 0, got {gate_deg}")
    return gate_deg


def _associate(cost, shape, groups, gate_deg: float) -> np.ndarray:
    """`gate_and_associate` on the `_shape_groups` of its ticks; `shape` is (S, T)."""
    check_gate(gate_deg)
    assigned = np.full(shape, -1)
    for at, sources, rows in groups:
        s, r = sources.shape[1], rows.shape[1]
        if not (s and r):
            continue
        per_tick = np.ones(len(at), dtype=bool)
        if map_count(s, r) <= MAX_MAPS:
            # every cost above the gate at the sentinel, as `gated_assignment` prices it
            stack = cost[sources[:, :, None], rows[:, None, :]]
            stack = np.where(stack <= gate_deg, stack, gate_deg + 1.0)
            _, image, per_tick = batched_assignment(stack)
            src, row = ((sources, np.take_along_axis(rows, image, axis=1)) if s <= r else
                        (np.take_along_axis(sources, image, axis=1), rows))
            keep = ~per_tick[:, None] & (cost[src, row] <= gate_deg)
            assigned[src[keep], np.broadcast_to(at[:, None], keep.shape)[keep]] = row[keep]
        for k in np.flatnonzero(per_tick):
            sub = cost[np.ix_(sources[k], rows[k])]
            if not (sub <= gate_deg).any():
                continue  # no admissible pair, whichever map wins a tie
            for i, j in gated_assignment(sub, gate_deg):
                assigned[sources[k, i], at[k]] = rows[k, j]
    return assigned


def detect_fragmentation(ids, vap_index):
    """Per-tick broken-track and swap counts.

    `ids` (S, T) holds the estimate id associated with each source at each
    tick, 0 where none, and `vap_index` (S, T) the VAP containing each tick,
    -1 where none. A break at tick i: the source was associated at i-1 but
    not at i, with both ticks inside one VAP. A swap at i: associated at both
    i-1 and i but with different estimate IDs.
    """
    held = (ids[:, :-1] > 0) & (vap_index[:, 1:] == vap_index[:, :-1]) & (vap_index[:, 1:] >= 0)
    breaks = np.zeros(ids.shape[1], dtype=int)
    swaps = np.zeros(ids.shape[1], dtype=int)
    breaks[1:] = (held & (ids[:, 1:] == 0)).sum(axis=0)
    swaps[1:] = (held & (ids[:, 1:] > 0) & (ids[:, 1:] != ids[:, :-1])).sum(axis=0)
    return breaks, swaps


@dataclass(frozen=True)
class OspaParams:
    p: float = 1.0
    cutoff_deg: float = DEFAULT_OSPA_CUTOFF_DEG

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"OSPA order p must be a finite number >= 1, got {self.p}")
        if not (math.isfinite(self.cutoff_deg) and self.cutoff_deg > 0):
            raise ValueError(f"OSPA cutoff must be a finite number > 0, got {self.cutoff_deg}")


def _ospa(pair_cost, params: OspaParams) -> np.ndarray:
    """OSPA of each (S, R) matrix of a (T, S, R) stack of costs min(c, error)**p.

    The smaller set is assigned into the larger, and the cardinality gap is
    charged at the cutoff c.
    """
    n, s, r = pair_cost.shape
    small, large = min(s, r), max(s, r)
    c, p = params.cutoff_deg, params.p
    if not small:
        return np.full(n, c if large else 0.0)
    if map_count(s, r) <= MAX_MAPS:
        best = batched_assignment(pair_cost)[0]
    else:
        best = np.array([min_cost_assignment(m if s <= r else m.T)[1] for m in pair_cost])
    # the p-th root of c**p can round above c
    return np.minimum(c, ((best + (large - small) * c**p) / large) ** (1.0 / p))


def ospa(truth_azimuths, est_azimuths, params: OspaParams = OspaParams()) -> float:
    """Optimal subpattern assignment distance between two azimuth sets, degrees.

    Symmetric by construction: the roles are ordered so the smaller set is
    assigned into the larger, with the cardinality gap charged at cutoff.
    """
    errors = np.abs(np.degrees(wrap_angle(np.subtract.outer(
        np.asarray(truth_azimuths, dtype=float), np.asarray(est_azimuths, dtype=float)))))
    return float(_ospa(np.minimum(params.cutoff_deg, errors)[None] ** params.p, params)[0])


@dataclass(frozen=True)
class OspaSeries:
    params: OspaParams
    values: np.ndarray
    mean: float
    std: float


def ospa_series(errors_deg, active, ticks,
                params: OspaParams = OspaParams()) -> OspaSeries:
    """OSPA at each evaluation tick plus its mean and standard deviation.

    `errors_deg` (S, R) holds the absolute azimuth error, in degrees, between
    every source at a row's tick and every submission row (the association
    cost), `active` (S, T) the sources' activity at each tick and `ticks` (R,)
    the rows' ticks (non-decreasing). The ticks of one shape are solved
    together.
    """
    return _ospa_series(errors_deg, active.shape[1], _shape_groups(active, ticks), params)


def _ospa_series(errors_deg, n_ticks: int, groups, params: OspaParams) -> OspaSeries:
    """`ospa_series` on the `_shape_groups` of its `n_ticks` ticks."""
    pair_cost = np.minimum(params.cutoff_deg, errors_deg) ** params.p
    values = np.empty(n_ticks)
    for at, sources, rows in groups:
        values[at] = _ospa(pair_cost[sources[:, :, None], rows[:, None, :]], params)
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
        # every field but the two dicts; the OSPA series are flattened below
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("per_vap_valid", "ospa")}
        for (p, c), series in self.ospa.items():
            key = f"ospa_p{p:g}_c{c:g}"
            out[f"{key}_mean"] = series.mean
            out[f"{key}_std"] = series.std
        return out


def compute_metrics(ids, vap_index, false_counts, errors_deg, vaps: VapTable, clock,
                    recording_duration: float) -> MetricsReport:
    """Aggregate one recording's associations into the individual measures.

    `ids` (S, T) holds the estimate id associated with each source (in
    `vaps.sources` order) at each tick, 0 where none; `vap_index` (S, T) is
    `vaps.vap_index(clock)`; `false_counts` (T,) counts the rows left
    unassociated at each tick; `errors_deg` (2, V) holds the absolute azimuth
    and elevation errors of the V associations, tick by tick and in source
    order within a tick.
    """
    clock = np.asarray(clock, dtype=float)
    active = vap_index >= 0
    valid = ids > 0
    valid_count = int(valid.sum())
    false_count = int(false_counts.sum())
    missed_count = int((active & ~valid).sum())
    total_vap = vaps.total_duration()

    if total_vap <= 0:
        return MetricsReport(*([math.nan] * 4), math.nan, math.nan, math.nan,
                             math.nan, 0, math.nan, valid_count, false_count,
                             missed_count, undefined=True)

    abs_az, abs_el = errors_deg
    mean_az = float(abs_az.mean()) if abs_az.size else 0.0
    std_az = float(abs_az.std()) if abs_az.size else 0.0
    mean_el = float(abs_el.mean()) if abs_el.size else 0.0
    std_el = float(abs_el.std()) if abs_el.size else 0.0

    # per-(source, VAP) completeness and latency, keyed source by source
    dt = float(np.median(np.diff(clock))) if len(clock) > 1 else 1.0 / GROUND_TRUTH_RATE_HZ
    vap_keys = [(n, i) for n in vaps.sources for i in range(len(vaps.intervals[n]))]
    key = np.cumsum([0] + [len(vaps.intervals[n]) for n in vaps.sources])[:-1, None] + vap_index
    hit = active & valid
    per_vap_count = np.bincount(key[active], minlength=len(vap_keys))
    per_vap_valid = np.bincount(key[hit], minlength=len(vap_keys))
    first_valid = np.full(len(vap_keys), np.inf)
    np.minimum.at(first_valid, key[hit], np.broadcast_to(clock, key.shape)[hit])
    starts = np.array([vaps.intervals[n][i][0] for n, i in vap_keys])
    seen = per_vap_count > 0
    detected = seen & (per_vap_valid > 0)
    total_stamps = int(per_vap_count.sum())
    p_d = int(per_vap_valid.sum()) / total_stamps if total_stamps else math.nan
    latencies = np.maximum(0.0, first_valid[detected] - starts[detected])
    track_latency = float(latencies.mean()) if latencies.size else math.nan

    far_recording = false_count / recording_duration if recording_duration > 0 else math.nan
    far_vap = int(false_counts[active.any(axis=0)].sum()) / total_vap

    breaks, swaps = detect_fragmentation(ids, vap_index)
    tfr = float(breaks.sum() + swaps.sum()) / total_vap

    per_vap_stats = {
        vap_keys[k]: (int(per_vap_valid[k]), int(per_vap_valid[k]) * dt)
        for k in np.flatnonzero(seen)
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
        undetected_vaps=int((seen & ~detected).sum()),
        tfr=tfr,
        valid_count=valid_count,
        false_count=false_count,
        missed_count=missed_count,
        per_vap_valid=per_vap_stats,
    )


def ground_truth_arrays(source_trajectories: dict, array_trajectory: Trajectory,
                        sources, times):
    """(S, T) azimuths and (S, T) elevations of `sources` in the array's
    local frame at each of `times`, as one (2, S, T) array."""
    translations, rotations = sample_trajectory(array_trajectory, times)
    doas = [global_to_local_doas(_sample_translations(source_trajectories[n], times)[0],
                                 translations, rotations) for n in sources]
    return np.reshape(doas, (len(doas), 2, len(translations))).swapaxes(0, 1)


def ground_truth_doas(source_trajectories: dict, array_trajectory: Trajectory):
    """Callable t -> {source: Doa} in the array's local frame at time t: the
    one-time case of the arrays `evaluate_submission` builds, bit for bit."""
    sources = list(source_trajectories)
    return lambda t: dict(zip(sources, map(Doa, *ground_truth_arrays(
        source_trajectories, array_trajectory, sources, [t])[:, :, 0])))


def evaluate_submission(source_trajectories: dict, array_trajectory: Trajectory,
                        vaps: VapTable, submission: Submission, clock,
                        recording_duration: float,
                        gate_deg: float = DEFAULT_GATE_DEG,
                        ospa_params=(OspaParams(1.0), OspaParams(5.0)),
                        align: bool = True) -> MetricsReport:
    """Run the complete evaluation pipeline for one recording.

    The truth is sampled once on the clock and every submission row is
    mapped once to its clock tick (`Submission.ticks`, a ValueError for a row
    off the clock); association and the error measures read one (S, R)
    array of angular errors between every source and every row.
    """
    clock = np.asarray(clock, dtype=float)
    aligned = align_vaps(vaps, source_trajectories, array_trajectory) if align else vaps
    vap_index = aligned.vap_index(clock)
    active = vap_index >= 0
    truth_az, truth_el = ground_truth_arrays(source_trajectories, array_trajectory,
                                             aligned.sources, clock)
    ticks = submission.ticks(clock)
    d_az, d_el = angular_errors(truth_az[:, ticks], truth_el[:, ticks],
                                submission.azimuths, submission.elevations)
    cost = np.abs(np.degrees(d_az))
    groups = _shape_groups(active, ticks)
    assigned = _associate(cost, active.shape, groups, gate_deg)
    paired = assigned >= 0
    ids = np.append(submission.ids, 0)[assigned]  # 0 where unassigned
    tick_of, source_of = np.nonzero(paired.T)  # tick by tick, sources in order
    rows = assigned[source_of, tick_of]
    errors = np.abs(np.degrees(np.array([d_az[source_of, rows], d_el[source_of, rows]])))
    false_counts = np.bincount(ticks, minlength=len(clock)) - paired.sum(axis=0)
    report = compute_metrics(ids, vap_index, false_counts, errors, aligned, clock,
                             recording_duration)
    for params in ospa_params:
        report.ospa[(params.p, params.cutoff_deg)] = _ospa_series(cost, active.shape[1], groups,
                                                                 params)
    return report

"""Free-field synthetic scene generator with exactly known ground truth.

Propagation is direct-path only: per-sample fractional delay (windowed-sinc
interpolation) plus 1/r spreading, with a 0.1 m guard radius. Sources are
silent outside their voice-activity periods, with raised-cosine ramps at the
period boundaries. Everything is a pure function of the configuration,
including its seed.

The fractional delay is the 32-tap (W = 16) Hann-windowed sinc
``h(x) = sinc(x) * 0.5 * (1 + cos(pi x / W))`` at ``x = o - f``, with tap
offset ``o`` in [-15, 16] and fractional read position ``f`` in [0, 1). It
runs as a Farrow structure. At import each tap's kernel ``h(o - f)`` is
interpolated at FARROW_DEGREE + 1 Chebyshev points as a degree-14
polynomial in ``t = 2 f - 1`` and converted to monomials, giving a fixed
(FARROW_DEGREE + 1, 32) table ``P``. Once per source, one chunked matmul over
the whole zero-padded emitted signal gives the bank
``bank[d, b] = sum_o P[d, o] s[b + o]``: 15 doubles per sample, with one
source's bank alive at a time. A read at ``b + f`` is then
``sum_d bank[d, b] t^d``: a gather of one bank column and a Horner pass in
``t``, shared by every microphone. Reads within machine epsilon of an
integer return that sample exactly, and reads whose taps all fall outside
the signal or in silence sum exact zeros and return +-0. Against the direct
``np.sinc`` form the error is within 1e-11 * max|signal| (measured
7.5e-15 * max|signal|, tests/test_simulate_oracle.py).

Silent reads are skipped. Outside its VAPs a source's emitted signal is
exactly zero, so a read whose 32 taps all land there gives +-0 and adding it
changes nothing. Each source is read only on the output spans whose taps can
reach one of its VAPs. The bank always covers the whole signal and a read
works element by element, so the audio is bit-identical to reading every
sample (tests/test_simulate.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev
from scipy.signal import butter, lfilter

from .geometry import (
    GROUND_TRUTH_RATE_HZ,
    SPEED_OF_SOUND,
    ArrayGeometry,
    Pose,
    Trajectory,
    get_array_preset,
    ground_truth_sample_count,
    identity_pose,
    sample_trajectory,
    static_trajectory,
)
from .sigproc import CHUNK_ELEMENTS, DEFAULT_SAMPLE_RATE, MultichannelAudio

GUARD_RADIUS = 0.1  # m
SINC_HALF_WIDTH = 16  # 32-tap windowed-sinc interpolation
VAP_RAMP = 0.010  # s

FARROW_DEGREE = 14  # polynomial degree of each tap's kernel in the fractional delay

_EPS = np.finfo(float).eps
# bank rows per matmul and reads per Horner pass: the 2 MB of a bank chunk's
# (rows, 2 W) windows
_CHUNK = CHUNK_ELEMENTS // (2 * SINC_HALF_WIDTH)


def _farrow_table() -> np.ndarray:
    """(FARROW_DEGREE + 1, 2 W) monomial coefficients: entry [d, j] is the
    coefficient of t^d in tap j's kernel h(o_j - f), t = 2 f - 1, with tap
    offsets o_j = j - W + 1."""
    table = np.empty((FARROW_DEGREE + 1, 2 * SINC_HALF_WIDTH))
    for j, o in enumerate(range(-SINC_HALF_WIDTH + 1, SINC_HALF_WIDTH + 1)):
        def kernel(t, o=o):
            x = o - (t + 1.0) / 2.0
            return np.sinc(x) * 0.5 * (1.0 + np.cos(np.pi * x / SINC_HALF_WIDTH))
        table[:, j] = chebyshev.cheb2poly(chebyshev.chebinterpolate(kernel, FARROW_DEGREE))
    return table


_FARROW = _farrow_table()


@dataclass(frozen=True)
class SourceConfig:
    trajectory: Trajectory
    vaps: tuple  # of (start, end) seconds, emission-side
    signal: str = "speech"  # "speech" | "white"

    def __post_init__(self):
        vaps = tuple((float(a), float(b)) for a, b in self.vaps)
        for a, b in vaps:
            if b <= a:
                raise ValueError("VAP end must exceed start")
        for (_, b), (a2, _) in zip(vaps, vaps[1:]):
            if a2 < b:
                raise ValueError("VAPs must be non-overlapping and ordered")
        object.__setattr__(self, "vaps", vaps)


def _check_duration_and_snr(duration: float, snr_db: float) -> None:
    """Reject a duration that is not finite and positive, and an SNR that is
    NaN or -inf; an SNR of +inf means a noiseless scene."""
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")


@dataclass(frozen=True)
class SceneConfig:
    duration: float
    array: ArrayGeometry
    array_trajectory: Trajectory
    sources: tuple  # of SourceConfig
    snr_db: float = 20.0
    noise_rms: float = 0.01
    seed: int = 0
    sample_rate_hz: float = float(DEFAULT_SAMPLE_RATE)
    task: int = 0

    def __post_init__(self):
        _check_duration_and_snr(self.duration, self.snr_db)
        sources = tuple(self.sources)
        for src in sources:
            if src.trajectory.start_time > 0 or src.trajectory.end_time < self.duration - 1e-9:
                raise ValueError("source trajectory must cover [0, duration]")
            for a, b in src.vaps:
                if a < -1e-9 or b > self.duration + 1e-9:
                    raise ValueError("VAP outside [0, duration]")
        if (self.array_trajectory.start_time > 0
                or self.array_trajectory.end_time < self.duration - 1e-9):
            raise ValueError("array trajectory must cover [0, duration]")
        object.__setattr__(self, "sources", sources)


@dataclass(frozen=True)
class Scene:
    audio: MultichannelAudio
    source_trajectories: tuple  # Trajectory per source
    source_vaps: tuple  # (start, end) tuples per source
    array_trajectory: Trajectory
    config: SceneConfig


def _vap_envelope(n_samples: int, fs: float, vaps) -> np.ndarray:
    """Soft activity gate: 1 inside VAPs, 0 outside, raised-cosine edges of VAP_RAMP."""
    t = np.arange(n_samples) / fs
    env = np.zeros(n_samples)
    for a, b in vaps:
        rise = np.clip((t - a) / VAP_RAMP, 0.0, 1.0)
        fall = np.clip((b - t) / VAP_RAMP, 0.0, 1.0)
        seg = 0.5 * (1 - np.cos(np.pi * rise)) * 0.5 * (1 - np.cos(np.pi * fall))
        env = np.maximum(env, np.where((t >= a) & (t <= b), seg, 0.0))
    return env


@lru_cache(maxsize=8)
def _speech_band(fs: float):
    """Read-only (b, a) of the 100-4000 Hz 4th-order Butterworth band-pass at `fs`."""
    b, a = butter(4, [100.0 / (fs / 2), 4000.0 / (fs / 2)], btype="band")
    b.flags.writeable = a.flags.writeable = False
    return b, a


def _speech_like(n_samples: int, fs: float, rng: np.random.Generator) -> np.ndarray:
    """Speech surrogate: band-limited noise with slow amplitude modulation."""
    noise = rng.standard_normal(n_samples)
    b, a = _speech_band(fs)
    shaped = lfilter(b, a, noise)
    t = np.arange(n_samples) / fs
    lfo = 0.0
    for f_mod, phase in ((2.3, 0.0), (4.7, 1.3), (7.1, 2.6)):
        lfo = lfo + np.sin(2 * np.pi * f_mod * t + phase)
    envelope = 0.65 + 0.35 * lfo / 3.0
    return shaped * envelope


def _source_signal(kind: str, n_samples: int, fs: float, rng: np.random.Generator):
    if kind == "white":
        return rng.standard_normal(n_samples)
    if kind == "speech":
        return _speech_like(n_samples, fs, rng)
    raise ValueError(f"unknown signal kind {kind!r}")


def _farrow_bank(padded: np.ndarray) -> np.ndarray:
    """(FARROW_DEGREE + 1, len(padded) - 2 W + 1) bank of the zero-padded
    signal: bank[d, r] = sum_j _FARROW[d, j] padded[r + j]."""
    windows = sliding_window_view(padded, 2 * SINC_HALF_WIDTH)
    bank = np.empty((FARROW_DEGREE + 1, len(windows)))
    for start in range(0, len(windows), _CHUNK):
        np.matmul(_FARROW, windows[start:start + _CHUNK].T, out=bank[:, start:start + _CHUNK])
    return bank


def _delay_reader(signal: np.ndarray):
    """Fractional-delay read function of `signal`, built on one Farrow bank.

    ``read(read_index)`` interpolates `signal` at the fractional sample
    positions `read_index`; samples outside the signal read as zero.
    Positions within machine epsilon of an integer read that sample itself.
    Every read is element by element, so its bits do not depend on the other
    positions read with it.
    """
    n = len(signal)
    pad = np.zeros(2 * SINC_HALF_WIDTH)
    padded = np.concatenate([pad, signal, pad])
    # bank column b + W + 1 holds the taps floor(idx) = b; b clipped to
    # [-W - 1, n + W - 1] keeps every tap inside the zero padding
    bank = _farrow_bank(padded)

    def read(read_index: np.ndarray) -> np.ndarray:
        out = np.empty(len(read_index))
        for start in range(0, len(read_index), _CHUNK):
            idx = read_index[start:start + _CHUNK]
            floor = np.floor(idx)
            f = idx - floor
            column = np.clip(floor, -SINC_HALF_WIDTH - 1, n + SINC_HALF_WIDTH - 1).astype(
                np.int64) + (SINC_HALF_WIDTH + 1)
            t = 2.0 * f - 1.0
            value = bank[FARROW_DEGREE].take(column)
            for d in range(FARROW_DEGREE - 1, -1, -1):
                value *= t
                value += bank[d].take(column)
            # within eps of an integer the kernel is that sample to round-off,
            # which also covers f rounding up to 1 for idx just below 0
            near = np.flatnonzero((f < _EPS) | (f > 1.0 - _EPS))
            if len(near):
                value[near] = padded[column[near] + (SINC_HALF_WIDTH - 1)
                                     + (f[near] > 0.5)]
            out[start:start + _CHUNK] = value
        return out

    return read


def _fractional_delay_read(signal: np.ndarray, read_index: np.ndarray) -> np.ndarray:
    """Windowed-sinc interpolation of `signal` at fractional sample positions:
    one `_delay_reader` bank, then one read."""
    return _delay_reader(signal)(read_index)


def _audible_spans(vaps, fs: float, lag_min: float, lag_max: float, n_samples: int):
    """Sorted, disjoint output spans [lo, hi) whose reads can reach a VAP.

    Output sample n reads the emitted signal at n - lag, with the lag in
    [lag_min, lag_max] samples, through taps floor(n - lag) + [-W + 1, W].
    The emitted signal is exactly zero outside its VAPs, so a read outside
    every span sums zeros and adds nothing. Each VAP [a, b] keeps
    [floor(a fs + lag_min) - W - 1, ceil(b fs + lag_max) + W + 2), one sample
    beyond the last reachable tap on each side, clipped to the recording;
    spans that overlap or touch are merged, so no output sample is read
    twice.
    """
    spans = []
    for a, b in vaps:
        lo = int(np.floor(a * fs + lag_min)) - SINC_HALF_WIDTH - 1
        hi = int(np.ceil(b * fs + lag_max)) + SINC_HALF_WIDTH + 2
        lo, hi = max(lo, 0), min(hi, n_samples)
        if lo >= hi:
            continue
        if spans and lo <= spans[-1][1]:
            spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((lo, hi))
    return spans


def _geometry_clock(duration: float) -> np.ndarray:
    """Times at which `synthesize` samples the geometry: the 120 Hz grid
    clipped to [0, duration]. Where the grid falls short of `duration` by more
    than 1e-9 s (the tolerance of `ground_truth_sample_count`), the clock
    also takes `duration` itself, so no distance is held constant at the end."""
    clock = np.clip(np.arange(0.0, duration + 0.5 / GROUND_TRUTH_RATE_HZ,
                              1.0 / GROUND_TRUTH_RATE_HZ), 0.0, duration)
    if clock[-1] < duration - 1e-9:
        clock = np.append(clock, duration)
    return clock


def _sample_until_end(trajectory: Trajectory, times: np.ndarray):
    """`sample_trajectory` holding the last pose of a trajectory that ends
    before `times` do, by up to the 1e-9 s SceneConfig allows."""
    return sample_trajectory(trajectory, np.minimum(times, trajectory.end_time))


def _mic_global_positions(config: SceneConfig, gt_times: np.ndarray) -> np.ndarray:
    """Per-mic global positions sampled on the ground-truth clock: (mics, T, 3)."""
    translations, rotations = _sample_until_end(config.array_trajectory, gt_times)
    return np.einsum("tij,mj->mti", rotations, config.array.mic_positions) + translations[None]


def synthesize(config: SceneConfig) -> Scene:
    """Render a scene to multichannel audio; deterministic for a given config.

    Each source with audible spans builds one `_delay_reader` bank, and every
    mic reads it only on the output spans of `_audible_spans`; every read
    skipped outside them would add an exact zero, so the result is the same
    to the bit as reading every sample.
    """
    fs = config.sample_rate_hz
    n_samples = int(round(config.duration * fs))
    n_mics = config.array.mic_count
    gt_times = _geometry_clock(config.duration)
    sample_times = np.arange(n_samples) / fs

    mic_pos = _mic_global_positions(config, gt_times)

    root = np.random.SeedSequence(config.seed)
    source_seeds = root.spawn(len(config.sources) + 1)
    noise_rng = np.random.default_rng(source_seeds[-1])

    audio = np.zeros((n_mics, n_samples))
    vap_mask_any = np.zeros(n_samples, dtype=bool)

    for s_idx, source in enumerate(config.sources):
        rng = np.random.default_rng(source_seeds[s_idx])
        emitted = _source_signal(source.signal, n_samples, fs, rng)
        emitted *= _vap_envelope(n_samples, fs, source.vaps)
        src_pos, _ = _sample_until_end(source.trajectory, gt_times)

        dist_gt = np.linalg.norm(src_pos[None] - mic_pos, axis=2)  # (mics, T)
        closest = dist_gt.min(axis=1)
        too_close = np.flatnonzero(closest < GUARD_RADIUS)
        if len(too_close):
            raise ValueError(f"source {s_idx} passes within {GUARD_RADIUS} m of "
                             f"microphone {too_close[0]}")

        # scale the source so its in-VAP power at the reference mic hits snr_db
        in_vap = np.zeros(n_samples, dtype=bool)
        for a, b in source.vaps:
            in_vap |= (sample_times >= a) & (sample_times < b)
        vap_mask_any |= in_vap

        # np.interp keeps every per-sample delay within the ground-truth range
        spans = _audible_spans(source.vaps, fs, fs * closest.min() / SPEED_OF_SOUND,
                               fs * dist_gt.max() / SPEED_OF_SOUND, n_samples)
        if not spans:
            continue
        read = _delay_reader(emitted)
        for m in range(n_mics):
            for lo, hi in spans:
                dist = np.interp(sample_times[lo:hi], gt_times, dist_gt[m])
                gain = 1.0 / np.maximum(dist, GUARD_RADIUS)
                read_index = np.arange(lo, hi) - fs * dist / SPEED_OF_SOUND
                audio[m, lo:hi] += gain * read(read_index)
        del read  # one bank alive at a time: free it before the next source's

    noise = noise_rng.standard_normal((n_mics, n_samples))
    noise /= np.sqrt(np.mean(noise**2))

    if config.sources and vap_mask_any.any():
        # noise floor set from the in-VAP signal power at the centroid-nearest mic
        reference_mic = int(np.argmin(
            np.linalg.norm(config.array.mic_positions - config.array.centroid, axis=1)))
        sig_power = np.mean(audio[reference_mic][vap_mask_any] ** 2)
        noise_rms = np.sqrt(sig_power * 10.0 ** (-config.snr_db / 10.0))
    else:
        noise_rms = config.noise_rms
    noise *= noise_rms
    audio += noise

    source_trajectories = tuple(s.trajectory for s in config.sources)
    source_vaps = tuple(s.vaps for s in config.sources)
    return Scene(
        audio=MultichannelAudio(audio, fs),
        source_trajectories=source_trajectories,
        source_vaps=source_vaps,
        array_trajectory=config.array_trajectory,
        config=config,
    )


# ---------------------------------------------------------------------------
# Task presets
# ---------------------------------------------------------------------------

def _random_vaps(duration: float, rng: np.random.Generator):
    """Alternating speech/pause intervals, speech roughly 70 % of the time."""
    duty = 0.7
    vaps = []
    t = float(rng.uniform(0.05, 0.3))
    while t < duration - 0.5:
        on = float(rng.uniform(1.2, 2.6))
        off = on * (1.0 - duty) / duty * float(rng.uniform(0.6, 1.4))
        end = min(t + on, duration - 0.05)
        if end - t > 0.3:
            vaps.append((t, end))
        t = end + max(off, 0.15)
    if not vaps:
        vaps.append((0.1, duration - 0.1))
    return tuple(vaps)


def _smooth_walk_trajectory(duration: float, rng: np.random.Generator,
                            start: np.ndarray) -> Trajectory:
    """Piecewise-smooth random walk at the ground-truth rate, at most 1.2 m/s,
    held within 3 m of the origin along x and y."""
    max_speed, bounds = 1.2, 3.0
    n = ground_truth_sample_count(duration)
    dt = 1.0 / GROUND_TRUTH_RATE_HZ
    # Ornstein-Uhlenbeck velocity, then clip speed
    vel = np.zeros((n, 3))
    v = rng.normal(0, 0.6, size=3) * np.array([1, 1, 0.1])
    # one (n, 3) draw is the n draws of 3 in a row, and leaves rng where they do
    kicks = rng.normal(0, 0.08, size=(n, 3)) * np.array([1, 1, 0.1])
    for i in range(n):
        v = 0.995 * v + kicks[i]
        speed = np.linalg.norm(v)
        if speed > max_speed:
            v = v * (max_speed / speed)
        vel[i] = v
    pos = start + np.cumsum(vel * dt, axis=0)
    # reflect at a soft boundary box around the origin
    pos[:, :2] = np.clip(pos[:, :2], -bounds, bounds)
    return Trajectory.from_arrays(np.arange(n) * dt, pos, np.broadcast_to(np.eye(3), (n, 3, 3)))


def _rotating_array_trajectory(duration: float, rng: np.random.Generator) -> Trajectory:
    """Array drifting on a circle of 0.4 m radius while rotating about +z."""
    radius = 0.4
    n = ground_truth_sample_count(duration)
    dt = 1.0 / GROUND_TRUTH_RATE_HZ
    rate = float(rng.uniform(0.2, 0.5)) * (1 if rng.random() < 0.5 else -1)  # rad/s
    phase0 = float(rng.uniform(0, 2 * np.pi))
    t = np.arange(n) * dt
    angle = rate * t + phase0
    trans = np.zeros((n, 3))
    trans[:, 0] = radius * np.cos(0.3 * t)
    trans[:, 1] = radius * np.sin(0.3 * t)
    ca, sa = np.cos(angle), np.sin(angle)
    rot = np.zeros((n, 3, 3))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1], rot[:, 2, 2] = ca, -sa, sa, ca, 1.0
    return Trajectory.from_arrays(t, trans, rot)


def _static_source(duration: float, rng: np.random.Generator) -> Trajectory:
    radius = float(rng.uniform(1.5, 2.5))
    azimuth = float(rng.uniform(-np.pi, np.pi))
    pos = np.array([radius * np.cos(azimuth), radius * np.sin(azimuth), 0.0])
    return static_trajectory(Pose(pos, np.eye(3)), duration)


def task_preset(task: int, seed: int, duration: float = 10.0,
                array: str = "robot_head", snr_db: float = 20.0) -> SceneConfig:
    """Scene configuration for one of the six benchmark scenarios.

    1: single static source, static array; 2: multiple static sources;
    3: single moving source; 4: multiple moving sources; 5: single moving
    source and a moving, rotating array; 6: multiple moving sources and a
    moving array.
    """
    if task not in range(1, 7):
        raise ValueError(f"task must be 1..6, got {task}")
    _check_duration_and_snr(duration, snr_db)
    geometry = get_array_preset(array)
    rng = np.random.default_rng(np.random.SeedSequence((seed, task)))

    moving_array = task in (5, 6)
    moving_sources = task in (3, 4, 5, 6)
    n_sources = 1 if task in (1, 3, 5) else int(rng.integers(2, 4)) if task == 2 else 2

    if moving_array:
        array_traj = _rotating_array_trajectory(duration, rng)
    else:
        array_traj = static_trajectory(identity_pose(), duration)

    sources = []
    for _ in range(n_sources):
        if moving_sources:
            radius = float(rng.uniform(1.5, 2.5))
            azimuth = float(rng.uniform(-np.pi, np.pi))
            start = np.array([radius * np.cos(azimuth), radius * np.sin(azimuth), 0.0])
            traj = _smooth_walk_trajectory(duration, rng, start)
        else:
            traj = _static_source(duration, rng)
        sources.append(SourceConfig(traj, _random_vaps(duration, rng), "speech"))

    return SceneConfig(
        duration=duration,
        array=geometry,
        array_trajectory=array_traj,
        sources=tuple(sources),
        snr_db=snr_db,
        seed=seed,
        task=task,
    )

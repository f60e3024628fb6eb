"""Free-field synthetic scene generator with exactly known ground truth.

Propagation is direct-path only: per-sample fractional delay (windowed-sinc
interpolation) plus 1/r spreading, with a 0.1 m guard radius. Sources are
silent outside their voice-activity periods, with raised-cosine ramps at the
period boundaries. Everything is a pure function of the configuration,
including its seed.

The fractional delay is the 32-tap (W = 16) Hann-windowed sinc
``sinc(x) * 0.5 * (1 + cos(pi x / W))`` at ``x = o - f``, with tap offset
``o`` in [-15, 16] and fractional read position ``f`` in [0, 1). Two exact
identities leave one sine per output sample for the sinc and two trig calls
for the window:

    sin(pi (o - f)) = -(-1)^o sin(pi f)
    cos(pi (o - f) / W) = cos(pi o / W) cos(pi f / W) + sin(pi o / W) sin(pi f / W)

so the o-dependent factors form one fixed (32, 3) table built at import. The
result equals the direct ``np.sinc`` form up to round-off: within
1e-11 * max|signal| (measured below 5e-16 * max|signal| on white noise, tones
and reads within 1e-17 of an integer, tests/test_simulate_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, lfilter

from .geometry import (
    GROUND_TRUTH_RATE_HZ,
    SPEED_OF_SOUND,
    ArrayGeometry,
    Pose,
    Trajectory,
    get_array_preset,
    identity_pose,
    sample_trajectory,
    static_trajectory,
)
from .sigproc import CHUNK_ELEMENTS, MultichannelAudio

GUARD_RADIUS = 0.1  # m
SINC_HALF_WIDTH = 16  # 32-tap windowed-sinc interpolation
VAP_RAMP = 0.010  # s

# tap offsets o relative to floor(read position), and the fixed per-tap factors
# 0.5 (-1)^(o+1) [1, cos(pi o / W), sin(pi o / W)] of the kernel identities
_TAP_OFFSETS = np.arange(-SINC_HALF_WIDTH + 1, SINC_HALF_WIDTH + 1)
_KERNEL_BASIS = (0.5 * np.where(_TAP_OFFSETS % 2 == 1, 1.0, -1.0)[:, None]
                 * np.stack([np.ones(2 * SINC_HALF_WIDTH),
                             np.cos(np.pi * _TAP_OFFSETS / SINC_HALF_WIDTH),
                             np.sin(np.pi * _TAP_OFFSETS / SINC_HALF_WIDTH)], axis=1))
_EPS = np.finfo(float).eps


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


@dataclass(frozen=True)
class SceneConfig:
    duration: float
    array: ArrayGeometry
    array_trajectory: Trajectory
    sources: tuple  # of SourceConfig
    snr_db: float = 20.0
    noise: str = "white"  # "white" | "pink"
    noise_rms: float = 0.01
    seed: int = 0
    sample_rate_hz: float = 48000.0
    speed_of_sound: float = SPEED_OF_SOUND
    task: int = 0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
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


def _vap_envelope(n_samples: int, fs: float, vaps, ramp: float = VAP_RAMP) -> np.ndarray:
    """Soft activity gate: 1 inside VAPs, 0 outside, raised-cosine edges."""
    t = np.arange(n_samples) / fs
    env = np.zeros(n_samples)
    for a, b in vaps:
        rise = np.clip((t - a) / ramp, 0.0, 1.0)
        fall = np.clip((b - t) / ramp, 0.0, 1.0)
        seg = 0.5 * (1 - np.cos(np.pi * rise)) * 0.5 * (1 - np.cos(np.pi * fall))
        env = np.maximum(env, np.where((t >= a) & (t <= b), seg, 0.0))
    return env


def _speech_like(n_samples: int, fs: float, rng: np.random.Generator) -> np.ndarray:
    """Speech surrogate: band-limited noise with slow amplitude modulation."""
    noise = rng.standard_normal(n_samples)
    b, a = butter(4, [100.0 / (fs / 2), 4000.0 / (fs / 2)], btype="band")
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


def _pink_noise(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """1/f noise via spectral shaping, unit RMS."""
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.arange(len(spectrum), dtype=float)
    freqs[0] = 1.0
    pink = np.fft.irfft(spectrum / np.sqrt(freqs), n=n_samples)
    return pink / np.sqrt(np.mean(pink**2))


def _fractional_delay_read(signal: np.ndarray, read_index: np.ndarray) -> np.ndarray:
    """Windowed-sinc interpolation of `signal` at fractional sample positions.

    Samples outside the signal read as zero. Tap ``o`` of the read at
    ``floor(idx) + f`` sits at ``x = o - f``; the kernel is evaluated through
    the identities in the module docstring as ``sin(pi f) / pi`` times
    ``(samples / (o - f)) @ _KERNEL_BASIS`` applied to
    ``[1, cos(pi f / W), sin(pi f / W)]``. Positions within machine epsilon of an
    integer, where ``o - f`` is 0 or nearly so, read that sample itself.
    """
    n = len(signal)
    pad = np.zeros(2 * SINC_HALF_WIDTH)
    # windows[b + SINC_HALF_WIDTH + 1] holds the taps b + _TAP_OFFSETS; floor(idx)
    # clipped to [-17, n + 15] keeps every tap inside the zero padding
    windows = sliding_window_view(np.concatenate([pad, signal, pad]), 2 * SINC_HALF_WIDTH)
    out = np.empty(len(read_index))
    chunk = CHUNK_ELEMENTS // (2 * SINC_HALF_WIDTH)
    for start in range(0, len(read_index), chunk):
        idx = read_index[start:start + chunk]
        floor = np.floor(idx)
        f = idx - floor
        base = np.clip(floor, -SINC_HALF_WIDTH - 1, n + SINC_HALF_WIDTH - 1).astype(np.int64)
        samples = windows[base + SINC_HALF_WIDTH + 1]
        # sin(pi f) = sin(pi (1 - f)); the smaller argument keeps it accurate as f -> 1
        sin_pi_f = np.sin(np.pi * np.minimum(f, 1.0 - f))
        phase = np.pi * f / SINC_HALF_WIDTH
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            terms = (samples / (_TAP_OFFSETS - f[:, None])) @ _KERNEL_BASIS
            value = sin_pi_f / np.pi * (
                terms[:, 0] + terms[:, 1] * np.cos(phase) + terms[:, 2] * np.sin(phase))
        # within eps of an integer the kernel is that sample to round-off, which
        # also covers f == 0 (o - f == 0) and f rounding up to 1 for idx just below 0;
        # the division above is not finite only on those rows
        out[start:start + chunk] = np.select(
            [f < _EPS, f > 1.0 - _EPS],
            [samples[:, SINC_HALF_WIDTH - 1], samples[:, SINC_HALF_WIDTH]], value)
    return out


def _mic_global_positions(config: SceneConfig, gt_times: np.ndarray) -> np.ndarray:
    """Per-mic global positions sampled on the ground-truth clock: (mics, T, 3)."""
    translations, rotations = sample_trajectory(config.array_trajectory, gt_times)
    return np.einsum("tij,mj->mti", rotations, config.array.mic_positions) + translations[None]


def synthesize(config: SceneConfig) -> Scene:
    """Render a scene to multichannel audio; deterministic for a given config."""
    fs = config.sample_rate_hz
    c = config.speed_of_sound
    n_samples = int(round(config.duration * fs))
    n_mics = config.array.mic_count
    gt_times = np.arange(0.0, config.duration + 0.5 / GROUND_TRUTH_RATE_HZ,
                         1.0 / GROUND_TRUTH_RATE_HZ)
    gt_times = np.clip(gt_times, 0.0, config.duration)
    sample_times = np.arange(n_samples) / fs

    mic_pos = _mic_global_positions(config, gt_times)

    root = np.random.SeedSequence(config.seed)
    source_seeds = root.spawn(len(config.sources) + 1)
    noise_rng = np.random.default_rng(source_seeds[-1])

    audio = np.zeros((n_mics, n_samples))
    reference_mic = int(np.argmin(
        np.linalg.norm(config.array.mic_positions - config.array.centroid, axis=1)
    ))
    vap_mask_any = np.zeros(n_samples, dtype=bool)

    for s_idx, source in enumerate(config.sources):
        rng = np.random.default_rng(source_seeds[s_idx])
        raw = _source_signal(source.signal, n_samples, fs, rng)
        envelope = _vap_envelope(n_samples, fs, source.vaps)
        emitted = raw * envelope
        src_pos, _ = sample_trajectory(source.trajectory, gt_times)

        # scale the source so its in-VAP power at the reference mic hits snr_db
        ref_dist_gt = np.linalg.norm(src_pos - mic_pos[reference_mic], axis=1)
        if ref_dist_gt.min() < GUARD_RADIUS:
            raise ValueError(
                f"source {s_idx} passes within {GUARD_RADIUS} m of a microphone"
            )
        in_vap = np.zeros(n_samples, dtype=bool)
        for a, b in source.vaps:
            in_vap |= (sample_times >= a) & (sample_times < b)
        vap_mask_any |= in_vap

        for m in range(n_mics):
            dist_gt = np.linalg.norm(src_pos - mic_pos[m], axis=1)
            if dist_gt.min() < GUARD_RADIUS:
                raise ValueError(
                    f"source {s_idx} passes within {GUARD_RADIUS} m of microphone {m}"
                )
            dist = np.interp(sample_times, gt_times, dist_gt)
            gain = 1.0 / np.maximum(dist, GUARD_RADIUS)
            read_index = np.arange(n_samples) - fs * dist / c
            audio[m] += gain * _fractional_delay_read(emitted, read_index)

    if config.noise == "white":
        noise = noise_rng.standard_normal((n_mics, n_samples))
    elif config.noise == "pink":
        noise = np.array([_pink_noise(n_samples, noise_rng) for _ in range(n_mics)])
    else:
        raise ValueError(f"unknown noise kind {config.noise!r}")
    noise /= np.sqrt(np.mean(noise**2))

    if config.sources and vap_mask_any.any():
        # noise floor set from the in-VAP signal power at the centroid-nearest mic
        sig_power = np.mean(audio[reference_mic][vap_mask_any] ** 2)
        noise_rms = np.sqrt(sig_power * 10.0 ** (-config.snr_db / 10.0))
    else:
        noise_rms = config.noise_rms
    audio = audio + noise_rms * noise

    source_trajectories = tuple(s.trajectory for s in config.sources)
    source_vaps = tuple(s.vaps for s in config.sources)
    return Scene(
        audio=MultichannelAudio(audio, fs, 0.0),
        source_trajectories=source_trajectories,
        source_vaps=source_vaps,
        array_trajectory=config.array_trajectory,
        config=config,
    )


# ---------------------------------------------------------------------------
# Task presets
# ---------------------------------------------------------------------------

def _random_vaps(duration: float, rng: np.random.Generator, duty: float = 0.7):
    """Alternating speech/pause intervals with roughly the requested duty cycle."""
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
                            start: np.ndarray, max_speed: float = 1.2,
                            bounds: float = 3.0) -> Trajectory:
    """Piecewise-smooth random walk at the ground-truth rate."""
    n = int(round(duration * GROUND_TRUTH_RATE_HZ)) + 1
    dt = 1.0 / GROUND_TRUTH_RATE_HZ
    # Ornstein-Uhlenbeck velocity, then clip speed
    vel = np.zeros((n, 3))
    v = rng.normal(0, 0.6, size=3) * np.array([1, 1, 0.1])
    for i in range(n):
        v = 0.995 * v + rng.normal(0, 0.08, size=3) * np.array([1, 1, 0.1])
        speed = np.linalg.norm(v)
        if speed > max_speed:
            v = v * (max_speed / speed)
        vel[i] = v
    pos = start + np.cumsum(vel * dt, axis=0)
    # reflect at a soft boundary box around the origin
    pos[:, :2] = np.clip(pos[:, :2], -bounds, bounds)
    samples = [Pose(pos[i], np.eye(3), i * dt) for i in range(n)]
    return Trajectory(tuple(samples), GROUND_TRUTH_RATE_HZ)


def _rotating_array_trajectory(duration: float, rng: np.random.Generator,
                               radius: float = 0.4) -> Trajectory:
    """Array drifting on a small circle while rotating about +z."""
    n = int(round(duration * GROUND_TRUTH_RATE_HZ)) + 1
    dt = 1.0 / GROUND_TRUTH_RATE_HZ
    rate = float(rng.uniform(0.2, 0.5)) * (1 if rng.random() < 0.5 else -1)  # rad/s
    phase0 = float(rng.uniform(0, 2 * np.pi))
    samples = []
    for i in range(n):
        t = i * dt
        angle = rate * t + phase0
        trans = np.array([radius * np.cos(0.3 * t), radius * np.sin(0.3 * t), 0.0])
        ca, sa = np.cos(angle), np.sin(angle)
        rot = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        samples.append(Pose(trans, rot, t))
    return Trajectory(tuple(samples), GROUND_TRUTH_RATE_HZ)


def _static_source(duration: float, rng: np.random.Generator) -> Trajectory:
    radius = float(rng.uniform(1.5, 2.5))
    azimuth = float(rng.uniform(-np.pi, np.pi))
    pos = np.array([radius * np.cos(azimuth), radius * np.sin(azimuth), 0.0])
    return static_trajectory(Pose(pos, np.eye(3)), duration, GROUND_TRUTH_RATE_HZ)


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
    geometry = get_array_preset(array)
    rng = np.random.default_rng(np.random.SeedSequence((seed, task)))

    moving_array = task in (5, 6)
    moving_sources = task in (3, 4, 5, 6)
    n_sources = 1 if task in (1, 3, 5) else int(rng.integers(2, 4)) if task == 2 else 2

    if moving_array:
        array_traj = _rotating_array_trajectory(duration, rng)
    else:
        array_traj = static_trajectory(identity_pose(), duration, GROUND_TRUTH_RATE_HZ)

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
        noise="white",
        seed=seed,
        task=task,
    )

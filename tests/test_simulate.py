import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import butter

from doatrack.geometry import (Pose, Trajectory, get_array_preset, identity_pose,
                               sample_trajectory, static_trajectory)
from doatrack.localize import expected_tdoa, gcc_phat
from doatrack.sigproc import cross_power_spectrum, frame_signal
from doatrack import simulate
from doatrack.simulate import (GUARD_RADIUS, SceneConfig, SourceConfig, _audible_spans,
                               synthesize, task_preset)

FS = 48000.0


def _static_scene(source_pos, array="robot_head", duration=2.0, snr_db=40.0,
                  seed=0, signal="white", vaps=None, n_extra=0):
    geom = get_array_preset(array)
    traj = static_trajectory(Pose(np.asarray(source_pos, float), np.eye(3)), duration)
    vaps = vaps or ((0.1, duration - 0.1),)
    return SceneConfig(
        duration=duration,
        array=geom,
        array_trajectory=static_trajectory(identity_pose(), duration),
        sources=(SourceConfig(traj, vaps, signal),),
        snr_db=snr_db,
        seed=seed,
    )


def test_determinism():
    a = synthesize(_static_scene([2.0, 1.0, 0.0]))
    b = synthesize(_static_scene([2.0, 1.0, 0.0]))
    assert np.array_equal(a.audio.samples, b.audio.samples)


def test_seed_changes_audio():
    a = synthesize(_static_scene([2.0, 1.0, 0.0], seed=0))
    b = synthesize(_static_scene([2.0, 1.0, 0.0], seed=1))
    assert not np.array_equal(a.audio.samples, b.audio.samples)


def test_shape_and_duration():
    scene = synthesize(_static_scene([2.0, 0.0, 0.0], duration=1.5))
    assert scene.audio.samples.shape == (12, int(1.5 * FS))
    assert scene.audio.sample_rate_hz == FS


def test_interchannel_delay_matches_geometry():
    # the simulator's fractional delays must agree with the TDoA model
    pos = np.array([1.8, 1.1, 0.0])
    scene = synthesize(_static_scene(pos, duration=2.0, snr_db=60.0))
    geom = scene.config.array
    frames = frame_signal(scene.audio, 2048, 1024)[20:44]
    for m, l in [(0, 1), (2, 7), (4, 11)]:
        expected = expected_tdoa(pos, geom.mic_positions[m], geom.mic_positions[l], FS)
        est = gcc_phat(cross_power_spectrum(frames, (m, l)), max_lag=40)
        assert est.delay == pytest.approx(expected, abs=0.1)


def test_inverse_distance_amplitude():
    near = synthesize(_static_scene([1.0, 0.0, 0.0], snr_db=80.0))
    far = synthesize(_static_scene([2.0, 0.0, 0.0], snr_db=80.0))
    sl = slice(int(0.5 * FS), int(1.5 * FS))
    ratio = (np.sqrt(np.mean(near.audio.samples[0, sl] ** 2))
             / np.sqrt(np.mean(far.audio.samples[0, sl] ** 2)))
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_vap_gating_silences_pauses():
    cfg = _static_scene([2.0, 0.0, 0.0], duration=3.0, snr_db=40.0,
                        vaps=((0.2, 1.0), (2.0, 2.8)))
    scene = synthesize(cfg)
    x = scene.audio.samples[0]
    active = x[int(0.4 * FS):int(0.9 * FS)]
    pause = x[int(1.3 * FS):int(1.8 * FS)]  # past propagation + ramp
    assert np.sqrt(np.mean(active**2)) > 20 * np.sqrt(np.mean(pause**2))


def test_snr_calibration():
    cfg = _static_scene([2.0, 0.0, 0.0], duration=3.0, snr_db=20.0)
    noisy = synthesize(cfg)
    clean = synthesize(_static_scene([2.0, 0.0, 0.0], duration=3.0, snr_db=300.0))
    sl = slice(int(0.5 * FS), int(2.5 * FS))
    sig_p = np.mean(clean.audio.samples[0, sl] ** 2)
    noise_p = np.mean((noisy.audio.samples[0, sl] - clean.audio.samples[0, sl]) ** 2)
    measured = 10 * math.log10(sig_p / noise_p)
    assert measured == pytest.approx(20.0, abs=1.5)


@pytest.mark.parametrize("field,value", [
    ("snr_db", math.nan), ("snr_db", -math.inf), ("duration", math.nan),
    ("duration", math.inf), ("duration", -1.0), ("duration", 0.0)])
def test_scene_rejects_a_nan_snr_or_a_bad_duration(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        replace(_static_scene([2.0, 0.0, 0.0], duration=1.0), **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be"):
        task_preset(4, 0, **{field: value})


def test_infinite_snr_is_a_noiseless_scene():
    scene = synthesize(_static_scene([2.0, 0.0, 0.0], duration=1.0, snr_db=math.inf))
    # the source speaks from 0.1 s, so the first 0.08 s hold no signal
    assert np.all(scene.audio.samples[:, :int(0.08 * FS)] == 0.0)


def test_guard_radius():
    with pytest.raises(ValueError):
        synthesize(_static_scene([0.05, 0.0, 0.0]))


def test_guard_radius_holds_for_a_silent_source():
    # the check runs for every microphone even where nothing is rendered
    geom = get_array_preset("dicit_32cm")
    pos = geom.mic_positions[4] + np.array([0.0, 0.05, 0.0])
    cfg = SceneConfig(
        duration=0.5, array=geom,
        array_trajectory=static_trajectory(identity_pose(), 0.5),
        sources=(SourceConfig(static_trajectory(Pose(pos, np.eye(3)), 0.5), ()),),
        seed=2,
    )
    with pytest.raises(ValueError, match=f"within {GUARD_RADIUS} m of microphone 4"):
        synthesize(cfg)


def _two_source_scene(vaps, silent_vaps=(), duration=1.0):
    """dicit_32cm scene with a white source speaking in `vaps` and a speech
    source speaking in `silent_vaps`."""
    geom = get_array_preset("dicit_32cm")
    sources = tuple(
        SourceConfig(static_trajectory(Pose(np.asarray(pos, float), np.eye(3)), duration),
                     v, kind)
        for pos, v, kind in (([2.0, 1.0, 0.0], vaps, "white"),
                             ([-1.0, 1.5, 0.3], silent_vaps, "speech")))
    return SceneConfig(duration=duration, array=geom,
                       array_trajectory=static_trajectory(identity_pose(), duration),
                       sources=sources, snr_db=30.0, seed=4)


EXACTNESS_CASES = {
    # 0.2 ms apart: the two spans overlap and merge
    "merged spans": _two_source_scene(((0.1, 0.4), (0.4002, 0.7))),
    "VAPs at both ends": _two_source_scene(((0.0, 0.3), (0.7, 1.0)), ((0.2, 0.5),)),
    "moving, rotating array": task_preset(5, seed=3, duration=1.0),
    "eigenmike fallback VAP": task_preset(4, seed=1, duration=0.25, array="eigenmike"),
    "silent source": _two_source_scene(((0.2, 0.6),), ()),
}


@pytest.mark.parametrize("case", list(EXACTNESS_CASES))
def test_skipping_silent_reads_is_exact(case, monkeypatch):
    config = EXACTNESS_CASES[case]
    got = synthesize(config).audio.samples
    monkeypatch.setattr(simulate, "_audible_spans",
                        lambda vaps, fs, lag_min, lag_max, n_samples: [(0, n_samples)])
    assert np.array_equal(got, synthesize(config).audio.samples)


@pytest.mark.parametrize("config,banks", [
    (EXACTNESS_CASES["silent source"], 1),
    (EXACTNESS_CASES["VAPs at both ends"], 2),
    (task_preset(4, seed=1, duration=0.5, array="eigenmike"), 2),
])
def test_one_bank_per_audible_source(config, banks, monkeypatch):
    built = []
    farrow_bank = simulate._farrow_bank

    def counting_bank(padded):
        built.append(farrow_bank(padded))
        return built[-1]

    monkeypatch.setattr(simulate, "_farrow_bank", counting_bank)
    synthesize(config)
    n_samples = round(config.duration * config.sample_rate_hz)
    # each bank covers the whole signal, from before its first sample to after its last
    assert [bank.shape for bank in built] == [
        (simulate.FARROW_DEGREE + 1, n_samples + 2 * simulate.SINC_HALF_WIDTH + 1)] * banks


def test_audible_spans_pad_merge_and_clip():
    assert simulate.SINC_HALF_WIDTH == 16
    # [floor(a fs + lag_min) - 17, ceil(b fs + lag_max) + 18)
    assert _audible_spans(((0.1, 0.2),), 1000.0, 2.5, 7.5, 1000) == [(85, 226)]
    # [-17, 498) and [943, 2418): clipped at 0, apart
    assert _audible_spans(((0.0, 0.01), (0.02, 0.05)), FS, 0.0, 0.0, 48000) == [
        (0, 498), (943, 2418)]
    # [491, 2418) overlaps [0, 498): one span
    assert _audible_spans(((0.0, 0.01), (0.0106, 0.05)), FS, 0.0, 0.0, 48000) == [
        (0, 2418)]
    # [118, 218) touches [0, 118) and merges; [119, 218) stays apart
    assert _audible_spans(((0.0, 0.1), (0.135, 0.2)), 1000.0, 0.0, 0.0, 1000) == [(0, 218)]
    assert _audible_spans(((0.0, 0.1), (0.136, 0.2)), 1000.0, 0.0, 0.0, 1000) == [
        (0, 118), (119, 218)]
    # a VAP ending at the last sample is clipped to the recording
    assert _audible_spans(((0.5, 1.0),), FS, 100.0, 200.0, 48000) == [(24083, 48000)]
    assert _audible_spans((), FS, 0.0, 0.0, 48000) == []


def test_geometry_clock_ends_on_the_duration():
    def grid(duration):
        return np.clip(np.arange(0.0, duration + 0.5 / 120, 1.0 / 120), 0.0, duration)

    # within 1e-9 s of the 120 Hz grid the clock is the clipped grid, bit for bit
    for duration in (0.25, 0.4, 0.5, 0.75, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 6.0, 10.0):
        assert np.array_equal(simulate._geometry_clock(duration), grid(duration))
    # below that the grid falls short, and the clock appends the duration
    for duration in (0.501, 1.004):
        clock = simulate._geometry_clock(duration)
        assert clock[-1] == duration
        assert np.array_equal(clock[:-1], grid(duration)) and grid(duration)[-1] < duration


def test_off_grid_duration_moves_the_source_to_the_end(monkeypatch):
    duration = 0.501
    config = task_preset(3, seed=0, duration=duration)
    config = replace(config, sources=tuple(replace(s, vaps=((0.0, duration),))
                                           for s in config.sources))
    reads = []
    delay_reader = simulate._delay_reader

    def recording_reader(signal):
        read = delay_reader(signal)

        def record(read_index):
            reads.append(read_index)
            return read(read_index)
        return record

    monkeypatch.setattr(simulate, "_delay_reader", recording_reader)
    synthesize(config)
    n = round(duration * FS)
    # one span per mic, each ending on the last sample; reads[0] is mic 0's
    assert len(reads) == config.array.mic_count
    dist = ((n - 1) - reads[0][-1]) * simulate.SPEED_OF_SOUND / FS
    src, _ = sample_trajectory(config.sources[0].trajectory, np.array([(n - 1) / FS]))
    expected = np.linalg.norm(src[0] - config.array.mic_positions[0])
    # a clock that stops at 0.5 s holds the distance there, 0.33 mm off here
    assert dist == pytest.approx(expected, abs=1e-6)


def test_trajectory_may_end_just_before_an_off_grid_duration():
    # SceneConfig accepts a trajectory that ends up to 1e-9 s before the duration
    duration = 0.501
    base = _static_scene([2.0, 1.0, 0.0], duration=duration)
    end = duration - 5e-10
    short = Trajectory((Pose(np.zeros(3), np.eye(3), 0.0), Pose(np.zeros(3), np.eye(3), end)))
    config = replace(base, array_trajectory=short)
    assert np.array_equal(synthesize(config).audio.samples, synthesize(base).audio.samples)


def test_speech_band_is_designed_once_per_rate():
    b, a = simulate._speech_band(FS)
    ref_b, ref_a = butter(4, [100.0 / (FS / 2), 4000.0 / (FS / 2)], btype="band")
    assert np.array_equal(b, ref_b) and np.array_equal(a, ref_a)
    assert simulate._speech_band(FS)[0] is b and not b.flags.writeable


def test_pure_noise_scene_uses_configured_rms():
    geom = get_array_preset("robot_head")
    cfg = SceneConfig(
        duration=1.0, array=geom,
        array_trajectory=static_trajectory(identity_pose(), 1.0),
        sources=(), noise_rms=0.02, seed=3,
    )
    scene = synthesize(cfg)
    assert np.sqrt(np.mean(scene.audio.samples**2)) == pytest.approx(0.02, rel=0.05)


def test_speech_like_signal_is_band_limited():
    scene = synthesize(_static_scene([2.0, 0.0, 0.0], snr_db=60.0, signal="speech"))
    x = scene.audio.samples[0, int(0.5 * FS):int(1.5 * FS)]
    spectrum = np.abs(np.fft.rfft(x))**2
    freqs = np.fft.rfftfreq(len(x), 1 / FS)
    in_band = spectrum[(freqs > 100) & (freqs < 4000)].sum()
    out_band = spectrum[freqs > 8000].sum()
    assert in_band > 100 * out_band


def test_task_preset_structure():
    for task in range(1, 7):
        cfg = task_preset(task, seed=0, duration=2.0)
        assert cfg.task == task
        assert len(cfg.sources) >= (2 if task in (2, 4, 6) else 1)
    assert len(task_preset(1, 0, duration=2.0).sources) == 1
    with pytest.raises(ValueError):
        task_preset(7, 0)


def test_task5_array_actually_moves():
    cfg = task_preset(5, seed=0, duration=2.0)
    samples = cfg.array_trajectory.samples
    assert not np.allclose(samples[0].rotation, samples[-1].rotation)


def test_ground_truth_rate():
    cfg = task_preset(1, seed=0, duration=2.0)
    ts = cfg.array_trajectory.timestamps
    assert np.allclose(np.diff(ts), 1.0 / 120.0)
    assert ts[-1] >= 2.0 - 1e-9


@pytest.mark.parametrize("task", [1, 5])  # static trajectories; walk and rotating array
def test_presets_reach_off_grid_durations(task):
    for duration in (0.501, 1.004):
        config = task_preset(task, 0, duration=duration)
        for traj in (config.array_trajectory, *(s.trajectory for s in config.sources)):
            assert duration <= traj.end_time < duration + 1.0 / 120.0
    # within 1e-9 s of the 120 Hz grid the sample count, and so every draw
    # the presets make, stays round(duration * 120) + 1
    for duration in (0.5, 1.0 - 1e-10, 1.0 + 1e-10, 6.0):
        config = task_preset(task, 0, duration=duration)
        for traj in (config.array_trajectory, *(s.trajectory for s in config.sources)):
            assert len(traj.samples) == round(duration * 120) + 1


def _walk_by_pose(duration, rng, start):
    """Per-sample reference for `_smooth_walk_trajectory`: one draw and one
    `Pose` per sample."""
    n = simulate.ground_truth_sample_count(duration)
    dt = 1.0 / 120.0
    vel = np.zeros((n, 3))
    v = rng.normal(0, 0.6, size=3) * np.array([1, 1, 0.1])
    for i in range(n):
        v = 0.995 * v + rng.normal(0, 0.08, size=3) * np.array([1, 1, 0.1])
        speed = np.linalg.norm(v)
        if speed > 1.2:
            v = v * (1.2 / speed)
        vel[i] = v
    pos = start + np.cumsum(vel * dt, axis=0)
    pos[:, :2] = np.clip(pos[:, :2], -3.0, 3.0)
    return Trajectory(tuple(Pose(pos[i], np.eye(3), i * dt) for i in range(n)))


def _rotating_array_by_pose(duration, rng):
    """Per-sample reference for `_rotating_array_trajectory`."""
    n = simulate.ground_truth_sample_count(duration)
    dt = 1.0 / 120.0
    rate = float(rng.uniform(0.2, 0.5)) * (1 if rng.random() < 0.5 else -1)
    phase0 = float(rng.uniform(0, 2 * np.pi))
    samples = []
    for i in range(n):
        t = i * dt
        angle = rate * t + phase0
        trans = np.array([0.4 * np.cos(0.3 * t), 0.4 * np.sin(0.3 * t), 0.0])
        ca, sa = np.cos(angle), np.sin(angle)
        rot = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        samples.append(Pose(trans, rot, t))
    return Trajectory(tuple(samples))


def _static_by_pose(pose, duration):
    """Per-sample reference for `static_trajectory`."""
    n = simulate.ground_truth_sample_count(duration)
    return Trajectory(tuple(Pose(pose.translation, pose.rotation, pose.timestamp + i / 120.0)
                            for i in range(n)))


def _preset_arrays(task, seed, array, duration):
    config = task_preset(task, seed, duration=duration, array=array)
    return [(traj.timestamps.tobytes(), traj.translations.tobytes(), traj.rotations.tobytes())
            for traj in (config.array_trajectory, *(s.trajectory for s in config.sources))
            ] + [s.vaps for s in config.sources]


@pytest.mark.parametrize("task", range(1, 7))
def test_preset_arrays_are_the_per_pose_build(task, monkeypatch):
    cases = [(seed, array, duration) for seed in (1, 2, 20261017)
             for array in ("robot_head", "eigenmike", "dicit_32cm", "hearing_aids")
             for duration in ((1.0, 0.504) if array == "robot_head" else (1.0,))]
    columnar = [_preset_arrays(task, *case) for case in cases]
    monkeypatch.setattr(simulate, "_smooth_walk_trajectory", _walk_by_pose)
    monkeypatch.setattr(simulate, "_rotating_array_trajectory", _rotating_array_by_pose)
    monkeypatch.setattr(simulate, "static_trajectory", _static_by_pose)
    assert [_preset_arrays(task, *case) for case in cases] == columnar

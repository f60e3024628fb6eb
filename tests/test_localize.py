import math

import numpy as np
import pytest

from doatrack.geometry import Doa, doa_to_unit_vector, get_array_preset
from doatrack.cli import _circular_peaks
from doatrack.localize import (IllConditionedError, NoSignalError, SpatialSpectrum,
                               TdoaEstimate, UnderdeterminedError,
                               UnsupportedGeometryError, azimuth_grid, expected_tdoa,
                               farfield_pair_tdoa, gcc_phat, music_spectrum,
                               pseudo_intensity, sphere_grid, srp_argmax, srp_phat,
                               tdoa_to_azimuth)
from doatrack.sigproc import MultichannelAudio, cross_power_spectrum, frame_signal

from synthutil import plane_wave_audio

FS = 48000.0
C = 343.0


def test_expected_tdoa_matches_direct_arithmetic():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = rng.uniform(-3, 3, 3)
        m = rng.uniform(-0.1, 0.1, 3)
        l = rng.uniform(-0.1, 0.1, 3)
        tau = expected_tdoa(s, m, l, FS, C)
        ref = FS / C * (np.linalg.norm(s - m) - np.linalg.norm(s - l))
        assert tau == pytest.approx(ref, abs=1e-12)


def test_expected_tdoa_antisymmetry_and_zero():
    s, m, l = np.array([2.0, 1, 0]), np.array([0.1, 0, 0]), np.array([-0.1, 0, 0])
    assert expected_tdoa(s, m, l, FS) == pytest.approx(-expected_tdoa(s, l, m, FS))
    assert expected_tdoa(s, m, m, FS) == 0.0


def test_farfield_tdoa_is_distant_source_limit():
    rng = np.random.default_rng(1)
    m = rng.uniform(-0.05, 0.05, 3)
    l = rng.uniform(-0.05, 0.05, 3)
    for az in np.linspace(-3, 3, 7):
        u = doa_to_unit_vector(Doa(az))
        far = expected_tdoa(1e6 * u, m, l, FS, C)
        approx = float(farfield_pair_tdoa(u, m, l, FS, C)[0])
        assert approx == pytest.approx(far, abs=1e-3)


def _delayed_pair_frames(delay, n=16384, seed=0):
    from synthutil import fractional_shift
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    delayed = fractional_shift(base, delay)
    audio = MultichannelAudio(np.stack([delayed, base]), FS)
    return frame_signal(audio, 2048, 1024)


@pytest.mark.parametrize("delay", [-7.0, -1.0, 0.0, 3.0, 12.0])
def test_gcc_phat_integer_delays(delay):
    frames = _delayed_pair_frames(delay)
    est = gcc_phat(cross_power_spectrum(frames, (0, 1)), max_lag=32)
    assert est.delay == pytest.approx(delay, abs=0.05)


@pytest.mark.parametrize("delay", [-4.5, -0.25, 0.3, 2.75, 7.4])
def test_gcc_phat_fractional_delays(delay):
    frames = _delayed_pair_frames(delay)
    est = gcc_phat(cross_power_spectrum(frames, (0, 1)), max_lag=32)
    assert est.delay == pytest.approx(delay, abs=0.1)


def test_gcc_phat_sign_convention_matches_expected_tdoa():
    # a source closer to mic l than mic m arrives at m later: positive delay
    geom = get_array_preset("dicit_32cm")
    src = np.array([0.0, 10.0, 0.0])
    m, l = 0, 4
    tau = expected_tdoa(src, geom.mic_positions[m], geom.mic_positions[l], FS, C)
    frames = _delayed_pair_frames(tau)
    est = gcc_phat(cross_power_spectrum(frames, (0, 1)), max_lag=200)
    assert est.delay == pytest.approx(tau, abs=0.1)


def test_gcc_phat_rejects_silence():
    audio = MultichannelAudio(np.zeros((2, 8192)), FS)
    frames = frame_signal(audio, 2048, 1024)
    with pytest.raises(NoSignalError):
        gcc_phat(cross_power_spectrum(frames, (0, 1)), max_lag=32)


def test_tdoa_to_azimuth_from_exact_delays():
    geom = get_array_preset("dicit_32cm")
    for az_deg in (10.0, 45.0, 80.0):
        u = doa_to_unit_vector(Doa(math.radians(az_deg)))
        ests = []
        for m, l in geom.pairs():
            tau = float(farfield_pair_tdoa(u, geom.mic_positions[m],
                                           geom.mic_positions[l], FS, C)[0])
            ests.append(TdoaEstimate((m, l), tau, 1.0))
        doa = tdoa_to_azimuth(ests, geom, FS, C)
        assert math.degrees(doa.azimuth) == pytest.approx(az_deg, abs=1.0)


def test_tdoa_to_azimuth_needs_estimates():
    geom = get_array_preset("dicit_32cm")
    with pytest.raises(UnderdeterminedError):
        tdoa_to_azimuth([], geom, FS)


def test_azimuth_grid_resolution():
    grid = azimuth_grid(1.0)
    assert len(grid) == 360
    assert np.all(np.diff(grid.azimuths) > 0)


def test_grid_arrays_are_computed_once_and_read_only():
    grid = sphere_grid(10.0)
    assert grid.unit_vectors is grid.unit_vectors
    assert grid.azimuths is grid.azimuths
    assert not grid.unit_vectors.flags.writeable
    assert not grid.azimuths.flags.writeable


def test_sphere_grid_covers_sphere():
    grid = sphere_grid(10.0)
    v = grid.unit_vectors
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0)
    assert v[:, 2].min() < -0.9 and v[:, 2].max() > 0.9


@pytest.mark.parametrize("az_deg", [-170.0, -45.0, 0.0, 40.0, 135.0])
def test_srp_phat_plane_wave(az_deg):
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(az_deg), n=16384)
    frames = frame_signal(audio, 2048, 1024)[:8]
    spec = srp_phat(frames, geom, azimuth_grid(1.0), FS, C)
    doa = srp_argmax(spec)
    err = abs(math.degrees(doa.azimuth) - az_deg)
    assert min(err, 360 - err) <= 1.0


def test_srp_phat_noisy_plane_wave():
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(72.0), n=16384, snr_db=10)
    frames = frame_signal(audio, 2048, 1024)[:8]
    doa = srp_argmax(srp_phat(frames, geom, azimuth_grid(1.0), FS, C))
    assert abs(math.degrees(doa.azimuth) - 72.0) <= 2.0


def test_srp_phat_rejects_silence():
    geom = get_array_preset("robot_head")
    frames = frame_signal(MultichannelAudio(np.zeros((12, 16384)), FS), 2048, 1024)[:8]
    with pytest.raises(NoSignalError):
        srp_phat(frames, geom, azimuth_grid(1.0), FS, C)


def test_srp_phat_localizes_with_one_dead_channel():
    geom = get_array_preset("robot_head")
    samples = plane_wave_audio(geom, math.radians(40.0), n=16384).samples.copy()
    samples[3] = 0.0
    frames = frame_signal(MultichannelAudio(samples, FS), 2048, 1024)[:8]
    doa = srp_argmax(srp_phat(frames, geom, azimuth_grid(1.0), FS, C))
    assert abs(math.degrees(doa.azimuth) - 40.0) <= 1.0


def test_mirror_tie_on_linear_array_goes_to_smallest_azimuth():
    # dicit_32cm lies along y, so azimuths a and 180 - a steer identically and
    # their SRP values differ only by rounding
    geom = get_array_preset("dicit_32cm")
    audio = plane_wave_audio(geom, math.radians(49.0), n=16384)
    frames = frame_signal(audio, 2048, 1024)[:8]
    grid = azimuth_grid(1.0)
    spec = srp_phat(frames, geom, grid, FS, C)
    deg = np.degrees(grid.azimuths)
    front, back = int(np.argmin(np.abs(deg - 49.0))), int(np.argmin(np.abs(deg - 131.0)))
    assert spec.values[back] == pytest.approx(spec.values[front], rel=1e-12)
    for favoured in (front, back):
        values = spec.values.copy()
        values[favoured] *= 1.0 + 1e-13
        doa = srp_argmax(SpatialSpectrum(grid, values, "SRP"))
        assert math.degrees(doa.azimuth) == pytest.approx(49.0)
        peaks = _circular_peaks(grid.azimuths, values, 2, min_sep_deg=10.0)
        assert np.degrees(peaks) == pytest.approx([49.0, 131.0])


@pytest.mark.parametrize("az_deg", [-120.0, 0.0, 40.0])
def test_music_plane_wave(az_deg):
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(az_deg), n=32768, snr_db=20)
    frames = frame_signal(audio, 2048, 1024)[:16]
    spec = music_spectrum(frames, geom, azimuth_grid(1.0), 1, FS, C)
    best = math.degrees(spec.grid.azimuths[int(np.argmax(spec.values))])
    err = abs(best - az_deg)
    assert min(err, 360 - err) <= 1.0


def test_music_two_sources():
    geom = get_array_preset("robot_head")
    a = plane_wave_audio(geom, math.radians(30.0), n=32768, seed=1)
    b = plane_wave_audio(geom, math.radians(-90.0), n=32768, seed=2)
    audio = MultichannelAudio(a.samples + b.samples, FS)
    frames = frame_signal(audio, 2048, 1024)[:16]
    spec = music_spectrum(frames, geom, azimuth_grid(1.0), 2, FS, C)
    az = np.degrees(spec.grid.azimuths)
    # both true directions must be within 2 deg of a local peak of comparable height
    values = spec.values / spec.values.max()
    for target in (30.0, -90.0):
        near = np.abs((az - target + 180) % 360 - 180) <= 2.0
        assert values[near].max() > 0.5


def test_music_frame_count_guard():
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, 0.5, n=16384)
    frames = frame_signal(audio, 2048, 1024)[:4]
    with pytest.raises(ValueError):
        music_spectrum(frames, geom, azimuth_grid(5.0), 1, FS)


def test_music_n_sources_bounds():
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, 0.5, n=32768)
    frames = frame_signal(audio, 2048, 1024)[:16]
    with pytest.raises(ValueError):
        music_spectrum(frames, geom, azimuth_grid(5.0), 0, FS)
    with pytest.raises(ValueError):
        music_spectrum(frames, geom, azimuth_grid(5.0), 12, FS)


@pytest.mark.parametrize("az_deg", [-135.0, 20.0, 100.0])
def test_pseudo_intensity_plane_wave(az_deg):
    geom = get_array_preset("eigenmike")
    audio = plane_wave_audio(geom, math.radians(az_deg), n=16384)
    frames = frame_signal(audio, 2048, 1024)[:8]
    ests = pseudo_intensity(frames, geom, FS)
    assert len(ests) == 8
    for est in ests:
        err = abs(math.degrees(est.doa.azimuth) - az_deg)
        assert min(err, 360 - err) <= 3.0


def test_pseudo_intensity_rejects_linear_array():
    geom = get_array_preset("dicit")
    audio = MultichannelAudio(np.random.default_rng(0).standard_normal((15, 8192)), FS)
    frames = frame_signal(audio, 2048, 1024)
    with pytest.raises(UnsupportedGeometryError):
        pseudo_intensity(frames, geom, FS)


def test_pseudo_intensity_rejects_silence():
    geom = get_array_preset("eigenmike")
    audio = MultichannelAudio(np.zeros((32, 8192)), FS)
    frames = frame_signal(audio, 2048, 1024)
    with pytest.raises(NoSignalError):
        pseudo_intensity(frames, geom, FS)

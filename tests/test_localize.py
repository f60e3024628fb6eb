import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doatrack.geometry import (ArrayGeometry, Doa, doa_to_unit_vector, get_array_preset,
                               upper_pairs, wrap_angle)
from doatrack.localize import (BlockTdoas, DoaGrid, NoSignalError, UnsupportedGeometryError,
                               azimuth_grid, circular_peaks, expected_tdoa,
                               farfield_pair_tdoa, gcc_phat, music_spectrum,
                               pseudo_intensity, srp_phat, tdoa_to_azimuth)
from doatrack.sigproc import Blocks, MultichannelAudio, cross_power_spectrum, frame_signal

from synthutil import plane_wave_audio

FS = 48000.0
C = 343.0


def _peak_deg(values, grid):
    """The direction of a one-block spectrum's highest peak, degrees."""
    return math.degrees(circular_peaks(grid.azimuths, values, 1)[0])


def test_expected_tdoa_matches_direct_arithmetic():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = rng.uniform(-3, 3, 3)
        m = rng.uniform(-0.1, 0.1, 3)
        l = rng.uniform(-0.1, 0.1, 3)
        tau = expected_tdoa(s, m, l, FS)
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
        far = expected_tdoa(1e6 * u, m, l, FS)
        approx = float(farfield_pair_tdoa(u, m, l, FS)[0])
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
    tau = expected_tdoa(src, geom.mic_positions[m], geom.mic_positions[l], FS)
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
    pairs = upper_pairs(geom.mic_count).tolist()
    for az_deg in (10.0, 45.0, 80.0):
        u = doa_to_unit_vector(Doa(math.radians(az_deg)))
        delays = [float(farfield_pair_tdoa(u, geom.mic_positions[m], geom.mic_positions[l],
                                           FS)[0]) for m, l in pairs]
        tdoas = BlockTdoas(tuple(map(tuple, pairs)), np.array([delays]), np.ones((1, len(pairs))),
                           np.array([True]), FS)
        (azimuth,) = tdoa_to_azimuth(tdoas, geom)
        assert math.degrees(azimuth) == pytest.approx(az_deg, abs=1.0)


def test_azimuth_grid_resolution():
    grid = azimuth_grid(1.0)
    assert len(grid) == 360
    assert np.all(np.diff(grid.azimuths) > 0)


def test_grid_arrays_are_computed_once_and_read_only():
    grid = azimuth_grid(10.0)
    assert grid.unit_vectors is grid.unit_vectors
    assert grid.azimuths is grid.azimuths
    assert not grid.unit_vectors.flags.writeable
    assert not grid.azimuths.flags.writeable


@pytest.mark.parametrize("az_deg", [-170.0, -45.0, 0.0, 40.0, 135.0])
def test_srp_phat_plane_wave(az_deg):
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(az_deg), n=16384)
    frames = frame_signal(audio, 2048, 1024)[:8]
    grid = azimuth_grid(1.0)
    (spec,) = srp_phat(Blocks.whole(frames), geom, grid)
    err = abs(_peak_deg(spec, grid) - az_deg)
    assert min(err, 360 - err) <= 1.0


@settings(max_examples=25, deadline=None)
@given(az_deg=st.floats(-180.0, 180.0), yaw_deg=st.floats(-180.0, 180.0),
       seed=st.integers(0, 2**16))
def test_srp_phat_turns_with_the_array(az_deg, yaw_deg, seed):
    # turning the mic layout and the source by one yaw turns the estimate by it
    geom = get_array_preset("robot_head")
    yaw = math.radians(yaw_deg)
    turn = np.array([[math.cos(yaw), -math.sin(yaw), 0.0],
                     [math.sin(yaw), math.cos(yaw), 0.0],
                     [0.0, 0.0, 1.0]])
    turned = ArrayGeometry(geom.name, geom.mic_positions @ turn.T)
    estimates = []
    for g, az in ((geom, math.radians(az_deg)), (turned, math.radians(az_deg) + yaw)):
        frames = frame_signal(plane_wave_audio(g, az, n=16384, seed=seed), 2048, 1024)[:8]
        grid = azimuth_grid(1.0)
        (spec,) = srp_phat(Blocks.whole(frames), g, grid)
        estimates += circular_peaks(grid.azimuths, spec, 1)
    assert abs(math.degrees(wrap_angle(estimates[1] - estimates[0] - yaw))) <= 1.0 + 1e-9


def test_srp_phat_noisy_plane_wave():
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(72.0), n=16384, snr_db=10)
    frames = frame_signal(audio, 2048, 1024)[:8]
    grid = azimuth_grid(1.0)
    assert abs(_peak_deg(srp_phat(Blocks.whole(frames), geom, grid)[0], grid) - 72.0) <= 2.0


def test_srp_phat_rejects_silence():
    geom = get_array_preset("robot_head")
    frames = frame_signal(MultichannelAudio(np.zeros((12, 16384)), FS), 2048, 1024)[:8]
    spectra = srp_phat(Blocks.whole(frames), geom, azimuth_grid(1.0))
    assert spectra.shape == (1, 360) and np.isnan(spectra).all()


def test_srp_phat_localizes_with_one_dead_channel():
    geom = get_array_preset("robot_head")
    samples = plane_wave_audio(geom, math.radians(40.0), n=16384).samples.copy()
    samples[3] = 0.0
    frames = frame_signal(MultichannelAudio(samples, FS), 2048, 1024)[:8]
    grid = azimuth_grid(1.0)
    assert abs(_peak_deg(srp_phat(Blocks.whole(frames), geom, grid)[0], grid) - 40.0) <= 1.0


def test_mirror_tie_on_linear_array_goes_to_smallest_azimuth():
    # dicit_32cm lies along y, so azimuths a and 180 - a steer identically and
    # their SRP values differ only by rounding
    geom = get_array_preset("dicit_32cm")
    audio = plane_wave_audio(geom, math.radians(49.0), n=16384)
    frames = frame_signal(audio, 2048, 1024)[:8]
    grid = azimuth_grid(1.0)
    (spec,) = srp_phat(Blocks.whole(frames), geom, grid)
    deg = np.degrees(grid.azimuths)
    front, back = int(np.argmin(np.abs(deg - 49.0))), int(np.argmin(np.abs(deg - 131.0)))
    assert spec[back] == pytest.approx(spec[front], rel=1e-12)
    for favoured in (front, back):
        values = spec.copy()
        values[favoured] *= 1.0 + 1e-13
        assert np.degrees(circular_peaks(grid.azimuths, values, 1)) == pytest.approx([49.0])
        peaks = circular_peaks(grid.azimuths, values, 2)
        assert np.degrees(peaks) == pytest.approx([49.0, 131.0])


# steered directions of a 360-direction grid under the default band: the
# 2N + 1 of the band-limited path, or the grid's own
BAND_LIMITED_SIZES = {"robot_head": 63, "eigenmike": 59, "hearing_aids": 79, "dicit_32cm": 319}


def _steered_sizes(monkeypatch, geom, grid):
    """Direction counts of the grids srp_phat steers over one 8-frame block."""
    import doatrack.localize

    sizes = []
    steering = doatrack.localize._steering

    def recording(geometry, steered, *args):
        sizes.append(len(steered))
        return steering(geometry, steered, *args)

    monkeypatch.setattr(doatrack.localize, "_steering", recording)
    frames = frame_signal(plane_wave_audio(geom, math.radians(40.0), n=9216), 2048, 1024)
    assert srp_phat(Blocks.whole(frames), geom, grid).shape == (1, len(grid))
    return set(sizes)


@pytest.mark.parametrize("array", sorted(BAND_LIMITED_SIZES))
def test_band_limited_srp_steers_2n_plus_1_directions(monkeypatch, array):
    geom = get_array_preset(array)
    assert _steered_sizes(monkeypatch, geom, azimuth_grid(1.0)) == {BAND_LIMITED_SIZES[array]}
    # decided from the directions, not from the grid object
    copy = DoaGrid(azimuth_grid(1.0).directions)
    assert _steered_sizes(monkeypatch, geom, copy) == {BAND_LIMITED_SIZES[array]}


def _elevated_circle():
    return DoaGrid(tuple(Doa(a, math.radians(60.0)) for a in azimuth_grid(1.0).azimuths))


@pytest.mark.parametrize("array,grid", [
    ("dicit", lambda: azimuth_grid(1.0)),  # 2.24 m aperture: 2N + 1 = 511 > 360
    ("robot_head", lambda: azimuth_grid(6.0)),  # 60 directions, coarser than 2N + 1 = 63
    ("robot_head", lambda: azimuth_grid(360.0 / 63)),  # exactly 2N + 1
    ("robot_head", _elevated_circle),
    ("robot_head", lambda: DoaGrid(azimuth_grid(1.0).directions[:180])),  # half circle
    ("robot_head", lambda: azimuth_grid(7.0)),  # 51 steps of 7 degrees do not close the circle
], ids=["dicit", "coarse", "2n+1", "elevated", "arc", "open"])
def test_srp_steers_its_own_directions_off_the_band_limited_path(monkeypatch, array, grid):
    grid = grid()
    assert _steered_sizes(monkeypatch, get_array_preset(array), grid) == {len(grid)}


@settings(max_examples=30, deadline=None)
@given(array=st.sampled_from(["robot_head", "eigenmike", "hearing_aids"]),
       az_deg=st.floats(-180.0, 180.0), el_deg=st.floats(30.0, 150.0),
       seed=st.integers(0, 2**16), snr_db=st.sampled_from([None, 0.0, 20.0]))
def test_band_limited_srp_matches_direct_evaluation(array, az_deg, el_deg, seed, snr_db):
    from doatrack import localize

    geom = get_array_preset(array)
    audio = plane_wave_audio(geom, math.radians(az_deg), elevation=math.radians(el_deg),
                             n=9216, seed=seed, snr_db=snr_db)
    frames = frame_signal(audio, 2048, 1024)
    grid = azimuth_grid(1.0)
    bins = localize._band_bins(2048, FS, localize.DEFAULT_BAND_HZ)
    coarse = localize._band_limited_grid(geom, grid, bins[-1] * FS / 2048)
    assert len(coarse) == BAND_LIMITED_SIZES[array]
    (spec,) = srp_phat(Blocks.whole(frames), geom, grid)
    (direct,) = localize._steered_power(Blocks.whole(frames), geom, grid, bins, FS)
    assert np.max(np.abs(spec - direct)) <= 1e-13 * np.max(np.abs(direct))
    assert _peak_deg(spec, grid) == _peak_deg(direct, grid)


@pytest.mark.parametrize("az_deg", [-120.0, 0.0, 40.0])
def test_music_plane_wave(az_deg):
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(az_deg), n=32768, snr_db=20)
    frames = frame_signal(audio, 2048, 1024)[:16]
    grid = azimuth_grid(1.0)
    (spec,) = music_spectrum(Blocks.whole(frames), geom, grid, 1)
    best = math.degrees(grid.azimuths[int(np.argmax(spec))])
    err = abs(best - az_deg)
    assert min(err, 360 - err) <= 1.0


def test_music_two_sources():
    geom = get_array_preset("robot_head")
    a = plane_wave_audio(geom, math.radians(30.0), n=32768, seed=1)
    b = plane_wave_audio(geom, math.radians(-90.0), n=32768, seed=2)
    audio = MultichannelAudio(a.samples + b.samples, FS)
    frames = frame_signal(audio, 2048, 1024)[:16]
    grid = azimuth_grid(1.0)
    (spec,) = music_spectrum(Blocks.whole(frames), geom, grid, 2)
    az = np.degrees(grid.azimuths)
    # both true directions must be within 2 deg of a local peak of comparable height
    values = spec / spec.max()
    for target in (30.0, -90.0):
        near = np.abs((az - target + 180) % 360 - 180) <= 2.0
        assert values[near].max() > 0.5


def test_music_frame_count_guard():
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, 0.5, n=16384)
    frames = frame_signal(audio, 2048, 1024)[:4]
    with pytest.raises(ValueError):
        music_spectrum(Blocks.whole(frames), geom, azimuth_grid(5.0), 1)


def test_music_n_sources_bounds():
    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, 0.5, n=32768)
    blocks = Blocks.whole(frame_signal(audio, 2048, 1024)[:16])
    with pytest.raises(ValueError):
        music_spectrum(blocks, geom, azimuth_grid(5.0), 0)
    with pytest.raises(ValueError):
        music_spectrum(blocks, geom, azimuth_grid(5.0), 12)


@pytest.mark.parametrize("az_deg", [-135.0, 20.0, 100.0])
def test_pseudo_intensity_plane_wave(az_deg):
    geom = get_array_preset("eigenmike")
    audio = plane_wave_audio(geom, math.radians(az_deg), n=16384)
    frames = frame_signal(audio, 2048, 1024)[:8]
    # one-frame blocks, so every frame's own azimuth is checked
    azimuths = pseudo_intensity(Blocks(frames, np.arange(8), 1, 2048, 1024), geom)
    assert len(azimuths) == 8
    for azimuth in azimuths:
        err = abs(math.degrees(azimuth) - az_deg)
        assert min(err, 360 - err) <= 3.0


def test_pseudo_intensity_rejects_linear_array():
    geom = get_array_preset("dicit")
    audio = MultichannelAudio(np.random.default_rng(0).standard_normal((15, 8192)), FS)
    frames = frame_signal(audio, 2048, 1024)
    with pytest.raises(UnsupportedGeometryError):
        pseudo_intensity(Blocks.whole(frames), geom)


def test_pseudo_intensity_rejects_silence():
    geom = get_array_preset("eigenmike")
    audio = MultichannelAudio(np.zeros((32, 8192)), FS)
    frames = frame_signal(audio, 2048, 1024)
    assert np.isnan(pseudo_intensity(Blocks.whole(frames), geom)).all()


# ---------------------------------------------------------------------------
# Stream structure and memory
# ---------------------------------------------------------------------------

# frames of each block group, in order, that every localizer forms on a 4 s
# task-4 scene (seed 1): a group holds as many frames as their STFT and the
# sub-block cross-spectra the localizer reads fit in BLOCK_GROUP_ELEMENTS
GROUP_FRAMES = {
    ("robot_head", "srp-phat"): [68, 68, 56],
    ("robot_head", "music"): [56, 56, 56, 40],
    ("robot_head", "gcc-phat"): [32] * 6 + [16],
    ("robot_head", "pseudo-intensity"): [84, 84, 24],
    ("eigenmike", "srp-phat"): [20] * 11 + [8],
    ("eigenmike", "music"): [32] * 39,
    ("eigenmike", "gcc-phat"): [8] * 45,
    ("eigenmike", "pseudo-intensity"): [28] * 7 + [16],
    ("dicit_32cm", "srp-phat"): [184],
    ("dicit_32cm", "music"): [168, 20],
    ("dicit_32cm", "gcc-phat"): [136, 52],
}


@lru_cache(maxsize=None)
def _task4_audio(array):
    from doatrack.simulate import synthesize, task_preset
    audio = synthesize(task_preset(4, 1, duration=4.0, array=array)).audio
    audio.samples.flags.writeable = False  # shared by the tests of one array
    return audio


@pytest.mark.parametrize("array,localizer", sorted(GROUP_FRAMES))
def test_block_groups_keep_their_frame_counts(monkeypatch, array, localizer):
    import doatrack.sigproc
    from doatrack.pipeline import localize_stream

    counts = []
    groups = doatrack.sigproc.Blocks.groups

    def counting_groups(self, *args):
        for group_slice, group in groups(self, *args):
            counts.append(len(group.source))
            yield group_slice, group

    monkeypatch.setattr(doatrack.sigproc.Blocks, "groups", counting_groups)
    assert localize_stream(_task4_audio(array), get_array_preset(array), localizer)
    assert counts == GROUP_FRAMES[array, localizer]


@pytest.mark.parametrize("seconds", [2.0, 6.0])
def test_steering_is_built_once_per_block_group(monkeypatch, seconds):
    import doatrack.localize
    from doatrack.pipeline import localize_stream
    from doatrack.sigproc import BLOCK_GROUP_ELEMENTS, CHUNK_ELEMENTS

    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(30.0), n=int(FS * seconds), snr_db=20)
    starts, chunks = [], []
    steering = doatrack.localize._steering

    def counting(*args):
        starts.append(1)
        for chunk in steering(*args):
            chunks.append(1)
            yield chunk

    monkeypatch.setattr(doatrack.localize, "_steering", counting)
    estimates = localize_stream(audio, geom, "srp-phat")
    # noise-free of pauses, so every block passes the energy gate
    n_frames = (audio.length - 2048) // 1024 + 1
    n_blocks = (n_frames - 8) // 4 + 1
    assert len(estimates) == n_blocks
    # a group spans as many frames as its STFT and the 4-frame sub-block
    # cross-spectra of the m < l pairs over the band's bins fit in the budget
    channels, n_bins = geom.mic_count, 158
    frame_elements = channels * 1025 + -(-n_bins * (channels * (channels - 1) // 2) // 4)
    group_blocks = (BLOCK_GROUP_ELEMENTS // frame_elements - 8) // 4 + 1
    n_groups = -(-n_blocks // group_blocks)
    # the band-limited path steers 63 of the grid's 360 directions
    bin_chunks = -(-n_bins // (CHUNK_ELEMENTS // (63 * channels)))
    assert len(starts) == n_groups < n_blocks
    assert len(chunks) == n_groups * bin_chunks


@pytest.mark.parametrize("array,localizer,seconds", [("robot_head", "gcc-phat", 0.75),
                                                     ("eigenmike", "srp-phat", 0.4)])
def test_short_clip_is_one_block_group(monkeypatch, array, localizer, seconds):
    # the m < l pair spectra of all blocks of these clips fit in one group,
    # so their frames are transformed once and the steering is built once
    import doatrack.localize
    import doatrack.sigproc
    from doatrack.pipeline import localize_stream

    geom = get_array_preset(array)
    audio = plane_wave_audio(geom, math.radians(30.0), n=int(FS * seconds), snr_db=20)
    transforms, steerings = [], []
    frame_signal = doatrack.sigproc.frame_signal
    steering = doatrack.localize._steering

    def counting_frames(*args):
        transforms.append(1)
        return frame_signal(*args)

    def counting_steering(*args):
        steerings.append(1)
        return steering(*args)

    monkeypatch.setattr(doatrack.sigproc, "frame_signal", counting_frames)
    monkeypatch.setattr(doatrack.localize, "_steering", counting_steering)
    estimates = localize_stream(audio, geom, localizer)
    n_frames = (audio.length - 2048) // 1024 + 1
    assert len(estimates) == (n_frames - 8) // 4 + 1 > 1
    assert len(transforms) == 1
    assert len(steerings) == (localizer == "srp-phat")


@pytest.mark.parametrize("localizer", ["gcc-phat", "music"])
def test_block_groups_transform_each_frame_once(monkeypatch, localizer):
    # eigenmike's GCC-PHAT and MUSIC groups hold one block each, so the
    # groups overlap; a silent stretch gates some blocks and leaves a gap
    import doatrack.sigproc
    from doatrack.pipeline import localize_stream

    geom = get_array_preset("eigenmike")
    audio = plane_wave_audio(geom, math.radians(30.0), n=int(FS * 1.5), snr_db=20)
    audio.samples[:, 30000:40000] = 0.0
    hop = 1024
    base = audio.samples.ctypes.data
    transformed, group_count, spanned = [], [], set()
    frame_signal = doatrack.sigproc.frame_signal
    groups = doatrack.sigproc.Blocks.groups

    def counting_frames(span, *args):
        # the first frame of a span, from where its samples lie in the recording
        frames = frame_signal(span, *args)
        offset, rest = divmod(span.samples.ctypes.data - base, span.samples.itemsize)
        first, off_grid = divmod(offset, hop)
        assert rest == off_grid == 0
        transformed.extend(range(first, first + len(frames)))
        return frames

    def counting_groups(self, *args):
        spanned.update(f for start in self.starts for f in range(start, start + self.length))
        for group in groups(self, *args):
            group_count.append(1)
            yield group

    monkeypatch.setattr(doatrack.sigproc, "frame_signal", counting_frames)
    monkeypatch.setattr(doatrack.sigproc.Blocks, "groups", counting_groups)
    assert localize_stream(audio, geom, localizer)
    assert len(group_count) >= 3
    assert sorted(transformed) == sorted(spanned)
    # the frames of the silent stretch belong to no gated block
    assert len(spanned) < (audio.length - 2048) // hop + 1


# the eigensolver MUSIC uses on each preset: LAPACK's zheevr for the signal
# subspace alone from 8 microphones on, numpy's eigh of the whole matrix below
MUSIC_SOLVERS = {"robot_head": "zheevr", "eigenmike": "zheevr", "dicit": "zheevr",
                 "dicit_32cm": "eigh"}


@pytest.mark.parametrize("array", sorted(MUSIC_SOLVERS))
@pytest.mark.parametrize("n_sources", [1, 2])
def test_music_solver_follows_the_microphone_count(monkeypatch, array, n_sources):
    import scipy.linalg.lapack

    import doatrack.localize

    calls = {"eigh": 0, "zheevr": 0}

    def counting(name, solver):
        def solve(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return solve

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    # `_signal_subspace` imports zheevr from scipy.linalg.lapack on each call
    monkeypatch.setattr(scipy.linalg.lapack, "zheevr",
                        counting("zheevr", scipy.linalg.lapack.zheevr))
    geom = get_array_preset(array)
    frames = max(8, geom.mic_count)
    audio = plane_wave_audio(geom, math.radians(40.0), n=2048 + 1024 * (frames - 1), snr_db=20)
    blocks = Blocks.whole(frame_signal(audio, 2048, 1024))
    spectrum = music_spectrum(blocks, geom, azimuth_grid(1.0), n_sources)
    assert np.isfinite(spectrum).all()
    used = {name for name, count in calls.items() if count}
    assert used == {MUSIC_SOLVERS[array]}
    if used == {"zheevr"}:  # one call per in-band bin
        assert calls["zheevr"] == len(doatrack.localize._band_bins(2048, FS, (300.0, 4000.0)))


# how GCC-PHAT evaluates each preset's lag windows: a basis matmul while the
# widest window fits one basis chunk (255 lags at 1025 bins), else irfft
GCC_FORMULATIONS = {"robot_head": "basis", "eigenmike": "basis", "dicit_32cm": "irfft",
                    "dicit": "irfft"}


@pytest.mark.parametrize("array", sorted(GCC_FORMULATIONS))
def test_gcc_phat_formulation_follows_the_widest_lag_window(monkeypatch, array):
    import doatrack.localize

    bases, transforms = [], []
    lag_axis, irfft = doatrack.localize._lag_axis, np.fft.irfft

    def recording_axis(*args):
        axis = lag_axis(*args)
        bases.append(axis[2] is not None)
        return axis

    def counting_irfft(*args, **kwargs):
        transforms.append(args[0].shape)
        return irfft(*args, **kwargs)

    geom = get_array_preset(array)
    mics = geom.mic_positions
    pairs = upper_pairs(geom.mic_count)
    max_lags = FS / C * np.linalg.norm(mics[pairs[:, 1]] - mics[pairs[:, 0]], axis=1) + 1.0
    audio = plane_wave_audio(geom, math.radians(40.0), n=2048 + 1024 * 11, snr_db=20)
    blocks = Blocks.whole(frame_signal(audio, 2048, 1024))
    monkeypatch.setattr(doatrack.localize, "_lag_axis", recording_axis)
    monkeypatch.setattr(np.fft, "irfft", counting_irfft)
    tdoas = gcc_phat(blocks, max_lags)
    assert tdoas.usable.tolist() == [True]
    assert bases == [GCC_FORMULATIONS[array] == "basis"]
    if GCC_FORMULATIONS[array] == "basis":
        assert not transforms
    else:  # CHUNK_ELEMENTS // nfft = 32 columns of 8192 lags at a time
        assert sum(rows for rows, _ in transforms) == len(pairs)
        assert {bins for _, bins in transforms} == {1025}
        assert max(rows for rows, _ in transforms) <= 32


def test_gcc_phat_stream_runs_no_inverse_fft(monkeypatch):
    from doatrack.pipeline import localize_stream

    def no_irfft(*args, **kwargs):
        raise AssertionError("irfft called")

    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(-60.0), n=int(FS), snr_db=20)
    monkeypatch.setattr(np.fft, "irfft", no_irfft)
    estimates = localize_stream(audio, geom, "gcc-phat")
    assert estimates
    for est in estimates:
        assert abs(math.degrees(wrap_angle(est.doa.azimuth - math.radians(-60.0)))) <= 2.0


@pytest.mark.parametrize("array,localizer", [("eigenmike", "srp-phat"),
                                             ("eigenmike", "gcc-phat"),
                                             ("dicit", "gcc-phat")])
def test_stream_memory_does_not_grow_with_recording_length(array, localizer):
    import tracemalloc

    from doatrack.pipeline import localize_stream

    geom = get_array_preset(array)
    peaks = []
    for seconds in (2.0, 8.0):
        audio = plane_wave_audio(geom, math.radians(40.0), n=int(FS * seconds), snr_db=20)
        tracemalloc.start()
        try:
            assert localize_stream(audio, geom, localizer)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


class _Gated(Exception):
    """Stops localize_stream once its energy gate has chosen the blocks."""


@pytest.mark.parametrize("array", ["robot_head", "eigenmike", "dicit", "dicit_32cm",
                                   "hearing_aids"])
def test_energy_gate_passes_the_blocks_the_transform_energies_pass(monkeypatch, array):
    import doatrack.pipeline
    from numpy.lib.stride_tricks import sliding_window_view

    from doatrack.simulate import synthesize, task_preset

    def stop_at_blocks(audio, starts, *args):
        raise _Gated(starts)

    monkeypatch.setattr(doatrack.pipeline, "Blocks", stop_at_blocks)
    geom = get_array_preset(array)
    gated = 0
    for task in (1, 4):
        for seed in (1, 2):
            audio = synthesize(task_preset(task, seed, duration=2.0, array=array)).audio
            with pytest.raises(_Gated) as passed:
                doatrack.pipeline.localize_stream(audio, geom, "srp-phat")
            # the gate of localize_stream, on energies taken from the transform
            frames = frame_signal(audio, 2048, 1024)
            energies = np.mean(np.abs(frames.bins) ** 2, axis=(1, 2))
            energies = sliding_window_view(energies, 8)[::4].mean(axis=1)
            active = ~(energies < 0.05 * np.percentile(energies, 90))
            assert np.array_equal(passed.value.args[0], np.flatnonzero(active) * 4)
            gated += int(np.count_nonzero(~active))
    assert gated > 0


# The sample rate comes from the recording: a 16 kHz recording is analysed
# over its own 300-4000 Hz bins without a rate argument.

def test_the_localizers_take_no_sample_rate():
    import inspect

    from doatrack.pipeline import localize_stream

    for function in (localize_stream, srp_phat, music_spectrum, pseudo_intensity,
                     tdoa_to_azimuth):
        assert "f_s" not in inspect.signature(function).parameters, function.__name__


@pytest.mark.parametrize("localizer", ["srp-phat", "music", "gcc-phat", "pseudo-intensity"])
def test_localize_stream_reads_the_rate_of_a_16_khz_recording(localizer):
    from doatrack.pipeline import localize_stream

    geom = get_array_preset("robot_head")
    audio = plane_wave_audio(geom, math.radians(40.0), fs=16000.0, n=32000)
    estimates = localize_stream(audio, geom, localizer)
    assert estimates
    for est in estimates:
        assert abs(math.degrees(est.doa.azimuth) - 40.0) <= 0.5


@pytest.fixture(scope="module")
def scene_16khz():
    import dataclasses

    from doatrack.corpus_io import bundle_from_scene
    from doatrack.simulate import synthesize, task_preset

    config = dataclasses.replace(task_preset(1, seed=1, duration=4.0), sample_rate_hz=16000.0)
    return bundle_from_scene(synthesize(config))


# (localizer, mean azimuth error bound, p_d bound): the 16 kHz scene scores
# 0.28, 0.28, 0.27 and 1.54 degrees and p_d 0.768, 0.680, 0.768 and 0.473
@pytest.mark.parametrize("localizer,max_error_deg,min_p_d", [
    ("srp-phat", 0.4, 0.74), ("music", 0.4, 0.65), ("gcc-phat", 0.4, 0.74),
    ("pseudo-intensity", 2.0, 0.0)])
def test_pipeline_scores_a_16_khz_scene(scene_16khz, localizer, max_error_deg, min_p_d):
    from doatrack.evaluate import evaluate_submission
    from doatrack.pipeline import run_pipeline

    bundle = scene_16khz
    assert bundle.audio.sample_rate_hz == 16000.0
    report = evaluate_submission(bundle.source_trajectories, bundle.array_trajectory,
                                 bundle.vaps, run_pipeline(bundle, localizer, "kalman"),
                                 bundle.array_trajectory.timestamps, bundle.audio.duration)
    assert report.mean_azimuth_error_deg <= max_error_deg
    assert report.p_d >= min_p_d


def test_tdoa_to_azimuth_rejects_delays_of_another_array():
    dicit, robot_head = get_array_preset("dicit_32cm"), get_array_preset("robot_head")
    pairs = upper_pairs(dicit.mic_count)
    mics = dicit.mic_positions
    max_lags = FS / C * np.linalg.norm(mics[pairs[:, 1]] - mics[pairs[:, 0]], axis=1) + 1.0
    audio = plane_wave_audio(dicit, math.radians(30.0), n=2048 + 1024 * 7)
    tdoas = gcc_phat(Blocks.whole(frame_signal(audio, 2048, 1024)), max_lags)
    assert tdoas.sample_rate_hz == FS
    (azimuth,) = tdoa_to_azimuth(tdoas, dicit)
    assert math.degrees(azimuth) == pytest.approx(30.0, abs=1.0)
    with pytest.raises(ValueError, match="10 microphone pairs.*'robot_head' has 66"):
        tdoa_to_azimuth(tdoas, robot_head)

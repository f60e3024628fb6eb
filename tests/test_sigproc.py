import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doatrack import sigproc
from doatrack.sigproc import (Blocks, MultichannelAudio, Stft, block_cross_spectra,
                              cross_power_spectrum, frame_energies, frame_signal,
                              pair_cross_spectra)


def _tone(freq, fs, n, phase=0.0):
    return np.cos(2 * np.pi * freq * np.arange(n) / fs + phase)


def test_frame_count_and_coverage():
    audio = MultichannelAudio(np.zeros((2, 48000)), 48000)
    frames = frame_signal(audio, window_length=2048, hop=1024)
    assert len(frames) == (48000 - 2048) // 1024 + 1
    assert frames.channel_count == 2
    assert frames.bin_count == 1025


def test_frame_center_times():
    fs = 48000
    audio = MultichannelAudio(np.zeros((1, 8192)), fs)
    frames = frame_signal(audio, 2048, 1024)
    for k, t in enumerate(frames.times):
        assert t == pytest.approx((k * 1024 + 1024) / fs)


def test_short_signal_yields_no_frames():
    audio = MultichannelAudio(np.zeros((1, 100)), 48000)
    assert len(frame_signal(audio, 2048, 1024)) == 0


def test_invalid_hop():
    audio = MultichannelAudio(np.zeros((1, 4096)), 48000)
    with pytest.raises(ValueError):
        frame_signal(audio, 2048, 0)


@pytest.mark.parametrize("window_length,hop,message", [
    (2048, 0, "hop must be >= 1"), (2048, -3, "hop must be >= 1"),
    (0, 1024, "window_length must be >= 1"), (-2, 1024, "window_length must be >= 1")])
def test_frame_energies_checks_window_and_hop_like_frame_signal(window_length, hop, message):
    audio = MultichannelAudio(np.zeros((1, 4096)), 48000)
    for frame in (frame_signal, frame_energies):
        with pytest.raises(ValueError, match=message):
            frame(audio, window_length, hop)


def test_frame_energies_match_the_transform():
    rng = np.random.default_rng(3)
    audio = MultichannelAudio(rng.standard_normal((3, 20000)), 48000)
    for window_length in (2048, 1001):
        frames = frame_signal(audio, window_length, 700)
        expected = np.mean(np.abs(frames.bins) ** 2, axis=(1, 2))
        assert np.allclose(frame_energies(audio, window_length, 700), expected,
                           rtol=1e-12, atol=0)


@st.composite
def energy_cases(draw):
    window_length = draw(st.integers(1, 300))
    # hops below, equal to, coprime with and above the window
    hop = draw(st.one_of(st.integers(1, window_length), st.just(window_length),
                         st.integers(1, 2 * window_length + 5).filter(
                             lambda h: math.gcd(h, window_length) == 1),
                         st.integers(window_length + 1, 3 * window_length + 5)))
    channels = draw(st.integers(1, 4))
    # from shorter than one window to a few dozen frames
    length = draw(st.integers(0, window_length + 30 * hop))
    return window_length, hop, channels, length, draw(st.integers(0, 99))


@settings(max_examples=200, deadline=None)
@given(case=energy_cases())
def test_frame_energies_are_the_mean_power_of_the_transform(case):
    window_length, hop, channels, length, seed = case
    rng = np.random.default_rng(seed)
    audio = MultichannelAudio(rng.standard_normal((channels, length)), 48000)
    frames = frame_signal(audio, window_length, hop)
    expected = np.mean(np.abs(frames.bins) ** 2, axis=(1, 2))
    got = frame_energies(audio, window_length, hop)
    assert got.shape == expected.shape == ((length - window_length) // hop + 1
                                           if length >= window_length else 0,)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("starts", [[0, 4, 4, 8], [8, 4, 0], [-4, 0], [[0, 4]]])
def test_blocks_reject_starts_not_strictly_increasing(starts):
    audio = MultichannelAudio(np.zeros((2, 48000)), 48000)
    with pytest.raises(ValueError, match="strictly increasing"):
        Blocks(audio, np.array(starts), 8)


def test_blocks_over_an_stft_read_its_frame_layout():
    audio = MultichannelAudio(np.random.default_rng(0).standard_normal((2, 8192)), 48000)
    frames = frame_signal(audio, 1024, 512)
    for blocks in (Blocks(frames, np.array([0, 4]), 8), Blocks.whole(frames),
                   Blocks(frames, np.array([0]), 8, 1024, 512)):
        assert (blocks.window_length, blocks.hop) == (1024, 512)
        assert np.array_equal(blocks.frame_times(np.arange(3)), frames.times[:3])
    # blocks over a recording keep the default layout
    recording = Blocks(audio, np.array([0]), 2)
    assert (recording.window_length, recording.hop) == (2048, 1024)


@pytest.mark.parametrize("layout", [{"window_length": 2048}, {"hop": 1024},
                                    {"window_length": 1024, "hop": 256}])
def test_blocks_over_an_stft_reject_another_frame_layout(layout):
    audio = MultichannelAudio(np.zeros((2, 8192)), 48000)
    frames = frame_signal(audio, 1024, 512)
    with pytest.raises(ValueError, match="differs from the Stft's"):
        Blocks(frames, np.array([0]), 8, **layout)


def test_hann_tone_lands_on_its_bin_and_half_on_each_neighbour():
    # the periodic Hann window's DFT is N/2 at bin 0, -N/4 at bins +-1 and 0
    # elsewhere, so a bin-aligned tone fills its bin and half of each neighbour
    fs, n = 48000, 2048
    k = 100
    audio = MultichannelAudio(_tone(k * fs / n, fs, n)[None, :], fs)
    mags = np.abs(frame_signal(audio, n, n).bins[0, 0])
    assert np.argmax(mags) == k
    assert mags[[k - 1, k + 1]] == pytest.approx([mags[k] / 2] * 2, rel=1e-9)
    others = np.delete(mags, [k - 1, k, k + 1])
    assert others.max() < 1e-6 * mags[k]


def test_cross_spectrum_phase_encodes_delay():
    # channel 1 delayed (circularly) by d samples: G_{0,1} has phase +omega*d.
    # Tones three bins apart: the Hann taper spreads each over its bin and
    # the two beside it only, so a tone's own bin holds its delayed phase
    fs, n, d = 48000, 2048, 5
    rng = np.random.default_rng(0)
    k = np.arange(30, 200, 3)
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[k] = np.exp(2j * np.pi * rng.uniform(size=len(k)))
    base = np.fft.irfft(spectrum, n)
    audio = MultichannelAudio(np.stack([base, np.roll(base, d)]), fs)
    cs = cross_power_spectrum(frame_signal(audio, n, n), (0, 1))
    phase = np.angle(cs.values[k])
    expected = np.angle(np.exp(1j * 2 * np.pi * k * d / n))
    assert np.allclose(phase, expected, atol=1e-6)


def test_cross_spectrum_block_average():
    rng = np.random.default_rng(1)
    audio = MultichannelAudio(rng.standard_normal((2, 8192)), 48000)
    frames = frame_signal(audio, 2048, 2048)
    cs_all = cross_power_spectrum(frames, (0, 1))
    manual = np.mean([f[0] * np.conj(f[1]) for f in frames.bins], axis=0)
    assert np.allclose(cs_all.values, manual)


def test_cross_spectrum_conjugate_symmetry_in_pair_order():
    rng = np.random.default_rng(2)
    audio = MultichannelAudio(rng.standard_normal((2, 4096)), 48000)
    frames = frame_signal(audio, 2048, 1024)
    a = cross_power_spectrum(frames, (0, 1)).values
    b = cross_power_spectrum(frames, (1, 0)).values
    assert np.allclose(a, np.conj(b))


def test_cross_spectrum_pair_out_of_range():
    audio = MultichannelAudio(np.zeros((2, 4096)), 48000)
    frames = frame_signal(audio, 2048, 1024)
    with pytest.raises(ValueError):
        cross_power_spectrum(frames, (0, 5))


def test_frame_block_slice_shape():
    audio = MultichannelAudio(np.zeros((3, 8192)), 48000)
    frames = frame_signal(audio, 2048, 1024)
    block = frames[:4]
    assert block.bins.shape == (4, 3, 1025)


def test_stft_slices_and_block_frames_keep_the_sample_rate():
    audio = MultichannelAudio(np.random.default_rng(0).standard_normal((3, 8192)), 16000.0)
    frames = frame_signal(audio, 1024, 512)
    assert frames.sample_rate_hz == 16000.0
    assert frames[2:5].sample_rate_hz == 16000.0
    for source in (audio, frames):
        blocks = Blocks(source, np.array([0, 4]), 8, 1024, 512)
        part = blocks.frames(1, 6)
        assert part.sample_rate_hz == 16000.0
        assert np.array_equal(part.bins, frames.bins[1:6])
        assert np.array_equal(part.times, frames.times[1:6])


def test_multichannel_audio_single_channel_promotion():
    audio = MultichannelAudio(np.zeros(1000), 48000)
    assert audio.channel_count == 1
    assert audio.length == 1000
    assert audio.duration == pytest.approx(1000 / 48000)


def test_multichannel_audio_requires_its_sample_rate():
    # a default rate would localize 16 kHz audio over the band of another rate
    with pytest.raises(TypeError, match="sample_rate_hz"):
        MultichannelAudio(np.zeros((2, 1000)))


def test_taper_is_scipys_periodic_hann_window_bit_for_bit():
    from scipy.signal import get_window

    for n in range(1, 4097):
        taper, reference = sigproc._taper(n), get_window("hann", n, fftbins=True)
        assert taper.dtype == reference.dtype and taper.tobytes() == reference.tobytes(), n


def test_taper_is_built_once_per_length():
    taper = sigproc._taper(2048)
    assert sigproc._taper(2048) is taper and not taper.flags.writeable
    assert sigproc._taper(1).tolist() == [1.0]


def _whole_band_cross_spectra(blocks, bins=None):
    """Block-mean cross-spectra (blocks, bins, channels, channels) as one
    sub-block matmul over every bin at once, summed into blocks and divided
    by the block length: the computation the pair routine splits into chunks."""
    starts, sub = blocks.starts, blocks.sub_block
    frames = blocks.frames(starts[0], starts[-1] + blocks.length)
    spectra = frames.bins if bins is None else frames.bins[:, :, bins]
    n_sub = len(frames) // sub
    x = spectra[:n_sub * sub].reshape((n_sub, sub) + spectra.shape[1:]).transpose(0, 3, 2, 1)
    x = np.ascontiguousarray(x)
    sums = x @ np.conj(x.transpose(0, 1, 3, 2))
    pos = (starts - starts[0]) // sub
    for p in pos:
        for j in range(1, blocks.length // sub):
            sums[p] += sums[p + j]
    g = sums[pos]
    g /= blocks.length
    return g


@st.composite
def pair_cases(draw):
    channels = draw(st.integers(2, 12))
    sub = draw(st.integers(1, 4))
    length = sub * draw(st.integers(1, 3))
    # steps of whole sub-blocks; a step beyond `length` leaves a gap between
    # blocks, which splits them into groups
    steps = draw(st.lists(st.integers(1, 2 * length // sub + 2), max_size=6))
    starts = sub * np.concatenate([[draw(st.integers(0, 2))], steps]).cumsum()
    pairs = draw(st.lists(st.tuples(st.integers(0, channels - 1), st.integers(0, channels - 1)),
                          min_size=1, max_size=30))
    bin_count = draw(st.sampled_from([3, 17, 129]))
    bins = draw(st.none() | st.integers(0, bin_count - 1).flatmap(
        lambda lo: st.integers(lo + 1, bin_count).map(lambda hi: np.arange(lo, hi))))
    chunk = draw(st.sampled_from([1, 300, 5000, sigproc.PAIR_CHUNK_ELEMENTS]))
    # groups of at most 1 to 40 frames
    group_frames = draw(st.integers(1, 40))
    return (channels, length, starts, pairs, bin_count, bins, chunk, group_frames,
            draw(st.integers(0, 99)))


@settings(max_examples=150, deadline=None)
@given(case=pair_cases())
def test_pair_cross_spectra_are_the_cross_spectra_entries_bit_for_bit(case):
    channels, length, starts, pairs, bin_count, bins, chunk, group_frames, seed = case
    rng = np.random.default_rng(seed)
    n_frames = int(starts[-1]) + length + int(rng.integers(0, 3))
    spectra = rng.standard_normal((n_frames, channels, 2 * bin_count)).view(complex)
    frames = Stft(spectra, np.arange(n_frames) / 10.0, 2 * (bin_count - 1), 1, 10.0)
    m, l = np.array(pairs).T
    # groups(0, 0) holds only the frames' STFT: bin_count per channel
    budget = group_frames * channels * bin_count
    with (mock.patch.object(sigproc, "PAIR_CHUNK_ELEMENTS", chunk),
          mock.patch.object(sigproc, "BLOCK_GROUP_ELEMENTS", budget)):
        for _, group in Blocks(frames, starts, length).groups(0, 0):
            got = pair_cross_spectra(group, pairs, bins)
            full = block_cross_spectra(group, bins)
            reference = _whole_band_cross_spectra(group, bins)
            assert got.shape == (reference.shape[1], len(group), len(pairs))
            assert got.flags.c_contiguous
            for other in (full, reference):
                # no spectrum value is zero, so the bits of every entry are
                # fixed: compare them, not just the values
                expected = np.ascontiguousarray(other[:, :, m, l].transpose(1, 0, 2))
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("bins", [[0, 2], [3, 2], [5, 5], [-1, 0], [16, 17]])
def test_pair_cross_spectra_reject_bins_that_are_not_one_run(bins):
    # a scattered, unordered, repeated or out-of-range band is not read as
    # some other band
    rng = np.random.default_rng(0)
    spectra = rng.standard_normal((4, 3, 2 * 17)).view(complex)
    frames = Stft(spectra, np.arange(4) / 10.0, 32, 1, 10.0)
    with pytest.raises(ValueError, match="one increasing run"):
        pair_cross_spectra(Blocks.whole(frames), [(0, 1)], np.array(bins))
    assert pair_cross_spectra(Blocks.whole(frames), [(0, 1)], np.arange(2, 5)).shape == (3, 1, 1)


@pytest.mark.parametrize("length", [8, 12])
def test_reciprocal_scaling_is_complex_division(length):
    rng = np.random.default_rng(length)
    scale = 10.0 ** rng.integers(-300, 300, (2, 10000))
    g = (rng.standard_normal((2, 10000)) * scale).T.copy().view(complex)[:, 0]
    divided = g.copy()
    divided /= length
    g.view(float)[...] *= 1.0 / length
    assert np.array_equal(g.view(np.uint64), divided.view(np.uint64))

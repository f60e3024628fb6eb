"""Batched front end and localizers against the loop code they replaced.

The reference functions below are the per-frame STFT, per-pair SRP-PHAT and
GCC-PHAT, per-bin MUSIC and per-frame pseudo-intensity implementations, run
block by block on the same frames; they raise SkippedBlock where the batched
code gives a block a NaN row. The batched code sums in a different
order, so spectra and delays are compared within RTOL of their largest
magnitude. The stream path (one localizer call for all blocks of a
recording) is compared with them on recordings whose blocks are gated,
skipped as silent or ill-conditioned, and split over several groups.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import get_window

from doatrack.geometry import ArrayGeometry, Doa, get_array_preset, unit_vector_to_doa, wrap_angle
from doatrack.localize import (PEAK_TIE_REL, PHAT_FLOOR_REL, TdoaEstimate, _band_bins,
                               azimuth_grid, circular_peaks, farfield_pair_tdoa, gcc_phat,
                               music_spectrum, pseudo_intensity, srp_phat, tdoa_to_azimuth)
from doatrack.pipeline import localize_stream
from doatrack.sigproc import Blocks, MultichannelAudio, frame_signal

from synthutil import plane_wave_audio

FS = 48000.0
C = 343.0
BAND = (300.0, 4000.0)
RTOL = 1e-12


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------

class SkippedBlock(Exception):
    """A reference localizer finds a block silent or ill-conditioned."""


def ref_frame_bins(audio, window_length=2048, hop=1024):
    taper = get_window("hann", window_length, fftbins=True)
    n_frames = (audio.length - window_length) // hop + 1
    return np.array([np.fft.rfft(audio.samples[:, k * hop:k * hop + window_length] * taper,
                                 axis=1) for k in range(n_frames)])


def ref_cross_spectrum(stack, m, l):
    acc = np.zeros(stack.shape[2], dtype=complex)
    for frame in stack:
        acc += frame[m] * np.conj(frame[l])
    acc /= len(stack)
    return acc


def ref_srp_phat(stack, geometry, grid, window_length=2048):
    channels = stack.shape[1]
    bins = _band_bins(window_length, FS, BAND)
    omega = 2.0 * np.pi * bins / window_length
    dirs = grid.unit_vectors
    mics = geometry.mic_positions - geometry.centroid
    values = np.full(len(grid), float(channels * len(bins)))
    silent = True
    for m in range(channels):
        for l in range(m + 1, channels):
            g = ref_cross_spectrum(stack, m, l)[bins]
            mag = np.abs(g)
            peak = mag.max()
            if peak <= 0.0:
                continue
            silent = False
            phat = np.where(mag > PHAT_FLOOR_REL * peak, g / np.maximum(mag, 1e-300), 0.0)
            tau = farfield_pair_tdoa(dirs, mics[m], mics[l], FS)
            steer = np.exp(1j * np.outer(tau, omega))
            values += 2.0 * np.real(steer @ phat)
    if silent:
        raise SkippedBlock("all in-band cross spectra are zero")
    return values


def ref_music_spectrum(stack, geometry, grid, n_sources, window_length=2048,
                       diagonal_loading=1e-6):
    channels = stack.shape[1]
    bins = _band_bins(window_length, FS, BAND)
    mics = geometry.mic_positions - geometry.centroid
    tau = -(FS / C) * grid.unit_vectors @ mics.T
    broadband = np.zeros(len(grid))
    for k in bins:
        snap = stack[:, :, k]
        r = (snap.conj().T @ snap / snap.shape[0]).T
        r = r + diagonal_loading * np.real(np.trace(r)) / channels * np.eye(channels)
        if np.linalg.cond(r) > 1e12:
            raise SkippedBlock(f"correlation matrix ill-conditioned at bin {k}")
        _, eigvecs = np.linalg.eigh(r)
        u_s = eigvecs[:, channels - n_sources:]
        v = np.exp(-1j * (2.0 * np.pi * k / window_length) * tau)
        proj = v - (v @ u_s.conj()) @ u_s.T
        denom = np.real(np.einsum("ij,ij->i", proj.conj(), proj))
        narrow = 1.0 / np.maximum(denom, 1e-30)
        broadband += narrow / narrow.max()
    return broadband / len(bins)


def ref_gcc_phat(g, pair, max_lag, window_length=2048, interpolation=4):
    mag = np.abs(g)
    if mag.max() <= 0.0:
        raise SkippedBlock("all-zero cross spectrum")
    weights = np.where(mag > PHAT_FLOOR_REL * mag.max(), 1.0 / np.maximum(mag, 1e-300), 0.0)
    nfft = window_length * interpolation
    cc = np.fft.irfft(g * weights, n=nfft)
    max_shift = min(int(np.floor(max_lag * interpolation)), nfft // 2 - 1)
    cc = np.concatenate((cc[-max_shift:], cc[:max_shift + 1]))
    lags = np.arange(-max_shift, max_shift + 1) / interpolation
    idx = int(np.argmax(cc))
    delay = lags[idx]
    if 0 < idx < len(cc) - 1:
        y0, y1, y2 = cc[idx - 1], cc[idx], cc[idx + 1]
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-30:
            delay += float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5)) / interpolation
    return TdoaEstimate(pair, float(delay), float(cc[idx]))


def ref_tdoa_to_azimuth(estimates, geometry, resolution_deg=1.0):
    grid = azimuth_grid(resolution_deg)
    cost = np.zeros(len(grid))
    for est in estimates:
        m, l = est.pair
        expected = farfield_pair_tdoa(grid.unit_vectors, geometry.mic_positions[m],
                                      geometry.mic_positions[l], FS)
        cost += (est.delay - expected) ** 2
    tied = np.flatnonzero(cost <= cost.min() + 1e-9)
    order = np.argsort(np.mod(grid.azimuths[tied], 2.0 * np.pi))
    return grid.directions[tied[order[0]]]


def ref_pseudo_intensity(stack, times, geometry, window_length=2048):
    mics = geometry.mic_positions - geometry.centroid
    u = mics / np.linalg.norm(mics, axis=1)[:, None]
    bins = _band_bins(window_length, FS, BAND)
    doas = []
    for frame, t in zip(stack, times):
        s = frame[:, bins]
        p0 = s.mean(axis=0)
        dipole = (u.T @ s) * (3.0 / geometry.mic_count)
        arrival = np.imag(np.conj(p0)[None, :] * dipole).sum(axis=1)
        norm = np.linalg.norm(arrival)
        if norm < 1e-12 * max(np.abs(p0).max(), 1e-300) or np.abs(p0).max() == 0.0:
            raise SkippedBlock(f"no usable signal in frame at t={t:.3f}")
        doas.append(unit_vector_to_doa(arrival))
    return doas


def ref_circular_mean(azimuths):
    return Doa(wrap_angle(math.atan2(np.mean(np.sin(azimuths)), np.mean(np.cos(azimuths)))))


def ref_argmax(values, grid):
    """The grid azimuth of a spectrum's global maximum. Values within
    PEAK_TIE_REL of its largest magnitude tie with the maximum, and a tie
    goes to the smallest azimuth wrapped into [0, 2*pi)."""
    tied = np.flatnonzero(values >= values.max() - PEAK_TIE_REL * np.abs(values).max())
    return grid.azimuths[tied[np.argmin(np.mod(grid.azimuths[tied], 2.0 * np.pi))]]


def ref_localize_stream(audio, geometry, localizer, n_sources=1, block_frames=8,
                        block_stride=4):
    """localize_stream's gating and blocking around the reference localizers.

    A one-source SRP or MUSIC spectrum is read at its global maximum
    (`ref_argmax`); several sources are picked with the batched code's
    `circular_peaks`, so for them only the spectra come from the reference
    code.
    """
    frames = frame_signal(audio, 2048, 1024)
    stack = ref_frame_bins(audio)
    if localizer == "music":
        block_frames = max(block_frames, geometry.mic_count)
    starts = list(range(0, len(stack) - block_frames + 1, block_stride))
    energies = np.array([np.mean([np.mean(np.abs(f) ** 2) for f in stack[s:s + block_frames]])
                         for s in starts])
    threshold = 0.05 * np.percentile(energies, 90)
    grid = azimuth_grid(1.0)
    estimates = []
    for start, energy in zip(starts, energies):
        if energy < threshold:
            continue
        block = stack[start:start + block_frames]
        times = frames.times[start:start + block_frames]
        t = 0.5 * (times[0] + times[-1])
        try:
            if localizer in ("srp-phat", "music"):
                values = (ref_srp_phat(block, geometry, grid) if localizer == "srp-phat" else
                          ref_music_spectrum(block, geometry, grid, n_sources))
                if n_sources == 1:
                    estimates.append((t, ref_argmax(values, grid)))
                else:
                    estimates += [(t, Doa(az).azimuth)
                                  for az in circular_peaks(grid.azimuths, values, n_sources)]
            elif localizer == "gcc-phat":
                tdoas = [ref_gcc_phat(ref_cross_spectrum(block, m, l), (m, l), lag)
                         for (m, l), lag in zip(geometry.pairs(), max_lags(geometry))]
                estimates.append((t, ref_tdoa_to_azimuth(tdoas, geometry).azimuth))
            else:
                az = [d.azimuth for d in ref_pseudo_intensity(block, times, geometry)]
                estimates.append((t, ref_circular_mean(az).azimuth))
        except SkippedBlock:
            continue
    return estimates


def max_lags(geometry):
    """localize_stream's GCC lag window of every pair, samples."""
    mics = geometry.mic_positions
    return [FS / C * float(np.linalg.norm(mics[l] - mics[m])) + 1.0 for m, l in geometry.pairs()]


# ---------------------------------------------------------------------------
# Fixed scenes
# ---------------------------------------------------------------------------

def _scene(array, frames, seed=0):
    """Two plane-wave sources in noise, long enough for `frames` STFT frames."""
    geom = get_array_preset(array)
    n = 2048 + 1024 * (frames - 1)
    a = plane_wave_audio(geom, math.radians(49.0), n=n, seed=seed, snr_db=15)
    b = plane_wave_audio(geom, math.radians(-100.0), n=n, seed=seed + 1)
    return geom, MultichannelAudio(a.samples + 0.5 * b.samples, FS)


SCENES = {
    "robot_head": _scene("robot_head", 16),
    "eigenmike": _scene("eigenmike", 32),
    "dicit_32cm": _scene("dicit_32cm", 16),
    "dicit": _scene("dicit", 16),
}


def _assert_close(new, ref, rtol=RTOL):
    new, ref = np.asarray(new), np.asarray(ref)
    assert np.max(np.abs(new - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("array", sorted(SCENES))
def test_stft_matches_per_frame_rfft(array):
    _, audio = SCENES[array]
    frames = frame_signal(audio, 2048, 1024)
    ref = ref_frame_bins(audio)
    assert frames.bins.shape == ref.shape
    _assert_close(frames.bins, ref)
    assert np.allclose(frames.times, (np.arange(len(ref)) * 1024 + 1024) / FS, rtol=0, atol=1e-15)


@pytest.mark.parametrize("array", sorted(SCENES))
def test_srp_phat_matches_per_pair_reference(array):
    geom, audio = SCENES[array]
    frames = frame_signal(audio, 2048, 1024)[:8]
    grid = azimuth_grid(1.0)
    (spec,) = srp_phat(Blocks.whole(frames), geom, grid, FS, BAND)
    _assert_close(spec, ref_srp_phat(frames.bins, geom, grid))


@pytest.mark.parametrize("array", sorted(SCENES))
@pytest.mark.parametrize("n_sources", [1, 2])
def test_music_matches_per_bin_reference(array, n_sources):
    geom, audio = SCENES[array]
    frames = frame_signal(audio, 2048, 1024)
    frames = frames[:max(8, geom.mic_count)]
    grid = azimuth_grid(1.0)
    (spec,) = music_spectrum(Blocks.whole(frames), geom, grid, n_sources, FS, BAND)
    _assert_close(spec, ref_music_spectrum(frames.bins, geom, grid, n_sources))


@pytest.mark.parametrize("array", sorted(SCENES))
def test_gcc_phat_batch_matches_per_pair_reference(array):
    geom, audio = SCENES[array]
    frames = frame_signal(audio, 2048, 1024)[:8]
    pairs = geom.pairs()
    lags = max_lags(geom)
    batch = gcc_phat(Blocks.whole(frames), lags)
    ref = [ref_gcc_phat(ref_cross_spectrum(frames.bins, m, l), (m, l), lag)
           for (m, l), lag in zip(pairs, lags)]
    assert list(batch.pairs) == pairs and batch.usable.tolist() == [True]
    _assert_close(batch.delays[0], [e.delay for e in ref])
    _assert_close(batch.confidence[0], [e.confidence for e in ref])
    assert tdoa_to_azimuth(batch, geom, FS).tolist() == [ref_tdoa_to_azimuth(ref, geom).azimuth]


def test_pseudo_intensity_matches_per_frame_reference():
    # each block's azimuth is the circular mean of the reference's frame azimuths
    geom, audio = SCENES["eigenmike"]
    frames = frame_signal(audio, 2048, 1024)
    blocks = Blocks(frames, np.arange(0, len(frames) - 7, 4), 8, 2048, 1024)
    new = pseudo_intensity(blocks, geom, FS, BAND)
    assert len(new) == len(blocks) > 1
    for azimuth, start in zip(new, blocks.starts):
        block = slice(start, start + 8)
        ref = ref_pseudo_intensity(frames.bins[block], frames.times[block], geom)
        mean = ref_circular_mean([d.azimuth for d in ref])
        assert abs(wrap_angle(azimuth - mean.azimuth)) <= RTOL


STREAMS = [
    ("robot_head", "srp-phat", 1), ("robot_head", "music", 2), ("robot_head", "gcc-phat", 1),
    ("robot_head", "pseudo-intensity", 1),
    ("dicit_32cm", "srp-phat", 1), ("dicit_32cm", "music", 1), ("dicit_32cm", "gcc-phat", 1),
    ("eigenmike", "srp-phat", 1), ("eigenmike", "gcc-phat", 1),
    ("eigenmike", "pseudo-intensity", 1),
]


@pytest.mark.parametrize("array,localizer,n_sources", STREAMS)
def test_localize_stream_estimates_match_reference(array, localizer, n_sources):
    geom, audio = SCENES[array]
    if array == "eigenmike":  # two blocks: the reference SRP costs ~1 s per block here
        audio = MultichannelAudio(audio.samples[:, :2048 + 1024 * 11], FS)
    new = localize_stream(audio, geom, localizer, FS, n_sources=n_sources)
    ref = ref_localize_stream(audio, geom, localizer, n_sources)
    assert new
    assert [(e.timestamp, e.doa.azimuth) for e in new] == ref


# ---------------------------------------------------------------------------
# Stream path on multi-block recordings
# ---------------------------------------------------------------------------

def _gapped_scene(array, frames=64):
    """Two plane waves in noise with, in frames: 8..15 and 24..35 digitally
    silent (one gated block, then a gated run that splits the groups), and
    40..47 heard by microphone 0 alone (a loud block without inter-mic
    cross-spectra)."""
    geom, audio = _scene(array, frames)
    samples = audio.samples.copy()
    for first, last in ((8, 15), (24, 35)):
        samples[:, first * 1024:last * 1024 + 2048] = 0.0
    samples[1:, 40 * 1024:47 * 1024 + 2048] = 0.0
    samples[0, 40 * 1024:47 * 1024 + 2048] *= 3.0
    return geom, MultichannelAudio(samples, FS)


def _bursts_scene(array="robot_head", frames=92):
    """Digital silence but for the first two and the last two frames: most
    blocks are silent, the energy gate passes them (its threshold is 0) and
    their MUSIC correlation matrices are ill-conditioned."""
    geom, audio = _scene(array, frames)
    samples = audio.samples.copy()
    samples[:, 2 * 1024 + 2048:(frames - 3) * 1024] = 0.0
    return geom, MultichannelAudio(samples, FS)


STREAM_SCENES = {
    "gapped_robot_head": _gapped_scene("robot_head"),
    "gapped_eigenmike": _gapped_scene("eigenmike", 48),
    "bursts_robot_head": _bursts_scene(),
    "dicit": SCENES["dicit"],
}


def _all_blocks(audio, block_frames=8, block_stride=4):
    n_frames = (audio.length - 2048) // 1024 + 1
    return Blocks(audio, np.arange(0, n_frames - block_frames + 1, block_stride), block_frames)


def _per_block(reference, blocks, stack):
    """reference(block stack) of every block, None where it skips the block."""
    out = []
    for start in blocks.starts:
        try:
            out.append(reference(stack[start:start + blocks.length]))
        except SkippedBlock:
            out.append(None)
    return out


def _assert_blocks_close(new, ref, rtol=RTOL):
    """The rows of `new` match `ref`, and its NaN rows fall on the Nones of `ref`."""
    assert [bool(np.isnan(n).all()) for n in new] == [r is None for r in ref]
    for n, r in zip(new, ref):
        if r is not None:
            _assert_close(n, r, rtol)


@pytest.mark.parametrize("scene", ["gapped_robot_head", "bursts_robot_head"])
def test_stream_srp_and_music_match_per_block_reference(scene):
    geom, audio = STREAM_SCENES[scene]
    stack = ref_frame_bins(audio)
    grid = azimuth_grid(1.0)
    blocks = _all_blocks(audio)
    new = srp_phat(blocks, geom, grid, FS, BAND)
    _assert_blocks_close(new, _per_block(lambda b: ref_srp_phat(b, geom, grid), blocks, stack),
                         1e-12)
    blocks = _all_blocks(audio, geom.mic_count)
    new = music_spectrum(blocks, geom, grid, 1, FS, BAND)
    ref = _per_block(lambda b: ref_music_spectrum(b, geom, grid, 1), blocks, stack)
    _assert_blocks_close(new, ref)
    if scene == "bursts_robot_head":  # ill-conditioned blocks between usable ones
        assert ref[0] is not None and ref[-1] is not None and ref[1] is None


@pytest.mark.parametrize("scene", ["gapped_robot_head", "dicit"])
def test_stream_gcc_phat_matches_per_block_reference(scene):
    geom, audio = STREAM_SCENES[scene]
    stack = ref_frame_bins(audio)
    blocks = _all_blocks(audio)
    lags = max_lags(geom)
    tdoas = gcc_phat(blocks, lags)
    assert tdoas.pairs == tuple(geom.pairs())

    def reference(block):
        return [ref_gcc_phat(ref_cross_spectrum(block, m, l), (m, l), lag)
                for (m, l), lag in zip(geom.pairs(), lags)]

    ref = _per_block(reference, blocks, stack)
    new = np.where(tdoas.usable[:, None], tdoas.delays, np.nan)
    _assert_blocks_close(new, [None if r is None else [e.delay for e in r] for r in ref], 1e-12)
    assert np.array_equal(tdoa_to_azimuth(tdoas, geom, FS), [
        np.nan if r is None else ref_tdoa_to_azimuth(r, geom).azimuth for r in ref],
        equal_nan=True)
    if scene == "gapped_robot_head":
        assert ref[10] is None  # heard by one microphone only


STREAM_CASES = [
    ("gapped_robot_head", "srp-phat"), ("gapped_robot_head", "music"),
    ("gapped_robot_head", "gcc-phat"), ("gapped_eigenmike", "pseudo-intensity"),
    ("bursts_robot_head", "music"), ("dicit", "gcc-phat"),
]


@pytest.mark.parametrize("scene,localizer", STREAM_CASES)
def test_localize_stream_matches_reference_on_gated_and_skipped_blocks(scene, localizer):
    geom, audio = STREAM_SCENES[scene]
    new = localize_stream(audio, geom, localizer, FS)
    ref = ref_localize_stream(audio, geom, localizer)
    assert new
    assert [(e.timestamp, e.doa.azimuth) for e in new] == ref


# ---------------------------------------------------------------------------
# Channel-permutation invariance
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(array=st.sampled_from(["robot_head", "dicit_32cm", "hearing_aids"]),
       azimuth_deg=st.floats(-180.0, 180.0), seed=st.integers(0, 2**16),
       data=st.data())
def test_spectra_invariant_to_channel_permutation(array, azimuth_deg, seed, data):
    geom = get_array_preset(array)
    perm = np.array(data.draw(st.permutations(range(geom.mic_count))))
    n_frames = max(8, geom.mic_count)
    audio = plane_wave_audio(geom, math.radians(azimuth_deg), n=2048 + 1024 * (n_frames - 1),
                             seed=seed, snr_db=20)
    permuted_geom = ArrayGeometry(geom.name, geom.mic_positions[perm])
    permuted = MultichannelAudio(audio.samples[perm], FS)
    frames = frame_signal(audio, 2048, 1024)
    permuted_frames = frame_signal(permuted, 2048, 1024)
    grid = azimuth_grid(2.0)
    blocks, permuted_blocks = Blocks.whole(frames), Blocks.whole(permuted_frames)
    _assert_close(srp_phat(permuted_blocks, permuted_geom, grid, FS),
                  srp_phat(blocks, geom, grid, FS))
    _assert_close(music_spectrum(permuted_blocks, permuted_geom, grid, 1, FS),
                  music_spectrum(blocks, geom, grid, 1, FS))

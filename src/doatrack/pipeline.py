"""Pipeline stages: localize a recording's blocks, track the estimates, and
resample the tracks onto the evaluation clock.

`run_pipeline` chains the stages from a recording bundle to a submission.
An unknown localizer or tracker name, or a source count that the localizer
or tracker cannot deliver, raises UsageError before any localization work.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus_io import CorpusFormatError
from .evaluate import Submission
from .geometry import ARRAY_PRESETS, SPEED_OF_SOUND, Doa, get_array_preset, row_norms, upper_pairs
from .localize import (DEFAULT_BAND_HZ, DoaEstimate, azimuth_grid, circular_peaks, gcc_phat,
                       music_spectrum, pseudo_intensity, srp_phat, tdoa_to_azimuth)
from .sigproc import (BLOCK_FRAMES, BLOCK_STRIDE, DEFAULT_HOP, DEFAULT_WINDOW_LENGTH,
                      Blocks, frame_energies)
from .track import FILTERS, track_lifecycle

LOCALIZERS = ("srp-phat", "music", "gcc-phat", "pseudo-intensity")
TRACKERS = FILTERS + ("none",)


class UsageError(Exception):
    pass


def localize_stream(audio, geometry, localizer: str, f_s: float,
                    n_sources: int = 1, block_frames: int = BLOCK_FRAMES,
                    block_stride: int = BLOCK_STRIDE,
                    window_length: int = DEFAULT_WINDOW_LENGTH, hop: int = DEFAULT_HOP,
                    band_hz=DEFAULT_BAND_HZ):
    """Localize every analysis block of a recording with one localizer call
    and emit time-ordered azimuth estimates, up to `n_sources` per block.

    Blocks whose broadband power sits at the noise floor are skipped so
    pauses between utterances do not feed garbage to the tracker, and so are
    blocks a localizer finds silent or, for MUSIC, ill-conditioned. Audio
    whose channel count differs from the array's microphone count, audio
    with a sample that is not finite, and audio shorter than one block raise
    CorpusFormatError; the first two are checked before anything else.
    `n_sources` must be at least 1; MUSIC finds at most one fewer than the
    microphone count, and GCC-PHAT and pseudo-intensity find one. `band_hz`
    limits the bins SRP-PHAT, MUSIC and pseudo-intensity read; GCC-PHAT
    reads every bin and ignores it. A block size or stride below 1, or a
    band whose low edge is not below its high edge, raises ValueError before
    any localization work.
    """
    if audio.channel_count != geometry.mic_count:
        raise CorpusFormatError(
            f"recording has {audio.channel_count} audio channels but array "
            f"{geometry.name!r} has {geometry.mic_count} microphones")
    samples = audio.samples
    # min and max propagate NaN and meet any infinity, and allocate nothing
    if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        channel, index = np.argwhere(~np.isfinite(samples))[0]
        raise CorpusFormatError(
            f"recording has a non-finite sample ({samples[channel, index]}) "
            f"in channel {channel} at sample {index}")
    if localizer not in LOCALIZERS:
        raise UsageError(f"unknown localizer {localizer!r}")
    if block_frames < 1:
        raise ValueError("block_frames must be >= 1")
    if block_stride < 1:
        raise ValueError("block_stride must be >= 1")
    if not band_hz[0] < band_hz[1]:
        raise ValueError(f"band_hz must run from low to high, got {band_hz}")
    most = {"music": geometry.mic_count - 1, "gcc-phat": 1, "pseudo-intensity": 1}
    if n_sources < 1 or n_sources > most.get(localizer, n_sources):
        limit = f"1..{most[localizer]}" if localizer in most else ">= 1"
        raise UsageError(f"n_sources {n_sources} is out of range for {localizer} on array "
                         f"{geometry.name!r} ({limit})")
    if localizer == "music":
        # the correlation estimate needs at least one frame per channel
        block_frames = max(block_frames, geometry.mic_count)
    frame_energy = frame_energies(audio, window_length, hop)
    if len(frame_energy) < block_frames:
        raise CorpusFormatError(
            f"recording has {audio.samples.shape[1]} samples per channel, fewer than "
            f"one {localizer} block of {window_length + (block_frames - 1) * hop}")
    energies = sliding_window_view(frame_energy, block_frames)[::block_stride].mean(axis=1)
    active = ~(energies < 0.05 * np.percentile(energies, 90))
    blocks = Blocks(audio, np.flatnonzero(active) * block_stride, block_frames,
                    window_length, hop)
    # up to n_sources azimuths per block, NaN where a block has fewer
    azimuths = np.full((len(blocks), n_sources), np.nan)
    if localizer == "gcc-phat":
        mics, pairs = geometry.mic_positions, upper_pairs(geometry.mic_count)
        max_lags = f_s / SPEED_OF_SOUND * row_norms(mics[pairs[:, 1]] - mics[pairs[:, 0]]) + 1.0
        azimuths[:, 0] = tdoa_to_azimuth(gcc_phat(blocks, max_lags), geometry, f_s)
    elif localizer == "pseudo-intensity":
        azimuths[:, 0] = pseudo_intensity(blocks, geometry, f_s, band_hz)
    else:
        grid = azimuth_grid()
        spectra = (srp_phat(blocks, geometry, grid, f_s, band_hz)
                   if localizer == "srp-phat" else
                   music_spectrum(blocks, geometry, grid, n_sources, f_s, band_hz))
        for row, spectrum in zip(azimuths, spectra):
            if not np.isnan(spectrum[0]):
                peaks = circular_peaks(grid.azimuths, spectrum, n_sources)
                row[:len(peaks)] = peaks
    return [DoaEstimate(float(t), Doa(az))
            for t, row in zip(blocks.times, azimuths) for az in row if not np.isnan(az)]


def track_stream(estimates, tracker: str, seed: int = 0):
    """Turn raw estimates into labelled track series {id: [(t, azimuth), ...]}."""
    if tracker not in TRACKERS:
        raise UsageError(f"unknown tracker {tracker!r}")
    if tracker == "none":
        tracks: dict = {}
        for est in estimates:
            tracks.setdefault(est.source_id, []).append((est.timestamp,
                                                         est.doa.azimuth))
        return tracks
    return track_lifecycle(estimates, tracker=tracker, seed=seed)


def resample_tracks(tracks: dict, clock) -> Submission:
    """Interpolate each track's azimuth onto the evaluation clock."""
    clock = np.asarray(clock, dtype=float)
    rows = []
    for tid, series in tracks.items():
        if not series:
            continue
        times, azimuths = np.array(series, dtype=float).T
        inside = (clock >= times[0]) & (clock <= times[-1])
        rows.append((clock[inside], np.full(inside.sum(), tid),
                     np.interp(clock[inside], times, np.unwrap(azimuths))))
    columns = [np.concatenate(column) for column in zip(*rows)] if rows else [[], [], []]
    return Submission.from_rows(*columns)


def run_pipeline(bundle, localizer: str, tracker: str, n_sources: int = 1,
                 seed: int = 0, **localizer_kwargs) -> Submission:
    """Recording bundle in, submission on the array clock out: frontend,
    localizer, tracker, resample.

    The `none` tracker keeps one series per source id, and every localizer
    estimate carries id 1, so it takes one source. Raises CorpusFormatError
    when the metadata names no array preset, and wherever `localize_stream`
    does: audio that does not fit the array or is shorter than one
    analysis block of the localizer.
    """
    if tracker == "none" and n_sources > 1:
        raise UsageError(f"tracker 'none' takes one source, got n_sources {n_sources}")
    array = bundle.metadata.get("array")
    if not isinstance(array, str) or array not in ARRAY_PRESETS:
        given = "no array" if array is None else f"array {array!r}"
        raise CorpusFormatError(f"recording metadata names {given}; the array presets are "
                                f"{', '.join(sorted(ARRAY_PRESETS))}")
    geometry = get_array_preset(array)
    audio = bundle.audio
    estimates = localize_stream(audio, geometry, localizer, audio.sample_rate_hz,
                                n_sources=n_sources, **localizer_kwargs)
    tracks = track_stream(estimates, tracker, seed=seed)
    return resample_tracks(tracks, bundle.array_trajectory.timestamps)

"""Multichannel buffers, framing, and cross-power spectra.

Shared STFT front end for all localizers. Spectra are one-sided (real
input); bin k corresponds to normalized frequency ``2*pi*k/window_length``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import get_window

DEFAULT_SAMPLE_RATE = 48000
DEFAULT_WINDOW_LENGTH = 2048
DEFAULT_HOP = 1024
# array elements per temporary when work is split into chunks (4 MB at complex128)
CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class MultichannelAudio:
    """Channel-major audio: samples[channel][n], all channels equal length."""

    samples: np.ndarray
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE
    start_time: float = 0.0

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def channel_count(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.length / self.sample_rate_hz


@dataclass(frozen=True, eq=False)
class Stft:
    """One-sided multichannel short-time spectrum of a run of analysis frames.

    ``len()`` is the frame count; slicing selects frames and returns an Stft.
    """

    bins: np.ndarray  # (frames, channels, bin_count) complex
    times: np.ndarray  # (frames,) frame centre times, s
    window_length: int
    hop: int

    def __len__(self):
        return self.bins.shape[0]

    def __getitem__(self, index):
        if not isinstance(index, slice):
            raise TypeError("an Stft is indexed by frame slices only")
        return Stft(self.bins[index], self.times[index], self.window_length, self.hop)

    @property
    def bin_count(self) -> int:
        return self.bins.shape[2]

    @property
    def channel_count(self) -> int:
        return self.bins.shape[1]


@dataclass(frozen=True)
class CrossSpectrum:
    """Cross-power spectrum G_{m,l}(w) averaged over a frame block."""

    values: np.ndarray  # (bin_count,) complex
    pair: tuple
    window_length: int


def frame_signal(audio: MultichannelAudio, window_length: int = DEFAULT_WINDOW_LENGTH,
                 hop: int = DEFAULT_HOP, window: str = "hann") -> Stft:
    """Slice the signal into tapered frames and transform each to the frequency domain.

    Frame k covers samples [k*hop, k*hop + window_length). A signal shorter
    than one window yields an Stft with no frames.
    """
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    n = audio.length
    n_frames = (n - window_length) // hop + 1 if window_length <= n else 0
    bins = np.empty((n_frames, audio.channel_count, window_length // 2 + 1), dtype=complex)
    times = (audio.start_time
             + (np.arange(n_frames) * hop + window_length / 2) / audio.sample_rate_hz)
    if n_frames == 0:
        return Stft(bins, times, window_length, hop)
    if window in ("rect", "rectangular", "boxcar"):
        taper = np.ones(window_length)
    else:
        taper = get_window(window, window_length, fftbins=True)
    # (frames, channels, window_length) view of the samples, no copy
    segments = sliding_window_view(audio.samples, window_length, axis=1)[:, ::hop]
    segments = segments.transpose(1, 0, 2)
    step = max(1, CHUNK_ELEMENTS // (audio.channel_count * window_length))
    for start in range(0, n_frames, step):
        bins[start:start + step] = np.fft.rfft(segments[start:start + step] * taper, axis=-1)
    return Stft(bins, times, window_length, hop)


def block_cross_spectra(frames: Stft, bins=None) -> np.ndarray:
    """Block-mean cross-power spectra G[k, m, l] = mean_f S_m(f, k) conj(S_l(f, k)).

    Returns an array of shape (bin_count, channels, channels), over every bin
    or over the bin indices given.
    """
    if not frames:
        raise ValueError("empty frame block")
    spectra = frames.bins if bins is None else frames.bins[:, :, bins]
    x = np.ascontiguousarray(spectra.transpose(2, 1, 0))  # (bins, channels, frames)
    return x @ np.conj(x.transpose(0, 2, 1)) / len(frames)


def cross_power_spectrum(frames: Stft, pair) -> CrossSpectrum:
    """Block-mean cross-power spectrum G_{m,l} = mean_k S_m(k) conj(S_l(k)),
    the pair (m, l) of `block_cross_spectra`."""
    m, l = pair
    channels = frames.channel_count
    if not (0 <= m < channels and 0 <= l < channels):
        raise ValueError(f"channel pair {pair} out of range for {channels} channels")
    g = block_cross_spectra(frames)
    return CrossSpectrum(g[:, m, l], (m, l), frames.window_length)

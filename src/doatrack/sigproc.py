"""Multichannel buffers, Hann-tapered framing, analysis blocks and cross-power spectra.

Shared STFT front end for all localizers. Spectra are one-sided (real
input); bin k corresponds to normalized frequency ``2*pi*k/window_length``.
A recording's analysis blocks (`Blocks`) are transformed group by group, so
no localizer holds the STFT of a whole recording; `Blocks.groups` sizes the
groups, and Blocks over an `Stft` take its window length and hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_WINDOW_LENGTH = 2048
DEFAULT_HOP = 1024
BLOCK_FRAMES = 8  # STFT frames per localizer block
BLOCK_STRIDE = 4  # frames from one block start to the next
# array elements per temporary when work is split into chunks (4 MB at complex128)
CHUNK_ELEMENTS = 1 << 18
# complex elements of STFT frames and sub-block cross-spectra that one group
# of blocks may hold (16 MB); a group holds one block at least
BLOCK_GROUP_ELEMENTS = 4 * CHUNK_ELEMENTS
# complex elements of the sub-block channel x channel products of one chunk
# of bins (512 kB, so that a chunk stays in a core's L2 cache)
PAIR_CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class MultichannelAudio:
    """Channel-major audio: samples[channel][n], all channels equal length; no rate is assumed."""

    samples: np.ndarray
    sample_rate_hz: float

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
    sample_rate_hz: float  # Hz, of the recording the frames were cut from

    def __len__(self):
        return self.bins.shape[0]

    def __getitem__(self, index):
        if not isinstance(index, slice):
            raise TypeError("an Stft is indexed by frame slices only")
        return replace(self, bins=self.bins[index], times=self.times[index])

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
                 hop: int = DEFAULT_HOP, out=None) -> Stft:
    """Slice the signal into Hann-tapered frames and transform each to the frequency domain.

    Frame k covers samples [k*hop, k*hop + window_length). A signal shorter
    than one window yields an Stft with no frames. The spectra are written
    to `out`, a complex array of shape (frames, channels, window_length // 2
    + 1), when one is given, and the Stft holds it as its `bins`.
    """
    n_frames = _frame_count(audio, window_length, hop)
    shape = (n_frames, audio.channel_count, window_length // 2 + 1)
    bins = np.empty(shape, dtype=complex) if out is None else out
    if bins.shape != shape:
        raise ValueError(f"out has shape {bins.shape}, the frames need {shape}")
    times = _centre_times(np.arange(n_frames), window_length, hop, audio.sample_rate_hz)
    if n_frames == 0:
        return Stft(bins, times, window_length, hop, audio.sample_rate_hz)
    taper = _taper(window_length)
    # (frames, channels, window_length) view of the samples, no copy
    segments = sliding_window_view(audio.samples, window_length, axis=1)[:, ::hop]
    segments = segments.transpose(1, 0, 2)
    step = max(1, CHUNK_ELEMENTS // (audio.channel_count * window_length))
    for start in range(0, n_frames, step):
        np.fft.rfft(segments[start:start + step] * taper, axis=-1, out=bins[start:start + step])
    return Stft(bins, times, window_length, hop, audio.sample_rate_hz)


def _centre_times(index, window_length: int, hop: int, sample_rate_hz: float) -> np.ndarray:
    """Centre times, s, of the `frame_signal` frames `index`."""
    return (np.asarray(index) * hop + window_length / 2) / sample_rate_hz


def _frame_count(audio: MultichannelAudio, window_length: int, hop: int) -> int:
    """Number of whole frames of `window_length` samples, `hop` apart."""
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    n = audio.length
    return (n - window_length) // hop + 1 if window_length <= n else 0


# every frame_signal and frame_energies call of a run asks for the same taper
@lru_cache(maxsize=8)
def _taper(window_length: int) -> np.ndarray:
    """Read-only periodic (DFT-even) Hann window of Harris (Proc. IEEE 1978), `window_length` long."""
    phase = np.linspace(-np.pi, np.pi, window_length + 1)[:window_length]
    taper = 0.5 + 0.5 * np.cos(phase) if window_length > 1 else np.ones(1)
    taper.flags.writeable = False
    return taper


def frame_energies(audio: MultichannelAudio, window_length: int = DEFAULT_WINDOW_LENGTH,
                   hop: int = DEFAULT_HOP) -> np.ndarray:
    """Mean of |X|^2 over the channels and one-sided bins of every `frame_signal`
    frame, read from the samples without a transform or a tapered copy.

    By Parseval's theorem a real frame s of length N with taper w has
    sum_k |X_k|^2 = (N sum_n w_n^2 s_n^2 + X_0^2 + X_{N/2}^2) / 2 over the
    one-sided bins, with X_0 = sum_n w_n s_n and X_{N/2} = sum_n (-1)^n w_n s_n
    (N even only). Frames start on multiples of g = gcd(N, hop), so a frame
    is N / g whole pieces of g samples, and piece p of every frame is a
    strided view of the samples cut into pieces. Each sum is then N / g
    matrix products, piece p of the samples (or of their power summed over
    the channels) times piece p of the taper terms. Agrees with the
    transform's energies to rounding.
    """
    n_frames = _frame_count(audio, window_length, hop)
    energies = np.empty(n_frames)
    piece = math.gcd(window_length, hop)
    per_frame, per_hop = window_length // piece, hop // piece
    taper = _taper(window_length)
    squared = (taper * taper).reshape(per_frame, piece)
    # columns: w, and (-1)^n w for an even length; (pieces, samples of a piece, columns)
    edges = np.repeat(taper[:, None], 1 + (window_length % 2 == 0), axis=1)
    edges[1::2, 1:] *= -1.0
    edges = edges.reshape(per_frame, piece, -1)
    channels = audio.channel_count
    # frames per chunk: a chunk's power holds about CHUNK_ELEMENTS samples
    step = max(1, CHUNK_ELEMENTS // max(window_length, hop))
    for start in range(0, n_frames, step):
        count = min(step, n_frames - start)
        n_pieces = (count - 1) * per_hop + per_frame
        s = audio.samples[:, start * hop:start * hop + n_pieces * piece]
        power = np.einsum("mn,mn->n", s, s).reshape(n_pieces, piece)
        s = s.reshape(channels, n_pieces, piece)
        tapered = np.zeros(count)
        sums = np.zeros((channels, count, edges.shape[2]))
        for p in range(per_frame):
            rows = slice(p, p + (count - 1) * per_hop + 1, per_hop)  # piece p of each frame
            tapered += power[rows] @ squared[p]
            sums += s[:, rows] @ edges[p]
        energies[start:start + count] = ((window_length * tapered
                                          + np.einsum("mfc,mfc->f", sums, sums))
                                         / (2 * channels * (window_length // 2 + 1)))
    return energies


@dataclass(frozen=True, eq=False)
class Blocks:
    """Analysis blocks of one recording: block i is the `length` consecutive
    STFT frames from frame ``starts[i]`` on, with ``starts`` non-negative and
    strictly increasing.

    `source` is the recording (frames are transformed group by group, see
    `groups`) or an `Stft` that holds the frames already, whose
    `window_length` and `hop` the blocks take (ValueError if given others);
    over a recording they default to DEFAULT_WINDOW_LENGTH and DEFAULT_HOP.
    """

    source: MultichannelAudio | Stft
    starts: np.ndarray
    length: int
    window_length: int | None = None
    hop: int | None = None

    def __post_init__(self):
        starts = np.asarray(self.starts, dtype=int)
        # block_cross_spectra accumulates sub-block sums in start order
        if starts.ndim != 1 or np.any(starts < 0) or np.any(np.diff(starts) <= 0):
            raise ValueError("block starts must be non-negative and strictly increasing")
        object.__setattr__(self, "starts", starts)
        for name, default in (("window_length", DEFAULT_WINDOW_LENGTH), ("hop", DEFAULT_HOP)):
            given, layout = getattr(self, name), getattr(self.source, name, default)
            if isinstance(self.source, Stft) and given not in (None, layout):
                raise ValueError(f"{name} {given} differs from the Stft's {layout}")
            object.__setattr__(self, name, layout if given is None else given)

    @classmethod
    def whole(cls, frames: Stft) -> "Blocks":
        """All frames of `frames` as one block."""
        return cls(frames, np.zeros(1, dtype=int), len(frames))

    def __len__(self):
        return len(self.starts)

    @property
    def channel_count(self) -> int:
        return self.source.channel_count

    @property
    def sub_block(self) -> int:
        """Frames per sub-block: every block is a whole number of sub-blocks
        and every block start a sub-block boundary."""
        return math.gcd(self.length, *(int(d) for d in np.diff(self.starts)))

    def frame_times(self, index) -> np.ndarray:
        """Centre times of frames `index`, s."""
        if isinstance(self.source, Stft):
            return self.source.times[index]
        return _centre_times(index, self.window_length, self.hop, self.source.sample_rate_hz)

    @property
    def times(self) -> np.ndarray:
        """Block centre times: the mean of a block's first and last frame times."""
        return 0.5 * (self.frame_times(self.starts)
                      + self.frame_times(self.starts + self.length - 1))

    def frames(self, first: int, stop: int, known=None) -> Stft:
        """The STFT frames first..stop-1. `known`, if given, holds the
        spectra of the first len(known) of them, which are copied, not
        transformed again."""
        if isinstance(self.source, Stft):
            return self.source[first:stop]
        audio = self.source
        bins = np.empty((stop - first, audio.channel_count, self.window_length // 2 + 1),
                        dtype=complex)
        shared = 0
        if known is not None:
            shared = len(known)
            bins[:shared] = known
        span = audio.samples[:, (first + shared) * self.hop:(stop - 1) * self.hop
                             + self.window_length]
        fresh = frame_signal(MultichannelAudio(span, audio.sample_rate_hz), self.window_length,
                             self.hop, bins[shared:])
        return replace(fresh, bins=bins, times=self.frame_times(np.arange(first, stop)))

    def groups(self, bins: int, pairs: int):
        """Split the blocks into groups of consecutive blocks whose frames
        overlap or touch, each of at most BLOCK_GROUP_ELEMENTS complex values
        (one block at least): each frame's STFT and share of the sub-block
        cross-spectra (`pair_cross_spectra`) of the `pairs` and `bins` read.

        Yields (slice of these blocks, the group as Blocks over an Stft of
        just the frames it spans). A group copies the frames it shares with
        the group before, so each frame is transformed once.
        """
        frame_elements = (self.channel_count * (self.window_length // 2 + 1)
                          + -(-bins * pairs // self.sub_block))
        max_frames = max(self.length, BLOCK_GROUP_ELEMENTS // max(1, frame_elements))
        starts = self.starts
        first = 0
        frames, end = None, 0  # the last group's frames, and the frame after them
        for i in range(1, len(starts) + 1):
            if (i == len(starts) or starts[i] > starts[i - 1] + self.length
                    or starts[i] + self.length - starts[first] > max_frames):
                shared = end - starts[first]
                end = starts[i - 1] + self.length
                # a view of the last group's frames would keep them alive, so none is kept
                frames = self.frames(starts[first], end,
                                     frames.bins[len(frames) - shared:] if shared > 0 else None)
                yield slice(first, i), Blocks(frames, starts[first:i] - starts[first], self.length)
                first = i


def pair_cross_spectra(blocks: Blocks, pairs, bins=None) -> np.ndarray:
    """Block-mean cross-power spectra of the microphone pairs `pairs`:
    G[k, b, p] = mean over the frames f of block b of S_m(f, k) conj(S_l(f, k)),
    with (m, l) = pairs[p].

    Returns an array of shape (bin_count, blocks, pairs), so that the pairs of
    one bin and block lie side by side in memory, over every bin or over
    `bins`, one increasing run of consecutive bin indices; any other `bins`
    raises ValueError. Each frame's outer products are formed once: blocks are
    sums of sub-blocks (see `Blocks.sub_block`), so overlapping blocks share
    the sub-blocks they have in common. The sub-block products are full
    channel x channel matrices, formed PAIR_CHUNK_ELEMENTS at a time over a
    chunk of bins; the requested pairs are gathered, summed into blocks and
    scaled by 1 / length while the chunk is still in cache. Meant for the
    blocks of one `Blocks.groups` group, whose frames are all in use.
    """
    if not blocks.length:
        raise ValueError("empty frame block")
    channels = blocks.channel_count
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    if np.any((pairs < 0) | (pairs >= channels)):
        raise ValueError(f"channel pair out of range for {channels} channels in {pairs.tolist()}")
    flat = pairs[:, 0] * channels + pairs[:, 1]  # index of (m, l) in a flattened channel matrix
    starts = blocks.starts
    sub = blocks.sub_block
    frames = blocks.frames(starts[0], starts[-1] + blocks.length)
    n_sub = len(frames) // sub
    # (sub-blocks, frames of the sub-block, channels, bins)
    spectra = frames.bins[:n_sub * sub].reshape((n_sub, sub) + frames.bins.shape[1:])
    bins = np.arange(frames.bin_count) if bins is None else np.asarray(bins)
    if len(bins) and not (np.array_equal(bins, bins[0] + np.arange(len(bins)))
                          and 0 <= bins[0] and bins[-1] < frames.bin_count):
        raise ValueError("bins must be one increasing run of consecutive bins in range")
    # block b is sub-blocks pos[b]..pos[b] + per_block - 1, summed in that order
    pos = (starts - starts[0]) // sub
    per_block = blocks.length // sub
    # numpy's complex g /= n multiplies both parts by 1.0 / n (its one other
    # bit: a -0.0 real part with a non-negative imaginary part becomes +0.0)
    scale = 1.0 / blocks.length
    out = np.empty((len(bins), len(starts), len(flat)), dtype=complex)
    step = max(1, PAIR_CHUNK_ELEMENTS // (n_sub * channels * channels))
    for first in range(0, len(bins), step):
        chunk = slice(bins[0] + first, bins[0] + min(first + step, len(bins)))
        # (sub-blocks, chunk bins, channels, frames of the sub-block)
        x = np.ascontiguousarray(spectra[..., chunk].transpose(0, 3, 2, 1))
        sums = x @ np.conj(x.transpose(0, 1, 3, 2))
        sums = np.take(sums.reshape(n_sub, x.shape[1], -1), flat, axis=2)
        block_sums = sums[pos]  # (blocks, chunk bins, pairs)
        for j in range(1, per_block):
            block_sums += sums[pos + j]
        np.multiply(block_sums.view(float), scale,
                    out=out[first:first + step].transpose(1, 0, 2).view(float))
    return out


def block_cross_spectra(blocks: Blocks, bins=None) -> np.ndarray:
    """Block-mean cross-power spectra G[b, k, m, l] = mean over the frames f of
    block b of S_m(f, k) conj(S_l(f, k)), every pair of `pair_cross_spectra`.

    Returns a view of shape (blocks, bin_count, channels, channels), over
    every bin or over one run of consecutive bin indices.
    """
    channels = blocks.channel_count
    pairs = np.stack(np.divmod(np.arange(channels * channels), channels), axis=1)
    g = pair_cross_spectra(blocks, pairs, bins)
    return g.reshape(g.shape[:2] + (channels, channels)).transpose(1, 0, 2, 3)


def cross_power_spectrum(frames: Stft, pair) -> CrossSpectrum:
    """Block-mean cross-power spectrum G_{m,l} = mean_k S_m(k) conj(S_l(k)),
    the pair (m, l) of `pair_cross_spectra` over all of `frames`."""
    m, l = pair
    g = pair_cross_spectra(Blocks.whole(frames), [(m, l)])
    return CrossSpectrum(g[:, 0, 0], (m, l), frames.window_length)

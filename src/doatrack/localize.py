"""Block-level DoA estimation over whole recordings.

Four estimators share one STFT front end:

* GCC-PHAT time-delay estimation plus least-squares triangulation,
* SRP-PHAT steered-response-power grid search,
* broadband MUSIC,
* first-order pseudo-intensity for spherical layouts.

Each takes all analysis blocks of a recording (`Blocks`) and returns one
array with a row per block: a spatial spectrum (SRP-PHAT, MUSIC) or an
azimuth (pseudo-intensity, and GCC-PHAT delays triangulated by
`tdoa_to_azimuth`). NaN marks a block the localizer skipped: silent, or
for MUSIC ill-conditioned. The blocks are processed in groups
(`Blocks.groups`) of bounded memory, and work shared by blocks, such as the
steering vectors and the per-frame intensities, is done once per group, not
once per block; the GCC lag basis, where one is used, is built once per
call. GCC-PHAT and SRP-PHAT read only the cross-spectra of the pairs m < l
(`sigproc.pair_cross_spectra`). `gcc_phat` also takes one `CrossSpectrum`.

Delay convention: ``expected_tdoa(s, m, l)`` and ``gcc_phat`` both measure
the delay of channel m relative to channel l in samples (positive when m
receives later). Far-field steering delays are referenced to the array
centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# at the top, unlike the other stages' scipy imports: MUSIC calls it once per bin
from scipy.linalg.lapack import zheevr

from .geometry import (
    SPEED_OF_SOUND,
    ArrayGeometry,
    DegenerateGeometryError,
    Doa,
    doa_to_unit_vector,
    row_norms,
    upper_pairs,
    wrap_angle,
)
from .sigproc import (CHUNK_ELEMENTS, Blocks, CrossSpectrum, block_cross_spectra,
                      pair_cross_spectra)

DEFAULT_BAND_HZ = (300.0, 4000.0)
GRID_RESOLUTION_DEG = 1.0  # azimuth step of the grid searches
GCC_INTERPOLATION = 4  # GCC lag axis oversampling
MUSIC_DIAGONAL_LOADING = 1e-6  # of the mean eigenvalue, added to every bin's correlation
# microphones from which MUSIC solves only its signal subspace (see _signal_subspace)
MUSIC_PARTIAL_EIGEN_CHANNELS = 8
PHAT_FLOOR_REL = 1e-12  # bins below this fraction of max |G| get zero weight
# spectrum values within this fraction of the peak tie with it; on a linear
# array a direction and its mirror image differ only by rounding
PEAK_TIE_REL = 1e-9
# one steering bin in this many is an exact exponential, the rest are
# recurrence products (see _steering); it bounds their drift to ~16 roundings
EXACT_STEERING_EVERY = 16
# tail sum_{n>N} (z/2)^n / n! of the Jacobi-Anger bound that fixes the harmonic
# order N of band-limited SRP-PHAT (see srp_phat)
SRP_HARMONIC_TAIL = 1e-17


class NoSignalError(ValueError):
    """All-zero input where signal content is required."""


class UnsupportedGeometryError(ValueError):
    pass


@dataclass(frozen=True)
class TdoaEstimate:
    pair: tuple
    delay: float  # samples, fractional
    confidence: float


@dataclass(frozen=True)
class BlockTdoas:
    """GCC-PHAT pair delays of a recording's blocks, one row per block."""

    pairs: tuple  # (m, l) of each column
    delays: np.ndarray  # (blocks, pairs), samples, fractional
    confidence: np.ndarray  # (blocks, pairs)
    usable: np.ndarray  # (blocks,) False where a pair's cross spectrum is all zero
    sample_rate_hz: float  # of the recording, whose samples the delays count


@dataclass(frozen=True)
class DoaGrid:
    """Candidate directions for grid-search localizers."""

    directions: tuple

    def __post_init__(self):
        directions = tuple(self.directions)
        if not directions:
            raise ValueError("empty grid")
        object.__setattr__(self, "directions", directions)

    def __len__(self):
        return len(self.directions)

    # computed once per grid and read-only, since cached grids are shared
    @cached_property
    def azimuths(self) -> np.ndarray:
        return _read_only(np.array([d.azimuth for d in self.directions]))

    @cached_property
    def unit_vectors(self) -> np.ndarray:
        return _read_only(np.array([doa_to_unit_vector(d) for d in self.directions]))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# every grid search asks for the same grid
@lru_cache(maxsize=16)
def azimuth_grid(resolution_deg: float = GRID_RESOLUTION_DEG) -> DoaGrid:
    """Azimuth-only grid covering [-180, 180) degrees in the horizontal plane."""
    n = int(round(360.0 / resolution_deg))
    azimuths = np.radians(-180.0 + resolution_deg * np.arange(n))
    return DoaGrid(tuple(Doa(a) for a in azimuths))


@dataclass(frozen=True)
class DoaEstimate:
    """A timestamped, labelled direction estimate: the unit of every submission."""

    timestamp: float
    doa: Doa
    source_id: int = 1

    def __post_init__(self):
        if self.source_id < 1:
            raise ValueError("source_id must be >= 1")


# ---------------------------------------------------------------------------
# TDoA / GCC-PHAT
# ---------------------------------------------------------------------------

def expected_tdoa(source_pos, mic_m, mic_l, f_s: float) -> float:
    """TDoA in samples: (f_s/c) * (||s - x_m|| - ||s - x_l||), c = SPEED_OF_SOUND."""
    source_pos = np.asarray(source_pos, dtype=float)
    mic_m = np.asarray(mic_m, dtype=float)
    mic_l = np.asarray(mic_l, dtype=float)
    d_m = np.linalg.norm(source_pos - mic_m)
    d_l = np.linalg.norm(source_pos - mic_l)
    if d_m < 1e-9 or d_l < 1e-9:
        raise DegenerateGeometryError("source coincides with a microphone")
    return float(f_s / SPEED_OF_SOUND * (d_m - d_l))


def farfield_pair_tdoa(unit_dirs, mic_m, mic_l, f_s: float):
    """Far-field TDoA (samples) of pair (m, l) for plane waves from given directions."""
    unit_dirs = np.atleast_2d(np.asarray(unit_dirs, dtype=float))
    baseline = np.asarray(mic_l, dtype=float) - np.asarray(mic_m, dtype=float)
    return f_s / SPEED_OF_SOUND * unit_dirs @ baseline


def gcc_phat(cs: CrossSpectrum | Blocks, max_lag):
    """Estimate the dominant delay from a phase-transformed cross spectrum.

    The GCC is evaluated on a GCC_INTERPOLATION-times oversampled lag axis
    within +-max_lag and the peak refined by parabolic interpolation. `cs` is
    one CrossSpectrum, with `max_lag` a float, which gives a TdoaEstimate,
    or a recording's Blocks with `max_lag` one per microphone pair (m < l,
    in row-major order), which gives a BlockTdoas.
    """
    if isinstance(cs, Blocks):
        max_lags = np.asarray(max_lag, dtype=float)
        n_pairs = cs.channel_count * (cs.channel_count - 1) // 2
        if max_lags.shape != (n_pairs,):
            raise ValueError(f"need one max_lag per microphone pair, {n_pairs} in all")
        return _gcc_phat_blocks(cs, max_lags)
    g = np.asarray(cs.values, dtype=complex)[:, None, None]
    lag_axis = _lag_axis(np.array([float(max_lag)]), cs.window_length)
    delays, peaks, usable = _lag_window_peaks(g, lag_axis)
    if not usable[0]:
        raise NoSignalError("all-zero cross spectrum")
    return TdoaEstimate(cs.pair, float(delays[0, 0]), float(peaks[0, 0]))


def _gcc_phat_blocks(blocks: Blocks, max_lags) -> BlockTdoas:
    pairs = upper_pairs(blocks.channel_count)
    lag_axis = _lag_axis(max_lags, blocks.window_length)
    delays = np.zeros((len(blocks), len(pairs)))
    peaks = np.zeros((len(blocks), len(pairs)))
    usable = np.zeros(len(blocks), dtype=bool)
    for group_slice, group in blocks.groups(blocks.window_length // 2 + 1, len(pairs)):
        delays[group_slice], peaks[group_slice], usable[group_slice] = _lag_window_peaks(
            pair_cross_spectra(group, pairs), lag_axis)
    return BlockTdoas(tuple(map(tuple, pairs.tolist())), delays, peaks, usable,
                      blocks.source.sample_rate_hz)


def _lag_axis(max_lags, window_length: int):
    """The lag axis of `_lag_window_peaks`: each pair's window max_shift on
    the GCC_INTERPOLATION-times oversampled axis of nfft =
    GCC_INTERPOLATION * window_length lags, nfft, and the GCC half-basis for
    the widest window. The basis is the rows c_k cos, sin(2 pi k tau / nfft)
    / nfft over the bins k and the lags tau = 0..max(max_shift), as a (cos,
    sin) pair of (lags, bins) arrays, or None where it would not fit one
    chunk of CHUNK_ELEMENTS (more than 255 lags at 1025 bins). Built once
    per `gcc_phat` call.
    """
    nfft = window_length * GCC_INTERPOLATION
    max_shift = np.minimum(np.floor(max_lags * GCC_INTERPOLATION).astype(int), nfft // 2 - 1)
    if max_shift.min() < 1:
        raise ValueError("max_lag too small for the lag axis")
    bin_count = window_length // 2 + 1
    lags = int(max_shift.max()) + 1
    if lags > CHUNK_ELEMENTS // bin_count:
        return max_shift, nfft, None
    angle = (2.0 * np.pi / nfft) * np.arange(nfft)
    # c_0 = 1 and c_k = 2 otherwise: bins 1.. stand for their mirror images too
    cos_table, sin_table = np.cos(angle) / nfft * 2.0, np.sin(angle) / nfft * 2.0
    # (k tau) mod nfft indexes the tables exactly; for a power-of-two nfft the
    # non-negative k tau reduce by a mask, a cheaper ufunc
    phase = np.multiply.outer(np.arange(lags), np.arange(bin_count))
    if nfft & (nfft - 1):
        phase %= nfft
    else:
        phase &= nfft - 1
    cos_basis, sin_basis = cos_table[phase], sin_table[phase]
    cos_basis[:, 0] *= 0.5
    return max_shift, nfft, (cos_basis, sin_basis)


def _lag_window_peaks(g, lag_axis):
    """Peak lag of the PHAT-weighted GCC of every block and pair.

    `g` holds cross spectra of shape (bins, blocks, pairs), and `lag_axis`
    comes from `_lag_axis`. With W = PHAT(G) and nfft =
    GCC_INTERPOLATION * window_length, the GCC at lag tau is
    cc[tau] = sum_k c_k Re(W_k exp(i 2 pi k tau / nfft)) / nfft, c_0 = 1 and
    c_k = 2 otherwise: the irfft of W zero-padded to nfft, which counts bin 0
    once and every other bin twice. With a basis, cos is even and sin is odd,
    so lags +-tau come from one matmul of each against the (bins, blocks x
    pairs) weights. Without one, each column's window is cut from irfft(W,
    nfft), CHUNK_ELEMENTS // nfft columns at a time. Lags beyond a pair's
    own window take no part.
    Returns delays and peak values, both (blocks, pairs), and a (blocks,)
    mask, False where a pair's cross spectrum is all zero.
    """
    max_shift, nfft, basis = lag_axis
    bin_count, n_blocks, n_pairs = g.shape
    mag = np.abs(g)
    peak_mag = mag.max(axis=0)  # (blocks, pairs)
    usable = np.all(peak_mag > 0.0, axis=1)
    # PHAT weights: 1 / |G| above the floor, 0 below it
    keep = mag > PHAT_FLOOR_REL * peak_mag
    weights = np.divide(1.0, np.maximum(mag, 1e-300, out=mag), out=mag)
    weights[~keep] = 0.0
    del keep
    shift = int(max_shift.max())
    columns = n_blocks * n_pairs
    cc = np.empty((columns, 2 * shift + 1))  # a row of lags -shift..shift per block and pair
    if basis is not None:
        cos_basis, sin_basis = basis
        w_re = np.multiply(g.real, weights).reshape(bin_count, columns)
        w_im = np.multiply(g.imag, weights, out=weights).reshape(bin_count, columns)
        even, odd = cos_basis @ w_re, sin_basis @ w_im
        cc[:, shift:] = (even - odd).T
        cc[:, shift::-1] = (even + odd).T
    else:
        w = np.multiply(g, weights).reshape(bin_count, columns)
        del weights
        step = max(1, CHUNK_ELEMENTS // nfft)
        for first in range(0, columns, step):
            # a transform along contiguous rows is the faster one
            full = np.fft.irfft(np.ascontiguousarray(w[:, first:first + step].T), nfft)
            cc[first:first + step, :shift] = full[:, nfft - shift:]
            cc[first:first + step, shift:] = full[:, :shift + 1]
    cc = cc.reshape(n_blocks, n_pairs, 2 * shift + 1)
    offset_idx = np.arange(-shift, shift + 1)
    cc[:, np.abs(offset_idx) > max_shift[:, None]] = -np.inf
    idx = np.argmax(cc, axis=2)  # (blocks, pairs)

    def at(lag_index):
        return np.take_along_axis(cc, lag_index[..., None], axis=2)[..., 0]

    peak = at(idx)
    delay = offset_idx[idx] / GCC_INTERPOLATION
    # parabolic refinement unless the peak sits on an edge of the pair's window
    y0 = at(np.maximum(idx - 1, 0))
    y2 = at(np.minimum(idx + 1, 2 * shift))
    denom = y0 - 2 * peak + y2
    refine = (np.abs(offset_idx[idx]) < max_shift) & (np.abs(denom) > 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5)
    delay = np.where(refine, delay + offset / GCC_INTERPOLATION, delay)
    return delay, peak, usable


def tdoa_to_azimuth(tdoas: BlockTdoas, geometry: ArrayGeometry) -> np.ndarray:
    """Least-squares triangulation of each block's pair delays on a far-field
    azimuth grid: (blocks,) azimuths, NaN for a block that is not usable.
    Ties are broken towards the smallest azimuth wrapped into [0, 2*pi).
    Delays of another pair count than `geometry`'s raise ValueError.
    """
    grid = azimuth_grid()
    pairs = np.array(tdoas.pairs).reshape(-1, 2)
    if len(pairs) != len(upper_pairs(geometry.mic_count)):
        raise ValueError(f"delays of {len(pairs)} microphone pairs, but array "
                         f"{geometry.name!r} has {len(upper_pairs(geometry.mic_count))}")
    mics = geometry.mic_positions
    baselines = mics[pairs[:, 1]] - mics[pairs[:, 0]]
    # expected far-field delay of every pair (rows) from every grid direction
    expected = baselines @ (tdoas.sample_rate_hz / SPEED_OF_SOUND * grid.unit_vectors).T
    azimuths = np.full(len(tdoas.delays), np.nan)
    for b in np.flatnonzero(tdoas.usable):
        cost = np.sum((tdoas.delays[b][:, None] - expected) ** 2, axis=0)
        azimuths[b] = grid.azimuths[peak_index(-cost, grid.azimuths, 1e-9)]
    return azimuths


def peak_index(values, azimuths, tolerance: float) -> int:
    """Index of the largest value; values within `tolerance` of it tie, and a
    tie goes to the smallest azimuth wrapped into [0, 2*pi)."""
    values = np.asarray(values)
    tied = np.flatnonzero(values >= values.max() - tolerance)
    return int(tied[np.argmin(np.mod(np.asarray(azimuths)[tied], 2.0 * np.pi))])


# ---------------------------------------------------------------------------
# SRP-PHAT
# ---------------------------------------------------------------------------

def _band_bins(window_length: int, f_s: float, band_hz):
    freqs = np.arange(window_length // 2 + 1) * f_s / window_length
    bins = np.flatnonzero((freqs >= band_hz[0]) & (freqs <= band_hz[1]))
    if bins.size == 0:
        raise ValueError("analysis band holds no frequency bins")
    return bins


def _steering(geometry: ArrayGeometry, grid: DoaGrid, bins, window_length: int, f_s: float):
    """Per-mic far-field steering phases A[k, x, m] = exp(i w_k t_m(x)), in chunks of bins.

    t_m(x) = (f_s / c) x . (r_m - centroid) is how many samples earlier mic m
    hears a plane wave from direction x than the array centroid does. `bins`
    is one contiguous band (see `_band_bins`), so a bin's phases are the
    previous bin's times exp(i 2 pi t_m(x) / window_length). Every
    EXACT_STEERING_EVERY-th bin is an exact exponential and the bins between
    are such products, which drift by about one rounding error per product.
    Yields (bin slice, array of shape (chunk bins, directions, mics)).
    """
    mics = geometry.mic_positions - geometry.centroid
    lead = (f_s / SPEED_OF_SOUND) * grid.unit_vectors @ mics.T  # (directions, mics)
    omega = 2.0 * np.pi * bins / window_length
    next_bin = np.exp(1j * (2.0 * np.pi / window_length) * lead)
    step = max(1, CHUNK_ELEMENTS // lead.size)
    for start in range(0, len(bins), step):
        chunk = slice(start, start + step)
        steer = np.empty((len(omega[chunk]),) + lead.shape, dtype=complex)
        for j in range(len(steer)):
            if j % EXACT_STEERING_EVERY:
                np.multiply(steer[j - 1], next_bin, out=steer[j])
            else:
                steer[j] = np.exp(1j * omega[start + j] * lead)
        yield chunk, steer


def srp_phat(blocks: Blocks, geometry: ArrayGeometry, grid: DoaGrid,
             band_hz=DEFAULT_BAND_HZ) -> np.ndarray:
    """Steered response power with PHAT pre-whitening over a direction grid.

    P(x) = sum over all microphone pairs (self pairs included) of the GCC
    evaluated at the pair's far-field delay for direction x. The pair (m, l)
    term at bin k is conj(A_m) PHAT(G_ml) A_l with per-mic steering A, so
    P(x) = M K + 2 Re sum_k conj(A_k) . (triu(PHAT(G_k), 1) A_k).
    Returns the (blocks, directions) spectra of a recording's blocks; each
    steering chunk is built once per group of blocks.

    Band-limited evaluation. On the horizontal circle x = (cos phi, sin phi,
    0) the pair term at bin k is 2 Re(W exp(i z cos(phi - theta))), |W| <= 1,
    with z = 2 pi f_k d / c and d the pair's horizontal distance. By the
    Jacobi-Anger expansion its e^{i n phi} coefficient is at most 2 |J_n(z)|
    in magnitude, and |J_n(z)| <= (z/2)^n / n!, which grows with z. Let
    z = 2 pi f_top D / c for the top bin used and the largest horizontal
    distance D between two microphones, and N the smallest order with
    sum_{n>N} (z/2)^n / n! <= SRP_HARMONIC_TAIL = eps. The trigonometric
    interpolant through L = 2N + 1 equispaced samples keeps every harmonic
    |n| <= N and folds the rest onto them, so it misses each pair term by at
    most 2 * 2 * sum_{n>N} 2 |J_n(z)| <= 8 eps, and P by at most 8 K P eps
    < 4 M^2 K eps over K bins and P = M (M - 1) / 2 pairs: 4 M eps relative
    to the M K offset of the self pairs, 1.3e-15 on the 32-mic eigenmike,
    far below the 1e-12 to which the spectra are checked against a per-pair
    reference. So when `grid` is the uniform horizontal circle of n
    directions that `azimuth_grid(360 / n)` builds (decided from its unit
    vectors) and L < n, P is evaluated on `azimuth_grid(360 / L)` and
    interpolated to the n directions with irfft(rfft(v), n) * n / L. The
    default 300-4000 Hz band and 2048-sample window give L = 63 on
    robot_head (D = 0.100 m), 59 on eigenmike (0.084 m), 79 on hearing_aids
    (0.157 m) and 319 on dicit_32cm (1.28 m); dicit (2.24 m, L = 511) and
    every other grid are evaluated direction by direction. Measured against
    the direction-by-direction evaluation on synthesized scenes, the spectra
    agree within 2.8e-15 relative on the first three arrays and 1.7e-14 on
    dicit_32cm, whose steering phases of up to 93 rad carry that much
    rounding in either evaluation.

    A block whose in-band cross-spectra between microphones are all zero,
    which would leave a flat spectrum, gets a NaN row.
    """
    if blocks.channel_count < 2:
        raise ValueError("need at least 2 channels")
    f_s = blocks.source.sample_rate_hz
    bins = _band_bins(blocks.window_length, f_s, band_hz)
    coarse = _band_limited_grid(geometry, grid, bins[-1] * f_s / blocks.window_length)
    values = _steered_power(blocks, geometry, grid if coarse is None else coarse, bins, f_s)
    if coarse is not None:
        n = len(grid)
        values = np.fft.irfft(np.fft.rfft(values, axis=1), n, axis=1) * (n / len(coarse))
    return values


def _band_limited_grid(geometry: ArrayGeometry, grid: DoaGrid, f_top: float):
    """The circle of L = 2N + 1 directions that carries `grid`'s SRP-PHAT
    spectrum up to f_top Hz (see `srp_phat`), or None where `grid` is not
    the uniform horizontal circle or L would not be smaller than it."""
    n = len(grid)
    if not np.array_equal(grid.unit_vectors, azimuth_grid(360.0 / n).unit_vectors):
        return None
    xy = geometry.mic_positions[:, :2]
    aperture = np.sqrt(np.max(np.sum((xy[:, None] - xy[None]) ** 2, axis=-1)))
    half_z = np.pi * f_top * aperture / SPEED_OF_SOUND
    # term = (z/2)^(N+1) / (N+1)!; past n = z/2 the terms shrink at least by
    # the ratio z/2 / (N+2), so the tail is at most term / (1 - ratio)
    order, term = 0, half_z
    while 2 * order + 1 < n:
        ratio = half_z / (order + 2)
        if ratio < 1.0 and term <= SRP_HARMONIC_TAIL * (1.0 - ratio):
            return azimuth_grid(360.0 / (2 * order + 1))
        order += 1
        term *= half_z / (order + 1)
    return None


def _steered_power(blocks: Blocks, geometry: ArrayGeometry, grid: DoaGrid, bins, f_s: float):
    """SRP-PHAT values (blocks, directions) of `srp_phat` on `grid`, NaN in
    the rows of blocks whose in-band cross spectra are all zero."""
    channels = blocks.channel_count
    pairs = upper_pairs(channels)
    flat = pairs[:, 0] * channels + pairs[:, 1]  # index of (m, l) in a flattened channel matrix
    # self terms contribute a direction-independent offset of channels * len(bins)
    values = np.full((len(blocks), len(grid)), float(channels * len(bins)))
    for group_slice, group in blocks.groups(len(bins), len(pairs)):
        g = pair_cross_spectra(group, pairs, bins)  # (bins, blocks, pairs)
        mag = np.abs(g)
        peak = mag.max(axis=0)  # per block and pair, over the band
        ok = np.any(peak > 0.0, axis=1)
        group_values = values[group_slice]
        group_values[~ok] = np.nan
        if not ok.any():
            continue
        # g becomes PHAT(G) of the pairs
        floor = mag <= PHAT_FLOOR_REL * peak
        np.divide(g, np.maximum(mag, 1e-300, out=mag), out=g)
        g[floor] = 0.0
        del mag, floor
        for chunk, steer in _steering(geometry, grid, bins, blocks.window_length, f_s):
            # a block's triu(PHAT(G_k), 1) over the chunk's bins, zero on and
            # below the diagonal
            triu = np.zeros((len(steer), channels * channels), dtype=complex)
            upper = triu.reshape(-1, channels, channels).transpose(0, 2, 1)
            for b in np.flatnonzero(ok):
                triu[:, flat] = g[chunk, b]
                weighted = steer @ upper  # [k, x, m] = sum_l PHAT(G_k)[m, l] A[k, x, l]
                # Re(conj(a) w) = a.real w.real + a.imag w.imag, summed over bins and mics
                group_values[b] += 2.0 * np.einsum("kxj,kxj->x", steer.view(float),
                                                   weighted.view(float))
    return values


def circular_peaks(azimuths, values, k: int):
    """Top-k local maxima of a spectrum on a circular azimuth grid.

    Peaks are taken greedily, highest first, each at least 10 degrees from
    those already taken. Ties (values within PEAK_TIE_REL of the spectrum's
    largest magnitude) go to the smallest azimuth wrapped into [0, 2*pi).
    """
    tolerance = PEAK_TIE_REL * np.abs(values).max()
    is_peak = (values >= np.roll(values, 1)) & (values > np.roll(values, -1))
    candidates = np.flatnonzero(is_peak)
    picked = []
    min_sep = math.radians(10.0)
    while candidates.size and len(picked) < k:
        best = candidates[peak_index(values[candidates], azimuths[candidates], tolerance)]
        picked.append(azimuths[best])
        candidates = candidates[np.abs(wrap_angle(azimuths[candidates] - azimuths[best]))
                                >= min_sep]
    if not picked and len(values):
        picked.append(azimuths[peak_index(values, azimuths, tolerance)])
    return picked


# ---------------------------------------------------------------------------
# MUSIC
# ---------------------------------------------------------------------------

def music_spectrum(blocks: Blocks, geometry: ArrayGeometry, grid: DoaGrid,
                   n_sources: int, band_hz=DEFAULT_BAND_HZ) -> np.ndarray:
    """Broadband MUSIC pseudo-spectra, (blocks, directions).

    The signal subspace of each narrowband spatial correlation matrix is
    found (`_signal_subspace`); the pseudo-spectrum scores steering-vector
    orthogonality to the noise subspace, its complement. Narrowband spectra
    are max-normalized and averaged over the analysis band. Each steering
    chunk is built once per group of blocks. A block with an ill-conditioned
    correlation matrix gets a NaN row.
    """
    channels = blocks.channel_count
    if not (1 <= n_sources < channels):
        raise ValueError("need 1 <= n_sources < channel count")
    if blocks.length < channels:
        raise ValueError(
            f"correlation estimate needs >= {channels} frames, got {blocks.length}"
        )
    f_s = blocks.source.sample_rate_hz
    bins = _band_bins(blocks.window_length, f_s, band_hz)
    broadband = np.zeros((len(blocks), len(grid)))
    for group_slice, group in blocks.groups(len(bins), channels**2):
        r = block_cross_spectra(group, bins)  # E[x x^H] per bin, x the channel vector
        load = MUSIC_DIAGONAL_LOADING * np.real(np.trace(r, axis1=2, axis2=3)) / channels
        r += load[..., None, None] * np.eye(channels)
        u_s = _signal_subspace(r, n_sources)  # per block and bin
        del r
        # a positive load bounds the condition number by about channels / loading;
        # a zero trace or an underflowed load is ill-conditioned
        ok = np.all(load > 0, axis=1)  # (blocks,)
        group_broadband = broadband[group_slice]
        group_broadband[~ok] = np.nan
        if not ok.any():
            continue
        for chunk, v in _steering(geometry, grid, bins, blocks.window_length, f_s):
            for b in np.flatnonzero(ok):
                # rows of v are unit-modulus steering vectors, so the squared norm of
                # their noise-subspace part is channels minus that of their
                # signal-subspace coordinates w (sum of real^2 + imag^2)
                w = (v @ u_s[b, chunk].conj()).view(float)
                denom = channels - np.einsum("kij,kij->ki", w, w)
                narrow = 1.0 / np.maximum(denom, 1e-30)
                group_broadband[b] += (narrow / narrow.max(axis=1, keepdims=True)).sum(axis=0)
    broadband /= len(bins)
    return broadband


def _signal_subspace(r, n_sources: int) -> np.ndarray:
    """Eigenvectors of the `n_sources` largest eigenvalues of each Hermitian
    matrix in `r` (..., M, M), in ascending order of eigenvalue: (..., M,
    n_sources).

    From MUSIC_PARTIAL_EIGEN_CHANNELS microphones on, LAPACK's zheevr is
    asked for only those eigenvectors, one matrix at a time; below, numpy's
    batched eigh of the whole matrix is faster. Both read the lower triangle.
    """
    channels = r.shape[-1]
    if channels < MUSIC_PARTIAL_EIGEN_CHANNELS:
        return np.linalg.eigh(r)[1][..., channels - n_sources:]
    flat = r.reshape(-1, channels, channels)
    u_s = np.empty((len(flat), channels, n_sources), dtype=complex)
    for i, matrix in enumerate(flat):
        u_s[i] = zheevr(matrix, compute_v=1, range="I", lower=1,
                        il=channels - n_sources + 1, iu=channels)[1]
    return u_s.reshape(r.shape[:-1] + (n_sources,))


# ---------------------------------------------------------------------------
# Pseudo-intensity (spherical layouts)
# ---------------------------------------------------------------------------

def _spherical_mic_directions(geometry: ArrayGeometry) -> np.ndarray:
    mics = geometry.mic_positions - geometry.centroid
    radii = np.linalg.norm(mics, axis=1)
    if geometry.mic_count < 12:
        raise UnsupportedGeometryError(
            "pseudo-intensity needs a near-uniform spherical layout (>= 12 mics)"
        )
    if radii.min() < 1e-6 or (radii.max() - radii.min()) / radii.max() > 0.05:
        raise UnsupportedGeometryError(
            f"array {geometry.name!r} is not spherical enough for pseudo-intensity"
        )
    return mics / radii[:, None]


def pseudo_intensity(blocks: Blocks, geometry: ArrayGeometry,
                     band_hz=DEFAULT_BAND_HZ) -> np.ndarray:
    """Block azimuths from the first-order intensity vector of a spherical array.

    An omni eigenbeam and three dipole eigenbeams (free-field spherical
    harmonic projection, no rigid-baffle compensation) approximate the
    acoustic intensity; its direction, in quadrature with the omni beam,
    points towards the arrival direction. A block's azimuth is the circular
    mean of its frames' arrival azimuths, and a frame shared by blocks is
    computed once. Returns (blocks,) azimuths, NaN for a block with a
    silent frame.
    """
    u = _spherical_mic_directions(geometry)
    bins = _band_bins(blocks.window_length, blocks.source.sample_rate_hz, band_hz)
    mean_sin, mean_cos = np.empty(len(blocks)), np.empty(len(blocks))
    usable = np.empty(len(blocks), dtype=bool)
    for group_slice, group in blocks.groups(0, 0):
        s = group.source.bins[:, :, bins]  # (frames, channels, bins)
        p0 = s.mean(axis=1)  # (frames, bins)
        dipole = (u.T @ s) * (3.0 / geometry.mic_count)  # (frames, 3, bins)
        arrival = np.imag(np.conj(p0)[:, None, :] * dipole).sum(axis=2)  # (frames, 3)
        norm = row_norms(arrival)
        p0_peak = np.abs(p0).max(axis=1)
        silent = (norm < 1e-12 * np.maximum(p0_peak, 1e-300)) | (p0_peak == 0.0)
        # normalized as unit_vector_to_doa normalizes, since that rounds the
        # arguments of arctan2; a silent frame is never read and divides by 1
        unit = arrival / np.where(silent, 1.0, norm)[:, None]
        azimuth = wrap_angle(np.arctan2(unit[:, 1], unit[:, 0]))
        frames = group.starts[:, None] + np.arange(group.length)  # (blocks, length)
        mean_sin[group_slice] = np.mean(np.sin(azimuth[frames]), axis=1)
        mean_cos[group_slice] = np.mean(np.cos(azimuth[frames]), axis=1)
        usable[group_slice] = ~silent[frames].any(axis=1)
    azimuths = np.full(len(blocks), np.nan)
    # libm's atan2; numpy's SIMD arctan2 can round the last bit differently
    azimuths[usable] = wrap_angle(np.array(
        [math.atan2(y, x) for y, x in zip(mean_sin[usable].tolist(), mean_cos[usable].tolist())]))
    return azimuths

"""Frame-level DoA estimation.

Four estimators share one STFT front end:

* GCC-PHAT time-delay estimation plus least-squares triangulation,
* SRP-PHAT steered-response-power grid search,
* broadband MUSIC,
* first-order pseudo-intensity for spherical layouts.

Delay convention: ``expected_tdoa(s, m, l)`` and ``gcc_phat`` both measure
the delay of channel m relative to channel l in samples (positive when m
receives later). Far-field steering delays are referenced to the array
centroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import (
    SPEED_OF_SOUND,
    ArrayGeometry,
    DegenerateGeometryError,
    Doa,
    doa_to_unit_vector,
    unit_vector_to_doa,
    wrap_angle,
)
from .sigproc import CHUNK_ELEMENTS, CrossSpectrum, Stft, block_cross_spectra

DEFAULT_BAND_HZ = (300.0, 4000.0)
PHAT_FLOOR_REL = 1e-12  # bins below this fraction of max |G| get zero weight
# spectrum values within this fraction of the peak tie with it; on a linear
# array a direction and its mirror image differ only by rounding
PEAK_TIE_REL = 1e-9
# one steering bin in this many is an exact exponential, the rest are
# recurrence products (see _steering); it bounds their drift to ~16 roundings
EXACT_STEERING_EVERY = 16


class NoSignalError(ValueError):
    """All-zero input where signal content is required."""


class UnsupportedGeometryError(ValueError):
    pass


class IllConditionedError(ValueError):
    pass


class UnderdeterminedError(ValueError):
    pass


@dataclass(frozen=True)
class TdoaEstimate:
    pair: tuple
    delay: float  # samples, fractional
    confidence: float


@dataclass(frozen=True)
class DoaGrid:
    """Candidate directions for grid-search localizers."""

    directions: tuple
    resolution_deg: float

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


# tdoa_to_azimuth asks for the same grid once per block
@lru_cache(maxsize=16)
def azimuth_grid(resolution_deg: float = 1.0, elevation: float = np.pi / 2) -> DoaGrid:
    """Azimuth-only grid covering [-180, 180) degrees at fixed elevation."""
    n = int(round(360.0 / resolution_deg))
    azimuths = np.radians(-180.0 + resolution_deg * np.arange(n))
    return DoaGrid(tuple(Doa(a, elevation) for a in azimuths), resolution_deg)


def sphere_grid(resolution_deg: float = 2.0) -> DoaGrid:
    """Near-uniform full-sphere grid (Fibonacci lattice) at the given spacing."""
    spacing = np.radians(resolution_deg)
    count = max(int(np.ceil(4.0 * np.pi / spacing**2)), 16)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    elevation = np.arccos(np.clip(z, -1.0, 1.0))
    azimuth = wrap_angle(golden * i)
    return DoaGrid(tuple(Doa(a, e) for a, e in zip(azimuth, elevation)), resolution_deg)


@dataclass(frozen=True)
class SpatialSpectrum:
    grid: DoaGrid
    values: np.ndarray
    kind: str  # "SRP" | "MUSIC" | "PIV-histogram"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if len(values) != len(self.grid):
            raise ValueError("spectrum length does not match grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum contains non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DoaEstimate:
    """A timestamped, labelled direction estimate: the unit of every submission."""

    timestamp: float
    doa: Doa
    source_id: int = 1
    score: float = 0.0

    def __post_init__(self):
        if self.source_id < 1:
            raise ValueError("source_id must be >= 1")


# ---------------------------------------------------------------------------
# TDoA / GCC-PHAT
# ---------------------------------------------------------------------------

def expected_tdoa(source_pos, mic_m, mic_l, f_s: float, c: float = SPEED_OF_SOUND) -> float:
    """TDoA in samples: (f_s/c) * (||s - x_m|| - ||s - x_l||)."""
    source_pos = np.asarray(source_pos, dtype=float)
    mic_m = np.asarray(mic_m, dtype=float)
    mic_l = np.asarray(mic_l, dtype=float)
    d_m = np.linalg.norm(source_pos - mic_m)
    d_l = np.linalg.norm(source_pos - mic_l)
    if d_m < 1e-9 or d_l < 1e-9:
        raise DegenerateGeometryError("source coincides with a microphone")
    return float(f_s / c * (d_m - d_l))


def farfield_pair_tdoa(unit_dirs, mic_m, mic_l, f_s: float, c: float = SPEED_OF_SOUND):
    """Far-field TDoA (samples) of pair (m, l) for plane waves from given directions."""
    unit_dirs = np.atleast_2d(np.asarray(unit_dirs, dtype=float))
    baseline = np.asarray(mic_l, dtype=float) - np.asarray(mic_m, dtype=float)
    return f_s / c * unit_dirs @ baseline


def gcc_phat(cs, max_lag, interpolation: int = 4):
    """Estimate the dominant delay from a phase-transformed cross spectrum.

    The GCC is evaluated on an `interpolation`-times oversampled lag axis and
    the peak refined by parabolic interpolation. `cs` is one CrossSpectrum,
    or a sequence of them sharing one window length, with `max_lag` a float
    or one per spectrum; a sequence gives a list of estimates, computed in
    batches of pairs.
    """
    if interpolation < 1:
        raise ValueError("interpolation factor must be >= 1")
    if isinstance(cs, CrossSpectrum):
        return _gcc_phat_batch([cs], np.array([max_lag], dtype=float), interpolation)[0]
    spectra = list(cs)
    max_lags = np.broadcast_to(np.asarray(max_lag, dtype=float), (len(spectra),))
    nfft = spectra[0].window_length * interpolation
    step = max(1, CHUNK_ELEMENTS // nfft)
    estimates = []
    for start in range(0, len(spectra), step):
        estimates += _gcc_phat_batch(spectra[start:start + step],
                                     max_lags[start:start + step], interpolation)
    return estimates


def _gcc_phat_batch(spectra, max_lags, interpolation):
    g = np.array([s.values for s in spectra], dtype=complex)  # (pairs, bins)
    mag = np.abs(g)
    peak_mag = mag.max(axis=1, keepdims=True)
    if np.any(peak_mag <= 0.0):
        raise NoSignalError("all-zero cross spectrum")
    weights = np.where(mag > PHAT_FLOOR_REL * peak_mag, 1.0 / np.maximum(mag, 1e-300), 0.0)
    nfft = spectra[0].window_length * interpolation
    cc = np.fft.irfft(g * weights, n=nfft)
    max_shift = np.minimum(np.floor(max_lags * interpolation).astype(int), nfft // 2 - 1)
    if max_shift.min() < 1:
        raise ValueError("max_lag too small for the lag axis")
    # lags -shift..shift of every pair; lags beyond a pair's own max_shift are masked
    shift = int(max_shift.max())
    cc = np.concatenate((cc[:, -shift:], cc[:, :shift + 1]), axis=1)
    offset_idx = np.arange(-shift, shift + 1)
    inside = np.abs(offset_idx) <= max_shift[:, None]
    idx = np.argmax(np.where(inside, cc, -np.inf), axis=1)
    rows = np.arange(len(cc))
    peak = cc[rows, idx]
    delay = offset_idx[idx] / interpolation
    # parabolic refinement unless the peak sits on an edge of the pair's window
    y0 = cc[rows, np.maximum(idx - 1, 0)]
    y2 = cc[rows, np.minimum(idx + 1, 2 * shift)]
    denom = y0 - 2 * peak + y2
    refine = (np.abs(offset_idx[idx]) < max_shift) & (np.abs(denom) > 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5)
    delay = np.where(refine, delay + offset / interpolation, delay)
    return [TdoaEstimate(s.pair, float(d), float(p)) for s, d, p in zip(spectra, delay, peak)]


def tdoa_to_azimuth(estimates, geometry: ArrayGeometry, f_s: float,
                    c: float = SPEED_OF_SOUND, resolution_deg: float = 1.0) -> Doa:
    """Least-squares triangulation of pair delays on a far-field azimuth grid.

    Ties are broken towards the smallest azimuth wrapped into [0, 2*pi).
    """
    estimates = list(estimates)
    if not estimates:
        raise UnderdeterminedError("no TDoA estimates to triangulate")
    grid = azimuth_grid(resolution_deg)
    pairs = np.array([est.pair for est in estimates])
    delays = np.array([est.delay for est in estimates])
    mics = geometry.mic_positions
    baselines = mics[pairs[:, 1]] - mics[pairs[:, 0]]
    # expected far-field delay of every pair (rows) from every grid direction
    expected = baselines @ (f_s / c * grid.unit_vectors).T
    cost = np.sum((delays[:, None] - expected) ** 2, axis=0)
    return grid.directions[peak_index(-cost, grid.azimuths, 1e-9)]


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
    bin_count = window_length // 2 + 1
    freqs = np.arange(bin_count) * f_s / window_length
    if band_hz is None:
        mask = (np.arange(bin_count) > 0) & (np.arange(bin_count) < bin_count - 1)
    else:
        mask = (freqs >= band_hz[0]) & (freqs <= band_hz[1])
    bins = np.flatnonzero(mask)
    if bins.size == 0:
        raise ValueError("analysis band holds no frequency bins")
    return bins


def _steering(geometry: ArrayGeometry, grid: DoaGrid, bins, window_length: int,
              f_s: float, c: float):
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
    lead = (f_s / c) * grid.unit_vectors @ mics.T  # (directions, mics)
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


def srp_phat(frames: Stft, geometry: ArrayGeometry, grid: DoaGrid, f_s: float,
             c: float = SPEED_OF_SOUND, band_hz=DEFAULT_BAND_HZ) -> SpatialSpectrum:
    """Steered response power with PHAT pre-whitening over a direction grid.

    P(x) = sum over all microphone pairs (self pairs included) of the GCC
    evaluated at the pair's far-field delay for direction x. The pair (m, l)
    term at bin k is conj(A_m) PHAT(G_ml) A_l with per-mic steering A, so
    P(x) = M K + 2 Re sum_k conj(A_k) . (triu(PHAT(G_k), 1) A_k).

    Raises NoSignalError when all in-band cross-spectra between microphones
    are zero, which would leave a flat spectrum.
    """
    if len(grid) == 0:
        raise ValueError("empty grid")
    if not frames:
        raise ValueError("empty frame block")
    channels = frames.channel_count
    if channels < 2:
        raise ValueError("need at least 2 channels")
    window_length = frames.window_length
    bins = _band_bins(window_length, f_s, band_hz)
    g = block_cross_spectra(frames, bins)  # (bins, mics, mics)
    mag = np.abs(g)
    peak = mag.max(axis=0)  # per pair, over the band
    if not np.any(np.triu(peak, 1) > 0.0):
        raise NoSignalError("all in-band cross spectra are zero")
    phat = np.where(mag > PHAT_FLOOR_REL * peak, g / np.maximum(mag, 1e-300), 0.0)
    upper = np.triu(phat, 1).transpose(0, 2, 1)  # [k, l, m] = PHAT(G_k)[m, l] for m < l
    # self terms contribute a direction-independent offset of channels * len(bins)
    values = np.full(len(grid), float(channels * len(bins)))
    for chunk, steer in _steering(geometry, grid, bins, window_length, f_s, c):
        weighted = steer @ upper[chunk]  # [k, x, m] = sum_l PHAT(G_k)[m, l] A[k, x, l]
        # Re(conj(a) w) = a.real w.real + a.imag w.imag, summed over bins and mics
        values += 2.0 * np.einsum("kxj,kxj->x", steer.view(float), weighted.view(float))
    return SpatialSpectrum(grid, values, "SRP")


def srp_argmax(spectrum: SpatialSpectrum) -> Doa:
    """Direction of the spectrum maximum.

    Values within PEAK_TIE_REL of the maximum tie; a tie goes to the
    smallest azimuth wrapped into [0, 2*pi).
    """
    values = spectrum.values
    tolerance = PEAK_TIE_REL * np.abs(values).max()
    return spectrum.grid.directions[peak_index(values, spectrum.grid.azimuths, tolerance)]


# ---------------------------------------------------------------------------
# MUSIC
# ---------------------------------------------------------------------------

def music_spectrum(frames: Stft, geometry: ArrayGeometry, grid: DoaGrid, n_sources: int,
                   f_s: float, c: float = SPEED_OF_SOUND, band_hz=DEFAULT_BAND_HZ,
                   diagonal_loading: float = 1e-6) -> SpatialSpectrum:
    """Broadband MUSIC pseudo-spectrum.

    Each narrowband spatial correlation matrix is eigendecomposed; the
    pseudo-spectrum scores steering-vector orthogonality to the noise
    subspace. Narrowband spectra are max-normalized and averaged over the
    analysis band.
    """
    if not frames:
        raise ValueError("empty frame block")
    channels = frames.channel_count
    if not (1 <= n_sources < channels):
        raise ValueError("need 1 <= n_sources < channel count")
    if len(frames) < channels:
        raise ValueError(
            f"correlation estimate needs >= {channels} frames, got {len(frames)}"
        )
    window_length = frames.window_length
    bins = _band_bins(window_length, f_s, band_hz)
    r = block_cross_spectra(frames, bins)  # E[x x^H] per bin, x the channel vector
    load = diagonal_loading * np.real(np.trace(r, axis1=1, axis2=2)) / channels
    r = r + load[:, None, None] * np.eye(channels)
    eigvals, eigvecs = np.linalg.eigh(r)
    # 2-norm condition number of a Hermitian matrix; an all-zero bin gives nan
    magnitude = np.abs(eigvals)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = magnitude.max(axis=1) / magnitude.min(axis=1)
    bad = np.flatnonzero(~(cond <= 1e12))
    if bad.size:
        raise IllConditionedError(f"correlation matrix ill-conditioned at bin {bins[bad[0]]}")
    u_s = eigvecs[:, :, channels - n_sources:]  # signal subspace per bin
    broadband = np.zeros(len(grid))
    for chunk, v in _steering(geometry, grid, bins, window_length, f_s, c):
        u = u_s[chunk]
        # rows of v are steering vectors; remove their signal-subspace part
        proj = v - (v @ u.conj()) @ u.transpose(0, 2, 1)
        flat = proj.view(float)  # squared norm of each row: sum of real^2 + imag^2
        denom = np.einsum("kij,kij->ki", flat, flat)
        narrow = 1.0 / np.maximum(denom, 1e-30)
        broadband += (narrow / narrow.max(axis=1, keepdims=True)).sum(axis=0)
    broadband /= len(bins)
    return SpatialSpectrum(grid, broadband, "MUSIC")


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


def pseudo_intensity(frames: Stft, geometry: ArrayGeometry, f_s: float,
                     band_hz=DEFAULT_BAND_HZ):
    """Per-frame DoA from the first-order intensity vector of a spherical array.

    An omni eigenbeam and three dipole eigenbeams (free-field spherical
    harmonic projection, no rigid-baffle compensation) approximate the
    acoustic intensity; its direction, in quadrature with the omni beam,
    points towards the arrival direction.
    """
    u = _spherical_mic_directions(geometry)
    if not frames:
        raise ValueError("empty frame block")
    bins = _band_bins(frames.window_length, f_s, band_hz)
    s = frames.bins[:, :, bins]  # (frames, channels, bins)
    p0 = s.mean(axis=1)  # (frames, bins)
    dipole = (u.T @ s) * (3.0 / geometry.mic_count)  # (frames, 3, bins)
    arrival = np.imag(np.conj(p0)[:, None, :] * dipole).sum(axis=2)  # (frames, 3)
    norm = np.linalg.norm(arrival, axis=1)
    p0_peak = np.abs(p0).max(axis=1)
    silent = np.flatnonzero((norm < 1e-12 * np.maximum(p0_peak, 1e-300)) | (p0_peak == 0.0))
    if silent.size:
        raise NoSignalError(f"no usable signal in frame at t={frames.times[silent[0]]:.3f}")
    return [DoaEstimate(float(t), unit_vector_to_doa(a), 1, float(n))
            for t, a, n in zip(frames.times, arrival, norm)]

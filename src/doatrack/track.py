"""Sequential Bayesian smoothing of per-frame DoA estimates.

State is azimuth plus azimuth rate under a constant-velocity model with
white-acceleration process noise. Three filters are provided: a linear
Kalman filter with wrapped innovations, the wrapped Kalman filter of Traa and
Smaragdis (IEEE SPL 2013), which corrects with the likelihood-weighted mean
of the innovations to the observation's images obs + 2 pi k, k in
{-1, 0, 1}, and a bootstrap particle filter with systematic resampling.
`track_lifecycle` runs any of them under one multi-target M-of-N lifecycle.

The lifecycle keeps the state of every live track in one filter bank and
steps the bank once per timestamp: one predict for all tracks, one read of
their azimuths and gate variances, one update of the matched tracks, one
start for the unmatched observations and one compaction when tracks end.
The two Kalman banks stack means (n, 2) and covariances (n, 2, 2), one
Gaussian per track, and differ only in the correction; the particle bank
stacks particles (n, I, 2) and weights (n, I). The per-track functions
(`kf_predict`, `kf_update`, `wrapped_kf_predict`, `wrapped_kf_update`,
`pf_predict`, `pf_step`) run the same kernels on one state, so each filter
equation is written once and a bank row holds the bits the per-track
function gives. The wrapped filter's per-track state, `WrappedMixture`, is
one Gaussian held as `TrackState` holds it, and `wrapped_kf_predict` is
`kf_predict`.

The particle bank draws from one generator in the order that stepping the
tracks one by one would: the predict noise of every track in track order,
then one resampling offset per resampled track in assignment-row order, then
the start particles of each new track in observation order. It wraps the
azimuths that a per-track `ParticleSet` wraps after the predict and at the
start. It does not wrap them again after an update or a resample, as a new
`ParticleSet` does, since those azimuths are `wrap_angle` output, which
`wrap_angle` returns unchanged bit for bit.

A covariance is accepted when it is positive-definite, checked in closed
form with the arithmetic of the 2 x 2 Cholesky factorisation: a > 0 and
d - (b / sqrt(a))**2 > 0 for the lower triangle [[a, .], [b, d]]. A NaN
fails either test. The check is vectorized over the rows of a bank and
scalar in `TrackState`; no LAPACK call is made.

Work that depends only on the step length is done once per (dt, process
noise intensity): the transition matrix and process-noise covariance
(`_model`), and the particle filter's noise factor (`_noise_factor`). Both
caches are bounded LRU caches of read-only arrays. The particle filter
draws its process noise as a standard normal (..., 2) block times that
factor, which is `Generator.multivariate_normal`'s SVD draw from the same
stream, without the per-call factorisation and PSD check.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .assignment import gated_assignment
from .evaluate import DEFAULT_GATE_DEG
from .geometry import wrap_angle

logger = logging.getLogger(__name__)

FILTERS = ("kalman", "wrapped-kalman", "particle")
PF_PARTICLES = 500  # particles per track of the `particle` filter
PF_RESAMPLE_THRESHOLD = 0.5  # resample when the effective sample size drops below this share
_MODEL_CACHE_SIZE = 256  # distinct (dt, intensity) pairs kept by `_model` and `_noise_factor`


class FilterDivergenceError(ArithmeticError):
    """Covariance lost positive definiteness; the track should be flagged."""


def _is_positive_definite(cov) -> bool:
    """Whether the 2 x 2 matrix `cov`, read from its lower triangle as
    Cholesky reads it, is positive-definite: a > 0 and d - (b / sqrt(a))**2 > 0."""
    (a, _), (b, d) = cov.tolist()
    if not a > 0:
        return False
    low = b / math.sqrt(a)
    return d - low * low > 0


def _positive_definite_rows(covs: np.ndarray) -> np.ndarray:
    """`_is_positive_definite` of each (2, 2) matrix of a stack."""
    a, b, d = covs[:, 0, 0], covs[:, 1, 0], covs[:, 1, 1]
    with np.errstate(all="ignore"):
        low = b / np.sqrt(a)
        return (a > 0) & (d - low * low > 0)


@dataclass(frozen=True)
class TrackState:
    mean: np.ndarray  # [azimuth (rad), azimuth rate (rad/s)]
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1).copy()
        cov = np.asarray(self.covariance, dtype=float)
        mean[0] = wrap_angle(mean[0])
        cov = 0.5 * (cov + cov.T)
        if not _is_positive_definite(cov):
            raise FilterDivergenceError("covariance is not positive-definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def azimuth(self) -> float:
        return float(self.mean[0])


def process_noise_cov(dt: float, intensity: float) -> np.ndarray:
    """White-acceleration process noise for a constant-velocity model."""
    return intensity * np.array([
        [dt**3 / 3.0, dt**2 / 2.0],
        [dt**2 / 2.0, dt],
    ])


@lru_cache(maxsize=_MODEL_CACHE_SIZE)
def _model(dt: float, intensity: float):
    """Read-only (transition matrix, process-noise covariance) for one step."""
    f, q = np.array([[1.0, dt], [0.0, 1.0]]), process_noise_cov(dt, intensity)
    f.flags.writeable = q.flags.writeable = False
    return f, q


@lru_cache(maxsize=_MODEL_CACHE_SIZE)
def _noise_factor(dt: float, intensity: float) -> np.ndarray:
    """Read-only u * sqrt(s) of the SVD of the process-noise covariance:
    `standard_normal((n, 2)) @ factor.T` is the draw
    `multivariate_normal(zeros(2), q, size=n)` makes from the same stream."""
    u, s, _ = np.linalg.svd(_model(dt, intensity)[1])
    factor = u * np.sqrt(s)  # finite only if u and s are, and s >= 0
    if not np.all(np.isfinite(factor)):
        raise ValueError(f"process noise for dt={dt}, intensity={intensity} "
                         "is not a finite PSD covariance")
    factor.flags.writeable = False
    return factor


# ---------------------------------------------------------------------------
# Kalman kernels: means (..., 2), covariances (..., 2, 2)
# ---------------------------------------------------------------------------

_H = np.array([[1.0, 0.0]])
_EYE = np.eye(2)


def _kf_propagate(means, covs, dt: float, intensity: float):
    """x <- F x and P <- F P F' + Q."""
    f, q = _model(dt, intensity)
    return (f @ means[..., None])[..., 0], f @ covs @ f.T + q


def _kf_gain(covs, obs_noise_var: float):
    """Gain P H' / (H P H' + r) and the Joseph-form posterior covariance
    (I - K H) P (I - K H)' + K r K', which stays symmetric positive-definite."""
    gain = covs[..., :, 0] / (covs[..., :1, 0] + obs_noise_var)
    column = gain[..., :, None]
    ikh = _EYE - column * _H
    return gain, ikh @ covs @ ikh.swapaxes(-1, -2) + column * gain[..., None, :] * obs_noise_var


def _kf_correct(means, covs, obs, obs_noise_var: float):
    """Measurement update with the innovation wrapped into [-pi, pi)."""
    innovation = wrap_angle(obs - means[..., 0])
    gain, covs = _kf_gain(covs, obs_noise_var)
    return means + gain * np.asarray(innovation)[..., None], covs


def _wkf_correct(means, covs, obs, obs_noise_var: float):
    """Wrapped measurement update (Traa and Smaragdis, IEEE SPL 2013): the
    innovation is the mean of the innovations to the images wrap(obs) + 2 pi k,
    k in {-1, 0, 1}, weighted by their likelihoods. Also returns the summed
    likelihood, the evidence; a state of zero evidence keeps its mean."""
    obs = wrap_angle(obs)
    s = covs[..., 0, 0] + obs_noise_var
    norm = np.sqrt(2 * np.pi * s)
    evidence = weighted = 0.0
    for shift in (-2 * np.pi, 0.0, 2 * np.pi):
        innovation = (obs + shift) - means[..., 0]
        likelihood = np.exp(-0.5 * innovation**2 / s) / norm
        evidence = evidence + likelihood
        weighted = weighted + likelihood * innovation
    innovation = weighted / np.where(evidence > 0.0, evidence, 1.0)
    gain, covs = _kf_gain(covs, obs_noise_var)
    return means + gain * innovation[..., None], covs, evidence


def _normalized(means, covs):
    """Azimuths wrapped, covariances symmetrized, and which rows are
    positive-definite."""
    means[:, 0] = wrap_angle(means[:, 0])
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    return means, covs, _positive_definite_rows(covs)


def kf_predict(state: TrackState, dt: float, process_noise: float) -> TrackState:
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return state
    mean, cov = _kf_propagate(state.mean, state.covariance, dt, process_noise)
    return replace(state, mean=mean, covariance=cov)


def _check_observation(obs: float, obs_noise_var: float) -> None:
    if not np.isfinite(obs):
        raise ValueError("observation must be finite")
    if not 0 < obs_noise_var < math.inf:
        raise ValueError("obs_noise_var must be positive and finite")


def kf_update(state: TrackState, obs: float, obs_noise_var: float) -> TrackState:
    """Kalman measurement update with the innovation wrapped into [-pi, pi)."""
    _check_observation(obs, obs_noise_var)
    mean, cov = _kf_correct(state.mean, state.covariance, obs, obs_noise_var)
    return replace(state, mean=mean, covariance=cov)


# ---------------------------------------------------------------------------
# Wrapped Kalman filter
# ---------------------------------------------------------------------------

class WrappedMixture(TrackState):
    """The wrapped Kalman filter's state: one Gaussian, held as `TrackState`
    holds it."""

    @classmethod
    def from_state(cls, state: TrackState) -> "WrappedMixture":
        return cls(state.mean, state.covariance)

    def circular_mean(self) -> float:
        return self.azimuth

    def azimuth_variance(self) -> float:
        return float(self.covariance[0, 0])


wrapped_kf_predict = kf_predict


def _log_rejection(where: str, obs) -> None:
    logger.warning("%swrapped KF update rejected observation %.3f (zero likelihood)",
                   f"{where}: " if where else "", wrap_angle(obs))


def wrapped_kf_update(state: WrappedMixture, obs: float, obs_noise_var: float,
                      where: str = "") -> WrappedMixture:
    """`_wkf_correct` of the state.

    An observation of zero evidence is rejected: the prior is returned and a
    warning names `where`, the track and time.
    """
    _check_observation(obs, obs_noise_var)
    mean, cov, evidence = _wkf_correct(state.mean, state.covariance, obs, obs_noise_var)
    if not evidence > 0.0:
        _log_rejection(where, obs)
        return state
    return replace(state, mean=mean, covariance=cov)


# ---------------------------------------------------------------------------
# Particle filter: particles (..., I, 2), weights (..., I)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticleSet:
    particles: np.ndarray  # (I, 2)
    weights: np.ndarray  # (I,)

    def __post_init__(self):
        particles = np.atleast_2d(np.asarray(self.particles, dtype=float)).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if particles.shape[0] != weights.shape[0] or particles.shape[0] < 1:
            raise ValueError("particle/weight count mismatch")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        particles[:, 0] = wrap_angle(particles[:, 0])
        # read-only, so the cached circular mean always matches the arrays
        particles.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.particles.shape[0]

    def effective_sample_size(self) -> float:
        return float(_pf_effective_sample_size(self.weights))

    def circular_mean(self) -> float:
        """Weighted circular mean of the azimuths, computed once per set."""
        return self._circular_mean

    @cached_property
    def _circular_mean(self) -> float:
        return float(_pf_circular_mean(_pf_phasors(self.particles[:, 0]), self.weights))

    def azimuth_variance(self) -> float:
        """Weighted azimuth variance about the circular mean."""
        return float(_pf_azimuth_variance(self.particles, self.weights, self.circular_mean()))


@dataclass(frozen=True)
class PfParams:
    process_intensity: float
    obs_noise_var: float

    def __post_init__(self):
        if not 0 <= self.process_intensity < math.inf:
            raise ValueError("process_intensity must be finite and >= 0")
        if not 0 < self.obs_noise_var < math.inf:
            raise ValueError("obs_noise_var must be positive and finite")


def wrapped_gaussian_likelihood(innovation, variance):
    """Likelihood of a wrapped innovation, summed over +/- one revolution.

    An image one revolution away whose exponent lies below -746 for every
    innovation adds exactly 0.0, since exp underflows there, so it is not
    evaluated.
    """
    innovation = np.asarray(innovation, dtype=float)
    total = 0.0
    reach = 2 * np.pi - np.abs(innovation).max(initial=0.0)  # to the nearest image
    for k in (-1, 0, 1):
        if k and reach > 0 and 0.5 * reach**2 / variance > 746.0:
            continue
        total = total + np.exp(-0.5 * (innovation + 2 * np.pi * k) ** 2 / variance)
    return total / np.sqrt(2 * np.pi * variance)


def _pf_phasors(azimuths):
    """cos and sin of the azimuths along a new last axis: the real and
    imaginary parts of exp(1j * azimuth), without a complex exponential."""
    phasors = np.empty(azimuths.shape + (2,))
    np.cos(azimuths, out=phasors[..., 0])
    np.sin(azimuths, out=phasors[..., 1])
    return phasors


def _pf_circular_mean(phasors, weights):
    """np.angle(sum(weights * exp(1j * azimuths))) along the last axis of the
    weights, from the azimuths' `_pf_phasors`."""
    total = np.add.reduce((phasors * weights[..., None]).view(complex)[..., 0], axis=-1)
    return np.arctan2(total.imag, total.real)


def _pf_azimuth_variance(particles, weights, mean):
    deviation = wrap_angle(particles[..., 0] - np.asarray(mean)[..., None])
    return np.add.reduce(weights * deviation**2, axis=-1)


def _pf_effective_sample_size(weights):
    return 1.0 / np.add.reduce(weights**2, axis=-1)


def _pf_propagate(particles, dt: float, intensity: float, rng: np.random.Generator):
    """Every particle through the motion model, azimuths not yet wrapped."""
    particles = particles @ _model(dt, intensity)[0].T
    if intensity > 0:
        particles += rng.standard_normal(particles.shape) @ _noise_factor(dt, intensity).T
    return particles


def _pf_reweight(azimuths, weights, obs, obs_noise_var: float):
    """Posterior weights, and whether the observation killed all of them; a
    set whose weights all died gets uniform weights."""
    innovation = wrap_angle(np.asarray(obs)[..., None] - azimuths)
    weights = weights * wrapped_gaussian_likelihood(innovation, obs_noise_var)
    total = np.add.reduce(weights, axis=-1)
    dead = ~((total > 0.0) & (total < np.inf))  # NaN fails both
    weights = weights / np.where(dead, 1.0, total)[..., None]
    weights[dead] = 1.0 / weights.shape[-1]
    return weights, dead


def _systematic_indices(weights, offset: float):
    """Indices of a systematic resample of 1-D `weights` at `offset` in [0, 1)."""
    n = weights.shape[-1]
    positions = (offset + np.arange(n)) / n
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), n - 1)


def systematic_resample(ps: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    indices = _systematic_indices(ps.weights, rng.random())
    return ParticleSet(ps.particles[indices], np.full(ps.size, 1.0 / ps.size))


def pf_predict(ps: ParticleSet, dt: float, params: PfParams,
               rng: np.random.Generator) -> ParticleSet:
    """Propagate every particle through the motion model; weights are kept.

    The process noise is `rng.standard_normal((size, 2))` times the cached
    read-only factor of `_noise_factor`, the same draw from the same stream
    as `rng.multivariate_normal(zeros(2), process_noise_cov(dt, intensity))`.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return ps
    return ParticleSet(_pf_propagate(ps.particles, dt, params.process_intensity, rng),
                       ps.weights)


def _log_weight_collapse(where: str, obs) -> None:
    logger.warning("%sparticle filter divergence: observation %.3f killed all weights",
                   f"{where}: " if where else "", obs)


def pf_step(ps: ParticleSet, obs: float, dt: float, params: PfParams,
            rng: np.random.Generator, where: str = "") -> ParticleSet:
    """One predict/weight/resample cycle, prior as proposal; dt = 0 skips the predict.

    `where` names the track and time in the warning of a weight collapse.
    """
    ps = pf_predict(ps, dt, params, rng)
    weights, dead = _pf_reweight(ps.particles[:, 0], ps.weights, obs, params.obs_noise_var)
    if dead:
        _log_weight_collapse(where, obs)
    out = ParticleSet(ps.particles, weights)
    if out.effective_sample_size() < PF_RESAMPLE_THRESHOLD * out.size:
        out = systematic_resample(out, rng)
    return out


@dataclass(frozen=True)
class TrackerConfig:
    init_hits: int = 3          # M of the M-of-N initiation rule
    init_window: int = 5        # N of the M-of-N initiation rule
    gate_sigma: float = 3.0
    gate_max: float = np.radians(DEFAULT_GATE_DEG)  # never gate wider than the evaluation gate
    t_miss: float = 0.5         # seconds without an update before termination
    obs_noise_std: float = np.radians(3.0)
    process_intensity: float = 0.5
    initial_rate_var: float = 1.0  # (rad/s)^2 prior on the azimuth rate

    def __post_init__(self):
        if not self.init_window >= 1:
            raise ValueError(f"init_window must be >= 1, got {self.init_window}")
        if not 1 <= self.init_hits <= self.init_window:
            raise ValueError(f"init_hits must be in [1, init_window={self.init_window}], "
                             f"got {self.init_hits}")
        for name in ("t_miss", "gate_sigma", "gate_max", "obs_noise_std", "initial_rate_var"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0 <= self.process_intensity < math.inf:
            raise ValueError("process_intensity must be finite and >= 0, "
                             f"got {self.process_intensity}")


# ---------------------------------------------------------------------------
# Filter banks: the states of every live track of one lifecycle, row i
# holding track i. Each bank has the same methods:
#   predict(dt)                 every row
#   azimuths(), variances(az)   every row's azimuth and the gate's azimuth
#                               variance; the arrays may change at the update
#   update(rows, obs, wheres)   whether each row took its observation; a row
#                               that did not keeps its predicted state.
#                               `wheres` name the track and time in warnings
#   start(obs)                  one new row per observation
#   keep(rows)                  drop every other row
# ---------------------------------------------------------------------------

class _KalmanBank:
    """Means (n, 2) and covariances (n, 2, 2), held as `TrackState` holds them."""

    def __init__(self, config: TrackerConfig, seed: int):
        self.intensity, self.obs_var = config.process_intensity, config.obs_noise_std**2
        prior = np.diag([self.obs_var, config.initial_rate_var])
        self.prior = 0.5 * (prior + prior.T)  # every start covariance, as `TrackState` holds it
        self.means, self.covs = np.empty((0, 2)), np.empty((0, 2, 2))

    def predict(self, dt: float) -> None:
        if dt > 0 and len(self.means):
            means, covs, ok = _normalized(
                *_kf_propagate(self.means, self.covs, dt, self.intensity))
            if not ok.all():
                raise FilterDivergenceError("covariance is not positive-definite")
            self.means, self.covs = means, covs

    def azimuths(self):
        return self.means[:, 0]

    def variances(self, azimuths):
        return self.covs[:, 0, 0]

    def update(self, rows, obs, wheres):
        means, covs = _kf_correct(self.means[rows], self.covs[rows], obs, self.obs_var)
        means, covs, ok = _normalized(means, covs)
        if not ok.all():
            rows, means, covs = rows[ok], means[ok], covs[ok]
        self.means[rows], self.covs[rows] = means, covs
        return ok

    def start(self, obs) -> None:
        if not _is_positive_definite(self.prior):
            raise FilterDivergenceError("covariance is not positive-definite")
        self.means = np.concatenate([self.means, [[wrap_angle(z), 0.0] for z in obs]])
        self.covs = np.concatenate([self.covs, np.broadcast_to(self.prior, (len(obs), 2, 2))])

    def keep(self, rows) -> None:
        self.means, self.covs = self.means[rows], self.covs[rows]


class _WrappedBank(_KalmanBank):
    """The Kalman bank corrected by `_wkf_correct`. A row whose observation
    has zero evidence keeps its predicted state and still counts as a hit."""

    def update(self, rows, obs, wheres):
        means, covs, evidence = _wkf_correct(self.means[rows], self.covs[rows], obs,
                                             self.obs_var)
        means, covs, ok = _normalized(means, covs)
        rejected = ~(evidence > 0.0)
        for k in np.flatnonzero(rejected):
            _log_rejection(wheres[k], obs[k])
        taken = ok & ~rejected
        self.means[rows[taken]], self.covs[rows[taken]] = means[taken], covs[taken]
        return ok | rejected


class _ParticleBank:
    """Particles (n, I, 2) and weights (n, I) of every track, drawn from one
    generator. The circular mean of a row is computed once per state, from
    phasors of the azimuths kept until they move."""

    def __init__(self, config: TrackerConfig, seed: int):
        self.rng = np.random.default_rng(seed)
        self.intensity, self.obs_var = config.process_intensity, config.obs_noise_std**2
        self.rate_std = np.sqrt(config.initial_rate_var)
        self.particles = np.empty((0, PF_PARTICLES, 2))
        self.weights = np.empty((0, PF_PARTICLES))
        self.means = np.empty(0)  # circular mean of each row, NaN until computed
        self.phasors = None  # `_pf_phasors` of every row's azimuths, or None until computed

    def predict(self, dt: float) -> None:
        if dt > 0 and len(self.particles):
            self.particles = _pf_propagate(self.particles, dt, self.intensity, self.rng)
            self.particles[..., 0] = wrap_angle(self.particles[..., 0])
            self.means[:], self.phasors = np.nan, None

    def azimuths(self):
        stale = np.isnan(self.means)
        if stale.any():
            if self.phasors is None:
                self.phasors = _pf_phasors(self.particles[..., 0])
            if stale.all():
                self.means = _pf_circular_mean(self.phasors, self.weights)
            else:
                self.means[stale] = _pf_circular_mean(self.phasors[stale], self.weights[stale])
        return self.means

    def variances(self, azimuths):
        return _pf_azimuth_variance(self.particles, self.weights, azimuths)

    def update(self, rows, obs, wheres):
        weights, dead = _pf_reweight(self.particles[rows, :, 0], self.weights[rows], obs,
                                     self.obs_var)
        if dead.any():
            for k in np.flatnonzero(dead):
                _log_weight_collapse(wheres[k], obs[k])
        resampled = np.flatnonzero(_pf_effective_sample_size(weights)
                                   < PF_RESAMPLE_THRESHOLD * PF_PARTICLES)
        for k, offset in zip(resampled, self.rng.random(len(resampled))):
            row, indices = rows[k], _systematic_indices(weights[k], offset)
            self.particles[row] = self.particles[row][indices]
            if self.phasors is not None:
                self.phasors[row] = self.phasors[row][indices]
        weights[resampled] = 1.0 / PF_PARTICLES
        self.weights[rows] = weights
        self.means[rows] = np.nan
        return np.ones(len(rows), dtype=bool)

    def start(self, obs) -> None:
        draws = self.rng.standard_normal((len(obs), 2, PF_PARTICLES))
        particles = np.empty((len(obs), PF_PARTICLES, 2))
        particles[..., 0] = wrap_angle(np.array(obs)[:, None] + np.sqrt(self.obs_var) * draws[:, 0])
        particles[..., 1] = self.rate_std * draws[:, 1]
        self.particles = np.concatenate([self.particles, particles])
        self.weights = np.concatenate(
            [self.weights, np.full((len(obs), PF_PARTICLES), 1.0 / PF_PARTICLES)])
        self.means = np.concatenate([self.means, np.full(len(obs), np.nan)])
        self.phasors = None

    def keep(self, rows) -> None:
        self.particles, self.weights = self.particles[rows], self.weights[rows]
        self.means, self.phasors = self.means[rows], None


_BANKS = {"kalman": _KalmanBank, "wrapped-kalman": _WrappedBank, "particle": _ParticleBank}


# ---------------------------------------------------------------------------
# Track lifecycle
# ---------------------------------------------------------------------------

@dataclass
class _Candidate:
    history: list = field(default_factory=list)  # recent hit/miss booleans
    last_hit_time: float = 0.0
    confirmed_id: int = 0
    emitted: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"track {self.confirmed_id}" if self.confirmed_id else "tentative track"


def track_lifecycle(estimates, config: TrackerConfig = TrackerConfig(),
                    tracker: str = "kalman", seed: int = 0):
    """Initiate, gate, update, and terminate azimuth tracks over an estimate stream.

    Estimates are grouped by timestamp and taken in time order; the tracks
    run the filter named `tracker` in one filter bank, row i holding
    candidate i, and all particle filter tracks draw from one generator
    seeded with `seed`. Returns {track_id: [(t, azimuth), ...]}, one azimuth
    in [-pi, pi) per timestamp from confirmation to termination; ids follow
    confirmation order, never reused.
    """
    if tracker not in _BANKS:
        raise ValueError(f"unknown filter {tracker!r}; available: {FILTERS}")
    bank = _BANKS[tracker](config, seed)
    by_time: dict = {}
    for est in estimates:
        by_time.setdefault(round(est.timestamp, 9), []).append(est.doa.azimuth)

    obs_var = config.obs_noise_std**2
    candidates: list[_Candidate] = []
    results: dict[int, list] = {}
    next_id = 1
    prev_t = None

    for t in sorted(by_time):
        observations = np.array(by_time[t])
        dt = 0.0 if prev_t is None else t - prev_t
        prev_t = t
        bank.predict(dt)

        # gated assignment on wrapped innovation cost
        if candidates:
            predicted = bank.azimuths()
            gates = np.minimum(config.gate_sigma * np.sqrt(bank.variances(predicted) + obs_var),
                               config.gate_max)
            cost = np.abs(wrap_angle(observations[None, :] - predicted[:, None]))
            blocked = np.where(cost <= gates[:, None], cost, np.pi + 1.0)
            pairs = gated_assignment(blocked, np.pi)
        else:
            pairs = []

        hit = [False] * len(candidates)
        matched_obs = set()
        if pairs:
            rows, cols = np.array(pairs).T
            labels = [candidates[i].label for i in rows]
            took = bank.update(rows, observations[cols],
                               [f"{label} at t={t:.3f} s" for label in labels])
            for (i, j), label, ok in zip(pairs, labels, took):
                if not ok:
                    logger.warning("%s flagged at t=%.3f s: non-PD covariance", label, t)
                    continue
                cand = candidates[i]
                cand.last_hit_time = t
                cand.history.append(True)
                hit[i] = True
                matched_obs.add(j)

        kept, emitting = [], []
        for i, cand in enumerate(candidates):
            if not hit[i]:
                cand.history.append(False)
            cand.history = cand.history[-config.init_window:]
            if cand.confirmed_id == 0:
                if sum(cand.history) >= config.init_hits:
                    cand.confirmed_id = next_id
                    next_id += 1
                    results[cand.confirmed_id] = cand.emitted
                elif len(cand.history) >= config.init_window:
                    continue  # the window is full and short of M hits
                elif t - cand.last_hit_time > config.t_miss:
                    continue
            if cand.confirmed_id and t - cand.last_hit_time > config.t_miss:
                continue  # terminated
            if cand.confirmed_id:
                emitting.append(i)
            kept.append(i)
        if emitting:
            for i, az in zip(emitting, bank.azimuths()[emitting].tolist()):
                candidates[i].emitted.append((t, wrap_angle(az)))
        if len(kept) < len(candidates):
            bank.keep(kept)
            candidates = [candidates[i] for i in kept]

        new = [obs for j, obs in enumerate(by_time[t]) if j not in matched_obs]
        if new:
            bank.start(new)
            candidates += [_Candidate(history=[True], last_hit_time=t) for _ in new]

    return {tid: series for tid, series in results.items() if series}

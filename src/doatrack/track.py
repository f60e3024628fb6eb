"""Sequential Bayesian smoothing of per-frame DoA estimates.

State is azimuth plus azimuth rate under a constant-velocity model with
white-acceleration process noise. Two filter banks are provided: a linear
Kalman filter with wrapped innovations and a bootstrap particle filter with
systematic resampling. `track_lifecycle` runs either under one multi-target
M-of-N lifecycle.

The wrapped Kalman filter of Traa and Smaragdis (IEEE SPL 2013) corrects
with the likelihood-weighted mean of the innovations to the observation's
images obs + 2 pi k, k in {-1, 0, 1}. It is kept as the per-track
`wrapped_kf_update`; under the lifecycle, `wrapped-kalman` names the Kalman
bank. Let g <= 30 degrees be the gate (`TrackerConfig` caps `gate_max`) and
s = P00 + r the innovation variance. A gated innovation v has |v| <= g, so
each other image lies at least 2 pi - g away, and weighs at most
exp(-(4 pi^2 - 4 pi g) / (2 s)) = exp(-16.45 / s) relative to v's. That is
below 2**-53 for s < 0.45 rad^2, and a track reaches that s only across a
gap of more than about 1.2 s in the whole estimate stream; even then the
images move the azimuth by at most 4 pi times that weight. (A `gate_sigma`
above about 38 admits observations whose own likelihood underflows, which
the wrapped filter rejects and the Kalman filter takes.)

The lifecycle keeps the state of every live track in one filter bank and
steps the bank once per timestamp: one predict for all tracks, one read of
their azimuths and gate variances, one update of the matched tracks, one
start for the unmatched observations and one compaction when tracks end. A
bank only filters and reports each row's outcome; the lifecycle alone counts
hits and misses, confirms and ends tracks, and logs. It gates on Python
floats (`_gated_pairs`): a step on which no track and no observation holds
two within-gate pairs is paired without a solver, and only a step with such
a conflict calls `gated_assignment`. The per-track functions
(`kf_predict`, `kf_update`, `pf_predict`, `pf_step`) run the banks' kernels
on one state, so each filter equation is written once and a bank row holds
the bits the per-track function gives.

The Kalman bank holds each track as a row of five Python floats, (azimuth,
rate, P00, P01, P11), that one scalar kernel per filter equation steps. Rows
beat numpy's (n, 2, 2) stacks, whose per-call cost is paid at any n, up to
about 40 tracks; a bank seldom holds 6. Settings and observations are cast
to float once, the observations by the lifecycle. The kernels square with `x * x`, as a float's `**` raises
`OverflowError` where numpy warned, and give `sqrt` and division only
positive numbers. `_positive_definite` checks every bank row and
`TrackState` in closed form, with the 2 x 2 Cholesky arithmetic and no
LAPACK call; a start covariance needs no check, as `TrackerConfig` keeps its
entries positive.

The particle bank stacks particles (n, I, 2) and weights (n, I) and draws
from one generator in the order that stepping the tracks one by one would:
the predict noise of every track in track order, then one resampling offset
per resampled track in assignment-row order, then the start particles of
each new track in observation order. It wraps the azimuths that a per-track
`ParticleSet` wraps after the predict and at the start, not again after an
update or a resample, as a new `ParticleSet` does, since those azimuths are
`wrap_angle` output, which `wrap_angle` returns unchanged bit for bit. It
keeps each row's circular mean current, recomputed by every step that
moves the row. Its step model is cached per (dt, process noise intensity):
the transition matrix and process-noise covariance (`_model`) and the noise
factor (`_noise_factor`), in bounded LRU caches of read-only arrays. Its
process noise is a standard normal (..., 2) block times that factor, which
is `Generator.multivariate_normal`'s SVD draw from the same stream, without
the per-call factorisation and PSD check.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .assignment import gated_assignment
from .evaluate import DEFAULT_GATE_DEG
from .geometry import wrap_angle

logger = logging.getLogger(__name__)

PF_PARTICLES = 500  # particles per track of the `particle` filter
PF_RESAMPLE_THRESHOLD = 0.5  # resample when the effective sample size drops below this share
_MODEL_CACHE_SIZE = 256  # distinct (dt, intensity) pairs kept by `_model` and `_noise_factor`


class FilterDivergenceError(ArithmeticError):
    """Covariance lost positive definiteness; the track should be flagged."""


@dataclass(frozen=True)
class TrackState:
    mean: np.ndarray  # [azimuth (rad), azimuth rate (rad/s)]
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1).copy()
        cov = np.asarray(self.covariance, dtype=float)
        mean[0] = wrap_angle(mean[0])
        cov = 0.5 * (cov + cov.T)
        (a, _), (b, d) = cov.tolist()
        if not _positive_definite(a, b, d):
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
# Kalman kernels: one track's row (azimuth, rate, P00, P01, P11) of floats
# ---------------------------------------------------------------------------

def _positive_definite(a: float, b: float, d: float) -> bool:
    """Whether [[a, b], [b, d]], read from its lower triangle as Cholesky
    reads it, is positive-definite: a > 0 and d - (b / sqrt(a))**2 > 0."""
    low = b / math.sqrt(a) if a > 0.0 else math.nan  # NaN fails; sqrt sees no a <= 0
    return d - low * low > 0.0


def _kf_propagate(row, dt: float, intensity: float):
    """x <- F x and P <- F P F' + Q (`process_noise_cov`), the azimuth wrapped."""
    az, rate, p00, p01, p11 = row
    cross = p01 + dt * p11  # (F P)[0, 1]
    return (wrap_angle(az + dt * rate), rate,
            p00 + dt * p01 + dt * cross + intensity * (dt * dt * dt / 3.0),
            cross + intensity * (dt * dt / 2.0),
            p11 + intensity * dt)


def _joseph_correct(row, innovation: float, obs_noise_var: float):
    """The row moved by the innovation times the gain K = P H' / (H P H' + r),
    P by the Joseph form (I - K H) P (I - K H)' + K r K'; the azimuth wrapped."""
    az, rate, p00, p01, p11 = row
    s = p00 + obs_noise_var  # > 0: p00 > 0 in a checked row, r > 0
    k0, k1 = p00 / s, p01 / s
    u = 1.0 - k0
    v, w = p01 - k1 * p00, p11 - k1 * p01  # row 1 of (I - K H) P
    return (wrap_angle(az + k0 * innovation), rate + k1 * innovation,
            u * p00 * u + k0 * k0 * obs_noise_var,
            v * u + k1 * k0 * obs_noise_var,
            w - v * k1 + k1 * k1 * obs_noise_var)


def _kf_correct(row, obs: float, obs_noise_var: float):
    """Measurement update with the innovation wrapped into [-pi, pi)."""
    return _joseph_correct(row, wrap_angle(obs - row[0]), obs_noise_var)


def _wkf_correct(row, obs: float, obs_noise_var: float):
    """Wrapped measurement update (Traa and Smaragdis, IEEE SPL 2013): the
    innovation is the mean of the innovations to the images wrap(obs) + 2 pi k,
    k in {-1, 0, 1}, weighted by their likelihoods. Also returns the summed
    likelihood, the evidence; a state of zero evidence keeps its mean."""
    obs, az, s = wrap_angle(obs), row[0], row[2] + obs_noise_var
    norm = math.sqrt(2 * math.pi * s)
    evidence = weighted = 0.0
    for shift in (-2 * math.pi, 0.0, 2 * math.pi):
        innovation = (obs + shift) - az
        likelihood = math.exp(-0.5 * innovation * innovation / s) / norm  # exponent <= 0
        evidence += likelihood
        weighted += likelihood * innovation
    innovation = weighted / evidence if evidence > 0.0 else 0.0
    return _joseph_correct(row, innovation, obs_noise_var), evidence


def _row(state: TrackState):  # the Kalman kernels' (azimuth, rate, P00, P01, P11)
    (az, rate), ((p00, _), (p01, p11)) = state.mean.tolist(), state.covariance.tolist()
    return az, rate, p00, p01, p11


def _with_row(state: TrackState, row) -> TrackState:
    az, rate, p00, p01, p11 = row
    return replace(state, mean=[az, rate], covariance=[[p00, p01], [p01, p11]])


def kf_predict(state: TrackState, dt: float, process_noise: float) -> TrackState:
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return state
    return _with_row(state, _kf_propagate(_row(state), float(dt), float(process_noise)))


def _check_observation(obs: float, obs_noise_var: float):
    obs, obs_noise_var = float(obs), float(obs_noise_var)
    if not math.isfinite(obs):
        raise ValueError("observation must be finite")
    if not 0 < obs_noise_var < math.inf:
        raise ValueError("obs_noise_var must be positive and finite")
    return obs, obs_noise_var


def kf_update(state: TrackState, obs: float, obs_noise_var: float) -> TrackState:
    """Kalman measurement update with the innovation wrapped into [-pi, pi)."""
    return _with_row(state, _kf_correct(_row(state), *_check_observation(obs, obs_noise_var)))


class WrappedMixture(TrackState):
    """The wrapped Kalman filter's state: one Gaussian, as `TrackState` holds it."""

    @classmethod
    def from_state(cls, state: TrackState) -> "WrappedMixture":
        return cls(state.mean, state.covariance)

    def circular_mean(self) -> float:
        return self.azimuth


wrapped_kf_predict = kf_predict


def wrapped_kf_update(state: WrappedMixture, obs: float, obs_noise_var: float) -> WrappedMixture:
    """`_wkf_correct` of the state; an observation of zero evidence is
    rejected with a warning, and the prior returned."""
    obs, obs_noise_var = _check_observation(obs, obs_noise_var)
    row, evidence = _wkf_correct(_row(state), obs, obs_noise_var)
    if not evidence > 0.0:
        logger.warning("wrapped KF update rejected observation %.3f (zero likelihood)",
                       wrap_angle(obs))
        return state
    return _with_row(state, row)


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
        for name in ("init_window", "init_hits"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not self.init_window >= 1:
            raise ValueError(f"init_window must be >= 1, got {self.init_window}")
        if not 1 <= self.init_hits <= self.init_window:
            raise ValueError(f"init_hits must be in [1, init_window={self.init_window}], "
                             f"got {self.init_hits}")
        for name in ("t_miss", "gate_sigma", "gate_max", "obs_noise_std", "initial_rate_var"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.gate_max > np.radians(DEFAULT_GATE_DEG):
            raise ValueError(f"gate_max must be at most the {DEFAULT_GATE_DEG:g}-degree "
                             f"evaluation gate, got {self.gate_max} rad")
        if not 0 < self.obs_noise_var < math.inf:
            raise ValueError("obs_noise_std must be finite and > 0 when squared, "
                             f"got {self.obs_noise_std}")
        if not 0 <= self.process_intensity < math.inf:
            raise ValueError("process_intensity must be finite and >= 0, "
                             f"got {self.process_intensity}")

    @property
    def obs_noise_var(self) -> float:
        """obs_noise_std squared with `*`: a float's `**` raises on overflow."""
        return float(self.obs_noise_std) * float(self.obs_noise_std)


# ---------------------------------------------------------------------------
# Filter banks: the states of every live track of one lifecycle, row i
# holding track i. A bank filters and logs nothing. Each has the methods:
#   predict(dt)                 every row
#   azimuths(), variances()     every row's azimuth and the gate's azimuth
#                               variance, as lists of floats
#   update(rows, obs)           (took, flagged) for row lists and observation
#                               floats: whether each row took its observation,
#                               else kept its predicted state, and which rows
#                               `warning(where, obs)` reports, or None
#   start(obs)                  one new row per observation
#   keep(rows)                  drop every other row
# ---------------------------------------------------------------------------

class _KalmanBank:
    """One row (azimuth, rate, P00, P01, P11) of Python floats per track, the
    Gaussian a `TrackState` holds, its symmetric covariance stored once."""

    def __init__(self, config: TrackerConfig, seed: int):
        self.intensity, self.obs_var = float(config.process_intensity), config.obs_noise_var
        self.rate_var = float(config.initial_rate_var)
        self.rows = []

    def predict(self, dt: float) -> None:
        if dt > 0 and self.rows:
            dt = float(dt)
            rows = [_kf_propagate(row, dt, self.intensity) for row in self.rows]
            if not all([_positive_definite(a, b, d) for _, _, a, b, d in rows]):
                raise FilterDivergenceError("covariance is not positive-definite")
            self.rows = rows

    def azimuths(self):
        return [row[0] for row in self.rows]

    def variances(self):
        return [row[2] for row in self.rows]

    def update(self, rows, obs):
        took = []
        for i, z in zip(rows, obs):
            row = _kf_correct(self.rows[i], z, self.obs_var)
            took.append(_positive_definite(*row[2:]))
            if took[-1]:
                self.rows[i] = row
        return took, None

    def start(self, obs) -> None:
        self.rows += [(wrap_angle(z), 0.0, self.obs_var, 0.0, self.rate_var) for z in obs]

    def keep(self, rows) -> None:
        self.rows = [self.rows[i] for i in rows]


class _ParticleBank:
    """Particles (n, I, 2) and weights (n, I) of every track, drawn from one
    generator, and each row's `_pf_phasors` and circular mean: a predict
    recomputes both for every row, an update carries a resampled row's
    phasors with its particles and recomputes the updated rows' means, and a
    start computes the new rows'. Every row takes its observation; a row
    whose weights all died is flagged."""

    warning = staticmethod(_log_weight_collapse)

    def __init__(self, config: TrackerConfig, seed: int):
        self.rng = np.random.default_rng(seed)
        self.intensity, self.obs_var = config.process_intensity, config.obs_noise_var
        self.rate_std = np.sqrt(config.initial_rate_var)
        self.particles = np.empty((0, PF_PARTICLES, 2))
        self.weights = np.empty((0, PF_PARTICLES))
        self.phasors = np.empty((0, PF_PARTICLES, 2))
        self.means = np.empty(0)

    def predict(self, dt: float) -> None:
        if dt > 0 and len(self.particles):
            self.particles = _pf_propagate(self.particles, dt, self.intensity, self.rng)
            self.particles[..., 0] = wrap_angle(self.particles[..., 0])
            self.phasors = _pf_phasors(self.particles[..., 0])
            self.means = _pf_circular_mean(self.phasors, self.weights)

    def azimuths(self):
        return self.means.tolist()

    def variances(self):
        return _pf_azimuth_variance(self.particles, self.weights, self.means).tolist()

    def update(self, rows, obs):
        weights, dead = _pf_reweight(self.particles[rows, :, 0], self.weights[rows], obs,
                                     self.obs_var)
        resampled = np.flatnonzero(_pf_effective_sample_size(weights)
                                   < PF_RESAMPLE_THRESHOLD * PF_PARTICLES)
        for k, offset in zip(resampled, self.rng.random(len(resampled))):
            row, indices = rows[k], _systematic_indices(weights[k], offset)
            self.particles[row] = self.particles[row][indices]
            self.phasors[row] = self.phasors[row][indices]
        weights[resampled] = 1.0 / PF_PARTICLES
        self.weights[rows] = weights
        self.means[rows] = _pf_circular_mean(self.phasors[rows], weights)
        return [True] * len(rows), dead.tolist()

    def start(self, obs) -> None:
        draws = self.rng.standard_normal((len(obs), 2, PF_PARTICLES))
        particles = np.empty((len(obs), PF_PARTICLES, 2))
        particles[..., 0] = wrap_angle(np.array(obs)[:, None] + np.sqrt(self.obs_var) * draws[:, 0])
        particles[..., 1] = self.rate_std * draws[:, 1]
        weights = np.full((len(obs), PF_PARTICLES), 1.0 / PF_PARTICLES)
        phasors = _pf_phasors(particles[..., 0])
        self.particles = np.concatenate([self.particles, particles])
        self.weights = np.concatenate([self.weights, weights])
        self.phasors = np.concatenate([self.phasors, phasors])
        self.means = np.concatenate([self.means, _pf_circular_mean(phasors, weights)])

    def keep(self, rows) -> None:
        self.particles, self.weights = self.particles[rows], self.weights[rows]
        self.phasors, self.means = self.phasors[rows], self.means[rows]


# `wrapped-kalman` is an alias of the Kalman bank, whose correction the
# wrapped one matches within the bound of the module docstring
_BANKS = {"kalman": _KalmanBank, "wrapped-kalman": _KalmanBank, "particle": _ParticleBank}
FILTERS = tuple(_BANKS)


# ---------------------------------------------------------------------------
# Track lifecycle
# ---------------------------------------------------------------------------

@dataclass
class _Candidate:
    history: deque  # hit/miss booleans of the last init_window steps
    last_hit_time: float
    confirmed_id: int = 0
    emitted: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"track {self.confirmed_id}" if self.confirmed_id else "tentative track"


_BLOCKED = math.pi + 1.0  # cost of a pair outside its track's gate, above the pi gate


def _gated_pairs(bank, observations, gate_sigma: float, gate_max: float):
    """(row, observation) pairs of one step, sorted by row: the minimum-cost
    assignment on the wrapped innovation cost, a pair outside its track's
    gate inadmissible.

    Each cost is `abs(wrap_angle(z - az))` of two floats, the float path that
    `wrap_angle` takes for small arrays, with the bits of its np.fmod path.
    When no track and no observation holds two within-gate pairs, the gate
    decides: those pairs are the optimum of the padded solve, so they are
    returned without it. This is the one place that rule lives; any other
    step builds the blocked matrix and calls `gated_assignment`, so scipy's
    tie-break decides as it always has.
    """
    pairs, blocked = [], []
    for i, (az, var) in enumerate(zip(bank.azimuths(), bank.variances())):
        gate = min(gate_sigma * math.sqrt(var + bank.obs_var), gate_max)
        costs = [abs(wrap_angle(z - az)) for z in observations]
        pairs += [(i, j) for j, c in enumerate(costs) if c <= gate]
        blocked.append([c if c <= gate else _BLOCKED for c in costs])
    if len({i for i, _ in pairs}) < len(pairs) or len({j for _, j in pairs}) < len(pairs):
        return gated_assignment(np.array(blocked), math.pi)
    return pairs


def track_lifecycle(estimates, config: TrackerConfig = TrackerConfig(),
                    tracker: str = "kalman", seed: int = 0):
    """Initiate, gate, update, and terminate azimuth tracks over an estimate stream.

    Estimates are grouped by timestamp and taken in time order; the tracks
    run the filter named `tracker` in one filter bank, row i holding
    candidate i, and all particle filter tracks draw from one generator
    seeded with `seed`. Returns {track_id: [(t, azimuth), ...]}, one azimuth
    in [-pi, pi) per timestamp from confirmation to termination; ids count
    up from 1 in confirmation order, never reused.
    """
    if tracker not in _BANKS:
        raise ValueError(f"unknown filter {tracker!r}; available: {FILTERS}")
    # checked for every filter, not only where a generator takes the seed
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    bank = _BANKS[tracker](config, seed)
    gate_sigma, gate_max = float(config.gate_sigma), float(config.gate_max)
    by_time: dict = {}
    for est in estimates:
        by_time.setdefault(round(est.timestamp, 9), []).append(float(est.doa.azimuth))

    candidates: list[_Candidate] = []
    results: dict[int, list] = {}
    next_id = 1
    prev_t = None

    for t in sorted(by_time):
        observations = by_time[t]
        bank.predict(0.0 if prev_t is None else t - prev_t)
        prev_t = t

        pairs = _gated_pairs(bank, observations, gate_sigma, gate_max) if candidates else []
        matched_obs = set()
        if pairs:
            rows = [i for i, _ in pairs]
            obs = [observations[j] for _, j in pairs]
            took, flagged = bank.update(rows, obs)
            for i, z, bad in zip(rows, obs, flagged or ()):
                if bad:
                    bank.warning(f"{candidates[i].label} at t={t:.3f} s", z)
            for (i, j), ok in zip(pairs, took):
                if ok:
                    candidates[i].last_hit_time = t
                    matched_obs.add(j)
                else:
                    logger.warning("%s flagged at t=%.3f s: non-PD covariance",
                                   candidates[i].label, t)

        kept, emitting = [], []
        for i, cand in enumerate(candidates):
            cand.history.append(cand.last_hit_time == t)  # a hit at this step
            if t - cand.last_hit_time > config.t_miss:
                continue  # terminated, or lapsed before confirmation
            if not cand.confirmed_id:
                if sum(cand.history) < config.init_hits:
                    if len(cand.history) < config.init_window:
                        kept.append(i)
                    continue  # still tentative, or the window is full and short of M hits
                cand.confirmed_id = next_id
                next_id += 1
                results[cand.confirmed_id] = cand.emitted
            emitting.append(i)
            kept.append(i)
        if emitting:
            azimuths = bank.azimuths()
            for i in emitting:
                candidates[i].emitted.append((t, wrap_angle(azimuths[i])))
        if len(kept) < len(candidates):
            bank.keep(kept)
            candidates = [candidates[i] for i in kept]

        new = [z for j, z in enumerate(observations) if j not in matched_obs]
        if new:
            bank.start(new)
            candidates += [_Candidate(deque([True], int(config.init_window)), t) for _ in new]

    return results

"""Sequential Bayesian smoothing of per-frame DoA estimates.

State is azimuth plus azimuth rate under a constant-velocity model with
white-acceleration process noise. Three filters are provided: a linear
Kalman filter with wrapped innovations, a wrapped Kalman filter that keeps a
Gaussian mixture over wrapping hypotheses, and a bootstrap particle filter.
`track_lifecycle` runs any of them under one multi-target M-of-N lifecycle.

Work that depends only on the step length is done once per (dt, process
noise intensity): the transition matrix and process-noise covariance
(`_model`), and the particle filter's noise factor (`_noise_factor`). Both
caches are bounded LRU caches of read-only arrays. The particle filter
draws its process noise as a standard normal (n, 2) block times that
factor, which is `Generator.multivariate_normal`'s SVD draw from the same
stream, without the per-call factorisation and PSD check.
"""

from __future__ import annotations

import logging
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
WKF_COMPONENTS = 8  # most mixture components a wrapped-KF track keeps
WKF_PRUNE_WEIGHT = 1e-4  # posterior components lighter than this are dropped
_MODEL_CACHE_SIZE = 256  # distinct (dt, intensity) pairs kept by `_model` and `_noise_factor`


class FilterDivergenceError(ArithmeticError):
    """Covariance lost positive definiteness; the track should be flagged."""


@dataclass(frozen=True)
class TrackState:
    mean: np.ndarray  # [azimuth (rad), azimuth rate (rad/s)]
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1).copy()
        cov = np.asarray(self.covariance, dtype=float).copy()
        mean[0] = wrap_angle(mean[0])
        cov = 0.5 * (cov + cov.T)
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise FilterDivergenceError("covariance is not positive-definite") from None
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


def kf_predict(state: TrackState, dt: float, process_noise: float) -> TrackState:
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return state
    f, q = _model(dt, process_noise)
    mean = f @ state.mean
    cov = f @ state.covariance @ f.T + q
    return replace(state, mean=mean, covariance=cov)


_H = np.array([[1.0, 0.0]])


def kf_update(state: TrackState, obs: float, obs_noise_var: float) -> TrackState:
    """Kalman measurement update with the innovation wrapped into [-pi, pi)."""
    if not np.isfinite(obs):
        raise ValueError("observation must be finite")
    if obs_noise_var <= 0:
        raise ValueError("obs_noise_var must be positive")
    innovation = wrap_angle(obs - state.mean[0])
    s = float(state.covariance[0, 0] + obs_noise_var)
    gain = state.covariance @ _H.T / s
    mean = state.mean + gain.flatten() * innovation
    ikh = np.eye(2) - gain @ _H
    # Joseph form keeps the covariance symmetric positive-definite
    cov = ikh @ state.covariance @ ikh.T + gain @ gain.T * obs_noise_var
    return replace(state, mean=mean, covariance=cov)


# ---------------------------------------------------------------------------
# Wrapped Kalman filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WrappedMixture:
    """Gaussian mixture over the azimuth state, one component per wrap hypothesis."""

    components: tuple  # of (weight, mean, covariance)

    def __post_init__(self):
        comps = []
        total = 0.0
        for w, mean, cov in self.components:
            mean = np.asarray(mean, dtype=float).reshape(-1).copy()
            # read-only, so the cached circular mean always matches the means
            mean.flags.writeable = False
            cov = np.asarray(cov, dtype=float)
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise FilterDivergenceError("mixture component covariance is not "
                                            "positive-definite") from None
            comps.append((float(w), mean, cov))
            total += w
        if not comps:
            raise ValueError("mixture needs at least one component")
        if abs(total - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def from_state(cls, state: TrackState) -> "WrappedMixture":
        return cls(((1.0, state.mean, state.covariance),))

    def circular_mean(self) -> float:
        """Weighted circular mean of the component azimuths, computed once per mixture."""
        return self._circular_mean

    @cached_property
    def _circular_mean(self) -> float:
        z = sum(w * np.exp(1j * mean[0]) for w, mean, _ in self.components)
        return float(np.angle(z))

    def azimuth_variance(self) -> float:
        """Azimuth variance about the circular mean, component spread included."""
        mu = self.circular_mean()
        return float(sum(w * (cov[0, 0] + wrap_angle(mean[0] - mu) ** 2)
                         for w, mean, cov in self.components))


def wrapped_kf_predict(mix: WrappedMixture, dt: float, process_noise: float) -> WrappedMixture:
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return mix
    f, q = _model(dt, process_noise)
    comps = tuple(
        (w, f @ mean, f @ cov @ f.T + q) for w, mean, cov in mix.components
    )
    return WrappedMixture(comps)


def _merge_components(comps):
    """Greedy weight-ordered merge of components within Mahalanobis distance
    0.5 of each other, then the WKF_COMPONENTS heaviest kept."""
    comps = sorted(comps, key=lambda c: -c[0])
    merged = []
    for w, mean, cov in comps:
        absorbed = False
        for i, (wi, mi, ci) in enumerate(merged):
            diff = mean - mi
            diff[0] = wrap_angle(diff[0])
            maha = float(diff @ np.linalg.solve(ci, diff))
            if maha < 0.5:
                wt = wi + w
                new_mean = mi + (w / wt) * diff
                new_mean[0] = wrap_angle(new_mean[0])
                spread = np.outer(diff, diff)
                new_cov = (wi * ci + w * cov + (wi * w / wt) * spread) / wt
                merged[i] = (wt, new_mean, new_cov)
                absorbed = True
                break
        if not absorbed:
            merged.append((w, mean.copy(), cov.copy()))
    merged = sorted(merged, key=lambda c: -c[0])[:WKF_COMPONENTS]
    total = sum(w for w, _, _ in merged)
    return tuple((w / total, m, c) for w, m, c in merged)


def wrapped_kf_update(mix: WrappedMixture, obs: float, obs_noise_var: float,
                      where: str = "") -> WrappedMixture:
    """Update each component against the wrapping hypotheses obs + {-2pi, 0, 2pi}.

    Hypothesis weights are the prior weights times the innovation likelihood;
    the posterior mixture is pruned and merged back to the component cap.
    """
    obs = wrap_angle(obs)
    hypotheses = (obs - 2 * np.pi, obs, obs + 2 * np.pi)
    candidates = []
    for w, mean, cov in mix.components:
        s = float(cov[0, 0] + obs_noise_var)
        gain = (cov @ _H.T / s).flatten()
        ikh = np.eye(2) - np.outer(gain, _H.flatten())
        post_cov = ikh @ cov @ ikh.T + np.outer(gain, gain) * obs_noise_var
        post_cov = 0.5 * (post_cov + post_cov.T)
        for hyp in hypotheses:
            innovation = hyp - mean[0]
            likelihood = np.exp(-0.5 * innovation**2 / s) / np.sqrt(2 * np.pi * s)
            weight = w * likelihood
            if weight <= 0.0:
                continue
            post_mean = mean + gain * innovation
            post_mean = post_mean.copy()
            post_mean[0] = wrap_angle(post_mean[0])
            candidates.append((weight, post_mean, post_cov))
    total = sum(c[0] for c in candidates)
    if total <= 0.0:
        # observation is incompatible with every hypothesis: keep the prior
        logger.warning("%swrapped KF update rejected observation %.3f (zero likelihood)",
                       f"{where}: " if where else "", obs)
        return mix
    candidates = [(w / total, m, c) for w, m, c in candidates if w / total >= WKF_PRUNE_WEIGHT]
    if not candidates:
        return mix
    return WrappedMixture(_merge_components(candidates))


# ---------------------------------------------------------------------------
# Particle filter
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
        return float(1.0 / np.sum(self.weights**2))

    def circular_mean(self) -> float:
        """Weighted circular mean of the azimuths, computed once per set."""
        return self._circular_mean

    @cached_property
    def _circular_mean(self) -> float:
        z = np.sum(self.weights * np.exp(1j * self.particles[:, 0]))
        return float(np.angle(z))

    def azimuth_variance(self) -> float:
        """Weighted azimuth variance about the circular mean."""
        deviation = wrap_angle(self.particles[:, 0] - self.circular_mean())
        return float(np.sum(self.weights * deviation**2))


@dataclass(frozen=True)
class PfParams:
    process_intensity: float
    obs_noise_var: float


def wrapped_gaussian_likelihood(innovation, variance):
    """Likelihood of a wrapped innovation, summed over +/- one revolution."""
    innovation = np.asarray(innovation, dtype=float)
    total = np.zeros_like(innovation)
    for k in (-1, 0, 1):
        total = total + np.exp(-0.5 * (innovation + 2 * np.pi * k) ** 2 / variance)
    return total / np.sqrt(2 * np.pi * variance)


def systematic_resample(ps: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    n = ps.size
    positions = (rng.random() + np.arange(n)) / n
    indices = np.searchsorted(np.cumsum(ps.weights), positions)
    indices = np.clip(indices, 0, n - 1)
    return ParticleSet(ps.particles[indices], np.full(n, 1.0 / n))


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
    particles = ps.particles @ _model(dt, params.process_intensity)[0].T
    if params.process_intensity > 0:
        factor = _noise_factor(dt, params.process_intensity)
        particles += rng.standard_normal((ps.size, 2)) @ factor.T
    return ParticleSet(particles, ps.weights)


def pf_step(ps: ParticleSet, obs: float, dt: float, params: PfParams,
            rng: np.random.Generator, where: str = "") -> ParticleSet:
    """One predict/weight/resample cycle, prior as proposal; dt = 0 skips the predict.

    `where` names the track and time in the warning of a weight collapse.
    """
    ps = pf_predict(ps, dt, params, rng)
    particles = ps.particles
    innovation = wrap_angle(obs - particles[:, 0])
    weights = ps.weights * wrapped_gaussian_likelihood(innovation, params.obs_noise_var)
    total = weights.sum()
    if total <= 0.0 or not np.isfinite(total):
        logger.warning("%sparticle filter divergence: observation %.3f killed all weights",
                       f"{where}: " if where else "", obs)
        weights = np.full(ps.size, 1.0 / ps.size)
    else:
        weights = weights / total
    out = ParticleSet(particles, weights)
    if out.effective_sample_size() < PF_RESAMPLE_THRESHOLD * out.size:
        out = systematic_resample(out, rng)
    return out


# ---------------------------------------------------------------------------
# Track lifecycle
# ---------------------------------------------------------------------------

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


def _make_filter(name: str, config: TrackerConfig, seed: int):
    """start(obs), predict(state, dt), update(state, obs, where), azimuth(state)
    and variance(state), the azimuth variance for the gate, of one of
    `FILTERS`; `where` names the track and time in the filter's warnings.

    Filter functions are looked up at call time, not bound here.
    """
    obs_var = config.obs_noise_std**2
    q = config.process_intensity

    def kf_start(obs):
        return TrackState(mean=np.array([obs, 0.0]),
                          covariance=np.diag([obs_var, config.initial_rate_var]))

    if name == "kalman":
        return (kf_start,
                lambda state, dt: kf_predict(state, dt, q),
                lambda state, obs, where: kf_update(state, obs, obs_var),
                lambda state: state.azimuth,
                lambda state: state.covariance[0, 0])
    if name == "wrapped-kalman":
        return (lambda obs: WrappedMixture.from_state(kf_start(obs)),
                lambda mix, dt: wrapped_kf_predict(mix, dt, q),
                lambda mix, obs, where: wrapped_kf_update(mix, obs, obs_var, where),
                WrappedMixture.circular_mean,
                WrappedMixture.azimuth_variance)
    if name == "particle":
        rng = np.random.default_rng(seed)  # shared by every track of the call
        params = PfParams(process_intensity=q, obs_noise_var=obs_var)

        def pf_start(obs):
            particles = np.column_stack([
                obs + np.sqrt(obs_var) * rng.standard_normal(PF_PARTICLES),
                rng.normal(0.0, np.sqrt(config.initial_rate_var), PF_PARTICLES),
            ])
            return ParticleSet(particles, np.full(PF_PARTICLES, 1.0 / PF_PARTICLES))

        return (pf_start,
                lambda ps, dt: pf_predict(ps, dt, params, rng),
                lambda ps, obs, where: pf_step(ps, obs, 0.0, params, rng, where),
                ParticleSet.circular_mean,
                ParticleSet.azimuth_variance)
    raise ValueError(f"unknown filter {name!r}; available: {FILTERS}")


@dataclass
class _Candidate:
    state: object  # the filter's state
    history: list = field(default_factory=list)  # recent hit/miss booleans
    last_hit_time: float = 0.0
    confirmed_id: int = 0
    emitted: list = field(default_factory=list)


def track_lifecycle(estimates, config: TrackerConfig = TrackerConfig(),
                    tracker: str = "kalman", seed: int = 0):
    """Initiate, gate, update, and terminate azimuth tracks over an estimate stream.

    Estimates are grouped by timestamp and taken in time order; each track
    runs its own copy of the filter named `tracker`, and all particle filter
    tracks draw from one generator seeded with `seed`. Returns {track_id:
    [(t, azimuth), ...]}, one azimuth in [-pi, pi) per timestamp from
    confirmation to termination; ids follow confirmation order, never reused.
    """
    start, predict, update, azimuth, variance = _make_filter(tracker, config, seed)
    by_time: dict = {}
    for est in estimates:
        by_time.setdefault(round(est.timestamp, 9), []).append(est)

    obs_var = config.obs_noise_std**2
    candidates: list[_Candidate] = []
    results: dict[int, list] = {}
    next_id = 1
    prev_t = None

    for t in sorted(by_time):
        observations = [e.doa.azimuth for e in by_time[t]]
        dt = 0.0 if prev_t is None else t - prev_t
        prev_t = t

        for cand in candidates:
            cand.state = predict(cand.state, dt)

        # gated assignment on wrapped innovation cost
        if candidates and observations:
            predicted = np.array([azimuth(cand.state) for cand in candidates])
            gates = np.array([min(config.gate_sigma * np.sqrt(variance(cand.state) + obs_var),
                                  config.gate_max) for cand in candidates])
            cost = np.abs(wrap_angle(np.array(observations)[None, :] - predicted[:, None]))
            blocked = np.where(cost <= gates[:, None], cost, np.pi + 1.0)
            pairs = gated_assignment(blocked, np.pi)
        else:
            pairs = []

        matched_tracks = set()
        matched_obs = set()
        for i, j in pairs:
            cand = candidates[i]
            label = f"track {cand.confirmed_id}" if cand.confirmed_id else "tentative track"
            try:
                cand.state = update(cand.state, observations[j], f"{label} at t={t:.3f} s")
            except FilterDivergenceError:
                logger.warning("%s flagged at t=%.3f s: non-PD covariance", label, t)
                continue
            cand.last_hit_time = t
            cand.history.append(True)
            matched_tracks.add(i)
            matched_obs.add(j)

        survivors = []
        for i, cand in enumerate(candidates):
            if i not in matched_tracks:
                cand.history.append(False)
            cand.history = cand.history[-config.init_window:]
            if cand.confirmed_id == 0:
                if sum(cand.history) >= config.init_hits:
                    cand.confirmed_id = next_id
                    next_id += 1
                    results[cand.confirmed_id] = cand.emitted
                elif (len(cand.history) >= config.init_window
                        and sum(cand.history) + config.init_window - len(cand.history)
                        < config.init_hits):
                    continue  # cannot reach M of N any more
                elif t - cand.last_hit_time > config.t_miss:
                    continue
            if cand.confirmed_id and t - cand.last_hit_time > config.t_miss:
                continue  # terminated
            if cand.confirmed_id:
                cand.emitted.append((t, wrap_angle(azimuth(cand.state))))
            survivors.append(cand)
        candidates = survivors

        for j, obs in enumerate(observations):
            if j not in matched_obs:
                candidates.append(_Candidate(state=start(obs), history=[True],
                                             last_hit_time=t))

    return {tid: series for tid, series in results.items() if series}

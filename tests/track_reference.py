"""Reference multi-target lifecycle: every track runs its own per-track
filter state (`TrackState`, `WrappedMixture` or `ParticleSet`) through the
per-track functions of `doatrack.track`, one track at a time. It is the
loop the filter bank of `track.track_lifecycle` replaced, kept as an oracle:
the bank must give the same tracks, bit for bit.

Every library name is looked up on the `track` module at call time, so a
test that monkeypatches one of them reaches this loop too.
"""

from dataclasses import dataclass, field

import numpy as np

from doatrack import track


def reference_filter(name: str, config, seed: int):
    """start(obs), predict(state, dt), update(state, obs, where), azimuth(state)
    and variance(state), the azimuth variance for the gate, of one of
    `FILTERS`; `where` names the track and time in the filter's warnings."""
    obs_var = config.obs_noise_std**2
    q = config.process_intensity

    def kf_start(obs):
        return track.TrackState(mean=np.array([obs, 0.0]),
                                covariance=np.diag([obs_var, config.initial_rate_var]))

    if name == "kalman":
        return (kf_start,
                lambda state, dt: track.kf_predict(state, dt, q),
                lambda state, obs, where: track.kf_update(state, obs, obs_var),
                lambda state: state.azimuth,
                lambda state: state.covariance[0, 0])
    if name == "wrapped-kalman":
        return (lambda obs: track.WrappedMixture.from_state(kf_start(obs)),
                lambda mix, dt: track.wrapped_kf_predict(mix, dt, q),
                lambda mix, obs, where: track.wrapped_kf_update(mix, obs, obs_var, where),
                track.WrappedMixture.circular_mean,
                track.WrappedMixture.azimuth_variance)
    if name == "particle":
        rng = np.random.default_rng(seed)  # shared by every track of the call
        params = track.PfParams(process_intensity=q, obs_noise_var=obs_var)
        size = track.PF_PARTICLES

        def pf_start(obs):
            particles = np.column_stack([
                obs + np.sqrt(obs_var) * rng.standard_normal(size),
                rng.normal(0.0, np.sqrt(config.initial_rate_var), size),
            ])
            return track.ParticleSet(particles, np.full(size, 1.0 / size))

        return (pf_start,
                lambda ps, dt: track.pf_predict(ps, dt, params, rng),
                lambda ps, obs, where: track.pf_step(ps, obs, 0.0, params, rng, where),
                track.ParticleSet.circular_mean,
                track.ParticleSet.azimuth_variance)
    raise ValueError(f"unknown filter {name!r}; available: {track.FILTERS}")


@dataclass
class _Candidate:
    state: object  # the filter's state
    history: list = field(default_factory=list)  # recent hit/miss booleans
    last_hit_time: float = 0.0
    confirmed_id: int = 0
    emitted: list = field(default_factory=list)


def reference_lifecycle(estimates, config=track.TrackerConfig(), tracker: str = "kalman",
                        seed: int = 0):
    """`track.track_lifecycle`, stepping one track at a time."""
    start, predict, update, azimuth, variance = reference_filter(tracker, config, seed)
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
            cost = np.abs(track.wrap_angle(np.array(observations)[None, :]
                                           - predicted[:, None]))
            blocked = np.where(cost <= gates[:, None], cost, np.pi + 1.0)
            pairs = track.gated_assignment(blocked, np.pi)
        else:
            pairs = []

        matched_tracks = set()
        matched_obs = set()
        for i, j in pairs:
            cand = candidates[i]
            label = f"track {cand.confirmed_id}" if cand.confirmed_id else "tentative track"
            try:
                cand.state = update(cand.state, observations[j], f"{label} at t={t:.3f} s")
            except track.FilterDivergenceError:
                track.logger.warning("%s flagged at t=%.3f s: non-PD covariance", label, t)
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
                cand.emitted.append((t, track.wrap_angle(azimuth(cand.state))))
            survivors.append(cand)
        candidates = survivors

        for j, obs in enumerate(observations):
            if j not in matched_obs:
                candidates.append(_Candidate(state=start(obs), history=[True],
                                             last_hit_time=t))

    return {tid: series for tid, series in results.items() if series}

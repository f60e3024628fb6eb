import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import doatrack.evaluate
import doatrack.geometry
import doatrack.track
from doatrack.evaluate import VapTable, evaluate_submission, ground_truth_doas
from doatrack.geometry import Doa, wrap_angle
from doatrack.localize import DoaEstimate
from doatrack.pipeline import resample_tracks, track_stream
from doatrack.simulate import task_preset
from doatrack.track import (FILTERS, PF_PARTICLES, ParticleSet,
                            PfParams, TrackerConfig, TrackState, WrappedMixture,
                            kf_predict, kf_update, pf_step, process_noise_cov,
                            systematic_resample, track_lifecycle,
                            wrapped_gaussian_likelihood, wrapped_kf_predict,
                            wrapped_kf_update)
from track_reference import reference_filter, reference_lifecycle


def _state(az=0.0, rate=0.0, var_az=0.01, var_rate=0.1):
    return TrackState(mean=np.array([az, rate]),
                      covariance=np.diag([var_az, var_rate]))


def test_process_noise_cov_formula():
    dt, q = 0.25, 0.8
    cov = process_noise_cov(dt, q)
    ref = q * np.array([[dt**3 / 3, dt**2 / 2], [dt**2 / 2, dt]])
    assert np.allclose(cov, ref)


def _distinct_rows(rng, n):
    """n Kalman bank rows (azimuth, rate, P00, P01, P11), each its own,
    positive-definite and at least 2 rad from the wrap."""
    return [(rng.uniform(-1, 1), rng.normal(), rng.uniform(0.01, 0.1), rng.uniform(-0.005, 0.005),
             rng.uniform(0.01, 0.5)) for _ in range(n)]


def test_kf_predict_matches_manual():
    s = _state(0.3, 0.5, 0.02, 0.3)
    dt, q = 0.1, 0.4
    out = kf_predict(s, dt, q)
    f = np.array([[1, dt], [0, 1]])
    assert np.allclose(out.mean, f @ s.mean)
    assert np.allclose(out.covariance,
                       f @ s.covariance @ f.T + process_noise_cov(dt, q))
    # every row of a multi-row bank, against its own prior
    rows = _distinct_rows(np.random.default_rng(1), 4)
    bank = doatrack.track._KalmanBank(TrackerConfig(process_intensity=q), 0)
    bank.rows = list(rows)
    bank.predict(dt)
    for (az, rate, a, b, d), got in zip(rows, bank.rows, strict=True):
        cov = f @ np.array([[a, b], [b, d]]) @ f.T + process_noise_cov(dt, q)
        assert np.allclose(got, [*(f @ [az, rate]), cov[0, 0], cov[1, 0], cov[1, 1]],
                           rtol=0, atol=1e-12)


def test_kf_update_matches_manual():
    rng = np.random.default_rng(0)
    h = np.array([1.0, 0.0])
    for _ in range(100):
        a = rng.uniform(0.01, 1.0, 2)
        b = rng.uniform(-0.05, 0.05)
        p = np.array([[a[0], b], [b, a[1]]])
        if np.linalg.eigvalsh(p).min() <= 0:
            continue
        s = TrackState(mean=rng.uniform(-1, 1, 2), covariance=p)
        r = rng.uniform(0.001, 0.1)
        z = s.mean[0] + rng.normal(0, 0.1)
        out = kf_update(s, z, r)
        # classical KF equations as the oracle
        innov = z - h @ s.mean
        s_var = h @ p @ h + r
        k = p @ h / s_var
        mean_ref = s.mean + k * innov
        mean_ref[0] = wrap_angle(mean_ref[0])
        cov_ref = (np.eye(2) - np.outer(k, h)) @ p
        assert np.allclose(out.mean, mean_ref, atol=1e-12)
        assert np.allclose(out.covariance, cov_ref, atol=1e-10)
        assert np.allclose(out.covariance, out.covariance.T)
    # rows 3, 0 and 1 of a multi-row bank updated in one call, row 2 left
    # alone. The oracle's covariance is the Joseph form
    rows = _distinct_rows(rng, 4)
    picked = [3, 0, 1]
    bank = doatrack.track._KalmanBank(TrackerConfig(obs_noise_std=0.1), 0)
    bank.rows = list(rows)
    obs = [rows[i][0] + rng.normal(0, 0.1) for i in picked]
    took, _ = bank.update(picked, [float(z) for z in obs])
    assert took == [True] * 3
    assert bank.rows[2] == rows[2]
    r = bank.obs_var
    for i, z in zip(picked, obs):
        az, rate, a, b, d = rows[i]
        p = np.array([[a, b], [b, d]])
        k = p @ h / (h @ p @ h + r)
        ikh = np.eye(2) - np.outer(k, h)
        cov_ref = ikh @ p @ ikh.T + np.outer(k, k) * r
        mean_ref = np.array([az, rate]) + k * (z - az)
        assert np.allclose(bank.rows[i], [*mean_ref, cov_ref[0, 0], cov_ref[1, 0],
                                          cov_ref[1, 1]], rtol=0, atol=1e-12), i


def test_kf_update_wrapped_innovation():
    # state near +pi, observation just across the wrap: innovation is small
    s = _state(az=math.pi - 0.05)
    out = kf_update(s, -math.pi + 0.05, 0.01)
    assert abs(wrap_angle(out.azimuth - math.pi)) < 0.2


def test_kf_converges_on_static_target():
    rng = np.random.default_rng(3)
    truth = 1.2
    s = _state(az=truth + 0.3, var_az=0.5, var_rate=0.5)
    for _ in range(100):
        s = kf_predict(s, 0.05, 0.01)
        s = kf_update(s, truth + rng.normal(0, 0.02), 0.02**2)
    assert abs(s.azimuth - truth) < 0.02
    assert s.covariance[0, 0] < 0.01


def test_wrapped_kf_matches_kf_away_from_wrap():
    rng = np.random.default_rng(4)
    s = _state(az=0.5, var_az=0.05, var_rate=0.2)
    mix = WrappedMixture.from_state(s)
    kf = s
    for _ in range(40):
        obs = 0.5 + rng.normal(0, 0.05)
        mix = wrapped_kf_predict(mix, 0.1, 0.1)
        kf = kf_predict(kf, 0.1, 0.1)
        mix = wrapped_kf_update(mix, obs, 0.05**2)
        kf = kf_update(kf, obs, 0.05**2)
        assert abs(wrap_angle(mix.circular_mean() - kf.azimuth)) < 1e-6


def test_wrapped_kf_tracks_through_wrap():
    rng = np.random.default_rng(5)
    rate = 1.0  # rad/s, crosses pi
    s = _state(az=math.pi - 0.3, rate=rate, var_az=0.01, var_rate=0.01)
    mix = WrappedMixture.from_state(s)
    t_axis = np.arange(1, 80) * 0.02
    prev = mix.circular_mean()
    for t in t_axis:
        truth = wrap_angle(math.pi - 0.3 + rate * t)
        mix = wrapped_kf_predict(mix, 0.02, 0.1)
        mix = wrapped_kf_update(mix, wrap_angle(truth + rng.normal(0, 0.03)), 0.03**2)
        cur = mix.circular_mean()
        assert abs(wrap_angle(cur - truth)) < 0.15
        assert abs(wrap_angle(cur - prev)) < 0.5  # no unwrap glitches
        prev = cur


def _traa_update(mean, cov, obs, r):
    """One wrapped Kalman update of a single Gaussian as Traa and Smaragdis
    (IEEE SPL 2013) write it: x + K sum_l eta_l (z + 2 pi l - x_az), eta the
    normalized likelihoods of the images, and P - K H P. Also returns the
    evidence, the likelihoods' sum."""
    s = cov[0, 0] + r
    k = cov[:, 0] / s
    images = [obs + 2 * math.pi * l - mean[0] for l in (-1, 0, 1)]
    eta = [math.exp(-v * v / (2 * s)) for v in images]
    innovation = sum(e * v for e, v in zip(eta, images)) / sum(eta)
    return mean + k * innovation, cov - np.outer(k, cov[0]), sum(eta) / math.sqrt(2 * math.pi * s)


def test_wrapped_kf_update_is_the_traa_smaragdis_filter():
    # priors wide enough (azimuth variance >= 2 rad^2) that the images
    # obs +- 2 pi carry weight: the update follows the single-Gaussian wrapped
    # KF and departs from the linear KF's nearest-image innovation
    rng = np.random.default_rng(10)
    r = 0.3**2
    for _ in range(40):
        b = rng.uniform(-0.3, 0.3)
        prior = TrackState(np.array([rng.uniform(-math.pi, math.pi), rng.normal()]),
                           np.array([[rng.uniform(2.0, 4.0), b], [b, 0.5]]))
        # the observation at least 1 rad from the prior, either side
        obs = wrap_angle(prior.azimuth + rng.choice([-1, 1]) * rng.uniform(1.0, 3.0))
        mix = wrapped_kf_update(WrappedMixture.from_state(prior), obs, r)
        ref_mean, ref_cov, _ = _traa_update(prior.mean, prior.covariance, obs, r)
        assert abs(wrap_angle(mix.mean[0] - ref_mean[0])) < 1e-12
        assert mix.mean[1] == pytest.approx(ref_mean[1], abs=1e-12)
        assert np.allclose(mix.covariance, ref_cov, rtol=0, atol=1e-12)
        kf = kf_update(prior, obs, r)
        assert abs(wrap_angle(mix.mean[0] - kf.azimuth)) > 1e-3


_GATE = math.radians(30.0)  # the largest gate_max TrackerConfig accepts


@settings(max_examples=1000, deadline=None)
@given(az=st.one_of(st.floats(-math.pi, math.pi, exclude_max=True),
                    st.floats(-2 * _GATE, 2 * _GATE).map(lambda d: wrap_angle(math.pi + d))),
       frac=st.floats(-1.0, 1.0), log_s=st.floats(-4.0, 1.0),
       share=st.floats(0.01, 0.99), rate=st.floats(-5.0, 5.0),
       p11=st.floats(1e-3, 10.0), corr=st.floats(-0.99, 0.99))
def test_wrapped_correction_is_the_kalman_one_within_the_image_bound(az, frac, log_s, share,
                                                                    rate, p11, corr):
    # why `wrapped-kalman` runs the Kalman bank: for an observation within
    # the gate g of the azimuth, each other image weighs at most
    # exp(-(4 pi^2 - 4 pi g) / (2 s)) relative to the nearest, s = P00 + r,
    # so the azimuths differ by at most 4 pi times that. The observation
    # lies within the lifecycle's gate min(gate_sigma sqrt(s), g) for a
    # gate_sigma up to 30, so its own likelihood is a normal float (past
    # about 38.6 sigma it underflows, and the wrapped filter rejects it).
    # The Joseph-form covariance does not read the innovation: the same bits
    s = 10.0 ** log_s
    r, p00 = share * s, (1.0 - share) * s
    row = (az, rate, p00, corr * math.sqrt(p00 * p11), p11)
    assert doatrack.track._positive_definite(*row[2:])
    # rows near +-pi see observations across the wrap
    obs = wrap_angle(az + frac * min(_GATE, 30.0 * math.sqrt(s)))
    kalman = doatrack.track._kf_correct(row, obs, r)
    wrapped, _ = doatrack.track._wkf_correct(row, obs, r)
    assert [x.hex() for x in wrapped[2:]] == [x.hex() for x in kalman[2:]]
    s = p00 + r
    bound = 4 * math.pi * math.exp(-(4 * math.pi**2 - 4 * math.pi * _GATE) / (2 * s))
    assert abs(wrap_angle(wrapped[0] - kalman[0])) <= bound + 1e-12


@pytest.mark.parametrize("r", [0.0, -0.01, math.nan, math.inf])
@pytest.mark.parametrize("update", [
    kf_update, lambda state, obs, r: wrapped_kf_update(WrappedMixture.from_state(state), obs, r)],
    ids=["kalman", "wrapped-kalman"])
def test_kalman_updates_reject_a_bad_noise_variance_or_observation(update, r):
    with pytest.raises(ValueError, match="obs_noise_var must be positive"):
        update(_state(), 0.1, r)
    for obs in (math.nan, math.inf):
        with pytest.raises(ValueError, match="observation must be finite"):
            update(_state(), obs, 0.01)


@pytest.mark.parametrize("intensity, r, name", [
    (0.1, 0.0, "obs_noise_var"), (0.1, -0.01, "obs_noise_var"),
    (0.1, math.nan, "obs_noise_var"), (0.1, math.inf, "obs_noise_var"),
    (-0.1, 0.01, "process_intensity"), (math.nan, 0.01, "process_intensity"),
    (math.inf, 0.01, "process_intensity"),
])
def test_pf_params_reject_a_bad_noise_setting(intensity, r, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        PfParams(process_intensity=intensity, obs_noise_var=r)
    PfParams(process_intensity=0.0, obs_noise_var=0.01)  # no process noise is allowed


def test_azimuth_variance_is_taken_across_the_wrap():
    # two equal particles 0.1 rad either side of +-pi: the spread is 0.1 rad,
    # not the 2 pi - 0.2 rad a linear variance would see
    ps = ParticleSet(np.array([[math.pi - 0.1, 0.0], [-math.pi + 0.1, 0.0]]),
                     np.array([0.5, 0.5]))
    assert ps.azimuth_variance() == pytest.approx(0.1**2)


def test_wrapped_gaussian_likelihood_sums_images():
    innov, var = 0.4, 0.09
    ref = sum(
        math.exp(-(innov + 2 * math.pi * k) ** 2 / (2 * var))
        / math.sqrt(2 * math.pi * var)
        for k in (-1, 0, 1)
    )
    assert wrapped_gaussian_likelihood(innov, var) == pytest.approx(ref)


def test_systematic_resample_uniform_weights_and_mean():
    rng = np.random.default_rng(6)
    n = 5000
    particles = np.column_stack([rng.normal(1.0, 0.1, n), rng.normal(0, 0.1, n)])
    weights = rng.uniform(0, 1, n)
    weights /= weights.sum()
    ps = ParticleSet(particles, weights)
    out = systematic_resample(ps, rng)
    assert np.allclose(out.weights, 1.0 / n)
    before = np.sum(weights * particles[:, 0])
    after = out.particles[:, 0].mean()
    assert after == pytest.approx(before, abs=0.01)


def test_pf_tracks_kf_in_linear_regime():
    rng = np.random.default_rng(7)
    n = 4000
    obs_std = 0.05
    params = PfParams(process_intensity=0.05, obs_noise_var=obs_std**2)
    kf = _state(az=0.2, var_az=obs_std**2, var_rate=0.1)
    particles = np.column_stack([
        rng.normal(0.2, obs_std, n), rng.normal(0, math.sqrt(0.1), n)])
    ps = ParticleSet(particles, np.full(n, 1.0 / n))
    for _ in range(30):
        obs = 0.2 + rng.normal(0, obs_std)
        kf = kf_predict(kf, 0.1, 0.05)
        kf = kf_update(kf, obs, obs_std**2)
        ps = pf_step(ps, obs, 0.1, params, rng)
        assert abs(wrap_angle(ps.circular_mean() - kf.azimuth)) < 0.02


def _stream(azimuths_by_time):
    out = []
    for t, az_list in azimuths_by_time:
        for az in az_list:
            out.append(DoaEstimate(t, Doa(az)))
    return out


@pytest.mark.parametrize("name, value", [
    ("init_hits", 6), ("init_hits", 0), ("init_window", 0),
    ("init_hits", 2.0), ("init_hits", 2.5), ("init_window", 5.0), ("init_window", 2.5),
    ("t_miss", -1.0), ("t_miss", 0.0), ("gate_sigma", -1.0), ("gate_sigma", math.nan),
    ("gate_max", 0.0), ("gate_max", math.inf), ("gate_max", math.pi),
    ("gate_max", math.nextafter(math.radians(30.0), math.inf)), ("obs_noise_std", 0.0),
    ("obs_noise_std", math.nan), ("obs_noise_std", 1e-200), ("obs_noise_std", 1e200),
    ("obs_noise_std", np.float64(1e-200)), ("obs_noise_std", np.float64(1e200)),
    ("initial_rate_var", -1.0), ("initial_rate_var", math.inf),
    ("process_intensity", -0.1), ("process_intensity", math.inf),
])
def test_tracker_config_rejects_values_no_lifecycle_can_run_with(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        TrackerConfig(**{name: value})


def test_tracker_config_accepts_the_limits():
    TrackerConfig(init_hits=1, init_window=1, process_intensity=0.0)
    TrackerConfig(init_hits=5, init_window=5)
    TrackerConfig(init_hits=np.int64(2), init_window=np.int32(4))
    TrackerConfig(gate_max=math.radians(30.0))  # the evaluation gate itself


@pytest.mark.parametrize("tracker", FILTERS)
def test_numpy_integer_limits_run_as_python_integers(tracker):
    times = [(0.1 * k, [0.5] if k % 3 else []) for k in range(12)]
    numpy_config = TrackerConfig(init_hits=np.int64(2), init_window=np.int32(4))
    tracks = track_lifecycle(_stream(times), numpy_config, tracker)
    assert tracks == track_lifecycle(_stream(times), TrackerConfig(init_hits=2, init_window=4),
                                     tracker)
    assert list(tracks) == [1]
    # numpy floats in the settings give the tracks Python floats give
    floats = dict(obs_noise_std=0.04, process_intensity=0.3, initial_rate_var=0.8)
    numpy_config = TrackerConfig(**{name: np.float64(value) for name, value in floats.items()})
    tracks = track_lifecycle(_stream(times), numpy_config, tracker)
    assert tracks == track_lifecycle(_stream(times), TrackerConfig(**floats), tracker)
    assert list(tracks) == [1]


@pytest.mark.parametrize("tracker", FILTERS)
def test_lifecycle_confirms_after_m_of_n(tracker):
    config = TrackerConfig(init_hits=3, init_window=5)
    times = [(0.1 * k, [0.5]) for k in range(10)]
    tracks = track_lifecycle(_stream(times), config, tracker)
    assert list(tracks) == [1]
    series = tracks[1]
    assert len(series) == 8  # confirmed at the third hit
    for _, az in series:
        assert abs(az - 0.5) < 0.05


@pytest.mark.parametrize("tracker", FILTERS)
def test_lifecycle_rejects_a_negative_seed_for_every_filter(tracker):
    # the Kalman banks draw no random numbers, yet take the particle filter's rule
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        track_lifecycle(_stream([(0.0, [0.5])]), TrackerConfig(), tracker, seed=-1)


@pytest.mark.parametrize("tracker", FILTERS)
def test_a_lapsed_tentative_track_takes_no_id(tracker):
    # with M = 1 the first track still holds its start hit in the window when
    # its next step comes after t_miss: it ends unconfirmed, without an id,
    # and the track that starts at 1.0 s is track 1
    times = [(0.0, [0.5])] + [(t, [-1.0]) for t in (1.0, 1.1, 1.2)]
    tracks = track_lifecycle(_stream(times), TrackerConfig(init_hits=1, init_window=2), tracker)
    assert list(tracks) == [1]
    assert [t for t, _ in tracks[1]] == [1.1, 1.2]
    assert list(track_lifecycle(_stream(times), TrackerConfig(), tracker)) == [1]


@pytest.mark.parametrize("tracker", FILTERS)
def test_lifecycle_ignores_sporadic_clutter(tracker):
    rng = np.random.default_rng(8)
    times = []
    for k in range(30):
        obs = [1.0 + rng.normal(0, 0.01)]
        if k in (4, 13, 22):  # isolated clutter, never twice in a window
            obs.append(float(rng.uniform(-3, -2)))
        times.append((0.1 * k, obs))
    tracks = track_lifecycle(_stream(times), TrackerConfig(), tracker)
    assert len(tracks) == 1


@pytest.mark.parametrize("tracker", FILTERS)
def test_lifecycle_terminates_after_gap_and_new_id(tracker):
    times = [(0.1 * k, [0.5]) for k in range(8)]
    times += [(0.1 * k, []) for k in range(8, 16)]  # 0.8 s silence
    times += [(0.1 * k, [-2.0]) for k in range(16, 24)]
    # keep the clock alive during the gap with a distant steady source
    tracks = track_lifecycle(_stream(times), TrackerConfig(), tracker)
    assert sorted(tracks) == [1, 2]
    end_of_first = max(t for t, _ in tracks[1])
    assert end_of_first < 1.3
    for _, az in tracks[2]:
        assert abs(az + 2.0) < 0.05


@pytest.mark.parametrize("tracker", FILTERS)
def test_lifecycle_two_simultaneous_sources(tracker):
    times = [(0.1 * k, [0.8, -1.5]) for k in range(20)]
    tracks = track_lifecycle(_stream(times), TrackerConfig(), tracker)
    assert sorted(tracks) == [1, 2]
    finals = sorted(tracks[i][-1][1] for i in (1, 2))
    assert finals[0] == pytest.approx(-1.5, abs=0.05)
    assert finals[1] == pytest.approx(0.8, abs=0.05)


@pytest.mark.parametrize("tracker", FILTERS)
def test_lifecycle_gate_blocks_far_observation(tracker):
    # an observation 90 deg away must not drag the track
    times = [(0.1 * k, [0.0]) for k in range(10)]
    times.append((1.0, [math.pi / 2]))
    times += [(0.1 * k, [0.0]) for k in range(11, 16)]
    tracks = track_lifecycle(_stream(times), TrackerConfig(), tracker)
    for _, az in tracks[1]:
        assert abs(az) < 0.1


@pytest.mark.parametrize("good_updates, first_warning", [
    (0, "tentative track flagged at t=0.100 s: non-PD covariance"),
    (2, "track 1 flagged at t=0.300 s: non-PD covariance"),
])
def test_divergence_warning_names_the_track_and_the_time(monkeypatch, caplog,
                                                        good_updates, first_warning):
    # the Kalman update diverges after `good_updates` successful calls; the
    # track confirms at its third hit, the second update
    calls = []
    correct = doatrack.track._kf_correct

    def diverging_update(row, obs, obs_noise_var):
        calls.append(obs)
        az, rate, *cov = correct(row, obs, obs_noise_var)
        return az, rate, *(-c if len(calls) > good_updates else c for c in cov)

    monkeypatch.setattr(doatrack.track, "_kf_correct", diverging_update)
    times = [(0.1 * k, [0.5]) for k in range(6)]
    with caplog.at_level(logging.WARNING, logger="doatrack.track"):
        track_lifecycle(_stream(times), TrackerConfig(), "kalman")
    messages = [record.getMessage() for record in caplog.records]
    assert messages and messages[0] == first_warning
    assert all("non-PD covariance" in m and " at t=" in m and "track 0" not in m
               for m in messages)


def test_wrapped_kf_update_rejects_an_observation_of_zero_likelihood(caplog):
    # 2 rad off a tight prior, every image of the observation has a
    # likelihood that underflows to zero
    prior = WrappedMixture.from_state(_state(az=0.5, var_az=1e-6))
    with caplog.at_level(logging.WARNING, logger="doatrack.track"):
        assert wrapped_kf_update(prior, 2.5, 1e-6) is prior
    assert [record.getMessage() for record in caplog.records] == [
        "wrapped KF update rejected observation 2.500 (zero likelihood)"]


def test_particle_filter_collapse_warning_names_the_track_and_the_time(monkeypatch, caplog):
    # every observation kills every weight; the track confirms after its
    # second update, at its third hit
    monkeypatch.setattr(doatrack.track, "wrapped_gaussian_likelihood",
                        lambda innovation, variance: np.zeros_like(innovation))
    times = [(0.1 * k, [0.5]) for k in range(4)]
    with caplog.at_level(logging.WARNING, logger="doatrack.track"):
        track_lifecycle(_stream(times), TrackerConfig(), "particle")
    messages = [record.getMessage() for record in caplog.records]
    assert messages == [
        f"{who} at t={t} s: particle filter divergence: observation 0.500 killed all weights"
        for who, t in (("tentative track", "0.100"), ("tentative track", "0.200"),
                       ("track 1", "0.300"))]


def _two_source_stream(seed, duration):
    """Task-4 ground truth (two moving sources) as a noisy, gappy, cluttered
    estimate stream at the localizer's block rate; no audio is rendered."""
    config = task_preset(4, seed, duration=duration)
    names = [f"src{i + 1}" for i in range(len(config.sources))]
    sources = dict(zip(names, (s.trajectory for s in config.sources)))
    vaps = VapTable(dict(zip(names, (s.vaps for s in config.sources))))
    doas_at = ground_truth_doas(sources, config.array_trajectory)
    rng = np.random.default_rng(seed)
    noise, block_rate = math.radians(3.0), 48000.0 / 4096
    stream = []
    for t in np.arange(0.5 / block_rate, duration, 1.0 / block_rate):
        t = float(t)
        doas = doas_at(t)
        for name in vaps.active_sources(t):
            if rng.random() >= 0.1:  # 10 % missed detections
                az = doas[name].azimuth + noise * rng.standard_normal()
                stream.append(DoaEstimate(t, Doa(wrap_angle(az))))
        for _ in range(rng.poisson(0.2)):  # clutter
            stream.append(DoaEstimate(t, Doa(float(rng.uniform(-math.pi, math.pi)))))
    truth = (sources, config.array_trajectory, vaps, config.array_trajectory.timestamps)
    return stream, truth


def test_every_filter_tracks_two_moving_sources():
    duration = 6.0
    stream, (sources, array_traj, vaps, clock) = _two_source_stream(1, duration)
    p_d, ids = {}, {}
    for tracker in FILTERS:
        tracks = track_stream(stream, tracker, seed=0)
        report = evaluate_submission(sources, array_traj, vaps,
                                     resample_tracks(tracks, clock), clock, duration)
        p_d[tracker], ids[tracker] = report.p_d, len(tracks)
    assert p_d["kalman"] > 0.5
    for tracker in ("wrapped-kalman", "particle"):
        assert p_d[tracker] >= 0.9 * p_d["kalman"], (tracker, p_d)
        assert ids[tracker] >= 2, (tracker, ids)


def _reference_pf_predict(ps, dt, params, rng):
    """`pf_predict` as a direct `multivariate_normal` draw, nothing cached."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return ps
    particles = ps.particles @ np.array([[1.0, dt], [0.0, 1.0]]).T
    if params.process_intensity > 0:
        q = process_noise_cov(dt, params.process_intensity)
        particles += rng.multivariate_normal(np.zeros(2), q, size=ps.size)
    return ParticleSet(particles, ps.weights)


def _numpy_wrap_angle(angle):
    angle = np.asarray(angle, dtype=float)
    if not np.all(np.isfinite(angle)):
        raise ValueError("angle must be finite")
    wrapped = np.mod(angle + np.pi, 2.0 * np.pi) - np.pi
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def _np_mod_wrap_angle(angle):
    """`wrap_angle` as it was before its small-array and np.fmod paths:
    floats in Python arithmetic, every array through np.mod."""
    if isinstance(angle, float):
        if not math.isfinite(angle):
            raise ValueError("angle must be finite")
        wrapped = (float(angle) + math.pi) % (2.0 * math.pi) - math.pi
        return -math.pi if wrapped == math.pi else wrapped
    angle = np.asarray(angle, dtype=float)
    if angle.ndim == 0:
        return _np_mod_wrap_angle(float(angle))
    if not np.isfinite(angle).all():
        raise ValueError("angle must be finite")
    wrapped = angle + np.pi
    np.mod(wrapped, 2.0 * np.pi, out=wrapped)
    wrapped -= np.pi
    np.copyto(wrapped, -np.pi, where=wrapped == np.pi)
    return wrapped


@pytest.mark.parametrize("seed", [1, 2])
def test_tracks_and_scores_equal_those_of_the_np_mod_wrap(seed, monkeypatch):
    duration = 6.0
    stream, (sources, array_traj, vaps, clock) = _two_source_stream(seed, duration)

    def tracks_and_reports():
        tracks = {tracker: track_lifecycle(stream, TrackerConfig(), tracker, seed=seed)
                  for tracker in FILTERS}
        return tracks, {tracker: evaluate_submission(
            sources, array_traj, vaps, resample_tracks(tracks[tracker], clock), clock,
            duration).to_dict() for tracker in FILTERS}

    tracks, reports = tracks_and_reports()
    assert all(tracks.values())
    for module in (doatrack.geometry, doatrack.track, doatrack.evaluate):
        monkeypatch.setattr(module, "wrap_angle", _np_mod_wrap_angle)
    old_tracks, old_reports = tracks_and_reports()
    assert tracks == old_tracks
    for tracker in FILTERS:
        assert reports[tracker].keys() == old_reports[tracker].keys()
        for key, value in reports[tracker].items():
            old = old_reports[tracker][key]
            assert value == old or (math.isnan(value) and math.isnan(old)), (tracker, key)


def _uncached_circular_mean(ps):
    return float(np.angle(np.sum(ps.weights * np.exp(1j * ps.particles[:, 0]))))


@pytest.mark.parametrize("seed", [1, 2])
def test_cached_tracker_steps_are_exact(seed, monkeypatch):
    # the filter bank against the one-track-at-a-time reference lifecycle
    # running uncached steps: a multivariate_normal draw per predict, a
    # complex-exponential circular mean per set, np.mod wraps and a fresh
    # model per step
    stream, _ = _two_source_stream(seed, 6.0)
    got = {tracker: track_lifecycle(stream, TrackerConfig(), tracker, seed=seed)
           for tracker in FILTERS}
    assert all(got.values())
    monkeypatch.setattr(doatrack.track, "pf_predict", _reference_pf_predict)
    monkeypatch.setattr(doatrack.track, "wrap_angle", _numpy_wrap_angle)
    monkeypatch.setattr(ParticleSet, "circular_mean", _uncached_circular_mean)
    monkeypatch.setattr(doatrack.track, "_model", lambda dt, intensity: (
        np.array([[1.0, dt], [0.0, 1.0]]), process_noise_cov(dt, intensity)))
    for tracker in FILTERS:
        assert reference_lifecycle(stream, TrackerConfig(), tracker, seed=seed) == got[tracker]


def _dense_stream(seed, duration=3.0, n_sources=6):
    """`n_sources` static talkers spread round the circle, all speaking, with
    3 degrees of noise, 10 % misses and Poisson clutter at the block rate."""
    rng = np.random.default_rng(seed)
    azimuths = np.linspace(-math.pi, math.pi, n_sources, endpoint=False) + rng.uniform(0, 0.3)
    block_rate, noise = 48000.0 / 4096, math.radians(3.0)
    stream = []
    for t in np.arange(0.5 / block_rate, duration, 1.0 / block_rate):
        for az in azimuths:
            if rng.random() >= 0.1:
                stream.append(DoaEstimate(float(t), Doa(wrap_angle(az + noise * rng.standard_normal()))))
        for _ in range(rng.poisson(0.2)):
            stream.append(DoaEstimate(float(t), Doa(float(rng.uniform(-math.pi, math.pi)))))
    return stream


def _next_azimuth(z, toward):
    """The nearest azimuth past `z` toward `toward` that a `Doa` holds,
    `wrap_angle`'s output being a fixed point of it."""
    z = math.nextafter(z, toward)
    while wrap_angle(z) != z:
        z = math.nextafter(z, toward)
    return z


def _gate_edge_streams(tracker, config, seed):
    """Streams whose steps test the gate and the assignment at their edges.

    A track hit at 0.5 rad at 0.0, 0.1 and 0.2 s, its state stepped by the
    reference filter, then at 0.3 s an observation either side of its gate:
    the last azimuth whose cost is within the gate and the next one a `Doa`
    holds. Two tracks at one azimuth, then one observation at equal cost
    from both, where the assignment's tie-break decides. Tracks and
    observations either side of +-pi. Five tracks seen at every step, 25
    (track, observation) pairs, more than the 16 that `wrap_angle` wraps one
    float at a time, two of them within each other's gates.
    """
    start, predict, update, azimuth, variance = reference_filter(tracker, config, seed)
    state = start(0.5)
    for prev, t in ((0.0, 0.1), (0.1, 0.2)):  # the lifecycle's steps, dt included
        state = update(predict(state, t - prev), 0.5, "")
    state = predict(state, 0.3 - 0.2)
    az = azimuth(state)
    gate = min(config.gate_sigma * np.sqrt(variance(state) + config.obs_noise_var),
               config.gate_max)

    def cost(z):
        return abs(wrap_angle(z - az))

    inside = wrap_angle(az + gate)
    while cost(inside) > gate:
        inside = _next_azimuth(inside, -math.inf)
    while cost(_next_azimuth(inside, math.inf)) <= gate:
        inside = _next_azimuth(inside, math.inf)
    outside = _next_azimuth(inside, math.inf)
    assert cost(inside) <= gate < cost(outside)
    hits = [(0.0, [0.5]), (0.1, [0.5]), (0.2, [0.5])]
    after = [(0.4, [0.5]), (0.5, [0.5]), (0.6, [0.5])]
    edge = [_stream(hits + [(0.3, [z])] + after) for z in (inside, outside)]

    tie = _stream([(t, [0.5, 0.5]) for t in (0.0, 0.1, 0.2)] + [(0.3, [0.52])]
                  + [(t, [0.5, 0.5]) for t in (0.4, 0.5, 0.6)])
    across = _stream([(0.1 * k, [wrap_angle(math.pi - 0.02 + 0.03 * (-1) ** k),
                                 wrap_angle(-math.pi + 0.06 - 0.025 * (-1) ** k)])
                      for k in range(12)])
    rng = np.random.default_rng(seed)
    crowded = _stream([(0.1 * k, [wrap_angle(az + 0.01 * rng.standard_normal())
                                  for az in (-3.1, -1.5, 0.0, 1.5, 3.1)])
                       for k in range(12)])
    return edge, tie, across, crowded


@pytest.mark.parametrize("tracker", FILTERS)
def test_filter_bank_matches_the_per_track_lifecycle(tracker):
    # at the default config, at M = 1, where a tentative track can lapse
    # with its start hit still in the window, and at a gate capped at 0.25
    # rad, a cost the wrap can give, so that the edge stream's inside
    # observation costs exactly the gate
    for config in (TrackerConfig(), TrackerConfig(init_hits=1, init_window=2),
                   TrackerConfig(gate_sigma=50.0, gate_max=0.25)):
        edge, tie, across, crowded = _gate_edge_streams(tracker, config, seed=5)
        inside, outside = (track_lifecycle(stream, config, tracker, seed=5) for stream in edge)
        assert inside != outside  # the observation at 0.3 s is taken only inside the gate
        assert [inside, outside] == [reference_lifecycle(stream, config, tracker, seed=5)
                                     for stream in edge], config
        for stream in (tie, across, crowded):
            assert track_lifecycle(stream, config, tracker, seed=5) == \
                reference_lifecycle(stream, config, tracker, seed=5), config
        assert len(track_lifecycle(crowded, config, tracker, seed=5)) >= 5
        for seed in (1, 2, 3, 4):
            stream, _ = _two_source_stream(seed, 6.0)
            assert track_lifecycle(stream, config, tracker, seed=seed) == \
                reference_lifecycle(stream, config, tracker, seed=seed), (config, seed)
        # the tentative track started at 0.0 s lapses before its next step
        stream = _stream([(0.0, [0.5])] + [(t, [-1.0]) for t in (1.0, 1.1, 1.2)])
        assert track_lifecycle(stream, config, tracker, seed=5) == \
            reference_lifecycle(stream, config, tracker, seed=5), config
        stream = _dense_stream(5)
        tracks = track_lifecycle(stream, config, tracker, seed=5)
        assert tracks == reference_lifecycle(stream, config, tracker, seed=5), config
        alive = {}
        for series in tracks.values():
            for t, _ in series:
                alive[t] = alive.get(t, 0) + 1
        assert max(alive.values()) >= 5  # the bank held at least five tracks at once


@pytest.mark.parametrize("tracker", FILTERS)
def test_only_a_gate_conflict_calls_the_assignment_solver(tracker, monkeypatch):
    # two sources far apart: every track and every observation holds at
    # most one within-gate pair, so the lifecycle pairs them itself
    calls = []
    original = doatrack.track.gated_assignment

    def counting(cost, gate):
        calls.append(cost.shape)
        return original(cost, gate)

    monkeypatch.setattr(doatrack.track, "gated_assignment", counting)
    apart = _stream([(0.1 * k, [0.8, -1.5]) for k in range(20)])
    assert sorted(track_lifecycle(apart, TrackerConfig(), tracker)) == [1, 2]
    assert calls == []
    # two observations within the gate of one track from 0.1 s on
    close = _stream([(0.1 * k, [0.8, 0.85]) for k in range(5)])
    track_lifecycle(close, TrackerConfig(), tracker)
    assert calls and set(calls) == {(2, 2)}


def test_particle_bank_keeps_every_rows_circular_mean_current():
    # each step that moves a row recomputes its mean: the bank reads every
    # row as a `ParticleSet` of that row's particles and weights does
    bank = doatrack.track._ParticleBank(TrackerConfig(), seed=3)

    def assert_rows_read_as_particle_sets():
        sets = [ParticleSet(p, w) for p, w in zip(bank.particles, bank.weights)]
        assert bank.azimuths() == [s.circular_mean() for s in sets]
        assert bank.variances() == [s.azimuth_variance() for s in sets]

    def uniform(row):
        return bool(np.all(bank.weights[row] == 1.0 / PF_PARTICLES))

    bank.start([0.5, -1.0, 3.1])
    assert_rows_read_as_particle_sets()
    bank.predict(0.1)
    assert_rows_read_as_particle_sets()
    # an observation in row 0's tail collapses its effective sample size, so
    # that row alone is resampled; row 2's observation sits at its mean
    bank.update([0, 2], [0.7, bank.azimuths()[2]])
    assert uniform(0) and not uniform(2)
    assert_rows_read_as_particle_sets()
    bank.keep([0, 2])
    assert_rows_read_as_particle_sets()
    bank.update([1], [3.12])  # the row that was row 2 before the keep
    assert_rows_read_as_particle_sets()
    bank.start([-2.0])
    bank.update([0, 2], [0.75, -2.2])
    assert uniform(2)
    assert_rows_read_as_particle_sets()
    bank.predict(0.05)
    assert_rows_read_as_particle_sets()


def test_a_diverging_track_is_flagged_while_the_other_keeps_updating(monkeypatch, caplog):
    # two Kalman tracks updated in one bank call per step; from the sixth
    # update on, the track near 0.8 rad gets a non-PD covariance every time
    times = [(0.1 * k, [0.8, -1.5]) for k in range(20)]
    reference = track_lifecycle(_stream(times), TrackerConfig(), "kalman")
    assert sorted(reference) == [1, 2]
    calls = []
    correct = doatrack.track._kf_correct

    def diverging_update(row, obs, obs_noise_var):
        az, rate, *cov = correct(row, obs, obs_noise_var)
        if obs > 0:  # one update of that track per step
            calls.append(obs)
            if len(calls) > 5:
                cov = [-c for c in cov]
        return az, rate, *cov

    monkeypatch.setattr(doatrack.track, "_kf_correct", diverging_update)
    with caplog.at_level(logging.WARNING, logger="doatrack.track"):
        tracks = track_lifecycle(_stream(times), TrackerConfig(), "kalman")
    messages = [record.getMessage() for record in caplog.records]
    # track 1 keeps its predicted state and misses until t_miss ends it; the
    # tentative tracks its source starts afterwards diverge too
    assert messages[:6] == [f"track 1 flagged at t={0.1 * k:.3f} s: non-PD covariance"
                            for k in range(6, 12)]
    assert all(m.startswith("tentative track flagged") for m in messages[6:])
    assert sorted(tracks) == [1, 2]
    assert tracks[1][:4] == reference[1][:4]
    assert tracks[1][-1][0] == pytest.approx(1.0)
    assert tracks[2] == reference[2]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_wrap_angle_leaves_its_own_output_unchanged(angles):
    # the particle bank does not wrap azimuths a second time after an update
    # or a resample, as a new ParticleSet would: wrap_angle's output w is
    # fl(y - pi) for some y in [0, 2 pi], so w + pi is exact and gives w back
    wrapped = wrap_angle(np.array(angles))
    assert np.array_equal(wrap_angle(wrapped), wrapped)
    assert [wrap_angle(w) for w in wrapped.tolist()] == wrapped.tolist()


_PD_ENTRIES = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=1000, deadline=None)
@given(_PD_ENTRIES, _PD_ENTRIES, _PD_ENTRIES)
def test_closed_form_positive_definite_check_agrees_with_cholesky(a, b, d):
    cov = np.array([[a, b], [b, d]])
    if any(map(math.isnan, (a, b, d))) or (a == math.inf and math.isinf(b)):
        # reference dpotrf meets a NaN pivot here (b / sqrt(a) is inf / inf
        # for the second case) and fails. OpenBLAS's potrf tests a pivot with
        # `<= 0` only and scales by 1 / sqrt(a), which is 0 for a = inf, so
        # it passes some of these
        assert doatrack.track._positive_definite(a, b, d) is False
        return
    if all(map(math.isfinite, (a, b, d))) and a > 0:
        # the closed form takes b / sqrt(a) and LAPACK b * (1 / sqrt(a)), so
        # their pivots d - b^2 / a may differ in the last bits: leave out the
        # matrices whose exact pivot lies within 4 ulp of d of zero
        pivot = Fraction(d) - Fraction(b) ** 2 / Fraction(a)
        assume(abs(pivot) > 4 * Fraction(math.ulp(d)))
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        expected = False
    else:
        # a NaN pivot that OpenBLAS passed on into the factor is a failure
        expected = not np.isnan(factor).any()
    assert doatrack.track._positive_definite(a, b, d) is expected


@pytest.mark.parametrize("dt", [1e-3, 4096 / 48000, 0.5, 3.0])
def test_noise_factor_gives_the_multivariate_normal_draw(dt):
    intensity = TrackerConfig().process_intensity
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    factor = doatrack.track._noise_factor(dt, intensity)
    draw = ours.standard_normal((PF_PARTICLES, 2)) @ factor.T
    reference = theirs.multivariate_normal(np.zeros(2), process_noise_cov(dt, intensity),
                                           size=PF_PARTICLES)
    assert np.array_equal(draw, reference)
    assert ours.random() == theirs.random()  # the streams stay in step


def test_cached_arrays_reject_writes():
    f, q = doatrack.track._model(0.1, 0.5)
    factor = doatrack.track._noise_factor(0.1, 0.5)
    ps = ParticleSet(np.zeros((3, 2)), np.full(3, 1 / 3))
    for array in (f, f.T, q, factor, factor.T, ps.particles, ps.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert np.array_equal(q, process_noise_cov(0.1, 0.5))
    # an overflowing covariance is caught when its factor is computed
    with pytest.raises(ValueError, match="not a finite PSD covariance"):
        doatrack.track._noise_factor(1.0, 1.7e308)

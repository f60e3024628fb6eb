"""Acceptance suite: one test per shipped quantitative claim.

Each test prints a single PASS/FAIL line (visible with -s or in failure
output) and asserts the stated tolerance. Scene-based tests share
module-scoped fixtures to keep the suite affordable.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from doatrack.assignment import min_cost_assignment
from doatrack.cli import main as cli_main
from doatrack.cli import run_pipeline
from doatrack.corpus_io import (bundle_from_scene, read_recording,
                                read_submission, write_recording,
                                write_submission)
from doatrack.evaluate import (OspaParams, Submission, VapTable, compute_metrics,
                               evaluate_submission, ground_truth_doas, ospa)
from doatrack.geometry import (Doa, Pose, identity_pose, static_trajectory,
                               wrap_angle)
from doatrack.localize import DoaEstimate, gcc_phat
from doatrack.sigproc import MultichannelAudio, cross_power_spectrum, frame_signal
from doatrack.simulate import synthesize, task_preset
from doatrack.track import (ParticleSet, PfParams, TrackState, WrappedMixture,
                            kf_predict, kf_update, pf_step, wrapped_kf_predict,
                            wrapped_kf_update)

from synthutil import fractional_shift
from test_evaluate import brute_force_ospa

D = math.radians


def _report(number, description, ok):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


# -- 1: OSPA matches brute-force enumeration --------------------------------

def test_criterion_01_ospa_brute_force_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        na, nb = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        a = rng.uniform(-math.pi, math.pi, na)
        b = rng.uniform(-math.pi, math.pi, nb)
        p = float(rng.choice([1.0, 2.0, 5.0]))
        c = float(rng.choice([10.0, 30.0, 60.0]))
        got = ospa(a, b, OspaParams(p, c))
        ref = brute_force_ospa(a, b, p, c)
        worst = max(worst, abs(got - ref))
    elapsed = time.time() - t0
    _report(1, f"OSPA vs enumeration, sizes <= 4, 1000 cases: max dev "
               f"{worst:.2e} (tol 1e-9), {elapsed:.2f}s (limit 5s)",
            worst <= 1e-9 and elapsed < 5.0)


# -- 2: assignment matches exhaustive permutations ---------------------------

def test_criterion_02_assignment_permutation_equivalence():
    rng = np.random.default_rng(43)
    perms = {n: np.array(list(itertools.permutations(range(n)))) for n in range(1, 8)}
    t0 = time.time()
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        cost = rng.uniform(0, 100, (n, n))
        _, total = min_cost_assignment(cost)
        ref = cost[np.arange(n), perms[n]].sum(axis=1).min()
        if total != pytest.approx(ref, abs=1e-9):
            exact = False
            break
    elapsed = time.time() - t0
    _report(2, f"Munkres vs permutations up to 7x7, 1000 cases, "
               f"{elapsed:.2f}s (limit 10s)", exact and elapsed < 10.0)


# -- 3: self-evaluation is perfect -------------------------------------------

def test_criterion_03_self_evaluation():
    duration = 2.0
    arr = static_trajectory(identity_pose(), duration)
    src = static_trajectory(Pose(np.array([1.5, -2.0, 0.0]), np.eye(3)), duration)
    clock = arr.timestamps
    vaps = VapTable({"s1": ((float(clock[12]), float(clock[100])),
                            (float(clock[140]), float(clock[220])))})
    truth_at = ground_truth_doas({"s1": src}, arr)
    frames = {float(t): ((1, truth_at(t)["s1"]),)
              for t in clock if vaps.active_sources(t)}
    rep = evaluate_submission({"s1": src}, arr, vaps, Submission(frames), clock,
                              duration, align=False)
    ok = (rep.p_d == 1.0 and rep.far_recording == 0.0 and rep.far_vap == 0.0
          and rep.track_latency_s == 0.0 and rep.tfr == 0.0
          and rep.mean_azimuth_error_deg == 0.0
          and rep.mean_elevation_error_deg == 0.0
          and all(np.all(s.values == 0.0) for s in rep.ospa.values()))
    _report(3, "ground truth vs itself: p_d=1, FAR=0, TL=0, TFR=0, "
               "errors=0, OSPA series identically 0", ok)


# -- 4: 30-degree gate semantics ---------------------------------------------

def test_criterion_04_gating_semantics():
    # a one-tick recording: one active source at azimuth 0, one row at 35 deg
    arr = static_trajectory(identity_pose(), 0.5)
    src = static_trajectory(Pose(np.array([1.0, 0.0, 0.0]), np.eye(3)), 0.5)
    rep = evaluate_submission({"s1": src}, arr, VapTable({"s1": ((0.0, 0.5),)}),
                              Submission({0.0: ((1, Doa(D(35.0))),)}), np.array([0.0]),
                              0.5, gate_deg=30.0, align=False)
    ok = (rep.valid_count, rep.false_count, rep.missed_count) == (0, 1, 1)
    _report(4, "35-degree error with 30-degree gate: 0 valid, 1 false, 1 missed", ok)


# -- 5: synthetic single-static-source accuracy ------------------------------

@pytest.fixture(scope="module")
def scenes():
    """Seed-fixed 10 s free-field scenes at 20 dB SNR, one per array."""
    out = {}
    for array in ("robot_head", "dicit_32cm", "eigenmike"):
        scene = synthesize(task_preset(1, seed=1, duration=10.0, array=array,
                                       snr_db=20.0))
        out[array] = bundle_from_scene(scene)
    return out


def _pipeline_error(bundle, localizer, tracker, **kw):
    t0 = time.time()
    sub = run_pipeline(bundle, localizer, tracker, **kw)
    elapsed = time.time() - t0
    rep = evaluate_submission(bundle.source_trajectories, bundle.array_trajectory,
                              bundle.vaps, sub, bundle.array_trajectory.timestamps,
                              bundle.audio.duration)
    return rep.mean_azimuth_error_deg, rep.p_d, elapsed


@pytest.mark.parametrize("array,localizer,tol", [
    ("robot_head", "srp-phat", 2.0),
    ("robot_head", "music", 2.0),
    ("dicit_32cm", "gcc-phat", 2.0),
    ("eigenmike", "pseudo-intensity", 3.0),
])
def test_criterion_05_synthetic_accuracy(scenes, array, localizer, tol):
    err, p_d, elapsed = _pipeline_error(scenes[array], localizer, "kalman")
    ok = err <= tol and p_d > 0.5 and elapsed < 30.0
    _report(5, f"{localizer} on {array}: mean azimuth error {err:.2f} deg "
               f"(tol {tol}), p_d {p_d:.2f}, {elapsed:.1f}s (limit 30s)", ok)


# -- 6: wrapped Kalman through the +-180 degree crossing ----------------------

def test_criterion_06_wrap_crossing():
    worst_mean, worst_jump = 0.0, 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rate = float(rng.uniform(0.5, 1.5)) * (1 if seed % 2 else -1)
        az0 = math.pi - math.copysign(0.4, rate)
        dt, obs_std = 1 / 20, D(2.0)
        state = TrackState(mean=np.array([az0, 0.0]),
                           covariance=np.diag([obs_std**2, 1.0]))
        mix = WrappedMixture.from_state(state)
        errors, prev = [], mix.circular_mean()
        for k in range(1, 60):
            truth = wrap_angle(az0 + rate * k * dt)
            mix = wrapped_kf_predict(mix, dt, 0.5)
            mix = wrapped_kf_update(mix, wrap_angle(truth + rng.normal(0, obs_std)),
                                    obs_std**2)
            cur = mix.circular_mean()
            errors.append(abs(wrap_angle(cur - truth)))
            worst_jump = max(worst_jump, abs(wrap_angle(cur - prev)))
            prev = cur
        worst_mean = max(worst_mean, math.degrees(float(np.mean(errors))))
    ok = worst_mean <= 5.0 and math.degrees(worst_jump) <= 90.0
    _report(6, f"wrap crossing, 10 seeds: worst mean error {worst_mean:.2f} deg "
               f"(tol 5), worst state jump {math.degrees(worst_jump):.1f} deg "
               f"(tol 90)", ok)


# -- 7: difficulty ordering across scenario presets ---------------------------

def test_criterion_07_degradation_ordering():
    """Mean azimuth error over a fixed seed set must not improve as the
    scenario gains motion: static (1) <= moving source (3) <= moving
    source + moving array (5)."""
    seeds = (1, 2)
    means = {}
    for task in (1, 3, 5):
        errs = []
        for seed in seeds:
            scene = synthesize(task_preset(task, seed=seed, duration=6.0))
            bundle = bundle_from_scene(scene)
            err, _, _ = _pipeline_error(bundle, "srp-phat", "kalman")
            errs.append(err)
        means[task] = float(np.mean(errs))
    ok = means[1] <= means[3] <= means[5]
    _report(7, f"mean error ordering task1={means[1]:.2f} <= "
               f"task3={means[3]:.2f} <= task5={means[5]:.2f} deg", ok)


# -- 8: GCC-PHAT delay recovery ----------------------------------------------

def test_criterion_08_gcc_phat_delay_recovery():
    rng = np.random.default_rng(44)
    worst_int, worst_frac = 0.0, 0.0
    for trial in range(100):
        base = rng.standard_normal(16384)
        if trial % 2 == 0:
            delay = float(rng.integers(-20, 21))
        else:
            delay = float(rng.uniform(-20, 20))
        shifted = fractional_shift(base, delay)
        noise = 10 ** (-20 / 20)  # 20 dB SNR
        audio = MultichannelAudio(np.stack([
            shifted + noise * rng.standard_normal(16384),
            base + noise * rng.standard_normal(16384),
        ]), 48000.0)
        frames = frame_signal(audio, 2048, 1024)
        est = gcc_phat(cross_power_spectrum(frames, (0, 1)), max_lag=40)
        err = abs(est.delay - delay)
        if delay == round(delay):
            worst_int = max(worst_int, err)
        else:
            worst_frac = max(worst_frac, err)
    ok = worst_int <= 0.05 and worst_frac <= 0.1
    _report(8, f"delay recovery over 100 trials at 20 dB: integer worst "
               f"{worst_int:.3f} (tol 0.05), fractional worst {worst_frac:.3f} "
               f"(tol 0.1) samples", ok)


# -- 9: particle filter agrees with the Kalman filter -------------------------

def test_criterion_09_pf_kf_agreement():
    n_particles = 10**4
    worst_ratio = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 100)
        obs_std, dt, q = 0.05, 0.1, 0.05
        kf = TrackState(mean=np.array([0.3, 0.0]),
                        covariance=np.diag([obs_std**2, 0.1]))
        particles = np.column_stack([
            rng.normal(0.3, obs_std, n_particles),
            rng.normal(0.0, math.sqrt(0.1), n_particles),
        ])
        ps = ParticleSet(particles, np.full(n_particles, 1.0 / n_particles))
        params = PfParams(process_intensity=q, obs_noise_var=obs_std**2)
        truth = 0.3
        diffs, tols = [], []
        for _ in range(50):
            truth += 0.01
            obs = truth + rng.normal(0, obs_std)
            kf = kf_predict(kf, dt, q)
            kf = kf_update(kf, obs, obs_std**2)
            ps = pf_step(ps, obs, dt, params, rng)
            diffs.append(abs(wrap_angle(ps.circular_mean() - kf.azimuth)))
            tols.append(3.0 * math.sqrt(kf.covariance[0, 0]) / math.sqrt(n_particles))
        # agreement over the sequence: mean deviation within 3 sigma/sqrt(I)
        worst_ratio = max(worst_ratio, float(np.mean(diffs) / np.mean(tols)))
    ok = worst_ratio <= 1.0
    _report(9, f"PF (I=1e4) vs KF, 50-step sequence mean deviation vs "
               f"3 sigma/sqrt(I), 20 seeds: worst ratio {worst_ratio:.2f} (tol 1)", ok)


# -- 10: on-disk format round trips -------------------------------------------

def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(45)
    failures = 0

    # 500 randomized submissions
    for case in range(500):
        n = int(rng.integers(0, 20))
        times = np.sort(rng.integers(0, 240, n)) / 120.0
        ests, seen = [], set()
        for t in times:
            k = int(rng.integers(1, 4))
            if (round(float(t), 6), k) in seen:
                continue
            seen.add((round(float(t), 6), k))
            ests.append(DoaEstimate(float(t), Doa(rng.uniform(-math.pi, math.pi),
                                                  rng.uniform(0, math.pi)), k))
        path = tmp_path / "sub.txt"
        write_submission(ests, path)
        back = read_submission(path)
        flat = [(t, k, d) for t in back.timestamps for k, d in sorted(back.at(t))]
        orig = sorted((round(e.timestamp, 6), e.source_id, e.doa) for e in ests)
        if len(flat) != len(orig):
            failures += 1
            continue
        for (t1, k1, d1), (t2, k2, d2) in zip(flat, orig):
            if (abs(t1 - t2) > 1e-6 or k1 != k2
                    or abs(math.degrees(wrap_angle(d1.azimuth - d2.azimuth))) > 1e-6
                    or abs(math.degrees(d1.elevation - d2.elevation)) > 1e-6):
                failures += 1
                break

    # 500 randomized miniature scene bundles, audio must round-trip bit-exactly
    from test_corpus_io import _random_bundle
    for case in range(500):
        bundle = _random_bundle(rng, n_sources=int(rng.integers(1, 3)))
        write_recording(bundle, tmp_path / "rec")
        back = read_recording(tmp_path / "rec")
        if not np.array_equal(back.audio.samples, bundle.audio.samples):
            failures += 1
            continue
        for name, traj in bundle.source_trajectories.items():
            got = back.source_trajectories[name]
            for pa, pb in zip(traj.samples, got.samples):
                if (abs(pa.timestamp - pb.timestamp) > 1e-9
                        or np.abs(pa.translation - pb.translation).max() > 1e-9
                        or np.abs(pa.rotation - pb.rotation).max() > 1e-9):
                    failures += 1
                    break
            else:
                continue
            break
    _report(10, f"1000 randomized round trips (500 submissions, 500 scene "
                f"bundles): {failures} failures", failures == 0)


# -- 11: optional real-corpus smoke test --------------------------------------

def test_criterion_11_corpus_smoke(tmp_path):
    corpus = os.environ.get("DOATRACK_CORPUS_DIR")
    if not corpus:
        print("[criterion 11] SKIP - set DOATRACK_CORPUS_DIR to a recording "
              "directory to enable")
        pytest.skip("no corpus recording provided")
    sub_path = tmp_path / "sub.txt"
    code = cli_main(["run", "--input", corpus, "--localizer", "music",
                     "--tracker", "kalman", "--out", str(sub_path)])
    assert code == 0
    out_dir = tmp_path / "report"
    code = cli_main(["evaluate", "--input", corpus, "--submission", str(sub_path),
                     "--gate", "30", "--ospa-p", "1,5", "--ospa-c", "30",
                     "--out", str(out_dir)])
    assert code == 0
    import json
    metrics = json.loads((out_dir / "metrics.json").read_text())
    finite = all(
        isinstance(v, bool) or np.isfinite(v)
        for v in metrics.values() if isinstance(v, (int, float))
    )
    ok = finite and "ospa_p1_c30_mean" in metrics and "ospa_p5_c30_mean" in metrics
    _report(11, "corpus MUSIC baseline end-to-end with finite metrics", ok)

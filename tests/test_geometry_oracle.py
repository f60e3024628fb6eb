"""Batched trajectory sampler against the scalar pose interpolation it replaced.

`ref_interpolate_pose` below is the one-time-at-a-time interpolation with
its axis-angle helpers and the SVD re-orthonormalisation. `sample_trajectory`
evaluates the same linear translation and geodesic rotation for all times
at once: a sample time gets the sample's pose bit for bit, and a time
between samples agrees with the reference within ATOL.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from doatrack.geometry import Pose, Trajectory, interpolate_pose, sample_trajectory

ATOL = 1e-12


def _axis_angle_to_matrix(axis, angle):
    if angle < 1e-15:
        return np.eye(3)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    k_cross = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + np.sin(angle) * k_cross + (1 - np.cos(angle)) * (k_cross @ k_cross)


def _matrix_to_axis_angle(r):
    cos_a = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos_a)
    if angle < 1e-12:
        return np.array([1.0, 0.0, 0.0]), 0.0
    if np.pi - angle < 1e-6:
        # near 180 deg: extract axis from R + I
        m = (r + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(m), 0.0))
        # fix signs using off-diagonals
        i = int(np.argmax(axis))
        if axis[i] > 0:
            for j in range(3):
                if j != i:
                    axis[j] = m[i, j] / axis[i] if axis[i] > 1e-12 else axis[j]
        return axis / np.linalg.norm(axis), angle
    axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return axis / (2.0 * np.sin(angle)), angle


def ref_interpolate_pose(traj: Trajectory, t: float) -> Pose:
    times = traj.timestamps
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError(
            f"time {t} outside trajectory range [{times[0]}, {times[-1]}]"
        )
    t = float(np.clip(t, times[0], times[-1]))
    idx = int(np.searchsorted(times, t, side="right")) - 1
    idx = min(max(idx, 0), len(times) - 2) if len(times) > 1 else 0
    p0 = traj.samples[idx]
    if len(times) == 1 or abs(t - p0.timestamp) < 1e-12:
        return Pose(p0.translation, p0.rotation, t)
    p1 = traj.samples[idx + 1]
    alpha = (t - p0.timestamp) / (p1.timestamp - p0.timestamp)
    translation = (1 - alpha) * p0.translation + alpha * p1.translation
    rel = p0.rotation.T @ p1.rotation
    axis, angle = _matrix_to_axis_angle(rel)
    rotation = p0.rotation @ _axis_angle_to_matrix(axis, alpha * angle)
    # re-orthonormalize against accumulated round-off
    u, _, vt = np.linalg.svd(rotation)
    rotation = u @ vt
    return Pose(translation, rotation, t)


def _turning_trajectory(rng, n):
    """n poses at irregular times; each step turns by a random angle in [0, pi),
    repeats the previous orientation, or turns by 5e-8 short of 180 degrees."""
    times = np.cumsum(rng.uniform(0.01, 0.5, n)) - 0.2
    rotation = Rotation.random(random_state=rng).as_matrix()
    poses = []
    for t in times:
        poses.append(Pose(rng.uniform(-3.0, 3.0, 3), rotation, float(t)))
        axis = rng.standard_normal(3)
        angle = rng.choice([rng.uniform(0.0, np.pi), 0.0, np.pi - 5e-8])
        rotation = rotation @ Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()
    return Trajectory(tuple(poses))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_sampler_matches_scalar_interpolation(seed, n):
    rng = np.random.default_rng(seed)
    traj = _turning_trajectory(rng, n)
    stamps = traj.timestamps
    picked = rng.integers(0, n, 10)
    near = np.clip(stamps[picked] + rng.uniform(-5e-13, 5e-13, 10), stamps[0], stamps[-1])
    between = rng.uniform(stamps[0], stamps[-1], 40)
    translations, rotations = sample_trajectory(traj, np.concatenate([stamps, near, between]))
    assert translations.shape == (n + 50, 3) and rotations.shape == (n + 50, 3, 3)

    # a time within 1e-12 of a sample gets that sample; the reference agrees
    # bit for bit at every sample it does not reach by interpolating (the last)
    hits = np.concatenate([np.arange(n), picked])
    assert np.array_equal(translations[:n + 10], traj.translations[hits])
    assert np.array_equal(rotations[:n + 10], traj.rotations[hits])
    for i in range(n - 1):
        ref = ref_interpolate_pose(traj, stamps[i])
        assert np.array_equal(translations[i], ref.translation)
        assert np.array_equal(rotations[i], ref.rotation)
    # translation is the same arithmetic as the reference's; a step between two
    # equal orientations keeps that orientation, where the reference takes an
    # arccos of a trace rounded below 3 as a turn and normalises a zero axis
    positions = Trajectory(tuple(Pose(p.translation, np.eye(3), p.timestamp)
                                 for p in traj.samples))
    step = np.minimum(np.searchsorted(stamps, between, side="right") - 1, n - 2)
    for t, k, translation, rotation in zip(between, step, translations[n + 10:],
                                           rotations[n + 10:]):
        assert np.array_equal(translation, ref_interpolate_pose(positions, t).translation)
        if np.array_equal(traj.rotations[k], traj.rotations[k + 1]):
            assert np.array_equal(rotation, traj.rotations[k])
        else:
            np.testing.assert_allclose(rotation, ref_interpolate_pose(traj, t).rotation,
                                       rtol=0, atol=ATOL)
        np.testing.assert_allclose(rotation.T @ rotation, np.eye(3), rtol=0, atol=ATOL)


def test_sampler_near_half_turn_step():
    rng = np.random.default_rng(3)
    start = Rotation.random(random_state=rng).as_matrix()
    turn = Rotation.from_rotvec((np.pi - 5e-8) * np.array([0.0, 0.6, 0.8])).as_matrix()
    traj = Trajectory((Pose(np.zeros(3), start, 0.0), Pose(np.ones(3), start @ turn, 1.0)))
    times = np.linspace(0.0, 1.0, 41)[:-1]  # the last sample is its own case above
    _, rotations = sample_trajectory(traj, times)
    for t, rotation in zip(times, rotations):
        np.testing.assert_allclose(rotation, ref_interpolate_pose(traj, t).rotation,
                                   rtol=0, atol=ATOL)


def test_sampler_one_pose_trajectory():
    pose = Pose(np.array([1.0, 2.0, 3.0]), Rotation.from_rotvec([0.1, 0.2, 0.3]).as_matrix(),
                0.5)
    traj = Trajectory((pose,))
    translations, rotations = sample_trajectory(traj, [0.5, 0.5 + 5e-13, 0.5 - 5e-13])
    assert np.array_equal(translations, np.tile(pose.translation, (3, 1)))
    assert np.array_equal(rotations, np.tile(pose.rotation, (3, 1, 1)))
    with pytest.raises(ValueError):
        sample_trajectory(traj, [0.5, 0.6])


@pytest.mark.parametrize("where", ["before", "after", "just after"])
def test_sampler_rejects_times_outside_the_trajectory(where):
    traj = _turning_trajectory(np.random.default_rng(5), 4)
    stamps = traj.timestamps
    t = {"before": stamps[0] - 0.3, "after": stamps[-1] + 1.0,
         "just after": stamps[-1] + 2e-12}[where]
    with pytest.raises(ValueError) as ref:
        ref_interpolate_pose(traj, t)
    times = [traj.timestamps[0], t, traj.timestamps[-1]]
    with pytest.raises(ValueError, match=re.escape(str(ref.value))):
        sample_trajectory(traj, times)
    with pytest.raises(ValueError, match=re.escape(str(ref.value))):
        interpolate_pose(traj, t)

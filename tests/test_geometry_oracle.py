"""Batched trajectory sampler against the scalar pose interpolation it replaced.

`ref_interpolate_pose` below is the one-time-at-a-time interpolation with
its axis-angle helpers and the SVD re-orthonormalisation. `sample_trajectory`
evaluates the same linear translation and geodesic rotation for all times
at once: a sample time gets the sample's pose bit for bit, and a time
between samples agrees with the reference within ATOL. The reference takes
a step's angle from arccos of the trace, which loses digits near 0 and 180
degrees (1.7e-10 at 2e-6 rad short of a half turn) and near a half turn
also takes its axis' sign from the axis itself; a step turning within
SLERP_BAND of either end is checked against scipy's `Slerp` instead. A
turning step is also held bit for bit to scipy's `Rotation` chain, which
the sampler ports to Python floats; scipy is only this test's reference.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from doatrack.geometry import Pose, Trajectory, interpolate_pose, sample_trajectory

ATOL = 1e-12
SLERP_BAND = 1e-3  # rad; past it the reference's arccos errs below 4e-13


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
    turns = Rotation.from_matrix(np.swapaxes(traj.rotations[:-1], 1, 2)
                                 @ traj.rotations[1:]).magnitude()
    slerp = Slerp(stamps, Rotation.from_matrix(traj.rotations))(between).as_matrix()
    for t, k, translation, rotation, geodesic in zip(between, step, translations[n + 10:],
                                                     rotations[n + 10:], slerp):
        assert np.array_equal(translation, ref_interpolate_pose(positions, t).translation)
        if np.array_equal(traj.rotations[k], traj.rotations[k + 1]):
            assert np.array_equal(rotation, traj.rotations[k])
        else:
            if min(turns[k], np.pi - turns[k]) >= SLERP_BAND:
                geodesic = ref_interpolate_pose(traj, t).rotation
            np.testing.assert_allclose(rotation, geodesic, rtol=0, atol=ATOL)
        np.testing.assert_allclose(rotation.T @ rotation, np.eye(3), rtol=0, atol=ATOL)


def test_sampler_near_half_turn_step():
    # the sampler turned the long way round when the axis' largest component
    # was negative, and missed by 3.7e-8 rad with a positive one
    rng = np.random.default_rng(3)
    start = Rotation.random(random_state=rng)
    times = np.linspace(0.0, 1.0, 41)
    for shortfall in (1.5, 1e-2, 1e-6, 5e-8, 1e-12):
        for axis in ([0.0, 0.6, 0.8], [0.0, -0.6, -0.8]):
            end = start * Rotation.from_rotvec((np.pi - shortfall) * np.array(axis))
            traj = Trajectory((Pose(np.zeros(3), start.as_matrix(), 0.0),
                               Pose(np.ones(3), end.as_matrix(), 1.0)))
            _, rotations = sample_trajectory(traj, times)
            geodesic = Slerp([0.0, 1.0], Rotation.from_matrix(traj.rotations))(times)
            np.testing.assert_allclose(rotations, geodesic.as_matrix(), rtol=0, atol=ATOL)


def scipy_turn(r0, r1, alpha):
    """Each (3, 3) rotation of `r0` turned by `alpha` of its step to `r1`, as
    scipy's `Rotation` turns it."""
    step = Rotation.from_matrix(np.swapaxes(r0, 1, 2) @ r1, assume_valid=True)
    return r0 @ Rotation.from_rotvec(alpha[:, None] * step.as_rotvec()).as_matrix()


def _half_turn(axis):
    """A half turn about `axis`: a symmetric matrix, so its quaternion's w is 0."""
    a = np.asarray(axis, dtype=float)
    return 2.0 * np.outer(a, a) / (a @ a) - np.eye(3)


# steps turning within the as_rotvec Taylor branch (and near its 1e-3 rad
# edge, where its last term moves the last bits), beyond it, and up to a half
# turn; fractions small enough for the from_rotvec Taylor branch
STEP_ANGLES = st.one_of(st.floats(0.0, 1e-3), st.floats(4e-4, 1e-3), st.floats(1e-3, 3.0),
                        st.floats(np.pi - 1e-6, np.pi), st.sampled_from([1e-3, np.pi / 2, np.pi]))
FRACTIONS = st.lists(st.one_of(st.floats(1e-11, 1.0 - 1e-11), st.floats(1e-11, 1e-4)),
                     min_size=1, max_size=16)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), angle=STEP_ANGLES,
       axis=st.tuples(*[st.integers(-2, 2)] * 3).filter(any), start=st.sampled_from(
           ["identity", "random", "half turn"]), fractions=FRACTIONS)
@example(seed=0, angle=9e-4, axis=(1, 2, 0), start="identity", fractions=[0.999, 0.6])
def test_turning_step_has_the_bits_of_scipys_rotation(seed, angle, axis, start, fractions):
    # from the identity the sampled rotation is the turned step itself, every
    # bit of it; an exact half turn canonicalises a quaternion with w = 0
    if start == "half turn":
        r0, r1 = np.eye(3), _half_turn(axis)
    else:
        r0 = (np.eye(3) if start == "identity" else
              Rotation.random(random_state=np.random.default_rng(seed)).as_matrix())
        r1 = r0 @ Rotation.from_rotvec(angle * np.array(axis) / np.linalg.norm(axis)).as_matrix()
    traj = Trajectory.from_arrays([0.0, 1.0], np.zeros((2, 3)), [r0, r1])
    times = np.array(fractions)
    _, rotations = sample_trajectory(traj, times)
    n = len(times)
    assert np.array_equal(rotations, scipy_turn(np.repeat(r0[None], n, 0),
                                                np.repeat(r1[None], n, 0), times))


JITTER = 1e-9  # the orthonormality and determinant slack that `Trajectory` accepts
JITTER_ATOL = 1e-8  # a jittered step's sampled rotation against Slerp of the projected poses


def _jittered(rotations, rng):
    """Each rotation plus a uniform entry error, scaled down where needed so that
    the row's orthonormality and determinant errors stay within 0.9 JITTER."""
    error = rng.uniform(-JITTER, JITTER, rotations.shape)
    jittered = rotations + error
    gram = np.swapaxes(jittered, 1, 2) @ jittered
    drift = np.maximum(np.abs(gram - np.eye(3)).max(axis=(1, 2)),
                       np.abs(np.linalg.det(jittered) - 1.0))
    return rotations + np.minimum(1.0, 0.9 * JITTER / drift)[:, None, None] * error


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_sampler_on_jittered_rotations(seed, n):
    # every step turns by at most pi - 1e-3 rad: a step within 1e-9 of a half
    # turn may be carried across it by the jitter, where any geodesic flips
    rng = np.random.default_rng(seed)
    steps = Rotation.from_rotvec(rng.uniform(0.0, np.pi - 1e-3, (n - 1, 1))
                                 * Rotation.random(n - 1, random_state=rng).apply([1.0, 0.0, 0.0]))
    exact = [Rotation.random(random_state=rng)]
    for step in steps:
        exact.append(exact[-1] * step)
    rotations = _jittered(Rotation.concatenate(exact).as_matrix(), rng)
    stamps = np.cumsum(rng.uniform(0.01, 0.5, n))
    traj = Trajectory.from_arrays(stamps, rng.uniform(-3.0, 3.0, (n, 3)), rotations)
    times = rng.uniform(stamps[0], stamps[-1], 40)
    _, sampled = sample_trajectory(traj, times)
    gram = np.swapaxes(sampled, 1, 2) @ sampled
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape), rtol=0, atol=1e-8)
    geodesic = Slerp(stamps, Rotation.from_matrix(rotations))(times).as_matrix()
    np.testing.assert_allclose(sampled, geodesic, rtol=0, atol=JITTER_ATOL)


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

import math

import numpy as np
import pytest

from doatrack.geometry import (ARRAY_PRESETS, Doa, DegenerateGeometryError, Pose,
                               Trajectory, doa_to_unit_vector, get_array_preset,
                               global_to_local, identity_pose, interpolate_pose,
                               sample_trajectory, static_trajectory, unit_vector_to_doa,
                               wrap_angle)


def test_wrap_angle_range_and_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(math.radians(190)) == pytest.approx(math.radians(-170))
    rng = np.random.default_rng(7)
    for a in rng.uniform(-50, 50, size=500):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        # wrapping preserves the angle modulo 2*pi
        assert abs(math.remainder(w - a, 2 * math.pi)) < 1e-9


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))
    with pytest.raises(ValueError):
        wrap_angle(float("inf"))


def test_doa_unit_vector_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(500):
        az = rng.uniform(-math.pi, math.pi)
        el = rng.uniform(0.01, math.pi - 0.01)
        d = Doa(az, el)
        v = doa_to_unit_vector(d)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        back = unit_vector_to_doa(v)
        assert back.azimuth == pytest.approx(az, abs=1e-9)
        assert back.elevation == pytest.approx(el, abs=1e-9)


def test_doa_axes():
    assert np.allclose(doa_to_unit_vector(Doa(0.0, math.pi / 2)), [1, 0, 0])
    assert np.allclose(doa_to_unit_vector(Doa(math.pi / 2, math.pi / 2)), [0, 1, 0])
    assert np.allclose(doa_to_unit_vector(Doa(0.0, 0.0)), [0, 0, 1], atol=1e-12)


def test_global_to_local_identity_pose():
    d = global_to_local([1.0, 1.0, 0.0], identity_pose())
    assert d.azimuth == pytest.approx(math.pi / 4)
    assert d.elevation == pytest.approx(math.pi / 2)


def test_global_to_local_rotated_array():
    # array yawed +90 deg: a source on global +y sits on the local +x axis
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    d = global_to_local([0.0, 2.0, 0.0], Pose(np.zeros(3), rot))
    assert d.azimuth == pytest.approx(0.0, abs=1e-12)


def test_global_to_local_translation():
    d = global_to_local([3.0, 1.0, 0.0], Pose(np.array([3.0, 0.0, 0.0]), np.eye(3)))
    assert d.azimuth == pytest.approx(math.pi / 2)


def test_global_to_local_degenerate():
    with pytest.raises(DegenerateGeometryError):
        global_to_local([1e-9, 0.0, 0.0], identity_pose())


def test_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        Pose(np.zeros(3), 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.diag([1.0, 1.0, -1.0]))  # det -1


def test_interpolate_pose_linear_translation():
    poses = (Pose(np.zeros(3), np.eye(3), 0.0), Pose(np.array([2.0, 0, 0]), np.eye(3), 1.0))
    traj = Trajectory(poses, 1.0)
    p = interpolate_pose(traj, 0.25)
    assert np.allclose(p.translation, [0.5, 0, 0])


def test_interpolate_pose_geodesic_rotation():
    # 90 deg yaw over one second: halfway must be exactly 45 deg
    a = math.pi / 2
    rot1 = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0],
                     [0, 0, 1]])
    traj = Trajectory((Pose(np.zeros(3), np.eye(3), 0.0), Pose(np.zeros(3), rot1, 1.0)), 1.0)
    p = interpolate_pose(traj, 0.5)
    half = math.pi / 4
    expected = np.array([[math.cos(half), -math.sin(half), 0],
                         [math.sin(half), math.cos(half), 0], [0, 0, 1]])
    assert np.allclose(p.rotation, expected, atol=1e-12)
    assert np.allclose(p.rotation.T @ p.rotation, np.eye(3), atol=1e-12)


def test_interpolate_pose_no_extrapolation():
    traj = static_trajectory(identity_pose(), 1.0)
    with pytest.raises(ValueError):
        interpolate_pose(traj, 1.5)
    with pytest.raises(ValueError):
        interpolate_pose(traj, -0.5)


def test_interpolate_pose_hits_samples_exactly():
    rng = np.random.default_rng(11)
    poses = []
    for i in range(5):
        q = rng.standard_normal((3, 3))
        u, _, vt = np.linalg.svd(q)
        rot = u @ vt
        if np.linalg.det(rot) < 0:
            rot[:, 0] *= -1
        poses.append(Pose(rng.standard_normal(3), rot, float(i)))
    traj = Trajectory(tuple(poses), 1.0)
    for p in poses:
        q = interpolate_pose(traj, p.timestamp)
        assert np.allclose(q.translation, p.translation)
        assert np.allclose(q.rotation, p.rotation, atol=1e-9)


def test_sample_trajectory_keeps_a_constant_rotation_exactly():
    yaw = math.radians(30.0)
    rot = np.array([[math.cos(yaw), -math.sin(yaw), 0], [math.sin(yaw), math.cos(yaw), 0],
                    [0, 0, 1]])
    traj = static_trajectory(Pose(np.array([1.0, 2.0, 0.0]), rot), 1.0)
    _, rotations = sample_trajectory(traj, np.linspace(0.0, 1.0, 97))
    assert np.array_equal(rotations, np.broadcast_to(rot, rotations.shape))


def test_trajectory_rejects_unordered():
    with pytest.raises(ValueError):
        Trajectory((identity_pose(1.0), identity_pose(0.5)), 120.0)


def test_trajectory_timestamps_built_once_and_read_only():
    traj = static_trajectory(identity_pose(0.25), 1.0)
    times = traj.timestamps
    assert traj.timestamps is times
    assert not times.flags.writeable
    with pytest.raises(ValueError):
        times[0] = 0.0
    assert np.array_equal(times, [p.timestamp for p in traj.samples])


@pytest.mark.parametrize("name,count,radius", [
    ("robot_head", 12, 0.05),
    ("eigenmike", 32, 0.042),
])
def test_spherical_presets(name, count, radius):
    geom = get_array_preset(name)
    assert geom.mic_count == count
    assert np.allclose(np.linalg.norm(geom.mic_positions, axis=1), radius, atol=1e-9)
    # near-origin centroid: the layouts are nominally balanced spheres
    assert np.linalg.norm(geom.centroid) < 1e-4


def test_dicit_presets():
    full = get_array_preset("dicit")
    assert full.mic_count == 15
    # all mics on the y axis, symmetric about the origin
    assert np.allclose(full.mic_positions[:, [0, 2]], 0.0)
    ys = np.sort(full.mic_positions[:, 1])
    assert np.allclose(ys, -ys[::-1], atol=1e-12)
    assert ys.max() == pytest.approx(1.12)
    sub = get_array_preset("dicit_32cm")
    assert sub.mic_count == 5
    assert np.allclose(np.sort(sub.mic_positions[:, 1]),
                       [-0.64, -0.32, 0.0, 0.32, 0.64])


def test_hearing_aids_preset():
    geom = get_array_preset("hearing_aids")
    assert geom.mic_count == 4


def test_unknown_preset():
    with pytest.raises(KeyError):
        get_array_preset("nonexistent")
    assert set(ARRAY_PRESETS) >= {"robot_head", "eigenmike", "dicit",
                                  "dicit_32cm", "hearing_aids"}

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doatrack.geometry import (ARRAY_PRESETS, ArrayGeometry, Doa, DegenerateGeometryError, Pose,
                               Trajectory, TrajectoryError, doa_to_unit_vector, get_array_preset,
                               global_to_local_doas, identity_pose, interpolate_pose,
                               sample_trajectory, static_trajectory, unit_vector_to_doa,
                               wrap_angle)


def test_wrap_angle_range_and_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert wrap_angle(3 * math.pi) == -math.pi
    assert wrap_angle(math.radians(190)) == math.radians(-170)
    rng = np.random.default_rng(7)
    angles = rng.uniform(-50, 50, size=500)
    assert wrap_angle(angles).tolist() == [wrap_angle(a) for a in angles]
    for a in angles:
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        # wrapping preserves the angle modulo 2*pi
        assert abs(math.remainder(w - a, 2 * math.pi)) < 1e-9


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))
    with pytest.raises(ValueError):
        wrap_angle(float("inf"))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_wrap_angle_rejects_non_finite_on_every_path(angle):
    for value in (angle, np.float64(angle), np.array(angle), np.array([0.0, angle])):
        with pytest.raises(ValueError, match="angle must be finite"):
            wrap_angle(value)


def _nudged(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# finite floats, and floats within two ulps of a multiple k pi, where the
# remainder of x + pi by 2 pi can round up to 2 pi
FINITE_ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda k, steps: _nudged(k * math.pi, steps),
              st.integers(-10**6, 10**6), st.integers(-2, 2)))


@settings(max_examples=400, deadline=None)
@given(FINITE_ANGLES)
@example(math.nextafter(-math.pi, -math.inf))
@example(math.nextafter(math.pi, -math.inf))
@example(math.nextafter(-3 * math.pi, -math.inf))
def test_wrap_angle_lands_in_range_and_is_idempotent(angle):
    for wrapped in (wrap_angle(angle), wrap_angle(np.array([angle]))[0]):
        assert -math.pi <= wrapped < math.pi
        assert wrap_angle(float(wrapped)) == wrapped
        assert wrap_angle(np.array([wrapped]))[0] == wrapped


# floats within three ulps of 0 (either sign) and of odd multiples of pi,
# where x + pi lands within rounding of a multiple of 2 pi
EDGE_ANGLES = st.builds(
    _nudged,
    st.one_of(st.sampled_from([0.0, -0.0]),
              st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
              .map(lambda k: (2 * k + 1) * math.pi)),
    st.integers(-3, 3))
LIMIT = 16  # arrays up to this size were once wrapped one float at a time
WRAP_SHAPES = [(1,), (LIMIT,), (LIMIT + 1,), (1000,), (4, 4), (3, 7), (2, 500)]


def _float_path(angles):
    return np.array([wrap_angle(float(a)) for a in angles.ravel()]).reshape(angles.shape)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WRAP_SHAPES),
       st.lists(st.one_of(FINITE_ANGLES, EDGE_ANGLES), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1))
# the one float whose remainder rounds up to 2 pi, on both sides of the limit
@example((LIMIT,), [math.nextafter(-math.pi, -math.inf)], 0)
@example((LIMIT + 1,), [math.nextafter(-math.pi, -math.inf)], 0)
@example((2, 500), [math.nextafter(-math.pi, -math.inf), -0.0, math.pi], 1)
def test_array_wrap_angle_is_bitwise_the_float_path(shape, specials, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-50.0, 50.0, shape)
    flat = angles.reshape(-1)
    at = rng.choice(flat.size, min(len(specials), flat.size), replace=False)
    flat[at] = specials[:len(at)]
    # the arrays themselves, their transposes and the azimuth column of a
    # particle-bank-like (n, size, 2) array, a strided view
    particles = np.stack([angles, -angles], axis=-1)
    for view in (angles, angles.T, particles[..., 0]):
        got = wrap_angle(view)
        assert got.shape == view.shape
        assert np.array_equal(got.view(np.int64), _float_path(view).view(np.int64))


@pytest.mark.parametrize("size", [1, LIMIT, LIMIT + 1, 1000])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wrap_angle_rejects_a_non_finite_element_on_both_sides_of_the_size_limit(size, bad):
    for at in {0, size - 1}:
        angles = np.zeros((2, size, 2))
        angles[1, at, 0] = bad
        for value in (angles[1, :, 0], angles[..., 0]):
            with pytest.raises(ValueError, match="angle must be finite"):
                wrap_angle(value)


def test_wrap_angle_maps_the_float_below_minus_pi_to_minus_pi():
    below = math.nextafter(-math.pi, -math.inf)
    assert wrap_angle(below) == -math.pi
    assert wrap_angle(np.array(below)) == -math.pi
    assert wrap_angle(7) == wrap_angle(7.0)
    assert wrap_angle(np.array([below, math.pi])).tolist() == [-math.pi, -math.pi]
    assert Doa(below).azimuth == -math.pi


@settings(max_examples=400, deadline=None)
@given(FINITE_ANGLES)
@example(math.nextafter(-math.pi, -math.inf))
@example(math.pi)
@example(-math.pi)
@example(0.0)
@example(-0.0)
@example(2 * math.pi)
@example(-2 * math.pi)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(math.nextafter(math.pi, 0.0))
@example(1e300)
@example(-1e300)
def test_scalar_wrap_angle_is_bitwise_the_array_path(angle):
    reference = wrap_angle(np.array([angle]))[0]
    for value in (angle, np.float64(angle), np.array(angle)):
        got = wrap_angle(value)
        assert type(got) is float
        assert np.float64(got).tobytes() == reference.tobytes()


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


def test_global_to_local_doas_identity_pose():
    az, el = global_to_local_doas(np.array([[1.0, 1.0, 0.0]]), np.zeros((1, 3)), np.eye(3)[None])
    assert az[0] == pytest.approx(math.pi / 4)
    assert el[0] == pytest.approx(math.pi / 2)


def test_global_to_local_doas_rotated_array():
    # array yawed +90 deg: a source on global +y sits on the local +x axis
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    az, _ = global_to_local_doas(np.array([[0.0, 2.0, 0.0]]), np.zeros((1, 3)), rot[None])
    assert az[0] == pytest.approx(0.0, abs=1e-12)


def test_global_to_local_doas_translation():
    az, _ = global_to_local_doas(np.array([[3.0, 1.0, 0.0]]), np.array([[3.0, 0.0, 0.0]]),
                                 np.eye(3)[None])
    assert az[0] == pytest.approx(math.pi / 2)


def test_global_to_local_doas_degenerate():
    with pytest.raises(DegenerateGeometryError):
        global_to_local_doas(np.array([[1e-9, 0.0, 0.0]]), np.zeros((1, 3)), np.eye(3)[None])


def test_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        Pose(np.zeros(3), 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.diag([1.0, 1.0, -1.0]))  # det -1


def test_interpolate_pose_linear_translation():
    poses = (Pose(np.zeros(3), np.eye(3), 0.0), Pose(np.array([2.0, 0, 0]), np.eye(3), 1.0))
    traj = Trajectory(poses)
    p = interpolate_pose(traj, 0.25)
    assert np.allclose(p.translation, [0.5, 0, 0])


def test_interpolate_pose_geodesic_rotation():
    # 90 deg yaw over one second: halfway must be exactly 45 deg
    a = math.pi / 2
    rot1 = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0],
                     [0, 0, 1]])
    traj = Trajectory((Pose(np.zeros(3), np.eye(3), 0.0), Pose(np.zeros(3), rot1, 1.0)))
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
    traj = Trajectory(tuple(poses))
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


@pytest.mark.parametrize("kind", ["static preset", "rotating array", "source walk"])
def test_sample_trajectory_reads_on_sample_times_exactly(kind):
    # at its own timestamps, moved by up to 5e-13 s, a trajectory gives its
    # samples; with one mid-step time added the call interpolates, and the
    # on-sample rows keep the same bits
    from doatrack.simulate import task_preset
    scene = task_preset(6, 3, duration=2.0)
    traj = {"static preset": task_preset(1, 3, duration=2.0).sources[0].trajectory,
            "rotating array": scene.array_trajectory,
            "source walk": scene.sources[0].trajectory}[kind]
    stamps = traj.timestamps
    n = len(stamps)
    nudge = np.where(np.arange(n) % 2, 5e-13, -5e-13)
    mid = (stamps[3] + stamps[4]) / 2
    results = [sample_trajectory(traj, times) for times in
               (stamps, stamps + nudge, stamps - nudge, np.append(stamps, mid))]
    for translations, rotations in results:
        assert translations[:n].tobytes() == traj.translations.tobytes()
        assert rotations[:n].tobytes() == traj.rotations.tobytes()
    translations, rotations = results[-1]
    assert translations.shape == (n + 1, 3) and rotations.shape == (n + 1, 3, 3)
    if kind != "static preset":  # the mid-step pose lies between its neighbours
        assert not np.array_equal(translations[n], traj.translations[3])
    # the arrays are the caller's own
    before = traj.translations.copy(), traj.rotations.copy()
    translations, rotations = sample_trajectory(traj, stamps)
    translations[:] = 7.0
    rotations[:] = 7.0
    assert np.array_equal(traj.translations, before[0])
    assert np.array_equal(traj.rotations, before[1])
    empty = sample_trajectory(traj, [])
    assert empty[0].shape == (0, 3) and empty[1].shape == (0, 3, 3)


def test_trajectory_rejects_unordered():
    with pytest.raises(ValueError):
        Trajectory((identity_pose(1.0), identity_pose(0.5)))


def test_trajectory_timestamps_built_once_and_read_only():
    traj = static_trajectory(identity_pose(0.25), 1.0)
    times = traj.timestamps
    assert traj.timestamps is times
    for values in (times, traj.translations, traj.rotations):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0
    assert np.array_equal(times, [p.timestamp for p in traj.samples])


def _rotation(rng):
    u, _, vt = np.linalg.svd(rng.standard_normal((3, 3)))
    return u @ vt * np.linalg.det(u @ vt)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-12, 3e-10, 1e-9, 3e-9, 1e-6]),
       st.sampled_from(["none", "reflect", "nan", "repeat_time", "swap_times", "inf_shift"]))
def test_from_arrays_accepts_and_rejects_what_poses_do(n, seed, jitter, fault):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.001, 1.0, n)) - 0.5
    translations = rng.uniform(-3, 3, (n, 3))
    rotations = np.array([_rotation(rng) for _ in range(n)])
    rotations += jitter * rng.standard_normal(rotations.shape)
    row = int(rng.integers(n))
    if fault == "reflect":
        rotations[row, :, 0] *= -1.0
    elif fault == "nan":
        translations[row, 1] = np.nan
    elif fault == "inf_shift":
        times[row] = np.inf
    elif fault == "repeat_time" and n > 1:
        times[row] = times[row - 1]
    elif fault == "swap_times" and n > 1:
        times[[row - 1, row]] = times[[row, row - 1]]
    try:
        by_pose = Trajectory(tuple(Pose(translations[i], rotations[i], times[i])
                                   for i in range(n)))
    except ValueError:
        by_pose = None
    try:
        columnar = Trajectory.from_arrays(times, translations, rotations)
    except TrajectoryError as exc:
        assert 0 <= exc.index < n
        columnar = None
    assert (by_pose is None) == (columnar is None)
    if columnar is not None:
        for name in ("timestamps", "translations", "rotations"):
            assert getattr(columnar, name).tobytes() == getattr(by_pose, name).tobytes()


def test_from_arrays_names_the_first_bad_row():
    times = np.arange(6) / 120.0
    rotations = np.broadcast_to(np.eye(3), (6, 3, 3)).copy()
    rotations[4] *= 2.0
    rotations[2] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(TrajectoryError, match="pose 2: rotation matrix determinant") as info:
        Trajectory.from_arrays(times, np.zeros((6, 3)), rotations)
    assert info.value.index == 2
    times[3] = times[2]
    with pytest.raises(TrajectoryError, match="pose 3: pose timestamps must be strictly") as info:
        Trajectory.from_arrays(times, np.zeros((6, 3)), np.eye(3)[None].repeat(6, 0))
    with pytest.raises(ValueError, match="at least one pose"):
        Trajectory.from_arrays([], np.zeros((0, 3)), np.zeros((0, 3, 3)))
    with pytest.raises(ValueError):
        Trajectory.from_arrays([0.0, 1.0], np.zeros((3, 3)), np.eye(3)[None].repeat(2, 0))


def test_samples_round_trip_the_arrays():
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.001, 0.1, 40))
    translations = rng.uniform(-3, 3, (40, 3))
    rotations = np.array([_rotation(rng) for _ in range(40)])
    traj = Trajectory.from_arrays(times, translations, rotations)
    # the arrays are copies: the caller's stay writeable and unshared
    assert translations.flags.writeable and not np.shares_memory(traj.translations, translations)
    samples = traj.samples
    assert traj.samples is samples
    assert [p.timestamp for p in samples] == times.tolist()
    assert all(type(p.timestamp) is float for p in samples)
    rebuilt = Trajectory(samples)
    for name, values in (("timestamps", times), ("translations", translations),
                         ("rotations", rotations)):
        assert getattr(rebuilt, name).tobytes() == values.tobytes()
        assert getattr(traj, name).tobytes() == values.tobytes()


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


@pytest.mark.parametrize("name", sorted(ARRAY_PRESETS))
def test_each_preset_is_built_once_and_read_only(name):
    geom = get_array_preset(name)
    assert get_array_preset(name) is geom
    assert np.array_equal(geom.mic_positions, ARRAY_PRESETS[name]().mic_positions)
    with pytest.raises(ValueError, match="read-only"):
        geom.mic_positions[0, 0] = 1.0


def test_array_geometry_keeps_a_read_only_copy_of_its_positions():
    positions = np.eye(3)
    geom = ArrayGeometry("three", positions)
    positions[0, 0] = 5.0
    assert geom.mic_positions[0, 0] == 1.0
    assert positions.flags.writeable and not geom.mic_positions.flags.writeable


def test_unknown_preset():
    with pytest.raises(KeyError):
        get_array_preset("nonexistent")
    assert set(ARRAY_PRESETS) >= {"robot_head", "eigenmike", "dicit",
                                  "dicit_32cm", "hearing_aids"}

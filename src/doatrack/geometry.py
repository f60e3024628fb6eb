"""Coordinate frames, array geometry presets, pose trajectories and angular arithmetic.

A `Trajectory` is columnar: three read-only arrays, `timestamps` (T,),
`translations` (T, 3) and `rotations` (T, 3, 3), checked in one batched pass
by `Trajectory.from_arrays`. Its `Pose` objects are built only when
`samples` is first read.

Conventions used throughout the toolkit:

* Azimuth is measured counter-clockwise from the +x axis and stored wrapped
  into [-pi, pi).
* Elevation is the inclination from the +z axis, in [0, pi] (0 at the pole).
* A direction-of-arrival unit vector points from the array origin towards
  the source: ``u = [sin(el)*cos(az), sin(el)*sin(az), cos(el)]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s, in simulation, steering and VAP alignment alike
GROUND_TRUTH_RATE_HZ = 120.0  # pose samples and evaluation clock
CORPUS_SAMPLE_RATE_HZ = 48000  # of LOCATA recordings, and of simulated scenes by default
POSE_TIME_TOLERANCE_S = 1e-9  # by which a trajectory or the pose grid may miss a duration


class DegenerateGeometryError(ValueError):
    """Raised when a geometric quantity is undefined (coincident points etc.)."""


def wrap_angle(angle):
    """Wrap an angle (radians) into [-pi, pi). Accepts scalars or arrays.

    Two paths give the same bits. A float (np.float64 included), or a 0-d
    array, is wrapped in Python float arithmetic, whose % is fmod with a
    sign fix: add the divisor to a negative remainder. An array takes
    np.fmod and the same sign fix, which is how np.mod computes its
    remainder; only the sign of a zero remainder can differ, and
    subtracting pi removes it (np.mod made the particle tracker, which wraps
    strided (n, 500) azimuth columns, about 5 % slower). When angle + pi is
    a tiny negative number, the sign fix adds 2 pi and rounds to 2 pi, which
    would wrap to +pi; both paths return -pi there, as wrapping +pi does.
    """
    if isinstance(angle, float):
        if not math.isfinite(angle):
            raise ValueError("angle must be finite")
        wrapped = (float(angle) + math.pi) % (2.0 * math.pi) - math.pi
        return -math.pi if wrapped == math.pi else wrapped
    angle = np.asarray(angle, dtype=float)
    if angle.ndim == 0:
        return wrap_angle(float(angle))
    if not np.isfinite(angle).all():
        raise ValueError("angle must be finite")
    wrapped = angle + np.pi
    np.fmod(wrapped, 2.0 * np.pi, out=wrapped)
    np.add(wrapped, 2.0 * np.pi, out=wrapped, where=wrapped < 0)
    wrapped -= np.pi
    np.copyto(wrapped, -np.pi, where=wrapped == np.pi)
    return wrapped


@dataclass(frozen=True)
class Doa:
    """Direction of arrival: azimuth in [-pi, pi), elevation (inclination) in [0, pi]."""

    azimuth: float
    elevation: float = np.pi / 2

    def __post_init__(self):
        object.__setattr__(self, "azimuth", wrap_angle(self.azimuth))
        object.__setattr__(self, "elevation", float(np.clip(self.elevation, 0.0, np.pi)))


def doa_to_unit_vector(d: Doa) -> np.ndarray:
    """Unit vector pointing from the array origin towards the source."""
    se = np.sin(d.elevation)
    return np.array([se * np.cos(d.azimuth), se * np.sin(d.azimuth), np.cos(d.elevation)])


def unit_vector_to_doa(v) -> Doa:
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise DegenerateGeometryError("zero-length direction vector")
    v = v / norm
    elevation = float(np.arccos(np.clip(v[2], -1.0, 1.0)))
    azimuth = float(np.arctan2(v[1], v[0]))
    return Doa(azimuth, elevation)


@dataclass(frozen=True)
class Pose:
    """Rigid-body pose: global position of the array origin plus orientation.

    ``rotation`` maps local-frame vectors into the global frame.
    """

    translation: np.ndarray
    rotation: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(3)
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        fault = _first_bad_pose(np.array([self.timestamp], dtype=float), t[None], r[None])
        if fault is not None:
            raise ValueError(fault[1])
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", r)


def _first_bad_pose(timestamps, translations, rotations):
    """(row, reason) of the first of T poses that is not finite or whose
    rotation is not orthonormal with determinant +1, each within 1e-9; None
    if every row passes. A row's reasons are tried in that order."""
    finite = (np.isfinite(timestamps) & np.isfinite(translations).all(axis=1)
              & np.isfinite(rotations).all(axis=(1, 2)))
    if not finite.all():
        return int(np.argmin(finite)), "pose is not finite"
    orthonormal = (np.abs(np.swapaxes(rotations, 1, 2) @ rotations - np.eye(3))
                   .max(axis=(1, 2)) <= 1e-9)
    proper = np.abs(np.linalg.det(rotations) - 1.0) <= 1e-9
    if (orthonormal & proper).all():
        return None
    row = int(np.argmin(orthonormal & proper))
    if not orthonormal[row]:
        return row, "rotation matrix is not orthonormal"
    return row, "rotation matrix determinant is not +1"


def identity_pose(timestamp: float = 0.0) -> Pose:
    return Pose(np.zeros(3), np.eye(3), timestamp)


def row_norms(v) -> np.ndarray:
    """Row norms of an (N, 3) array, each by np.linalg.norm's one-vector dot product."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def upper_pairs(count: int) -> np.ndarray:
    """The microphone index pairs (m, l), m < l, in row-major order, as a
    (pairs, 2) array: the pair order of every pairwise quantity."""
    return np.stack(np.triu_indices(count, 1), axis=1)


def global_to_local_doas(points, translations, rotations):
    """(azimuths, elevations) of each global-frame point (N, 3) seen from the
    array pose of its row, as `Doa` holds them."""
    local = (np.swapaxes(rotations, 1, 2) @ (points - translations)[:, :, None])[:, :, 0]
    norms = row_norms(local)
    if np.any(norms < 1e-6):
        raise DegenerateGeometryError("source coincides with the array origin")
    x, y, z = (local / norms[:, None]).T
    return wrap_angle(np.arctan2(y, x)), np.arccos(np.clip(z, -1.0, 1.0))


@dataclass(frozen=True)
class ArrayGeometry:
    """Named microphone layout; read-only positions in meters in the array's local frame."""

    name: str
    mic_positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.mic_positions, dtype=float, ndmin=2)
        pos.flags.writeable = False
        if pos.shape[0] < 2 or pos.shape[1] != 3:
            raise ValueError("need at least two microphones with 3D positions")
        dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() <= 1e-6:
            raise ValueError("two microphones coincide")
        object.__setattr__(self, "mic_positions", pos)

    @property
    def mic_count(self) -> int:
        return self.mic_positions.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        return self.mic_positions.mean(axis=0)


class TrajectoryError(ValueError):
    """A pose sample that cannot be part of a trajectory; `index` is its row."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"pose {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """Time-ordered poses, nominally at the ground-truth rate of 120 Hz, held
    as three read-only arrays: `timestamps` (T,), `translations` (T, 3) and
    `rotations` (T, 3, 3), row i mapping array-local vectors into the global
    frame at `timestamps[i]`.

    `Trajectory(poses)` stacks a sequence of `Pose`s; `Trajectory.from_arrays`
    takes the arrays themselves. Both check every row in one batched pass.
    """

    timestamps: np.ndarray
    translations: np.ndarray
    rotations: np.ndarray

    def __init__(self, samples):
        samples = tuple(samples)
        self._set_columns([p.timestamp for p in samples], [p.translation for p in samples],
                          [p.rotation for p in samples])

    @classmethod
    def from_arrays(cls, timestamps, translations, rotations) -> "Trajectory":
        """Trajectory of T poses from (T,) times, (T, 3) translations and
        (T, 3, 3) rotations, copied. Raises `TrajectoryError` naming the first
        row that `Pose` would reject, or whose time does not exceed the one
        before it, and ValueError on other shapes."""
        traj = cls.__new__(cls)
        traj._set_columns(timestamps, translations, rotations)
        return traj

    def _set_columns(self, timestamps, translations, rotations):
        times = np.array(timestamps, dtype=float)
        if times.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if len(times) == 0:
            raise ValueError("trajectory needs at least one pose")
        columns = (times, np.array(translations, dtype=float).reshape(len(times), 3),
                   np.array(rotations, dtype=float).reshape(len(times), 3, 3))
        fault = _first_bad_pose(*columns)
        if fault is not None:
            raise TrajectoryError(*fault)
        increasing = np.diff(times) > 0
        if not increasing.all():
            raise TrajectoryError(int(np.argmin(increasing)) + 1,
                                  "pose timestamps must be strictly increasing")
        # step i -> i + 1 turns unless its two rotations are equal entry by entry
        turns = (columns[2][1:] != columns[2][:-1]).reshape(-1, 9).any(axis=1)
        for name, values in zip(("timestamps", "translations", "rotations", "_turns"),
                                (*columns, turns)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @cached_property
    def samples(self) -> tuple:
        """The rows as `Pose`s, built on first read."""
        return tuple(Pose(t, r, float(s)) for s, t, r in
                     zip(self.timestamps, self.translations, self.rotations))

    @property
    def start_time(self) -> float:
        return float(self.timestamps[0])

    @property
    def end_time(self) -> float:
        return float(self.timestamps[-1])


def ground_truth_sample_count(duration: float) -> int:
    """Samples at the ground-truth rate, from 0, that reach `duration`.

    A duration within POSE_TIME_TOLERANCE_S of the 120 Hz grid ends on its grid point;
    any other ends on the first grid point past it.
    """
    ticks = duration * GROUND_TRUTH_RATE_HZ
    on_grid = round(ticks)
    if abs(duration - on_grid / GROUND_TRUTH_RATE_HZ) <= POSE_TIME_TOLERANCE_S:
        return int(on_grid) + 1
    return math.ceil(ticks) + 1


def static_trajectory(pose: Pose, duration: float) -> Trajectory:
    """Constant-pose trajectory covering [pose.timestamp, pose.timestamp + duration]
    at the ground-truth rate."""
    n = ground_truth_sample_count(duration)
    return Trajectory.from_arrays(pose.timestamp + np.arange(n) / GROUND_TRUTH_RATE_HZ,
                                  np.broadcast_to(pose.translation, (n, 3)),
                                  np.broadcast_to(pose.rotation, (n, 3, 3)))


def _turned(step, alpha: float) -> list:
    """`alpha` of the turn `step` (3 lists of 3 floats) as a rotation matrix:
    scipy's `Rotation.from_rotvec(alpha * Rotation.from_matrix(step,
    assume_valid=True).as_rotvec()).as_matrix()` bit for bit, on libm's `math`
    (the chain of scipy/spatial/transform/_rotation_xp.py)."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = step
    trace = m00 + m11 + m22
    choice = max(range(4), key=(m00, m11, m22, trace).__getitem__)  # the first, as np.argmax
    q = [[1 - trace + 2 * m00, m10 + m01, m20 + m02, m21 - m12],
         [m10 + m01, 1 - trace + 2 * m11, m21 + m12, m02 - m20],
         [m20 + m02, m21 + m12, 1 - trace + 2 * m22, m10 - m01],
         [m21 - m12, m02 - m20, m10 - m01, 1 + trace]][choice]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    x, y, z, w = (c / norm for c in q)
    if w < 0 or (w == 0 and (x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))))):
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    a2 = angle * angle
    scale = 2 + a2 / 12 + 7 * a2 * a2 / 2880 if angle <= 1e-3 else angle / math.sin(angle / 2)
    x, y, z = alpha * (scale * x), alpha * (scale * y), alpha * (scale * z)
    angle = math.sqrt(x * x + y * y + z * z)
    a2 = angle * angle
    scale = 0.5 - a2 / 48 + a2 * a2 / 3840 if angle <= 1e-3 else math.sin(angle / 2) / angle
    x, y, z, w = scale * x, scale * y, scale * z, math.cos(angle / 2)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return [[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
            [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
            [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]]


def _sample_translations(traj: Trajectory, times):
    """`sample_trajectory`'s translations, each time's nearest sample, and
    None when every time is on a sample, else the (idx, alpha, on_sample) of
    each time's step: what `sample_trajectory` needs for the rotations."""
    stamps = traj.timestamps
    t = np.asarray(times, dtype=float).reshape(-1)
    outside = (t < stamps[0] - 1e-12) | (t > stamps[-1] + 1e-12)
    if outside.any():
        raise ValueError(f"time {t[outside][0]} outside trajectory range "
                         f"[{stamps[0]}, {stamps[-1]}]")
    if len(stamps) == 1:
        nearest = np.zeros(len(t), dtype=np.intp)
        return traj.translations[nearest], nearest, None
    t = np.minimum(np.maximum(t, stamps[0]), stamps[-1])
    idx = np.minimum(np.searchsorted(stamps, t, side="right") - 1, len(stamps) - 2)
    alpha = ((t - stamps[idx]) / (stamps[idx + 1] - stamps[idx]))[:, None]
    nearest = np.where(alpha[:, 0] <= 0.5, idx, idx + 1)
    on_sample = np.abs(t - stamps[nearest]) < 1e-12
    if on_sample.all():
        return traj.translations[nearest], nearest, None
    translations = (1 - alpha) * traj.translations[idx] + alpha * traj.translations[idx + 1]
    translations[on_sample] = traj.translations[nearest[on_sample]]
    return translations, nearest, (idx, alpha, on_sample)


def sample_trajectory(traj: Trajectory, times):
    """Poses at many times: (translations (T, 3), rotations (T, 3, 3)).

    Translation is linear between the two neighbouring samples. A turning
    step follows the geodesic between its two rotations: the earlier
    rotation is turned by the elapsed fraction of the step's rotation
    vector, with the bits scipy's `Rotation` gives (`_turned`). A step whose
    two rotations are equal keeps that rotation exactly, and a time within
    1e-12 of a sample gets that sample's pose exactly; when every time does,
    the samples are copied out and nothing is interpolated. No
    extrapolation: every time must lie within the trajectory's time span.
    """
    translations, nearest, between = _sample_translations(traj, times)
    if between is None:
        return translations, traj.rotations[nearest]
    idx, alpha, on_sample = between
    rotations = traj.rotations[idx]
    rotations[on_sample] = traj.rotations[nearest[on_sample]]
    turn = ~on_sample & traj._turns[idx]
    if turn.any():
        r0 = rotations[turn]
        steps = np.swapaxes(r0, 1, 2) @ traj.rotations[idx[turn] + 1]
        rotations[turn] = r0 @ np.array([_turned(step, a) for step, a in
                                         zip(steps.tolist(), alpha[turn, 0].tolist())])
    return translations, rotations


def interpolate_pose(traj: Trajectory, t: float) -> Pose:
    """Pose at one time t; see `sample_trajectory`."""
    translations, rotations = sample_trajectory(traj, t)
    return Pose(translations[0], rotations[0], float(np.clip(t, traj.start_time, traj.end_time)))


# ---------------------------------------------------------------------------
# Array geometry presets
# ---------------------------------------------------------------------------

def robot_head_geometry() -> ArrayGeometry:
    """12-microphone pseudo-spherical head, radius 0.05 m.

    The published schematic gives no coordinates, so the preset uses a
    documented icosahedral layout of the same microphone count and scale.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.append([0.0, a, b])
            verts.append([a, b, 0.0])
            verts.append([b, 0.0, a])
    verts = np.array(verts)
    verts = 0.05 * verts / np.linalg.norm(verts[0])
    return ArrayGeometry("robot_head", verts)


# mh acoustics em32 capsule grid: (elevation from +z, azimuth) in degrees,
# on a rigid sphere of 42 mm radius (free-field positions only).
_EIGENMIKE_ANGLES_DEG = [
    (69, 0), (90, 32), (111, 0), (90, 328),
    (32, 0), (55, 45), (90, 69), (125, 45),
    (148, 0), (125, 315), (90, 291), (55, 315),
    (21, 91), (58, 90), (121, 90), (159, 89),
    (69, 180), (90, 212), (111, 180), (90, 148),
    (32, 180), (55, 225), (90, 249), (125, 225),
    (148, 180), (125, 135), (90, 111), (55, 135),
    (21, 269), (58, 270), (122, 270), (159, 271),
]


def eigenmike_geometry() -> ArrayGeometry:
    """32-microphone spherical array, 84 mm diameter."""
    radius = 0.042
    pos = []
    for el_deg, az_deg in _EIGENMIKE_ANGLES_DEG:
        el = np.radians(el_deg)
        az = np.radians(az_deg)
        pos.append(radius * doa_to_unit_vector(Doa(az, el)))
    return ArrayGeometry("eigenmike", np.array(pos))


def dicit_geometry() -> ArrayGeometry:
    """15-microphone nested linear array, 2.24 m aperture along the y axis.

    Nested uniform sub-arrays with 4, 8, 16 and 32 cm spacings. The array
    lies along y so that broadside corresponds to azimuth zero.
    """
    y = np.array([
        -1.12, -0.96, -0.64, -0.32, -0.16, -0.08, -0.04,
        0.0, 0.04, 0.08, 0.16, 0.32, 0.64, 0.96, 1.12,
    ])
    pos = np.zeros((15, 3))
    pos[:, 1] = y
    return ArrayGeometry("dicit", pos)


def dicit_subarray_32cm() -> ArrayGeometry:
    """DICIT sub-array with 32 cm spacings (y = -0.64 .. 0.64 m)."""
    y = np.array([-0.64, -0.32, 0.0, 0.32, 0.64])
    pos = np.zeros((5, 3))
    pos[:, 1] = y
    return ArrayGeometry("dicit_32cm", pos)


def hearing_aids_geometry() -> ArrayGeometry:
    """Two binaural devices, 2 mics each: 9 mm front-back spacing, ears 157 mm apart."""
    half_ear = 0.157 / 2.0
    half_mic = 0.009 / 2.0
    pos = np.array([
        [half_mic, half_ear, 0.0],
        [-half_mic, half_ear, 0.0],
        [half_mic, -half_ear, 0.0],
        [-half_mic, -half_ear, 0.0],
    ])
    return ArrayGeometry("hearing_aids", pos)


ARRAY_PRESETS = {
    "robot_head": robot_head_geometry,
    "eigenmike": eigenmike_geometry,
    "dicit": dicit_geometry,
    "dicit_32cm": dicit_subarray_32cm,
    "hearing_aids": hearing_aids_geometry,
}


@cache
def get_array_preset(name: str) -> ArrayGeometry:
    """The named preset, built once: every call returns the same geometry."""
    try:
        return ARRAY_PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown array preset {name!r}; available: {sorted(ARRAY_PRESETS)}"
        ) from None

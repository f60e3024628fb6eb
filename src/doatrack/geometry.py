"""Coordinate frames, array geometry presets, pose trajectories and angular arithmetic.

Conventions used throughout the toolkit:

* Azimuth is measured counter-clockwise from the +x axis and stored wrapped
  into [-pi, pi).
* Elevation is the inclination from the +z axis, in [0, pi] (0 at the pole).
* A direction-of-arrival unit vector points from the array origin towards
  the source: ``u = [sin(el)*cos(az), sin(el)*sin(az), cos(el)]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s, configurable per call where relevant
GROUND_TRUTH_RATE_HZ = 120.0  # pose samples and evaluation clock


class DegenerateGeometryError(ValueError):
    """Raised when a geometric quantity is undefined (coincident points etc.)."""


def wrap_angle(angle):
    """Wrap an angle (radians) into [-pi, pi). Accepts scalars or arrays."""
    angle = np.asarray(angle, dtype=float)
    if not np.all(np.isfinite(angle)):
        raise ValueError("angle must be finite")
    wrapped = np.mod(angle + np.pi, 2.0 * np.pi) - np.pi
    if wrapped.ndim == 0:
        return float(wrapped)
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
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation matrix determinant is not +1")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", r)


def identity_pose(timestamp: float = 0.0) -> Pose:
    return Pose(np.zeros(3), np.eye(3), timestamp)


def row_norms(v) -> np.ndarray:
    """Row norms of an (N, 3) array, each by np.linalg.norm's one-vector dot product."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def global_to_local_doas(points, translations, rotations) -> list:
    """Doa of each global-frame point (N, 3) seen from the array pose of its row."""
    local = (np.swapaxes(rotations, 1, 2) @ (points - translations)[:, :, None])[:, :, 0]
    norms = row_norms(local)
    if np.any(norms < 1e-6):
        raise DegenerateGeometryError("source coincides with the array origin")
    x, y, z = (local / norms[:, None]).T
    return [Doa(float(a), float(e))
            for a, e in zip(np.arctan2(y, x), np.arccos(np.clip(z, -1.0, 1.0)))]


def global_to_local(source_pos, array_pose: Pose) -> Doa:
    """DoA of a global-frame point seen from an array with the given pose."""
    return global_to_local_doas(np.reshape(source_pos, (1, 3)), array_pose.translation[None],
                                array_pose.rotation[None])[0]


@dataclass(frozen=True)
class ArrayGeometry:
    """Named microphone layout; positions are meters in the array's local frame."""

    name: str
    mic_positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.mic_positions, dtype=float))
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

    def pairs(self):
        """All unordered microphone index pairs (m < l)."""
        m = self.mic_count
        return [(i, j) for i in range(m) for j in range(i + 1, m)]


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered pose samples, nominally at the ground-truth rate of 120 Hz,
    also held as read-only arrays `timestamps`, `translations` and `rotations`."""

    samples: tuple
    rate_hz: float = GROUND_TRUTH_RATE_HZ

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise ValueError("trajectory needs at least one pose")
        times = np.array([p.timestamp for p in samples])
        if np.any(np.diff(times) <= 0):
            raise ValueError("pose timestamps must be strictly increasing")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        object.__setattr__(self, "samples", samples)
        for name, values in (("timestamps", times),
                             ("translations", np.array([p.translation for p in samples])),
                             ("rotations", np.array([p.rotation for p in samples]))):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def start_time(self) -> float:
        return self.samples[0].timestamp

    @property
    def end_time(self) -> float:
        return self.samples[-1].timestamp


def static_trajectory(pose: Pose, duration: float,
                      rate_hz: float = GROUND_TRUTH_RATE_HZ) -> Trajectory:
    """Constant-pose trajectory covering [pose.timestamp, pose.timestamp + duration]."""
    n = int(round(duration * rate_hz)) + 1
    samples = [
        Pose(pose.translation, pose.rotation, pose.timestamp + i / rate_hz) for i in range(n)
    ]
    return Trajectory(tuple(samples), rate_hz)


def sample_trajectory(traj: Trajectory, times):
    """Poses at many times: (translations (T, 3), rotations (T, 3, 3)).

    Translation is linear between the two neighbouring samples, rotation
    follows their geodesic (axis-angle). A time within 1e-12 of a sample
    gets that sample's pose exactly. No extrapolation: every time must lie
    within the trajectory's time span.
    """
    stamps = traj.timestamps
    t = np.asarray(times, dtype=float).reshape(-1)
    outside = (t < stamps[0] - 1e-12) | (t > stamps[-1] + 1e-12)
    if outside.any():
        raise ValueError(f"time {t[outside][0]} outside trajectory range "
                         f"[{stamps[0]}, {stamps[-1]}]")
    if len(stamps) == 1:
        return np.repeat(traj.translations, len(t), 0), np.repeat(traj.rotations, len(t), 0)
    t = np.minimum(np.maximum(t, stamps[0]), stamps[-1])
    idx = np.minimum(np.searchsorted(stamps, t, side="right") - 1, len(stamps) - 2)
    alpha = ((t - stamps[idx]) / (stamps[idx + 1] - stamps[idx]))[:, None]
    translations = (1 - alpha) * traj.translations[idx] + alpha * traj.translations[idx + 1]
    rotations = traj.rotations[idx]
    nearest = np.where(alpha[:, 0] <= 0.5, idx, idx + 1)
    on_sample = np.abs(t - stamps[nearest]) < 1e-12
    translations[on_sample] = traj.translations[nearest[on_sample]]
    rotations[on_sample] = traj.rotations[nearest[on_sample]]
    # only a step between two different orientations turns
    turn = ~on_sample & (rotations != traj.rotations[idx + 1]).reshape(-1, 9).any(axis=1)
    if turn.any():
        rotations[turn] = _geodesic(rotations[turn], traj.rotations[idx[turn] + 1], alpha[turn])
    return translations, rotations


def _geodesic(r0, r1, alpha):
    """Row by row, r0 turned by the fraction alpha (N, 1) of its rotation to r1."""
    rel = np.swapaxes(r0, 1, 2) @ r1
    cos_angle = (rel.trace(axis1=1, axis2=2) - 1.0) / 2.0
    angle = np.arccos(np.minimum(np.maximum(cos_angle, -1.0), 1.0))
    # the axis is the vector of rel's antisymmetric part, (r21 - r12, r02 - r20, r10 - r01)
    axis = (rel - np.swapaxes(rel, 1, 2))[:, [2, 0, 1], [1, 2, 0]]
    # near 180 deg that part vanishes; rel + I = 2 a a^T there, so its row with
    # the largest diagonal entry is the axis a, signs and all
    near_pi = np.pi - angle < 1e-6
    if near_pi.any():
        m = rel[near_pi] + np.eye(3)
        axis[near_pi] = m[np.arange(len(m)), np.argmax(np.diagonal(m, axis1=1, axis2=2), axis=1)]
    # no turn below 1e-12 rad, nor where rel is exactly symmetric (arccos of
    # its rounded trace can still read 1e-8): k = 0 leaves r0 as it is
    norms = row_norms(axis)[:, None]
    turn = (angle >= 1e-12) & (norms[:, 0] > 0.0)
    k = np.zeros((len(rel), 3, 3))  # the cross-product matrix [a]_x of the unit axis
    k[:, [2, 0, 1], [1, 2, 0]] = np.divide(axis, norms, out=np.zeros_like(axis),
                                           where=turn[:, None])
    k -= np.swapaxes(k, 1, 2)
    theta = (alpha[:, 0] * angle)[:, None, None]
    return r0 @ (np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k))


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

SPHERICAL_PRESETS = ("robot_head", "eigenmike")


def get_array_preset(name: str) -> ArrayGeometry:
    try:
        return ARRAY_PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown array preset {name!r}; available: {sorted(ARRAY_PRESETS)}"
        ) from None

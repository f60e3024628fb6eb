"""On-disk corpus and submission formats.

A recording is a directory holding one multichannel WAV plus plaintext
position, activity, and metadata tables; see FORMATS.md for the field
layouts. The layouts themselves live in formats.json so a schema revision
is a data edit, not a code change. Angles are degrees on disk and radians
in memory; audio is decoded to float64 in [-1, 1].
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .evaluate import Submission, VapTable
from .geometry import GROUND_TRUTH_RATE_HZ, Pose, Trajectory, wrap_angle
from .sigproc import MultichannelAudio

import logging

log = logging.getLogger(__name__)


class CorpusFormatError(Exception):
    """Malformed corpus or submission content; message carries file and line."""


def _formats() -> dict:
    text = resources.files("doatrack").joinpath("formats.json").read_text()
    return json.loads(text)


def _split_row(line: str):
    return [tok for tok in re.split(r"[,\s]+", line.strip()) if tok]


def _read_table(path: Path, n_columns: int) -> np.ndarray:
    """Parse a delimited numeric table, reporting the first bad line."""
    if not path.is_file():
        raise FileNotFoundError(f"missing required file: {path}")
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = _split_row(stripped)
            if len(tokens) != n_columns:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected {n_columns} columns, got {len(tokens)}")
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: non-numeric field") from None
    return np.array(rows, dtype=float).reshape(len(rows), n_columns)


def _trajectory_from_table(table: np.ndarray, path: Path) -> Trajectory:
    if len(table) == 0:
        raise CorpusFormatError(f"{path}: empty position table")
    try:
        poses = tuple(
            Pose(row[1:4], row[4:13].reshape(3, 3), row[0]) for row in table
        )
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None
    if len(poses) > 1:
        rate = 1.0 / float(np.median(np.diff(table[:, 0])))
    else:
        rate = GROUND_TRUTH_RATE_HZ
    return Trajectory(poses, rate)


def _trajectory_to_table(traj: Trajectory) -> np.ndarray:
    return np.column_stack([traj.timestamps, traj.translations, traj.rotations.reshape(-1, 9)])


@dataclass(frozen=True)
class RecordingBundle:
    """One recording: audio plus whatever positional truth the split provides.

    Evaluation-split bundles carry no source trajectories or activity table;
    those fields are None rather than an error.
    """

    audio: MultichannelAudio
    array_trajectory: Trajectory
    source_trajectories: dict | None  # {name: Trajectory}, development split only
    vaps: VapTable | None  # development split only
    metadata: dict

    def __post_init__(self):
        t0 = self.array_trajectory.timestamps[0]
        t1 = self.array_trajectory.timestamps[-1]
        if t1 <= t0:
            raise ValueError("positional coverage must span a positive interval")


def read_recording(path) -> RecordingBundle:
    """Load a recording directory per the shipped schema description."""
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"missing recording directory: {path}")
    fmt = _formats()

    meta_path = path / fmt["metadata_file"]
    if not meta_path.is_file():
        raise FileNotFoundError(f"missing required file: {meta_path}")
    try:
        metadata = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{meta_path}:{exc.lineno}: invalid JSON") from None

    audio_path = path / fmt["audio_file"]
    if not audio_path.is_file():
        raise FileNotFoundError(f"missing required file: {audio_path}")
    rate, samples = wavfile.read(audio_path)
    if rate != 48000:
        log.warning("%s: sample rate %d Hz, expected 48000", audio_path, rate)
    if samples.ndim == 1:
        samples = samples[:, None]
    if np.issubdtype(samples.dtype, np.integer):
        scale = float(2 ** (8 * samples.dtype.itemsize - 1))
        samples = samples.astype(np.float64) / scale
    else:
        samples = samples.astype(np.float64)
    audio = MultichannelAudio(samples=samples.T.copy(), sample_rate_hz=float(rate))

    n_pos_cols = len(fmt["position_columns"])
    array_path = path / fmt["array_position_file"]
    array_traj = _trajectory_from_table(_read_table(array_path, n_pos_cols), array_path)

    source_names = metadata.get("sources", [])
    source_trajs = None
    vaps = None
    if metadata.get("split", "dev") == "dev" and source_names:
        source_trajs = {}
        intervals = {}
        for name in source_names:
            pos_path = path / fmt["source_position_pattern"].format(name=name)
            source_trajs[name] = _trajectory_from_table(
                _read_table(pos_path, n_pos_cols), pos_path)
            vap_path = path / fmt["vap_pattern"].format(name=name)
            table = _read_table(vap_path, len(fmt["vap_columns"]))
            intervals[name] = tuple((row[0], row[1]) for row in table)
        vaps = VapTable(intervals)
    return RecordingBundle(audio=audio, array_trajectory=array_traj,
                           source_trajectories=source_trajs, vaps=vaps,
                           metadata=metadata)


def write_recording(bundle: RecordingBundle, path) -> None:
    """Write a bundle as a recording directory; inverse of read_recording."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    fmt = _formats()

    # float64 WAV keeps simulated audio bit-exact through a round trip
    wavfile.write(path / fmt["audio_file"],
                  int(bundle.audio.sample_rate_hz),
                  np.ascontiguousarray(bundle.audio.samples.T))

    def dump_table(name: str, table: np.ndarray, columns) -> None:
        header = "# " + " ".join(columns)
        np.savetxt(path / name, table, fmt="%.17g", header=header, comments="")

    dump_table(fmt["array_position_file"],
               _trajectory_to_table(bundle.array_trajectory), fmt["position_columns"])
    metadata = dict(bundle.metadata)
    if bundle.source_trajectories is not None:
        names = sorted(bundle.source_trajectories)
        metadata.setdefault("sources", names)
        metadata.setdefault("split", "dev")
        for name in names:
            dump_table(fmt["source_position_pattern"].format(name=name),
                       _trajectory_to_table(bundle.source_trajectories[name]),
                       fmt["position_columns"])
            spans = bundle.vaps.intervals[name] if bundle.vaps else ()
            dump_table(fmt["vap_pattern"].format(name=name),
                       np.array(spans, dtype=float).reshape(-1, 2), fmt["vap_columns"])
    (path / fmt["metadata_file"]).write_text(json.dumps(metadata, indent=2, sort_keys=True))


def bundle_from_scene(scene, recording_id: str = "sim") -> RecordingBundle:
    """Package a synthesized scene for the on-disk recording layout."""
    names = [f"src{i + 1}" for i in range(len(scene.source_trajectories))]
    trajs = dict(zip(names, scene.source_trajectories))
    vaps = VapTable(dict(zip(names, scene.source_vaps)))
    metadata = {
        "recording_id": recording_id,
        "task": scene.config.task,
        "array": scene.config.array.name,
        "split": "dev",
        "sources": names,
        "seed": scene.config.seed,
    }
    return RecordingBundle(audio=scene.audio, array_trajectory=scene.array_trajectory,
                           source_trajectories=trajs, vaps=vaps, metadata=metadata)


ANGLE_DECIMALS = 6


def write_submission(estimates, path) -> None:
    """Write time-ordered direction estimates as a plaintext submission table.

    Accepts either a Submission or an iterable of DoaEstimate. Angles go to
    disk in degrees at 6-decimal precision.
    """
    fmt = _formats()
    rows = []
    if isinstance(estimates, Submission):
        for t in estimates.timestamps:
            for k, d in estimates.at(t):
                rows.append((t, k, d.azimuth, d.elevation))
    else:
        for est in estimates:
            rows.append((est.timestamp, est.source_id, est.doa.azimuth,
                         est.doa.elevation))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(" ".join(fmt["submission_columns"]) + "\n")
        last_t = -math.inf
        seen = set()
        for t, k, az, el in rows:
            if t < last_t:
                raise ValueError("estimates must be time-ordered")
            last_t = t
            if (t, k) in seen:
                raise ValueError(f"duplicate (timestamp, id) row: ({t}, {k})")
            seen.add((t, k))
            fh.write(f"{t:.6f} {k} {math.degrees(wrap_angle(az)):.{ANGLE_DECIMALS}f} "
                     f"{math.degrees(el):.{ANGLE_DECIMALS}f}\n")


def read_submission(path) -> Submission:
    """Parse a submission table back into radians-in-memory estimates."""
    from .geometry import Doa

    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing submission file: {path}")
    frames: dict = {}
    seen = set()
    last_t = -math.inf
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = _split_row(stripped)
            if lineno == 1 and any(not _is_number(tok) for tok in tokens):
                continue  # header row
            if len(tokens) not in (3, 4):
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 3 or 4 columns, got {len(tokens)}")
            try:
                t = float(tokens[0])
                k = int(tokens[1])
                az_deg = float(tokens[2])
                el_deg = float(tokens[3]) if len(tokens) == 4 else 90.0
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: non-numeric field") from None
            if k < 1:
                raise CorpusFormatError(f"{path}:{lineno}: source id must be >= 1")
            if t < last_t:
                raise CorpusFormatError(f"{path}:{lineno}: timestamps not monotone")
            last_t = t
            if (t, k) in seen:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate (timestamp, id)")
            seen.add((t, k))
            doa = Doa(azimuth=wrap_angle(math.radians(az_deg)),
                      elevation=math.radians(el_deg))
            frames.setdefault(t, []).append((k, doa))
    return Submission({t: tuple(v) for t, v in frames.items()})


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False

"""On-disk corpus and submission formats.

A recording is a directory holding one multichannel WAV plus plaintext
position, activity and metadata tables, and a submission is one plaintext
table of direction estimates; FORMATS.md describes the fields. The
constants below are the one definition of the file names and column
layouts. Every text file is decoded by one reader (`_read_lines`), every
table line split by one scanner (`_scan`) and every table written by one
writer (`_write_table`). Angles are degrees on disk and radians in memory;
audio is decoded to float64 in [-1, 1].
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evaluate import Submission, VapTable, is_source_id, vap_spans
from .geometry import CORPUS_SAMPLE_RATE_HZ, Trajectory, TrajectoryError
from .sigproc import MultichannelAudio

log = logging.getLogger(__name__)

AUDIO_FILE = "audio_array.wav"
METADATA_FILE = "metadata.json"
ARRAY_POSITION_FILE = "position_array.txt"
SOURCE_POSITION_FILE = "position_source_{name}.txt"
VAP_FILE = "vap_source_{name}.txt"
POSITION_COLUMNS = ("timestamp", "x", "y", "z",
                    "r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33")
VAP_COLUMNS = ("start", "end")
SUBMISSION_COLUMNS = ("timestamp", "source_id", "azimuth_deg", "elevation_deg")
ANGLE_DECIMALS = 6
# seconds, id, then degrees; position and VAP fields are all "%.17g", which reads back bit-exact
_SUBMISSION_FIELDS = ("%.6f", "%d", f"%.{ANGLE_DECIMALS}f", f"%.{ANGLE_DECIMALS}f")


class CorpusFormatError(Exception):
    """Malformed corpus or submission content; message carries file and line."""


def _read_lines(path: Path):
    """Yield the lines of the UTF-8 file `path`, without a leading byte-order
    mark and ended by LF, CR LF or CR as open() reads text, then, if bytes do
    not decode, raise CorpusFormatError naming their line. A `path` that is
    not a file raises FileNotFoundError."""
    if not path.is_file():
        raise FileNotFoundError(f"missing required file: {path}")
    data = path.read_bytes()
    try:
        text, bad = data.decode("utf-8-sig"), False
    except UnicodeDecodeError as exc:
        # the bytes after the mark and before the first bad one decode
        text, bad = exc.object[:exc.start].decode("utf-8"), True
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    yield from lines[:-1] if bad else lines
    if bad:
        raise CorpusFormatError(f"{path}:{len(lines)}: not UTF-8 text")


def read_json(path: Path):
    """The JSON value of the UTF-8 file `path`; text that does not decode or
    is not JSON raises CorpusFormatError."""
    try:
        return json.loads("\n".join(_read_lines(path)))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{path}:{exc.lineno}: invalid JSON") from None


def _scan(lines):
    """Yield (line number, fields) for each of `lines` that is not blank or a
    `#` comment, its fields split by commas and whitespace."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped.replace(",", " ").split()


def _write_table(path: Path, header: str, fields, table: np.ndarray) -> None:
    """Write a header line, then each row of `table` through the per-column
    formats `fields`, as one % string (with "%.17g", the np.savetxt bytes)."""
    row = " ".join(fields) + "\n"
    path.write_text(header + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def _read_table(path: Path, n_columns: int):
    """Parse a delimited numeric table: rows of n_columns fields per `_scan`.

    Returns the (rows, n_columns) table and each row's line number. The
    rows go through one numpy conversion, which reads a field as float()
    does. If it fails, or bytes further on do not decode, `_check_rows`
    reports the first bad row scanned; a row above bytes that do not
    decode is reported before them."""
    rows = []
    try:
        rows.extend(_scan(_read_lines(path)))  # keeps the rows scanned before an error
        table = np.array([fields for _, fields in rows], dtype=float).reshape(len(rows), n_columns)
    except (CorpusFormatError, ValueError):
        _check_rows(path, rows, n_columns)
        raise
    return table, [lineno for lineno, _ in rows]


def _check_rows(path: Path, rows, n_columns: int) -> None:
    """Raise CorpusFormatError at the first of the `_scan` rows `rows` that
    has other than n_columns fields or a field float() does not read."""
    for lineno, fields in rows:
        if len(fields) != n_columns:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected {n_columns} columns, got {len(fields)}") from None
        try:
            list(map(float, fields))
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-numeric field") from None


def _read_trajectory(path: Path) -> Trajectory:
    table, linenos = _read_table(path, len(POSITION_COLUMNS))
    if len(table) == 0:
        raise CorpusFormatError(f"{path}: empty position table")
    try:
        return Trajectory.from_arrays(table[:, 0], table[:, 1:4], table[:, 4:13])
    except TrajectoryError as exc:
        raise CorpusFormatError(f"{path}:{linenos[exc.index]}: {exc.reason}") from None


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


def _read_truth(path):
    """(audio path, array trajectory, source trajectories, VAPs, metadata) of a
    recording directory, audio unread; sources and VAPs are None off the dev split."""
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"missing recording directory: {path}")

    meta_path = path / METADATA_FILE
    metadata = read_json(meta_path)
    if not isinstance(metadata, dict):
        raise CorpusFormatError(f"{meta_path}: not a JSON object")
    source_names = metadata.get("sources", [])
    if not (isinstance(source_names, list) and all(isinstance(n, str) for n in source_names)):
        raise CorpusFormatError(f"{meta_path}: sources must be a list of source names")

    audio_path = path / AUDIO_FILE
    if not audio_path.is_file():
        raise FileNotFoundError(f"missing required file: {audio_path}")
    array_traj = _read_trajectory(path / ARRAY_POSITION_FILE)
    if metadata.get("split", "dev") != "dev" or not source_names:
        return audio_path, array_traj, None, None, metadata
    source_trajs, intervals = {}, {}
    for name in source_names:
        source_trajs[name] = _read_trajectory(path / SOURCE_POSITION_FILE.format(name=name))
        vap_path = path / VAP_FILE.format(name=name)
        table, _ = _read_table(vap_path, len(VAP_COLUMNS))
        try:
            intervals[name] = vap_spans(table.tolist())
        except ValueError as exc:
            raise CorpusFormatError(f"{vap_path}: {exc}") from None
    return audio_path, array_traj, source_trajs, VapTable(intervals), metadata


def read_recording(path) -> RecordingBundle:
    """Load a recording directory laid out as the module constants name it."""
    audio_path, *truth = _read_truth(path)
    from scipy.io import wavfile

    rate, samples = wavfile.read(audio_path)
    if rate != CORPUS_SAMPLE_RATE_HZ:
        log.warning("%s: sample rate %d Hz, expected %d", audio_path, rate, CORPUS_SAMPLE_RATE_HZ)
    if samples.ndim == 1:
        samples = samples[:, None]
    # one channel-major float64 copy, scaled in place
    channels = np.ascontiguousarray(samples.T, dtype=np.float64)
    if np.issubdtype(samples.dtype, np.integer):
        channels /= float(2 ** (8 * samples.dtype.itemsize - 1))
    return RecordingBundle(MultichannelAudio(samples=channels, sample_rate_hz=float(rate)), *truth)


def read_ground_truth(path):
    """(duration s, array trajectory, source trajectories, VAPs) of a recording
    directory, what scoring reads, with no audio decoded: the duration is frames /
    float(rate), as `MultichannelAudio.duration` gives, from the WAV chunk headers."""
    audio_path, *truth = _read_truth(path)
    with open(audio_path, "rb") as fh:
        try:
            riff, _, wave = struct.unpack("<4sI4s", fh.read(12))
            order = {b"RIFF": "<", b"RIFX": ">"}.get(riff) if wave == b"WAVE" else None
            rate = block_align = None
            while order and (header := fh.read(8)):
                chunk, size = struct.unpack(order + "4sI", header)
                if chunk == b"data" and rate:
                    return (size // block_align / float(rate), *truth[:3])
                if chunk == b"fmt ":
                    _, _, rate, _, block_align = struct.unpack(order + "HHIIH", fh.read(14))
                    size -= 14
                fh.seek(size + size % 2, 1)  # a chunk is padded to an even size
        except (struct.error, ZeroDivisionError):
            pass
    raise CorpusFormatError(f"{audio_path}: no WAV fmt and data chunk headers")


def write_recording(bundle: RecordingBundle, path) -> None:
    """Write a bundle as a recording directory; inverse of read_recording."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    from scipy.io import wavfile

    # float64 WAV keeps simulated audio bit-exact through a round trip
    wavfile.write(path / AUDIO_FILE,
                  int(bundle.audio.sample_rate_hz),
                  np.ascontiguousarray(bundle.audio.samples.T))

    tables = [(ARRAY_POSITION_FILE, POSITION_COLUMNS,
               _trajectory_to_table(bundle.array_trajectory))]
    metadata = dict(bundle.metadata)
    if bundle.source_trajectories is not None:
        names = sorted(bundle.source_trajectories)
        metadata.setdefault("sources", names)
        metadata.setdefault("split", "dev")
        for name in names:
            spans = bundle.vaps.intervals[name] if bundle.vaps else ()
            tables += [(SOURCE_POSITION_FILE.format(name=name), POSITION_COLUMNS,
                        _trajectory_to_table(bundle.source_trajectories[name])),
                       (VAP_FILE.format(name=name), VAP_COLUMNS,
                        np.array(spans, dtype=float).reshape(-1, 2))]
    for file_name, columns, table in tables:
        _write_table(path / file_name, "# " + " ".join(columns), ["%.17g"] * len(columns), table)
    (path / METADATA_FILE).write_text(json.dumps(metadata, indent=2, sort_keys=True))


def bundle_from_scene(scene, recording_id: str = "sim") -> RecordingBundle:
    """Package a synthesized scene for the on-disk recording layout."""
    sources = scene.config.sources
    names = [f"src{i + 1}" for i in range(len(sources))]
    trajs = dict(zip(names, (s.trajectory for s in sources)))
    vaps = VapTable(dict(zip(names, (s.vaps for s in sources))))
    metadata = {
        "recording_id": recording_id,
        "task": scene.config.task,
        "array": scene.config.array.name,
        "split": "dev",
        "sources": names,
        "seed": scene.config.seed,
    }
    return RecordingBundle(audio=scene.audio, array_trajectory=scene.config.array_trajectory,
                           source_trajectories=trajs, vaps=vaps, metadata=metadata)


def write_submission(estimates, path) -> None:
    """Write time-ordered direction estimates as a plaintext submission table.

    Accepts a Submission or an iterable of DoaEstimate, both of which wrap
    their azimuths; angles go to disk in degrees at ANGLE_DECIMALS decimals.
    Rows are checked before the file is opened: a non-finite field, a time
    before the previous one, two rows of one id whose times print alike, or
    an id that is not a whole number in [1, 2^63) (`is_source_id`, the rule
    `read_submission` applies) raise ValueError.
    """
    if isinstance(estimates, Submission):
        rows = zip(estimates.times.tolist(), estimates.ids.tolist(),
                   estimates.azimuths.tolist(), estimates.elevations.tolist())
    else:
        rows = [(est.timestamp, est.source_id, est.doa.azimuth, est.doa.elevation)
                for est in estimates]
    table, seen, last_t = [], set(), -math.inf  # seen: (timestamp as read back, id)
    for t, k, az, el in rows:
        if not (math.isfinite(t) and math.isfinite(az) and math.isfinite(el)):
            raise ValueError(f"non-finite field in row ({t}, {k})")
        if not is_source_id(k):
            raise ValueError(f"source id {k} is not an integer in [1, 2^63)")
        if t < last_t:
            raise ValueError("estimates must be time-ordered")
        last_t = t
        key = (float(_SUBMISSION_FIELDS[0] % t), k)
        if key in seen:
            raise ValueError(f"duplicate (timestamp, id) row: ({t}, {k})")
        seen.add(key)
        table.append((t, int(k), math.degrees(az), math.degrees(el)))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_table(path, " ".join(SUBMISSION_COLUMNS), _SUBMISSION_FIELDS,
                 np.array(table, dtype=object).reshape(-1, 4))  # object: each id an exact int


def read_submission(path) -> Submission:
    """Parse a submission table back into radians-in-memory estimates."""
    path = Path(path)
    rows, seen, last_t = [], set(), -math.inf
    for n, (lineno, tokens) in enumerate(_scan(_read_lines(path))):
        if n == 0 and tuple(tokens) in (SUBMISSION_COLUMNS, SUBMISSION_COLUMNS[:3]):
            continue  # header row: the column names, nothing else
        if len(tokens) not in (3, 4):
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 3 or 4 columns, got {len(tokens)}")
        try:
            t = float(tokens[0])
            # an integer id is parsed as one, so that ids above 2^53 stay exact
            k = int(tokens[1]) if tokens[1].lstrip("+-").isdigit() else float(tokens[1])
            az_deg = float(tokens[2])
            el_deg = float(tokens[3]) if len(tokens) == 4 else 90.0
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-numeric field") from None
        if not is_source_id(k):
            raise CorpusFormatError(
                f"{path}:{lineno}: source id {tokens[1]} is not a whole number in [1, 2^63)")
        k = int(k)
        if t < last_t:
            raise CorpusFormatError(f"{path}:{lineno}: timestamps not monotone")
        last_t = t
        if (t, k) in seen:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate (timestamp, id)")
        seen.add((t, k))
        if not (math.isfinite(t) and math.isfinite(az_deg) and math.isfinite(el_deg)):
            raise CorpusFormatError(f"{path}:{lineno}: non-finite field")
        rows.append((t, k, az_deg, el_deg))
    times, ids, az_deg, el_deg = zip(*rows) if rows else ([], [], [], [])
    return Submission.from_rows(times, ids, np.radians(az_deg), np.radians(el_deg))

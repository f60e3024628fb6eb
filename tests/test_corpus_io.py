import math
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doatrack import corpus_io
from doatrack.corpus_io import (CorpusFormatError, RecordingBundle,
                                bundle_from_scene, read_ground_truth, read_recording,
                                read_submission, write_recording,
                                write_submission)
from doatrack.evaluate import Submission, VapTable
from doatrack.geometry import (Doa, Pose, Trajectory, identity_pose,
                               static_trajectory, wrap_angle)
from doatrack.localize import DoaEstimate
from doatrack.sigproc import MultichannelAudio


def _random_rotation(rng):
    q = rng.standard_normal((3, 3))
    u, _, vt = np.linalg.svd(q)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        rot[:, 0] *= -1
    return rot


def _random_bundle(rng, n_sources=1, split="dev"):
    n = int(rng.integers(200, 800))
    audio = MultichannelAudio(rng.standard_normal((4, n)) * 0.5, 48000.0)
    duration = n / 48000.0
    steps = max(2, int(round(duration * 120)) + 1)
    times = np.linspace(0.0, duration, steps)

    def traj():
        poses = tuple(
            Pose(rng.uniform(-3, 3, 3), _random_rotation(rng), t) for t in times
        )
        return Trajectory(poses)

    if split == "dev":
        names = [f"src{i+1}" for i in range(n_sources)]
        trajs = {name: traj() for name in names}
        vaps = VapTable({
            name: ((0.0, duration / 2), (duration * 0.6, duration)) for name in names
        })
        meta = {"recording_id": "r", "task": 1, "array": "robot_head",
                "split": "dev", "sources": names, "seed": 0}
    else:
        trajs, vaps = None, None
        meta = {"recording_id": "r", "task": 1, "array": "robot_head",
                "split": "eval", "sources": [], "seed": 0}
    return RecordingBundle(audio=audio, array_trajectory=traj(),
                           source_trajectories=trajs, vaps=vaps, metadata=meta)


def _assert_trajectories_close(a: Trajectory, b: Trajectory, tol=1e-9):
    assert len(a.samples) == len(b.samples)
    for pa, pb in zip(a.samples, b.samples):
        assert pa.timestamp == pytest.approx(pb.timestamp, abs=tol)
        assert np.allclose(pa.translation, pb.translation, atol=tol)
        assert np.allclose(pa.rotation, pb.rotation, atol=tol)


def test_recording_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    bundle = _random_bundle(rng, n_sources=2)
    write_recording(bundle, tmp_path / "rec")
    back = read_recording(tmp_path / "rec")
    assert np.array_equal(back.audio.samples, bundle.audio.samples)  # bit exact
    assert back.audio.sample_rate_hz == 48000.0
    _assert_trajectories_close(back.array_trajectory, bundle.array_trajectory)
    for name in bundle.source_trajectories:
        _assert_trajectories_close(back.source_trajectories[name],
                                   bundle.source_trajectories[name])
        assert np.allclose(back.vaps.intervals[name], bundle.vaps.intervals[name])
    assert back.metadata["task"] == 1


def test_eval_split_has_no_truth(tmp_path):
    rng = np.random.default_rng(1)
    bundle = _random_bundle(rng, split="eval")
    write_recording(bundle, tmp_path / "rec")
    back = read_recording(tmp_path / "rec")
    assert back.source_trajectories is None
    assert back.vaps is None


def test_missing_directory():
    with pytest.raises(FileNotFoundError, match="nope"):
        read_recording("/tmp/doatrack-nope")


def test_missing_mandatory_file_named(tmp_path):
    rng = np.random.default_rng(2)
    write_recording(_random_bundle(rng), tmp_path / "rec")
    (tmp_path / "rec" / "position_array.txt").unlink()
    with pytest.raises(FileNotFoundError, match="position_array.txt"):
        read_recording(tmp_path / "rec")


@pytest.mark.parametrize("metadata,reason", [
    ("[1, 2]", "not a JSON object"),
    ('"dev"', "not a JSON object"),
    ('{"sources": "src1"}', "sources must be a list of source names"),
    ('{"sources": ["src1", 2]}', "sources must be a list of source names"),
])
def test_bad_metadata_is_a_format_error_that_names_the_file(tmp_path, metadata, reason):
    write_recording(_random_bundle(np.random.default_rng(3)), tmp_path / "rec")
    (tmp_path / "rec" / "metadata.json").write_text(metadata)
    with pytest.raises(CorpusFormatError, match=reason) as err:
        read_recording(tmp_path / "rec")
    assert "metadata.json" in str(err.value)


def test_malformed_row_reports_line(tmp_path):
    rng = np.random.default_rng(3)
    write_recording(_random_bundle(rng), tmp_path / "rec")
    path = tmp_path / "rec" / "position_array.txt"
    lines = path.read_text().splitlines()
    lines[3] = "1.0 2.0"  # truncated row (line 1 is the header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=r"position_array.txt:4"):
        read_recording(tmp_path / "rec")


@pytest.mark.parametrize("fault,reason", [
    ("scale", "not orthonormal"),
    ("reflect", "determinant is not \\+1"),
    ("repeat_time", "strictly increasing"),
    ("nan", "not finite"),
])
def test_bad_pose_reports_line(tmp_path, fault, reason):
    rng = np.random.default_rng(4)
    write_recording(_random_bundle(rng), tmp_path / "rec")
    path = tmp_path / "rec" / "position_source_src1.txt"
    lines = path.read_text().splitlines()
    lines.insert(2, "# a comment line and a blank one shift the line numbers")
    lines.insert(3, "")
    row = [float(tok) for tok in lines[5].split()]  # line 6: the fourth pose
    if fault == "scale":
        row[4:13] = (2.0 * np.eye(3)).ravel()
    elif fault == "reflect":
        row[4:13] = np.diag([1.0, -1.0, 1.0]).ravel()
    elif fault == "repeat_time":
        row[0] = float(lines[4].split()[0])
    else:
        row[2] = math.nan
    lines[5] = " ".join(f"{v:.17g}" for v in row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=rf"position_source_src1.txt:6: .*{reason}"):
        read_recording(tmp_path / "rec")


def test_read_trajectories_are_the_per_pose_build(tmp_path):
    rng = np.random.default_rng(9)
    write_recording(_random_bundle(rng, n_sources=2), tmp_path / "rec")
    back = read_recording(tmp_path / "rec")
    for name, traj in [("array", back.array_trajectory), *back.source_trajectories.items()]:
        file = "position_array.txt" if name == "array" else f"position_source_{name}.txt"
        table = np.loadtxt(tmp_path / "rec" / file, ndmin=2)
        by_pose = Trajectory(tuple(Pose(row[1:4], row[4:13].reshape(3, 3), row[0])
                                   for row in table))
        for column in ("timestamps", "translations", "rotations"):
            assert getattr(traj, column).tobytes() == getattr(by_pose, column).tobytes()


def test_written_tables_are_the_savetxt_bytes(tmp_path):
    rng = np.random.default_rng(10)
    bundle = _random_bundle(rng, n_sources=2)
    timestamps = bundle.array_trajectory.timestamps
    translations = rng.choice([0.0, -0.0, 5e-324, -1e-300, 1e300, 1 / 3], (len(timestamps), 3))
    bundle = replace(
        bundle,
        array_trajectory=Trajectory.from_arrays(timestamps, translations,
                                                bundle.array_trajectory.rotations),
        vaps=VapTable({"src1": ((-math.inf, -0.0), (0.1, 1e300), (1e300, math.inf)),
                       "src2": ()}))
    write_recording(bundle, tmp_path / "rec")
    trajectories = {"array": bundle.array_trajectory, **bundle.source_trajectories}
    for name, traj in trajectories.items():
        file = "position_array.txt" if name == "array" else f"position_source_{name}.txt"
        np.savetxt(tmp_path / "expected.txt", corpus_io._trajectory_to_table(traj), fmt="%.17g",
                   header="# timestamp x y z r11 r12 r13 r21 r22 r23 r31 r32 r33", comments="")
        assert (tmp_path / "rec" / file).read_bytes() == (tmp_path / "expected.txt").read_bytes()
    for name, spans in bundle.vaps.intervals.items():
        np.savetxt(tmp_path / "expected.txt", np.array(spans, dtype=float).reshape(-1, 2),
                   fmt="%.17g", header="# start end", comments="")
        assert ((tmp_path / "rec" / f"vap_source_{name}.txt").read_bytes()
                == (tmp_path / "expected.txt").read_bytes())
    back = read_recording(tmp_path / "rec")
    assert back.array_trajectory.translations.tobytes() == translations.tobytes()
    assert back.vaps.intervals == bundle.vaps.intervals


# table text: fields (numbers, nan and inf spellings, exponents, digit
# separators and junk) split by runs of spaces, tabs, commas and other
# whitespace, among comment and blank lines; \r ends a line as \n does
_FIELD = st.one_of(
    st.floats().map(repr),
    st.floats(width=32).map(lambda x: f"{x:.3e}"),
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "+inf", "1E-3", ".5", "5.", "-0",
                     "1_0", "0x10", "1e", "abc", "#", "--1", "\u0661"]))
_SEPARATOR = st.text(" \t,\x0b\x0c\x1c\xa0\u2003", min_size=1, max_size=3)
_BLANK_OR_COMMENT = st.sampled_from(["", "  ", "# comment", "  # indented comment", "#", "\t"])


@st.composite
def _tables(draw):
    """(lines, n_columns): rows mostly of n_columns fields, some of another count."""
    n_columns = draw(st.integers(1, 4))
    fields = st.one_of(st.lists(_FIELD, min_size=n_columns, max_size=n_columns),
                       st.lists(_FIELD, min_size=1, max_size=5))
    row = st.builds(lambda fields, sep, lead, trail: lead + sep.join(fields) + trail,
                    fields, _SEPARATOR, st.sampled_from(["", " ", ",", "\t "]),
                    st.sampled_from(["", " ", ",", "\r"]))
    return draw(st.lists(st.one_of(row, row, _BLANK_OR_COMMENT), max_size=6)), n_columns


def _line_parser(path, n_columns):
    """Reference `_read_table`: open() reads the file line by line, each line
    split as `_scan` splits it and parsed field by field with float()."""
    rows, linenos = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.replace(",", " ").split()
            if len(tokens) != n_columns:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected {n_columns} columns, got {len(tokens)}")
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: non-numeric field") from None
            linenos.append(lineno)
    return np.array(rows, dtype=float).reshape(len(rows), n_columns), linenos


def _parse_outcome(read, path, n_columns):
    try:
        table, linenos = read(path, n_columns)
    except CorpusFormatError as exc:
        return str(exc)
    return table.shape, table.tobytes(), linenos


@settings(max_examples=200, deadline=None)
@given(_tables(), st.booleans())
@example((["# t a b", "1 2 3", "", "4,5,\t6"], 3), True)
@example((["1 2 3", "4 5"], 3), True)
@example((["1 nan -inf", "# x", "1e400, -0, 1_0"], 3), False)
@example((["1 2\r3 4", "5 6"], 2), True)
def test_bulk_table_read_is_the_line_parser(tmp_path_factory, table, final_newline):
    lines, n_columns = table
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
    expected = _parse_outcome(_line_parser, path, n_columns)
    check_rows = mock.Mock(wraps=corpus_io._check_rows)
    with mock.patch.object(corpus_io, "_check_rows", check_rows):
        assert _parse_outcome(corpus_io._read_table, path, n_columns) == expected
    # the rows are parsed one at a time only to report a bad line
    assert check_rows.called == isinstance(expected, str)


def test_bad_line_is_reported_before_text_that_does_not_decode(tmp_path):
    path = tmp_path / "table.txt"
    path.write_bytes(b"# a b\n1 2 3\n" + b"1 2\n" * 20000 + b"\xff\xfe\n")
    with pytest.raises(CorpusFormatError, match=r"table.txt:2: expected 2 columns, got 3"):
        corpus_io._read_table(path, 2)


@pytest.mark.parametrize("name", ["position_array.txt", "vap_source_src1.txt", "metadata.json"])
def test_recording_file_that_is_not_utf8_is_named(tmp_path, name):
    write_recording(_random_bundle(np.random.default_rng(7)), tmp_path / "rec")
    path = tmp_path / "rec" / name
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[:2] + [b"\xff" + lines[2]] + lines[3:]))
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:3: not UTF-8 text")):
        read_recording(tmp_path / "rec")


def test_submission_that_is_not_utf8_is_named_after_its_bad_lines(tmp_path):
    path = tmp_path / "sub.txt"
    path.write_bytes(b"timestamp source_id azimuth_deg\n0.0 1 10.0\n# caf\xe9\n")
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:3: not UTF-8 text")):
        read_submission(path)
    # a bad line above the bytes that do not decode is reported first
    path.write_bytes(b"0.0 1\n\xff\n")
    with pytest.raises(CorpusFormatError, match=":1: expected 3 or 4 columns"):
        read_submission(path)


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


@pytest.mark.parametrize("name", ["position_array.txt", "metadata.json"])
def test_recording_file_with_a_byte_order_mark_reads_as_without(tmp_path, name):
    write_recording(_random_bundle(np.random.default_rng(7)), tmp_path / "rec")
    plain = read_recording(tmp_path / "rec")
    path = tmp_path / "rec" / name
    assert path.read_bytes()[:1] in (b"#", b"{")  # the mark goes before a "#" header
    path.write_bytes(BOM + path.read_bytes())
    marked = read_recording(tmp_path / "rec")
    assert marked.metadata == plain.metadata
    for a, b in [(marked.array_trajectory, plain.array_trajectory),
                 *((marked.source_trajectories[n], plain.source_trajectories[n])
                   for n in plain.source_trajectories)]:
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.translations, b.translations)
        assert np.array_equal(a.rotations, b.rotations)
    assert marked.vaps.intervals == plain.vaps.intervals


@pytest.mark.parametrize("text", ["# made by hand\ntimestamp source_id azimuth_deg\n0.0 1 10.0\n",
                                  "timestamp source_id azimuth_deg\n0.0 1 10.0\n0.1 2 -5.0\n",
                                  "0.0 1 10.0\n"])
def test_submission_with_a_byte_order_mark_reads_as_without(tmp_path, text):
    path = tmp_path / "sub.txt"
    path.write_bytes(text.encode())
    plain = read_submission(path)
    path.write_bytes(BOM + text.encode())
    marked = read_submission(path)
    for column in ("times", "ids", "azimuths", "elevations"):
        assert np.array_equal(getattr(marked, column), getattr(plain, column))
    # the line of a bad byte after the mark is still named
    path.write_bytes(BOM + text.encode() + b"\xff\n")
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:{text.count(chr(10)) + 1}: "
                                                          "not UTF-8 text")):
        read_submission(path)


def test_integer_pcm_normalized(tmp_path):
    from scipy.io import wavfile
    rng = np.random.default_rng(4)
    bundle = _random_bundle(rng)
    write_recording(bundle, tmp_path / "rec")
    clipped = np.clip(bundle.audio.samples, -1, 1)
    ints = (clipped.T * 32767).astype(np.int16)
    wavfile.write(tmp_path / "rec" / "audio_array.wav", 48000, ints)
    back = read_recording(tmp_path / "rec")
    assert np.abs(back.audio.samples).max() <= 1.0
    assert np.allclose(back.audio.samples, clipped, atol=1e-3)


@pytest.mark.parametrize("dtype,rate,channels,extra_chunk", [
    (np.float64, 48000, 4, False), (np.int16, 48000, 4, False),
    (np.int16, 44100, 1, True), (np.float64, 16000, 3, True)])
def test_ground_truth_takes_the_duration_from_the_wav_header(tmp_path, dtype, rate, channels,
                                                             extra_chunk):
    # frames / float(rate), bit for bit the duration of the decoded audio; an
    # odd-sized chunk before `fmt ` is skipped with its pad byte
    from scipy.io import wavfile
    rng = np.random.default_rng(6)
    bundle = _random_bundle(rng, n_sources=2)
    write_recording(bundle, tmp_path / "rec")
    samples = np.clip(bundle.audio.samples[:channels].T, -1.0, 1.0)
    wav = tmp_path / "rec" / "audio_array.wav"
    wavfile.write(wav, rate, samples if dtype is np.float64 else (samples * 32767).astype(dtype))
    if extra_chunk:
        data = wav.read_bytes()
        data = data[:12] + b"LIST\x03\x00\x00\x00abc\x00" + data[12:]
        wav.write_bytes(data[:4] + (len(data) - 8).to_bytes(4, "little") + data[8:])
    back = read_recording(tmp_path / "rec")
    duration, array_traj, source_trajs, vaps = read_ground_truth(tmp_path / "rec")
    assert back.audio.channel_count == channels
    assert duration == back.audio.duration
    assert np.array_equal(array_traj.rotations, back.array_trajectory.rotations)
    assert source_trajs.keys() == back.source_trajectories.keys()
    assert vaps == back.vaps


def test_ground_truth_rejects_a_wav_without_its_headers(tmp_path):
    bundle = _random_bundle(np.random.default_rng(7))
    write_recording(bundle, tmp_path / "rec")
    wav = tmp_path / "rec" / "audio_array.wav"
    wav.write_bytes(wav.read_bytes()[:30])  # cut inside the fmt chunk
    with pytest.raises(CorpusFormatError, match="audio_array.wav: no WAV fmt and data"):
        read_ground_truth(tmp_path / "rec")


def test_bundle_from_scene_round_trip(tmp_path):
    from doatrack.simulate import synthesize, task_preset
    scene = synthesize(task_preset(1, seed=0, duration=1.0))
    bundle = bundle_from_scene(scene, "demo")
    write_recording(bundle, tmp_path / "scene")
    back = read_recording(tmp_path / "scene")
    assert np.array_equal(back.audio.samples, scene.audio.samples)
    assert back.metadata["array"] == "robot_head"
    _assert_trajectories_close(back.array_trajectory, scene.config.array_trajectory)


def test_submission_round_trip_exact_precision(tmp_path):
    ests = [
        DoaEstimate(0.0, Doa(math.radians(-179.5))),
        DoaEstimate(1 / 120, Doa(math.radians(42.123456), math.radians(80.0)), 2),
    ]
    path = tmp_path / "sub.txt"
    write_submission(ests, path)
    back = read_submission(path)
    rows = [(t, k, d) for t in back.timestamps for k, d in back.at(t)]
    assert len(rows) == 2
    assert math.degrees(rows[0][2].azimuth) == pytest.approx(-179.5, abs=1e-6)
    assert math.degrees(rows[1][2].azimuth) == pytest.approx(42.123456, abs=1e-6)
    assert math.degrees(rows[1][2].elevation) == pytest.approx(80.0, abs=1e-6)
    assert rows[1][1] == 2


def test_empty_submission(tmp_path):
    path = tmp_path / "empty.txt"
    write_submission([], path)
    back = read_submission(path)
    assert back.timestamps == []


def test_submission_header_may_follow_a_comment(tmp_path):
    path = tmp_path / "sub.txt"
    path.write_text("# made by hand\n\ntimestamp source_id azimuth_deg\n0.000000 1 10.0\n")
    back = read_submission(path)
    assert back.times.tolist() == [0.0] and back.ids.tolist() == [1]
    assert back.azimuths.tolist() == pytest.approx([math.radians(10.0)])
    # after a comment a header must be the column names: a mistyped first row
    # is an error, not a dropped row
    path.write_text("# note\n0.000000 1 1O.0\n0.100000 1 10.0\n")
    with pytest.raises(CorpusFormatError, match=":2: non-numeric field"):
        read_submission(path)
    # so must a header on line 1: a mistyped first row is not skipped
    path.write_text("0.000000 1 1O.0\n0.100000 1 10.0\n")
    with pytest.raises(CorpusFormatError, match=":1: non-numeric field"):
        read_submission(path)
    # only the first such line may be a header
    path.write_text("# made by hand\n0.000000 1 10.0\ntimestamp source_id azimuth_deg\n")
    with pytest.raises(CorpusFormatError, match=":3: non-numeric field"):
        read_submission(path)


def test_submission_rejects_id_zero(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("timestamp source_id azimuth_deg\n0.000000 0 10.0\n")
    with pytest.raises(CorpusFormatError, match=":2"):
        read_submission(path)


def test_submission_reads_a_whole_float_id_as_submission_accepts_it(tmp_path):
    path = tmp_path / "sub.txt"
    path.write_text("timestamp source_id azimuth_deg elevation_deg\n0.0 2.0 10 90\n")
    accepted = Submission.from_rows([0.0], [2.0], [0.1])
    assert read_submission(path).ids.tolist() == accepted.ids.tolist() == [2]


def test_submission_reads_an_integer_id_above_2_to_the_53_exactly(tmp_path):
    path = tmp_path / "sub.txt"
    path.write_text(f"0.0 {2 ** 53 + 1} 10\n0.1 {2 ** 63 - 1} 10\n")
    assert read_submission(path).ids.tolist() == [2 ** 53 + 1, 2 ** 63 - 1]


@pytest.mark.parametrize("token", ["9223372036854775808", "0", "-3", "2.5", "nan", "inf",
                                   "1e19", "0.0"])
def test_submission_rejects_an_id_at_its_line_and_names_it(tmp_path, token):
    # 2^63 passes int() but no int64 holds it; the others are no whole number >= 1
    path = tmp_path / "sub.txt"
    path.write_text(f"timestamp source_id azimuth_deg\n0.0 1 10\n0.1 {token} 10\n")
    with pytest.raises(CorpusFormatError,
                       match=rf"sub.txt:3: source id {re.escape(token)} is not a whole number"):
        read_submission(path)


def test_submission_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("0.0 1 10.0\n0.0 1 12.0\n")
    with pytest.raises(CorpusFormatError, match="duplicate"):
        read_submission(path)


def test_submission_rejects_non_monotone(tmp_path):
    path = tmp_path / "mono.txt"
    path.write_text("1.0 1 10.0\n0.5 1 12.0\n")
    with pytest.raises(CorpusFormatError, match="monotone"):
        read_submission(path)


def test_write_submission_rejects_unordered():
    ests = [DoaEstimate(1.0, Doa(0.1)), DoaEstimate(0.5, Doa(0.2))]
    with pytest.raises(ValueError, match="time-ordered"):
        write_submission(ests, "/tmp/doatrack-unordered.txt")


def test_submission_missing_file():
    with pytest.raises(FileNotFoundError, match="missing-sub"):
        read_submission("/tmp/doatrack-missing-sub.txt")


def test_submission_round_trip_randomized(tmp_path):
    rng = np.random.default_rng(5)
    for case in range(50):
        n = int(rng.integers(0, 30))
        times = np.sort(rng.integers(0, 200, n)) / 120.0
        ests, seen = [], set()
        for i, t in enumerate(times):
            k = int(rng.integers(1, 5))
            if (round(t, 6), k) in seen:
                continue
            seen.add((round(t, 6), k))
            ests.append(DoaEstimate(float(t), Doa(rng.uniform(-math.pi, math.pi),
                                                  rng.uniform(0, math.pi)), k))
        path = tmp_path / f"s{case}.txt"
        write_submission(ests, path)
        back = read_submission(path)
        flat = [(t, k, d) for t in back.timestamps for k, d in sorted(back.at(t))]
        orig = sorted(((round(e.timestamp, 6), e.source_id, e.doa) for e in ests))
        assert len(flat) == len(orig)
        for (t1, k1, d1), (t2, k2, d2) in zip(flat, orig):
            assert t1 == pytest.approx(t2, abs=1e-6)
            assert k1 == k2
            assert d1.azimuth == pytest.approx(d2.azimuth, abs=math.radians(1e-6) * 1.5)


def _per_row_submission_bytes(rows) -> bytes:
    """The submission text written one f-string row at a time."""
    lines = ["timestamp source_id azimuth_deg elevation_deg"]
    lines += [f"{t:.6f} {k} {math.degrees(wrap_angle(az)):.6f} {math.degrees(el):.6f}"
              for t, k, az, el in rows]
    return ("\n".join(lines) + "\n").encode()


def test_written_submission_is_the_per_row_text(tmp_path):
    rng = np.random.default_rng(11)
    near_half_turn = math.radians(2.5e-7)  # within 5e-7 deg of +-180
    times = np.concatenate([[-0.0, 0.0], np.sort(rng.uniform(0.0, 5.0, 40))])
    ids = rng.integers(1, 4, len(times))
    ids[:2] = [1, 2]
    azimuths = rng.uniform(-math.pi, math.pi, len(times))
    azimuths[2:8] = [math.pi - near_half_turn, -math.pi, -math.pi + near_half_turn,
                     -0.0, 0.0, math.pi - 1e-300]
    elevations = rng.uniform(0.0, math.pi, len(times))
    elevations[2:6] = [0.0, math.pi, -0.0, math.pi]
    sub = Submission.from_rows(times, ids, azimuths, elevations)
    rows = list(zip(sub.times.tolist(), sub.ids.tolist(), sub.azimuths.tolist(),
                    sub.elevations.tolist()))
    write_submission(sub, tmp_path / "sub.txt")
    write_submission([DoaEstimate(t, Doa(az, el), k) for t, k, az, el in rows],
                     tmp_path / "estimates.txt")
    expected = _per_row_submission_bytes(rows)
    assert (tmp_path / "sub.txt").read_bytes() == expected
    assert (tmp_path / "estimates.txt").read_bytes() == expected


@pytest.mark.parametrize("estimates,message", [
    ([DoaEstimate(1e-7, Doa(0.1), 1), DoaEstimate(2e-7, Doa(0.2), 1)], "duplicate"),
    (Submission.from_rows([0.0083331, 0.0083334], [1, 1], [0.1, 0.2]), "duplicate"),
    ([DoaEstimate(-1e-7, Doa(0.1), 2), DoaEstimate(1e-7, Doa(0.2), 2)], "duplicate"),
    ([DoaEstimate(0.0, Doa(0.1)), DoaEstimate(1.0, Doa(0.1)), DoaEstimate(0.5, Doa(0.2))],
     "time-ordered"),
    ([DoaEstimate(0.0, Doa(0.1)), DoaEstimate(math.nan, Doa(0.2))], "non-finite"),
    ([DoaEstimate(0.0, Doa(0.1)), DoaEstimate(math.inf, Doa(0.2))], "non-finite"),
    ([DoaEstimate(0.0, Doa(0.1, math.nan))], "non-finite"),
    (Submission.from_rows([0.0, 1.0], [1, 1], [0.1, 0.2], [1.0, math.nan]), "non-finite"),
    ([DoaEstimate(0.0, Doa(0.1)), DoaEstimate(1.0, Doa(0.1), 1.5)], "integer"),
])
def test_write_submission_checks_every_row_before_it_opens_the_file(tmp_path, estimates,
                                                                     message):
    new, old = tmp_path / "new" / "sub.txt", tmp_path / "old.txt"
    old.write_text("timestamp source_id azimuth_deg\n0.000000 1 10.000000\n")
    for path in (new, old):
        with pytest.raises((ValueError, TypeError), match=message):
            write_submission(estimates, path)
    assert not new.parent.exists()
    assert old.read_text() == "timestamp source_id azimuth_deg\n0.000000 1 10.000000\n"


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


# ids above 2^53 have no exact float64, so they must never pass through one
_LARGE_IDS = [(0.0, 2 ** 53 + 1, 0.1, 1.0), (0.1, 2 ** 62 + 1, 0.2, 1.0)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(_ANY_FLOAT, st.sampled_from([0.0083331, 0.0083334, -1e-7])),
                          st.integers(1, 2 ** 62), st.floats(-10.0, 10.0),
                          st.one_of(_ANY_FLOAT, st.floats(0.0, math.pi))), max_size=8),
       st.booleans())
@example(rows=_LARGE_IDS, as_submission=True)
@example(rows=_LARGE_IDS, as_submission=False)
# read_submission rejects 2^63 and reads 2.0 as id 2, as `Submission` does
@example(rows=[(0.0, 2 ** 63, 0.1, 1.0)], as_submission=False)
@example(rows=[(0.0, 2.0, 0.1, 1.0)], as_submission=False)
def test_what_write_submission_accepts_read_submission_reads_back(tmp_path_factory, rows,
                                                                   as_submission):
    if as_submission:
        estimates = Submission.from_rows(*zip(*rows)) if rows else Submission()
        assert sorted(estimates.ids.tolist()) == sorted(k for _, k, _, _ in rows)
        rows = list(zip(estimates.times.tolist(), estimates.ids.tolist(),
                        estimates.azimuths.tolist(), estimates.elevations.tolist()))
    else:
        estimates = [DoaEstimate(t, Doa(az, el), k) for t, k, az, el in rows]
        rows = [(e.timestamp, e.source_id, e.doa.azimuth, e.doa.elevation) for e in estimates]
    path = tmp_path_factory.getbasetemp() / "sub.txt"
    try:
        write_submission(estimates, path)
    except ValueError:
        return
    back = read_submission(path)
    assert back.times.tolist() == [float(f"{t:.6f}") for t, _, _, _ in rows]
    assert back.ids.tolist() == [k for _, k, _, _ in rows]
    az_error = np.degrees(wrap_angle(back.azimuths - np.array([az for _, _, az, _ in rows])))
    el_error = np.degrees(back.elevations - np.array([el for _, _, _, el in rows]))
    assert np.all(np.abs(az_error) <= 0.51e-6) and np.all(np.abs(el_error) <= 0.51e-6)


@pytest.mark.parametrize("column", [0, 2, 3])  # timestamp, azimuth, elevation
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_submission_rejects_a_non_finite_field(tmp_path, column, value):
    row = ["0.008333", "1", "10.0", "80.0"]
    row[column] = value
    path = tmp_path / "sub.txt"
    path.write_text("timestamp source_id azimuth_deg elevation_deg\n" + " ".join(row) + "\n")
    with pytest.raises(CorpusFormatError, match=r"sub.txt:2: non-finite field"):
        read_submission(path)


def test_formats_doc_names_the_layout_constants():
    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text()
    files = re.findall(r"^\| `([^`]+)` \|", text, flags=re.MULTILINE)
    assert [f.replace("<name>", "{name}") for f in files] == [
        corpus_io.AUDIO_FILE, corpus_io.METADATA_FILE, corpus_io.ARRAY_POSITION_FILE,
        corpus_io.SOURCE_POSITION_FILE, corpus_io.VAP_FILE]
    blocks = re.findall(r"^```\n(.*?)\n```$", text, flags=re.MULTILINE | re.DOTALL)
    assert [tuple(block.split()) for block in blocks] == [
        corpus_io.POSITION_COLUMNS, corpus_io.VAP_COLUMNS, corpus_io.SUBMISSION_COLUMNS]

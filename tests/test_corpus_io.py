import math

import numpy as np
import pytest

from doatrack.corpus_io import (CorpusFormatError, RecordingBundle,
                                bundle_from_scene, read_recording,
                                read_submission, write_recording,
                                write_submission)
from doatrack.evaluate import Submission, VapTable
from doatrack.geometry import (Doa, Pose, Trajectory, identity_pose,
                               static_trajectory)
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


def test_bundle_from_scene_round_trip(tmp_path):
    from doatrack.simulate import synthesize, task_preset
    scene = synthesize(task_preset(1, seed=0, duration=1.0))
    bundle = bundle_from_scene(scene, "demo")
    write_recording(bundle, tmp_path / "scene")
    back = read_recording(tmp_path / "scene")
    assert np.array_equal(back.audio.samples, scene.audio.samples)
    assert back.metadata["array"] == "robot_head"
    _assert_trajectories_close(back.array_trajectory, scene.array_trajectory)


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


def test_submission_rejects_id_zero(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("timestamp source_id azimuth_deg\n0.000000 0 10.0\n")
    with pytest.raises(CorpusFormatError, match=":2"):
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

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doatrack.cli import main
from doatrack.corpus_io import read_recording, read_submission, write_recording
from doatrack.sigproc import MultichannelAudio


def _run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes") / "task1"
    code = _run("simulate", "--task", "1", "--seed", "1", "--duration", "4",
                "--out", str(out))
    assert code == 0
    return out


def test_simulate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a" / "scene", tmp_path / "b" / "scene"
    for out in (a, b):
        assert _run("simulate", "--task", "2", "--seed", "5", "--duration", "1.5",
                    "--out", str(out)) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_sample_count(tmp_path):
    out = tmp_path / "d"
    assert _run("simulate", "--task", "1", "--seed", "0", "--duration", "1",
                "--out", str(out)) == 0
    from scipy.io import wavfile
    _, samples = wavfile.read(out / "audio_array.wav")
    assert samples.shape[0] == 48000


def test_simulate_invalid_task(tmp_path):
    assert _run("simulate", "--task", "9", "--out", str(tmp_path / "x")) == 1


def test_usage_error_exit_code():
    assert _run("run", "--input", "x") == 1  # missing --out


def test_run_missing_input(tmp_path):
    code = _run("run", "--input", str(tmp_path / "missing"),
                "--out", str(tmp_path / "s.txt"))
    assert code == 2


def test_run_unsupported_localizer_geometry(tmp_path):
    out = tmp_path / "dicit"
    assert _run("simulate", "--task", "1", "--seed", "0", "--duration", "1",
                "--array", "dicit_32cm", "--out", str(out)) == 0
    code = _run("run", "--input", str(out), "--localizer", "pseudo-intensity",
                "--out", str(tmp_path / "s.txt"))
    assert code == 2


def test_run_writes_submission_and_manifest(scene_dir, tmp_path):
    sub_path = tmp_path / "sub.txt"
    code = _run("run", "--input", str(scene_dir), "--localizer", "srp-phat",
                "--tracker", "kalman", "--out", str(sub_path))
    assert code == 0
    sub = read_submission(sub_path)
    assert len(sub.timestamps) > 0
    assert sub.max_id >= 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert "config_sha256" in manifest


def test_evaluate_self_and_reports(scene_dir, tmp_path):
    sub_path = tmp_path / "sub.txt"
    assert _run("run", "--input", str(scene_dir), "--localizer", "srp-phat",
                "--tracker", "kalman", "--out", str(sub_path)) == 0
    out_dir = tmp_path / "report"
    code = _run("evaluate", "--input", str(scene_dir), "--submission",
                str(sub_path), "--ospa-p", "1,5", "--ospa-c", "30",
                "--ospa-series", "--out", str(out_dir))
    assert code == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert "ospa_p1_c30_mean" in metrics and "ospa_p5_c30_mean" in metrics
    assert metrics["mean_azimuth_error_deg"] < 5.0
    csv_header = (out_dir / "metrics.csv").read_text().splitlines()[0]
    assert "p_d" in csv_header.split(",")
    series = (out_dir / "ospa_series.csv").read_text().splitlines()
    assert series[0].startswith("timestamp,")
    assert _run("report", str(out_dir / "metrics.json")) == 0


def test_evaluate_clock_mismatch(scene_dir, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("timestamp source_id azimuth_deg\n0.123456 1 10.0\n")
    code = _run("evaluate", "--input", str(scene_dir), "--submission", str(bad),
                "--out", str(tmp_path / "rep"))
    assert code == 2


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": 2, "duration": 1.0}))
    out = tmp_path / "out"
    # flag --task 1 overrides the config file's task 2
    assert _run("simulate", "--config", str(cfg), "--task", "1", "--seed", "0",
                "--out", str(out)) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["task"] == 1
    assert len(meta["sources"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["duration"] == 1.0


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert _run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1


def test_music_two_source_ids(tmp_path):
    out = tmp_path / "task2"
    assert _run("simulate", "--task", "2", "--seed", "12", "--duration", "4",
                "--out", str(out)) == 0
    meta = json.loads((out / "metadata.json").read_text())
    n = len(meta["sources"])
    sub_path = tmp_path / "sub.txt"
    assert _run("run", "--input", str(out), "--localizer", "music",
                "--tracker", "kalman", "--n-sources", str(n),
                "--out", str(sub_path)) == 0
    sub = read_submission(sub_path)
    ids = {k for t in sub.timestamps for k, _ in sub.at(t)}
    assert len(ids) >= 2


def test_music_skips_ill_conditioned_blocks():
    # Digital silence between two short bursts. Most blocks are silent, so the
    # relative energy gate (5 % of the 90th percentile) passes them, and their
    # all-zero correlation matrices are ill-conditioned.
    from doatrack.cli import localize_stream
    from doatrack.geometry import get_array_preset
    from doatrack.localize import IllConditionedError, azimuth_grid, music_spectrum
    from doatrack.sigproc import MultichannelAudio, frame_signal
    from synthutil import plane_wave_audio

    fs = 48000.0
    geom = get_array_preset("robot_head")
    samples = plane_wave_audio(geom, math.radians(40.0), n=4 * 48000, snr_db=20).samples
    samples[:, 4096:-8192] = 0.0
    audio = MultichannelAudio(samples, fs)
    silent = frame_signal(audio, 2048, 1024)[40:52]
    with pytest.raises(IllConditionedError):
        music_spectrum(silent, geom, azimuth_grid(1.0), 1, fs)
    estimates = localize_stream(audio, geom, "music", fs)
    times = [e.timestamp for e in estimates]
    assert min(times) < 0.3 and max(times) > 3.6
    for est in estimates:
        assert abs(math.degrees(est.doa.azimuth) - 40.0) <= 5.0


@pytest.mark.parametrize("localizer", ["srp-phat", "music", "gcc-phat", "pseudo-intensity"])
def test_digital_silence_gives_empty_submission(scene_dir, localizer):
    from doatrack.cli import run_pipeline
    bundle = read_recording(scene_dir)
    silent = MultichannelAudio(np.zeros((12, 2 * 48000)), bundle.audio.sample_rate_hz)
    submission = run_pipeline(replace(bundle, audio=silent), localizer, "kalman")
    assert sum(len(submission.at(t)) for t in submission.timestamps) == 0


def _write_altered(scene_dir, out, samples):
    bundle = read_recording(scene_dir)
    audio = MultichannelAudio(samples(bundle.audio.samples), bundle.audio.sample_rate_hz)
    write_recording(replace(bundle, audio=audio), out)
    return out


@pytest.mark.parametrize("localizer", ["srp-phat", "music", "gcc-phat", "pseudo-intensity"])
def test_run_rejects_channel_count_mismatch(scene_dir, tmp_path, capsys, localizer):
    # 4 channels against the 12-mic robot_head preset
    rec = _write_altered(scene_dir, tmp_path / "four", lambda x: x[:4])
    code = _run("run", "--input", str(rec), "--localizer", localizer,
                "--out", str(tmp_path / "s.txt"))
    assert code == 2
    err = capsys.readouterr().err
    assert "4 audio channels" in err and "12 microphones" in err
    assert not (tmp_path / "s.txt").exists()


def test_run_rejects_non_finite_audio(scene_dir, tmp_path, capsys):
    def one_nan(x):
        x = x.copy()
        x[3, 60000] = np.nan
        return x

    rec = _write_altered(scene_dir, tmp_path / "nan", one_nan)
    code = _run("run", "--input", str(rec), "--localizer", "srp-phat",
                "--out", str(tmp_path / "s.txt"))
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "channel 3" in err and "sample 60000" in err
    assert not (tmp_path / "s.txt").exists()

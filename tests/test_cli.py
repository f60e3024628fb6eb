import json
import math
import shutil
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


@pytest.mark.parametrize("flag,value,field", [
    ("--snr", "nan", "snr_db"), ("--snr", "-inf", "snr_db"),
    ("--duration", "nan", "duration"), ("--duration", "inf", "duration"),
    ("--duration", "-1", "duration"), ("--duration", "0", "duration")])
def test_simulate_rejects_a_nan_snr_or_a_bad_duration(tmp_path, capsys, flag, value, field):
    out = tmp_path / "scene"
    assert _run("simulate", "--task", "4", f"{flag}={value}", "--out", str(out)) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    assert _run("run", "--input", "x") == 1  # missing --out


def test_run_missing_input(tmp_path):
    code = _run("run", "--input", str(tmp_path / "missing"),
                "--out", str(tmp_path / "s.txt"))
    assert code == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--hop", "0", "hop must be >= 1"), ("--hop", "-1", "hop must be >= 1"),
    ("--window", "0", "window_length must be >= 1"),
    ("--block-stride", "0", "block_stride must be >= 1"),
    ("--block-stride", "-1", "block_stride must be >= 1"),
    ("--block-frames", "0", "block_frames must be >= 1"),
    # the default band runs 300..4000 Hz
    ("--band-low", "5000", "band_hz must run from low to high"),
    ("--band-high", "300", "band_hz must run from low to high")])
@pytest.mark.parametrize("localizer", ["srp-phat", "gcc-phat"])
def test_run_rejects_bad_window_or_hop(scene_dir, tmp_path, capsys, localizer, flag, value,
                                       message):
    code = _run("run", "--input", str(scene_dir), "--localizer", localizer, flag, value,
                "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("localizer,frames", [("srp-phat", 8), ("music", 12)])
def test_run_rejects_a_window_longer_than_the_recording(scene_dir, tmp_path, capsys, localizer,
                                                        frames):
    # the 4 s scene has 192000 samples per channel, fewer than one window
    code = _run("run", "--input", str(scene_dir), "--localizer", localizer,
                "--window", "200000", "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert (f"recording has 192000 samples per channel, fewer than one {localizer} block of "
            f"{200000 + (frames - 1) * 1024}") in capsys.readouterr().err
    assert not (tmp_path / "s.txt").exists()


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


def test_gcc_phat_submission_ignores_the_band(scene_dir, tmp_path):
    # gcc-phat reads every bin, so a band that SRP-PHAT would narrow changes nothing
    subs = []
    for name, band in (("default", ()), ("narrow", ("--band-low", "1000", "--band-high", "1500"))):
        path = tmp_path / name / "sub.txt"
        assert _run("run", "--input", str(scene_dir), "--localizer", "gcc-phat",
                    *band, "--out", str(path)) == 0
        subs.append(path.read_bytes())
    assert subs[0] == subs[1] and len(subs[0].splitlines()) > 1


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


def test_default_manifests_keep_their_config_hash(scene_dir, tmp_path):
    # the hash covers each option's JSON form: window 2048 stays an int, band_low
    # 300.0 and gate 30.0 stay floats
    sub_path = tmp_path / "run" / "sub.txt"
    assert _run("run", "--input", str(scene_dir), "--out", str(sub_path)) == 0
    assert _run("evaluate", "--input", str(scene_dir), "--submission", str(sub_path),
                "--out", str(tmp_path / "evaluate")) == 0
    for command, sha in (
            ("run", "0549114b056155f50c85dffb67351f3ba7fe8f1428d4d8c699c5b805a5eedd55"),
            ("evaluate", "006d5467b9377759767d2457ce151f48497c70403c3a55181631240b06d123a9")):
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["config_sha256"] == sha


def test_evaluate_of_a_written_submission_matches_the_in_memory_one(scene_dir, tmp_path):
    # the file carries 6-decimal times; each row still scores at its clock tick
    from doatrack.pipeline import run_pipeline
    from doatrack.evaluate import evaluate_submission
    sub_path, out_dir = tmp_path / "sub.txt", tmp_path / "report"
    assert _run("run", "--input", str(scene_dir), "--localizer", "srp-phat",
                "--tracker", "kalman", "--out", str(sub_path)) == 0
    assert _run("evaluate", "--input", str(scene_dir), "--submission", str(sub_path),
                "--out", str(out_dir)) == 0
    from_disk = json.loads((out_dir / "metrics.json").read_text())
    bundle = read_recording(scene_dir)
    in_memory = evaluate_submission(
        bundle.source_trajectories, bundle.array_trajectory, bundle.vaps,
        run_pipeline(bundle, "srp-phat", "kalman"), bundle.array_trajectory.timestamps,
        bundle.audio.duration).to_dict()
    assert from_disk.keys() == in_memory.keys()
    assert in_memory["valid_count"] > 0
    for key, value in in_memory.items():
        if isinstance(value, float):  # angles are on disk at 6 decimals
            assert from_disk[key] == pytest.approx(value, abs=1e-5), key
        else:
            assert from_disk[key] == value, key


def test_evaluate_clock_mismatch(scene_dir, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("timestamp source_id azimuth_deg\n0.123456 1 10.0\n")
    code = _run("evaluate", "--input", str(scene_dir), "--submission", str(bad),
                "--out", str(tmp_path / "rep"))
    assert code == 2


def test_evaluate_two_rows_of_one_id_at_one_tick(scene_dir, tmp_path):
    # both times lie within 1e-6 s of tick 1, so id 1 would be scored twice there
    bad = tmp_path / "bad.txt"
    bad.write_text("timestamp source_id azimuth_deg\n0.008333 1 10.0\n0.008334 1 12.0\n")
    code = _run("evaluate", "--input", str(scene_dir), "--submission", str(bad),
                "--out", str(tmp_path / "rep"))
    assert code == 2


def test_evaluate_rejects_a_nan_vap_bound(scene_dir, tmp_path, capsys):
    # a NaN bound used to pass and score p_d, FAR and TFR as NaN with exit 0
    scene = tmp_path / "scene"
    shutil.copytree(scene_dir, scene)
    (scene / "vap_source_src1.txt").write_text("# start end\nnan 1.5\n")
    sub = tmp_path / "sub.txt"
    sub.write_text("timestamp source_id azimuth_deg\n0.000000 1 10.0\n")
    code = _run("evaluate", "--input", str(scene), "--submission", str(sub),
                "--out", str(tmp_path / "rep"))
    assert code == 2
    assert "vap_source_src1.txt: VAP bound is NaN" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--ospa-p", "abc", "ospa_p must be"), ("--ospa-p", "0.5", "ospa_p must be"),
    ("--ospa-p", "1,nan", "ospa_p must be"), ("--ospa-c", "0", "ospa_c must be"),
    ("--ospa-c", "nan", "ospa_c must be"), ("--gate", "-5", "gate must be"),
    ("--gate", "0", "gate must be"), ("--gate", "nan", "gate must be"),
    ("--gate", "inf", "gate must be"), ("--ospa-p", "-5", "ospa_p must be"),
    ("--ospa-p", "0", "ospa_p must be"), ("--ospa-p", "nan", "ospa_p must be"),
    ("--ospa-p", "inf", "ospa_p must be"), ("--ospa-c", "-5", "ospa_c must be"),
    ("--ospa-c", "inf", "ospa_c must be")])
def test_evaluate_rejects_a_bad_option_before_reading_any_file(tmp_path, capsys, flag, value,
                                                               message):
    # neither file exists, so reading one first would give a data error (2)
    code = _run("evaluate", "--input", str(tmp_path / "missing"),
                "--submission", str(tmp_path / "missing.txt"), f"{flag}={value}",
                "--out", str(tmp_path / "rep"))
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


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


@pytest.mark.parametrize("content", ["5", "[1]", '"task"'])
def test_config_file_that_is_not_an_object(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert _run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("config,message", [
    ({"n_sources": "two"}, "'n_sources' must be int"),
    ({"n_sources": 2.0}, "'n_sources' must be int"),
    ({"seed": True}, "'seed' must be int"),
    ({"band_low": "300"}, "'band_low' must be float"),
    ({"localizer": "beamformer"}, "'localizer' must be one of"),
    ({"tracker": 1}, "'tracker' must be str")])
def test_config_file_value_of_wrong_type(scene_dir, tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = _run("run", "--input", str(scene_dir), "--config", str(cfg),
                "--out", str(tmp_path / "s.txt"))
    assert code == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and message in err
    assert not (tmp_path / "s.txt").exists()


def test_config_file_switch_takes_only_a_bool(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ospa_series": 1}))
    assert _run("evaluate", "--input", str(tmp_path), "--submission", str(tmp_path / "s.txt"),
                "--config", str(cfg), "--out", str(tmp_path / "rep")) == 1


def test_config_file_int_duration_is_kept_as_loaded(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"duration": 1}))
    out = tmp_path / "out"
    assert _run("simulate", "--config", str(cfg), "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["duration"] == 1
    assert isinstance(manifest["config"]["duration"], int)
    assert read_recording(out).audio.length == 48000


@pytest.mark.parametrize("localizer,tracker,n_sources", [
    ("srp-phat", "kalman", 0), ("gcc-phat", "kalman", 2), ("pseudo-intensity", "kalman", 2),
    ("music", "kalman", 0), ("music", "kalman", 12), ("srp-phat", "none", 2)])
def test_run_rejects_a_source_count_the_stages_cannot_give(scene_dir, tmp_path, capsys,
                                                           localizer, tracker, n_sources):
    # robot_head has 12 microphones, so MUSIC finds at most 11 sources
    code = _run("run", "--input", str(scene_dir), "--localizer", localizer,
                "--tracker", tracker, "--n-sources", str(n_sources),
                "--out", str(tmp_path / "s.txt"))
    assert code == 1
    assert f"n_sources {n_sources}" in capsys.readouterr().err
    assert not (tmp_path / "s.txt").exists()


def test_cli_binds_the_pipeline_stages():
    # perfbench calls and traces the stages through these names on the CLI module
    from doatrack import cli, pipeline
    for name in ("run_pipeline", "localize_stream", "track_stream", "resample_tracks",
                 "TRACKERS"):
        assert getattr(cli, name) is getattr(pipeline, name), name


def test_tracker_names_are_the_benchmark_mix():
    # perfbench's track_eval runs one op per name here, so a renamed or
    # dropped tracker would change that workload
    from doatrack import cli
    assert cli.TRACKERS == ("kalman", "wrapped-kalman", "particle", "none")


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


def test_srp_phat_gives_one_estimate_per_source():
    from doatrack.pipeline import localize_stream
    from doatrack.geometry import get_array_preset
    from synthutil import plane_wave_audio

    fs = 48000.0
    geom = get_array_preset("robot_head")
    a = plane_wave_audio(geom, math.radians(49.0), n=48000, seed=0, snr_db=15)
    b = plane_wave_audio(geom, math.radians(-100.0), n=48000, seed=1)
    audio = MultichannelAudio(a.samples + b.samples, fs)
    estimates = localize_stream(audio, geom, "srp-phat", fs, n_sources=2)
    by_block = {}
    for est in estimates:
        by_block.setdefault(est.timestamp, []).append(math.degrees(est.doa.azimuth))
    assert len(by_block) >= 5
    for azimuths in by_block.values():
        assert sorted(azimuths) == [pytest.approx(-100.0, abs=5.0), pytest.approx(49.0, abs=5.0)]


def test_music_skips_ill_conditioned_blocks():
    # Digital silence between two short bursts. Most blocks are silent, so the
    # relative energy gate (5 % of the 90th percentile) passes them, and their
    # all-zero correlation matrices are ill-conditioned.
    from doatrack.pipeline import localize_stream
    from doatrack.geometry import get_array_preset
    from doatrack.localize import azimuth_grid, music_spectrum
    from doatrack.sigproc import Blocks, MultichannelAudio, frame_signal
    from synthutil import plane_wave_audio

    fs = 48000.0
    geom = get_array_preset("robot_head")
    samples = plane_wave_audio(geom, math.radians(40.0), n=4 * 48000, snr_db=20).samples
    samples[:, 4096:-8192] = 0.0
    audio = MultichannelAudio(samples, fs)
    silent = frame_signal(audio, 2048, 1024)[40:52]
    assert np.isnan(music_spectrum(Blocks.whole(silent), geom, azimuth_grid(1.0), 1, fs)).all()
    estimates = localize_stream(audio, geom, "music", fs)
    times = [e.timestamp for e in estimates]
    assert min(times) < 0.3 and max(times) > 3.6
    for est in estimates:
        assert abs(math.degrees(est.doa.azimuth) - 40.0) <= 5.0


@pytest.mark.parametrize("localizer", ["srp-phat", "music", "gcc-phat", "pseudo-intensity"])
def test_digital_silence_gives_empty_submission(scene_dir, localizer):
    from doatrack.pipeline import run_pipeline
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


def _one_nan(samples):
    samples = samples.copy()
    samples[3, 60000] = np.nan
    return samples


AUDIO_FAULTS = {
    "four channels": (lambda x: x[:4], "4 audio channels"),
    "one nan": (_one_nan, "non-finite sample (nan) in channel 3 at sample 60000"),
}


@pytest.mark.parametrize("fault", sorted(AUDIO_FAULTS))
@pytest.mark.parametrize("localizer", ["srp-phat", "music", "gcc-phat", "pseudo-intensity"])
def test_localize_stream_rejects_audio_that_does_not_fit_the_array(scene_dir, localizer, fault):
    from doatrack.corpus_io import CorpusFormatError
    from doatrack.geometry import get_array_preset
    from doatrack.pipeline import localize_stream
    audio = read_recording(scene_dir).audio
    alter, message = AUDIO_FAULTS[fault]
    altered = MultichannelAudio(alter(audio.samples), audio.sample_rate_hz)
    with pytest.raises(CorpusFormatError) as err:
        localize_stream(altered, get_array_preset("robot_head"), localizer,
                        audio.sample_rate_hz)
    assert message in str(err.value)


METADATA_FAULTS = {
    "unknown array": (lambda meta: {**meta, "array": "foo"}, "names array 'foo'"),
    "no array": (lambda meta: {k: v for k, v in meta.items() if k != "array"}, "names no array"),
    "list": (lambda meta: [meta], "metadata.json: not a JSON object"),
    "sources string": (lambda meta: {**meta, "sources": "src1"},
                       "metadata.json: sources must be a list of source names"),
}


@pytest.mark.parametrize("fault", sorted(METADATA_FAULTS))
def test_run_rejects_bad_metadata_as_a_data_error(scene_dir, tmp_path, capsys, fault):
    rec = tmp_path / "rec"
    shutil.copytree(scene_dir, rec)
    alter, message = METADATA_FAULTS[fault]
    meta = json.loads((rec / "metadata.json").read_text())
    (rec / "metadata.json").write_text(json.dumps(alter(meta)))
    code = _run("run", "--input", str(rec), "--out", str(tmp_path / "s.txt"))
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    if "array" in fault:
        assert "dicit, dicit_32cm, eigenmike, hearing_aids, robot_head" in err
    assert not (tmp_path / "s.txt").exists()


# samples in one analysis block at the defaults (2048-sample window, hop
# 1024, 8 frames); MUSIC takes at least one frame per microphone (12)
BLOCK_SAMPLES = {"srp-phat": 9216, "music": 13312, "gcc-phat": 9216,
                 "pseudo-intensity": 9216}


@pytest.mark.parametrize("localizer", ["srp-phat", "music", "gcc-phat", "pseudo-intensity"])
def test_run_rejects_audio_shorter_than_one_block(scene_dir, localizer):
    from doatrack.pipeline import run_pipeline
    from doatrack.corpus_io import CorpusFormatError
    bundle = read_recording(scene_dir)
    need = BLOCK_SAMPLES[localizer]

    def clipped(n):
        return replace(bundle, audio=MultichannelAudio(bundle.audio.samples[:, 48000:48000 + n],
                                                       bundle.audio.sample_rate_hz))

    with pytest.raises(CorpusFormatError) as err:
        run_pipeline(clipped(need - 1), localizer, "kalman")
    assert f"{need - 1} samples" in str(err.value) and f"block of {need}" in str(err.value)
    run_pipeline(clipped(need), localizer, "kalman")

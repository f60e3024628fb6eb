"""Inputs, operations and output checks of the three benchmark workloads.

Each ``setup_*`` function turns a workload seed into a list of `Op`s, one
round of the workload's mix. An op's ``run`` does the timed work through
the public library API, always looked up on the module at call time so the
tracer's wrappers see it; its ``check`` verifies the output outside the
timed region, raising `OutputCheckError` on a wrong result, and returns the
accuracy scores of a scored op (None for ``synth``).
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from doatrack import cli, corpus_io, evaluate, simulate
from doatrack.evaluate import OspaParams, VapTable
from doatrack.geometry import Doa, wrap_angle
from doatrack.localize import DoaEstimate

ALL_LOCALIZERS = ("srp-phat", "music", "gcc-phat", "pseudo-intensity")

# synth: (array, task, seconds). Three array sizes, a moving and rotating
# array (task 5) and two moving sources (task 4); eigenmike synthesis costs
# about 8 s per audio second, hence its short clip.
SYNTH_MIX = (
    ("robot_head", 5, 1.0),
    ("dicit_32cm", 4, 1.0),
    ("eigenmike", 4, 0.25),
)

# localize: (array, task, seconds, localizers). The arrays give 10, 66 and
# 496 mic pairs for the same SRP code. pseudo-intensity needs a spherical
# array, so dicit_32cm skips it; the eigenmike clip is shorter than one
# 32-frame MUSIC block, so it skips music.
LOCALIZE_SCENES = (
    ("robot_head", 1, 0.75, ALL_LOCALIZERS),
    ("robot_head", 4, 0.75, ALL_LOCALIZERS),
    ("dicit_32cm", 4, 0.75, ("srp-phat", "music", "gcc-phat")),
    ("eigenmike", 4, 0.4, ("srp-phat", "gcc-phat", "pseudo-intensity")),
)

# Sources speak from VAP_MARGIN after the start to VAP_MARGIN before the end
# of every localize scene. The presets' random pauses would change the number
# of blocks that pass the energy gate, and so the work per op, from seed to
# seed; positions, motion, signals and noise still come from the seed.
VAP_MARGIN = 0.1  # s

# track_eval: (task, seconds) of ground truth turned into estimate streams.
# Evaluation cost grows faster than duration (interpolate_pose rebuilds the
# trajectory's timestamp array on every call), which long streams expose.
TRACK_SCENES = ((4, 6.0), (6, 6.0))

# Estimate streams mimic localize_stream's output: one block per
# block_stride * hop samples at 48 kHz (11.7 Hz), 3 degrees of noise, about
# 10 % missed detections and Poisson clutter.
BLOCK_RATE_HZ = 48000.0 / (4 * 1024)
STREAM_NOISE_DEG = 3.0
STREAM_MISS_PROB = 0.1
STREAM_CLUTTER_PER_BLOCK = 0.2

OSPA = (OspaParams(1.0, 30.0), OspaParams(5.0, 30.0))

# accuracy metric -> MetricsReport.to_dict() key
SCORED = {
    "az_err_deg": "mean_azimuth_error_deg",
    "p_d": "p_d",
    "far_per_s": "far_recording",
    "ospa_p1_deg": "ospa_p1_c30_mean",
    "tfr": "tfr",
}

# read_submission gets timestamps printed with 6 decimals and angles in
# degrees with ANGLE_DECIMALS decimals
TIME_TOLERANCE = 5.01e-7
ANGLE_TOLERANCE_DEG = 0.51 * 10.0 ** -corpus_io.ANGLE_DECIMALS


class OutputCheckError(Exception):
    """An op returned an output that the benchmark's checks reject."""


@dataclass(frozen=True)
class Op:
    name: str
    audio_s: float  # seconds of recording or estimate stream the op processes
    run: Callable[[], object]
    check: Callable[[object], dict | None]


# ---------------------------------------------------------------------------
# synth: synthesize, write, read back
# ---------------------------------------------------------------------------

def setup_synth(seed: int, workdir: Path, mix=SYNTH_MIX) -> list:
    ops = []
    for i, (array, task, seconds) in enumerate(mix):
        config = simulate.task_preset(task, seed, duration=seconds, array=array)
        out_dir = workdir / f"recording{i}"
        ops.append(Op(f"{array}/task{task}", seconds,
                      partial(_synth_op, config, out_dir),
                      partial(_check_recording, out_dir)))
    return ops


def _synth_op(config, out_dir: Path):
    bundle = corpus_io.bundle_from_scene(simulate.synthesize(config))
    corpus_io.write_recording(bundle, out_dir)
    return bundle, corpus_io.read_recording(out_dir)


def _check_recording(out_dir: Path, output) -> None:
    written, back = output
    shutil.rmtree(out_dir)
    if back.audio.sample_rate_hz != written.audio.sample_rate_hz:
        raise OutputCheckError("sample rate changed in the round trip")
    if not np.array_equal(back.audio.samples, written.audio.samples):
        raise OutputCheckError("samples read back differ from the samples written")
    pairs = [(written.array_trajectory, back.array_trajectory)]
    if written.source_trajectories.keys() != back.source_trajectories.keys():
        raise OutputCheckError("source names changed in the round trip")
    pairs += [(traj, back.source_trajectories[name])
              for name, traj in written.source_trajectories.items()]
    for a, b in pairs:
        # positions are written with %.17g, which round-trips a double exactly
        if not (np.array_equal(a.timestamps, b.timestamps)
                and all(np.array_equal(p.translation, q.translation)
                        and np.array_equal(p.rotation, q.rotation)
                        for p, q in zip(a.samples, b.samples))):
            raise OutputCheckError("poses read back differ from the poses written")
    if back.vaps.intervals != written.vaps.intervals:
        raise OutputCheckError("activity periods changed in the round trip")


# ---------------------------------------------------------------------------
# localize: run_pipeline + evaluate_submission on synthesized scenes
# ---------------------------------------------------------------------------

def _steady_activity(config):
    vaps = ((VAP_MARGIN, config.duration - VAP_MARGIN),)
    return replace(config, sources=tuple(replace(s, vaps=vaps) for s in config.sources))


def setup_localize(seed: int, workdir: Path, scenes=LOCALIZE_SCENES) -> list:
    submission_path = workdir / "submission.txt"
    ops = []
    for array, task, seconds, localizers in scenes:
        config = _steady_activity(simulate.task_preset(task, seed, duration=seconds,
                                                       array=array))
        bundle = corpus_io.bundle_from_scene(simulate.synthesize(config))
        clock = bundle.array_trajectory.timestamps
        check = partial(_check_scored, frozenset(clock.tolist()), submission_path)
        for localizer in localizers:
            ops.append(Op(f"{array}/task{task}/{localizer}", seconds,
                          partial(_localize_op, bundle, localizer), check))
    return ops


def _localize_op(bundle, localizer: str):
    submission = cli.run_pipeline(bundle, localizer, "kalman")
    report = evaluate.evaluate_submission(
        bundle.source_trajectories, bundle.array_trajectory, bundle.vaps, submission,
        bundle.array_trajectory.timestamps, bundle.audio.duration, ospa_params=OSPA)
    return submission, report


# ---------------------------------------------------------------------------
# track_eval: track_stream + resample_tracks + evaluate_submission, no audio
# ---------------------------------------------------------------------------

def setup_track_eval(seed: int, workdir: Path, scenes=TRACK_SCENES) -> list:
    submission_path = workdir / "submission.txt"
    ops = []
    for task, seconds in scenes:
        config = simulate.task_preset(task, seed, duration=seconds)
        names = [f"src{i + 1}" for i in range(len(config.sources))]
        truth = {
            "source_trajectories": dict(zip(names, (s.trajectory for s in config.sources))),
            "array_trajectory": config.array_trajectory,
            "vaps": VapTable(dict(zip(names, (s.vaps for s in config.sources)))),
            "clock": config.array_trajectory.timestamps,
            "recording_duration": seconds,
        }
        stream = _estimate_stream(truth, np.random.default_rng((seed, task)))
        check = partial(_check_scored, frozenset(truth["clock"].tolist()), submission_path)
        for tracker in cli.TRACKERS:
            ops.append(Op(f"task{task}/{tracker}", seconds,
                          partial(_track_eval_op, stream, tracker, truth), check))
    return ops


def _estimate_stream(truth: dict, rng: np.random.Generator) -> list:
    """Noisy, gappy, cluttered azimuth estimates of the active sources."""
    doas_at = evaluate.ground_truth_doas(truth["source_trajectories"],
                                         truth["array_trajectory"])
    vaps = truth["vaps"]
    noise = math.radians(STREAM_NOISE_DEG)
    stream = []
    for t in np.arange(0.5 / BLOCK_RATE_HZ, truth["recording_duration"], 1.0 / BLOCK_RATE_HZ):
        t = float(t)
        doas = doas_at(t)
        for name in vaps.active_sources(t):
            if rng.random() >= STREAM_MISS_PROB:
                az = doas[name].azimuth + noise * rng.standard_normal()
                stream.append(DoaEstimate(t, Doa(wrap_angle(az))))
        for _ in range(rng.poisson(STREAM_CLUTTER_PER_BLOCK)):
            stream.append(DoaEstimate(t, Doa(float(rng.uniform(-math.pi, math.pi)))))
    return stream


def _track_eval_op(stream, tracker: str, truth: dict):
    tracks = cli.track_stream(stream, tracker, seed=0)
    submission = cli.resample_tracks(tracks, truth["clock"])
    report = evaluate.evaluate_submission(
        truth["source_trajectories"], truth["array_trajectory"], truth["vaps"],
        submission, truth["clock"], truth["recording_duration"], ospa_params=OSPA)
    return submission, report


# ---------------------------------------------------------------------------
# Checks shared by the scored workloads
# ---------------------------------------------------------------------------

def _check_scored(clock: frozenset, submission_path: Path, output) -> dict:
    submission, report = output
    check_submission(submission, clock, submission_path)
    flat = report.to_dict()
    scores = {name: flat[key] for name, key in SCORED.items()}
    if not report.undefined:
        bad = [name for name, value in scores.items() if not math.isfinite(value)]
        if bad:
            raise OutputCheckError(f"non-finite scores: {bad}")
    return scores


def _rows(submission):
    return [(t, k, d) for t in submission.timestamps for k, d in submission.at(t)]


def check_submission(submission, clock: frozenset, path: Path) -> None:
    """Ids >= 1, timestamps on the evaluation clock, and a lossless round trip
    through write_submission/read_submission at the on-disk precision."""
    rows = _rows(submission)
    for t, k, _ in rows:
        if k < 1:
            raise OutputCheckError(f"track id {k} < 1 at t={t}")
        if t not in clock:
            raise OutputCheckError(f"timestamp {t} is not on the 120 Hz clock")
    corpus_io.write_submission(submission, path)
    back = _rows(corpus_io.read_submission(path))
    if len(back) != len(rows):
        raise OutputCheckError(f"{len(rows)} rows written, {len(back)} read back")
    for (t, k, d), (t2, k2, d2) in zip(rows, back):
        d_az = abs(math.degrees(wrap_angle(d.azimuth - d2.azimuth)))
        d_el = abs(math.degrees(d.elevation - d2.elevation))
        if (k != k2 or abs(t - t2) > TIME_TOLERANCE
                or d_az > ANGLE_TOLERANCE_DEG or d_el > ANGLE_TOLERANCE_DEG):
            raise OutputCheckError(f"submission row at t={t}, id {k} changed in the round trip")


SETUPS = {
    "synth": setup_synth,
    "localize": setup_localize,
    "track_eval": setup_track_eval,
}

"""Command-line driver: simulate scenes, run localizer+tracker pipelines,
evaluate submissions, and print reports.

Exit codes: 0 success, 1 usage/config error, 2 data error. Option
precedence: built-in defaults < --config file < explicit flags. Every
command writes a manifest (config hash, seed, version) beside its outputs;
the manifest contains no wall-clock fields so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .corpus_io import (CorpusFormatError, bundle_from_scene, read_recording,
                        read_submission, write_recording, write_submission)
from .evaluate import (DEFAULT_GATE_DEG, DEFAULT_OSPA_CUTOFF_DEG, OspaParams, Submission,
                       evaluate_submission)
from .geometry import SPEED_OF_SOUND, Doa, get_array_preset, wrap_angle
from .localize import (DEFAULT_BAND_HZ, PEAK_TIE_REL, DoaEstimate,
                       UnsupportedGeometryError, azimuth_grid, gcc_phat,
                       music_spectrum, peak_index, pseudo_intensity, srp_phat,
                       tdoa_to_azimuth)
from .sigproc import (BLOCK_FRAMES, BLOCK_STRIDE, DEFAULT_HOP, DEFAULT_WINDOW_LENGTH,
                      Blocks, frame_energies)
from .simulate import synthesize, task_preset
from .track import FILTERS, TrackerConfig, track_lifecycle

LOCALIZERS = ("srp-phat", "music", "gcc-phat", "pseudo-intensity")
TRACKERS = FILTERS + ("none",)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def localize_stream(audio, geometry, localizer: str, f_s: float,
                    n_sources: int = 1, block_frames: int = BLOCK_FRAMES,
                    block_stride: int = BLOCK_STRIDE,
                    window_length: int = DEFAULT_WINDOW_LENGTH, hop: int = DEFAULT_HOP,
                    band_hz=DEFAULT_BAND_HZ):
    """Localize every analysis block of a recording with one localizer call
    and emit time-ordered azimuth estimates.

    Blocks whose broadband power sits at the noise floor are skipped so
    pauses between utterances do not feed garbage to the tracker, and so are
    blocks a localizer finds silent or, for MUSIC, ill-conditioned. Audio
    shorter than one block raises CorpusFormatError.
    """
    if localizer not in LOCALIZERS:
        raise UsageError(f"unknown localizer {localizer!r}")
    if localizer == "pseudo-intensity":
        # fail before touching audio when the geometry cannot support it
        from .localize import _spherical_mic_directions
        _spherical_mic_directions(geometry)
    if localizer == "music":
        # the correlation estimate needs at least one frame per channel
        block_frames = max(block_frames, geometry.mic_count)
    frame_energy = frame_energies(audio, window_length, hop)
    if len(frame_energy) < block_frames:
        raise CorpusFormatError(
            f"recording has {audio.samples.shape[1]} samples per channel, fewer than "
            f"one {localizer} block of {window_length + (block_frames - 1) * hop}")
    energies = sliding_window_view(frame_energy, block_frames)[::block_stride].mean(axis=1)
    active = ~(energies < 0.05 * np.percentile(energies, 90))
    blocks = Blocks(audio, np.flatnonzero(active) * block_stride, block_frames,
                    window_length, hop)
    # the directions of each block; none for a block the localizer skipped
    if localizer == "gcc-phat":
        mics = geometry.mic_positions
        max_lags = [f_s / SPEED_OF_SOUND * float(np.linalg.norm(mics[l] - mics[m])) + 1.0
                    for m, l in geometry.pairs()]
        doas = [[doa] if doa is not None else []
                for doa in tdoa_to_azimuth(gcc_phat(blocks, max_lags), geometry, f_s)]
    elif localizer == "pseudo-intensity":
        doas = [[_mean_direction(per_frame)] if per_frame is not None else []
                for per_frame in pseudo_intensity(blocks, geometry, f_s, band_hz)]
    else:
        grid = azimuth_grid()
        spectra = (srp_phat(blocks, geometry, grid, f_s, band_hz)
                   if localizer == "srp-phat" else
                   music_spectrum(blocks, geometry, grid, n_sources, f_s, band_hz))
        doas = [[Doa(az) for az in _circular_peaks(grid.azimuths, spec.values, n_sources)]
                if spec is not None else [] for spec in spectra]
    return [DoaEstimate(float(t), doa)
            for t, block_doas in zip(blocks.times, doas) for doa in block_doas]


def _mean_direction(estimates) -> Doa:
    """Circular mean of the azimuths of per-frame estimates."""
    az = [e.doa.azimuth for e in estimates]
    return Doa(wrap_angle(math.atan2(np.mean(np.sin(az)), np.mean(np.cos(az)))))


def _circular_peaks(azimuths, values, k: int):
    """Top-k local maxima of a spectrum on a circular azimuth grid.

    Peaks are taken greedily, highest first, each at least 10 degrees from
    those already taken; ties follow `srp_argmax`'s rule.
    """
    tolerance = PEAK_TIE_REL * np.abs(values).max()
    is_peak = (values >= np.roll(values, 1)) & (values > np.roll(values, -1))
    candidates = np.flatnonzero(is_peak)
    picked = []
    min_sep = math.radians(10.0)
    while candidates.size and len(picked) < k:
        best = candidates[peak_index(values[candidates], azimuths[candidates], tolerance)]
        picked.append(azimuths[best])
        candidates = candidates[np.abs(wrap_angle(azimuths[candidates] - azimuths[best]))
                                >= min_sep]
    if not picked and len(values):
        picked.append(azimuths[peak_index(values, azimuths, tolerance)])
    return picked


def track_stream(estimates, tracker: str, seed: int = 0,
                 config: TrackerConfig = TrackerConfig()):
    """Turn raw estimates into labelled track series {id: [(t, azimuth), ...]}."""
    if tracker not in TRACKERS:
        raise UsageError(f"unknown tracker {tracker!r}")
    if tracker == "none":
        tracks: dict = {}
        for est in estimates:
            tracks.setdefault(est.source_id, []).append((est.timestamp,
                                                         est.doa.azimuth))
        return tracks
    return track_lifecycle(estimates, config, tracker, seed)


def resample_tracks(tracks: dict, clock) -> Submission:
    """Interpolate each track's azimuth onto the evaluation clock."""
    clock = np.asarray(clock, dtype=float)
    rows = []
    for tid, series in tracks.items():
        if not series:
            continue
        times, azimuths = np.array(series, dtype=float).T
        inside = (clock >= times[0]) & (clock <= times[-1])
        rows.append((clock[inside], np.full(inside.sum(), tid),
                     np.interp(clock[inside], times, np.unwrap(azimuths))))
    columns = [np.concatenate(column) for column in zip(*rows)] if rows else [[], [], []]
    return Submission.from_rows(*columns)


def run_pipeline(bundle, localizer: str, tracker: str, n_sources: int = 1,
                 seed: int = 0, clock=None, **localizer_kwargs) -> Submission:
    """Recording bundle in, submission out: frontend, localizer, tracker, resample.

    Raises CorpusFormatError when the audio's channel count differs from the
    array preset's microphone count, any sample is not finite, or the audio
    is shorter than one analysis block of the localizer.
    """
    geometry = get_array_preset(bundle.metadata["array"])
    audio = bundle.audio
    if audio.channel_count != geometry.mic_count:
        raise CorpusFormatError(
            f"recording has {audio.channel_count} audio channels but array "
            f"{geometry.name!r} has {geometry.mic_count} microphones")
    finite = np.isfinite(audio.samples)
    if not finite.all():
        channel, index = np.argwhere(~finite)[0]
        raise CorpusFormatError(
            f"recording has a non-finite sample ({audio.samples[channel, index]}) "
            f"in channel {channel} at sample {index}")
    f_s = audio.sample_rate_hz
    estimates = localize_stream(audio, geometry, localizer, f_s,
                                n_sources=n_sources, **localizer_kwargs)
    tracks = track_stream(estimates, tracker, seed=seed)
    if clock is None:
        clock = bundle.array_trajectory.timestamps
    return resample_tracks(tracks, clock)


# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------

def _merge_options(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise FileNotFoundError(f"missing config file: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON at line {exc.lineno}") from None
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise UsageError(f"{path}: unknown options {sorted(unknown)}")
        merged.update(loaded)
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    return merged


def _write_manifest(out_dir: Path, command: str, options: dict) -> None:
    canonical = json.dumps(options, sort_keys=True)
    manifest = {
        "command": command,
        "config": options,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": options.get("seed"),
        "version": __version__,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "task": 1, "seed": 0, "duration": 10.0, "array": "robot_head",
    "snr": 20.0,
}


def cmd_simulate(args) -> int:
    opts = _merge_options(SIMULATE_DEFAULTS, args)
    if not 1 <= int(opts["task"]) <= 6:
        raise UsageError(f"task must be 1..6, got {opts['task']}")
    config = task_preset(int(opts["task"]), int(opts["seed"]),
                         duration=float(opts["duration"]),
                         array=str(opts["array"]), snr_db=float(opts["snr"]))
    scene = synthesize(config)
    out = Path(args.out)
    bundle = bundle_from_scene(scene, recording_id=out.name or "sim")
    write_recording(bundle, out)
    _write_manifest(out, "simulate", opts)
    print(f"wrote scene: {out} ({scene.audio.channel_count} ch, "
          f"{scene.audio.duration:.2f} s)")
    return 0


RUN_DEFAULTS = {
    "localizer": "srp-phat", "tracker": "kalman", "n_sources": 1, "seed": 0,
    "block_frames": BLOCK_FRAMES, "block_stride": BLOCK_STRIDE,
    "window": DEFAULT_WINDOW_LENGTH, "hop": DEFAULT_HOP, "band_low": DEFAULT_BAND_HZ[0], "band_high": DEFAULT_BAND_HZ[1],
}


def cmd_run(args) -> int:
    opts = _merge_options(RUN_DEFAULTS, args)
    if opts["localizer"] not in LOCALIZERS:
        raise UsageError(f"unknown localizer {opts['localizer']!r}")
    if opts["tracker"] not in TRACKERS:
        raise UsageError(f"unknown tracker {opts['tracker']!r}")
    bundle = read_recording(args.input)
    submission = run_pipeline(
        bundle, opts["localizer"], opts["tracker"],
        n_sources=int(opts["n_sources"]), seed=int(opts["seed"]),
        block_frames=int(opts["block_frames"]),
        block_stride=int(opts["block_stride"]),
        window_length=int(opts["window"]), hop=int(opts["hop"]),
        band_hz=(float(opts["band_low"]), float(opts["band_high"])),
    )
    out = Path(args.out)
    write_submission(submission, out)
    _write_manifest(out.parent, "run", opts)
    print(f"wrote submission: {out} ({len(submission.times)} rows, "
          f"{submission.max_id} track id(s))")
    return 0


EVALUATE_DEFAULTS = {
    "gate": DEFAULT_GATE_DEG, "ospa_p": "1,5", "ospa_c": DEFAULT_OSPA_CUTOFF_DEG,
    "ospa_series": False,
}


def cmd_evaluate(args) -> int:
    opts = _merge_options(EVALUATE_DEFAULTS, args)
    bundle = read_recording(args.input)
    if bundle.source_trajectories is None or bundle.vaps is None:
        raise CorpusFormatError(
            f"{args.input}: recording has no ground truth (evaluation split?)")
    submission = read_submission(args.submission)
    clock = bundle.array_trajectory.timestamps
    p_values = [float(p) for p in str(opts["ospa_p"]).split(",") if p]
    ospa_params = tuple(OspaParams(p, float(opts["ospa_c"])) for p in p_values)
    report = evaluate_submission(
        bundle.source_trajectories, bundle.array_trajectory, bundle.vaps,
        submission, clock, recording_duration=bundle.audio.duration,
        gate_deg=float(opts["gate"]), ospa_params=ospa_params,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    flat = report.to_dict()
    (out_dir / "metrics.json").write_text(json.dumps(flat, indent=2, sort_keys=True))
    keys = sorted(flat)
    with open(out_dir / "metrics.csv", "w") as fh:
        fh.write(",".join(keys) + "\n")
        fh.write(",".join(str(flat[k]) for k in keys) + "\n")
    if opts["ospa_series"]:
        with open(out_dir / "ospa_series.csv", "w") as fh:
            fh.write("timestamp," + ",".join(
                f"ospa_p{p:g}_c{c:g}" for (p, c) in report.ospa) + "\n")
            series = list(report.ospa.values())
            for i, t in enumerate(clock):
                fh.write(f"{t:.6f}," + ",".join(
                    f"{s.values[i]:.6f}" for s in series) + "\n")
    _write_manifest(out_dir, "evaluate", opts)
    _print_summary(flat)
    return 0


def _print_summary(flat: dict) -> None:
    rows = [(k, flat[k]) for k in sorted(flat)]
    width = max(len(k) for k, _ in rows)
    print("-" * (width + 14))
    for key, value in rows:
        if isinstance(value, float):
            print(f"{key:<{width}}  {value:>10.4f}")
        else:
            print(f"{key:<{width}}  {value}")
    print("-" * (width + 14))


def cmd_report(args) -> int:
    for path in args.metrics:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"missing metrics file: {p}")
        print(f"== {p} ==")
        _print_summary(json.loads(p.read_text()))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="doatrack",
                     description="Sound-source localization and tracking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize a scene to disk")
    p_sim.add_argument("--task", type=int, default=None, help="scenario 1..6")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--duration", type=float, default=None, help="seconds")
    p_sim.add_argument("--array", type=str, default=None)
    p_sim.add_argument("--snr", type=float, default=None, help="dB")
    p_sim.add_argument("--config", type=str, default=None, help="JSON options file")
    p_sim.add_argument("--out", type=str, required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="localize and track a recording")
    p_run.add_argument("--input", type=str, required=True, help="recording directory")
    p_run.add_argument("--localizer", type=str, default=None, choices=LOCALIZERS)
    p_run.add_argument("--tracker", type=str, default=None, choices=TRACKERS)
    p_run.add_argument("--n-sources", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--block-frames", type=int, default=None)
    p_run.add_argument("--block-stride", type=int, default=None)
    p_run.add_argument("--window", type=int, default=None)
    p_run.add_argument("--hop", type=int, default=None)
    p_run.add_argument("--band-low", type=float, default=None)
    p_run.add_argument("--band-high", type=float, default=None)
    p_run.add_argument("--config", type=str, default=None)
    p_run.add_argument("--out", type=str, required=True, help="submission file")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("evaluate", help="score a submission against ground truth")
    p_eval.add_argument("--input", type=str, required=True, help="recording directory")
    p_eval.add_argument("--submission", type=str, required=True)
    p_eval.add_argument("--gate", type=float, default=None, help="degrees")
    p_eval.add_argument("--ospa-p", type=str, default=None, help="comma list, e.g. 1,5")
    p_eval.add_argument("--ospa-c", type=float, default=None, help="cutoff, degrees")
    p_eval.add_argument("--ospa-series", action="store_true", default=None)
    p_eval.add_argument("--config", type=str, default=None)
    p_eval.add_argument("--out", type=str, required=True, help="report directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="print stored metrics")
    p_rep.add_argument("metrics", nargs="+", help="metrics.json files")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"doatrack: error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, CorpusFormatError, UnsupportedGeometryError,
            ValueError) as exc:
        print(f"doatrack: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of doatrack from outside the library.

`Tracer.install` replaces the public functions listed in `LAYER_FUNCTIONS`
with timing wrappers in every loaded ``doatrack`` module that refers to
them, because modules import each other's functions by name (``cli`` calls
its own binding of ``srp_phat``, ``evaluate`` its own ``interpolate_pose``).
`Tracer.uninstall` puts the originals back. Wrappers time only while
`Tracer.active` is set, so output checks run between operations are not
charged to any layer.

Each wrapped call is a span. A span's self time is its duration minus the
time covered by the wrapped calls it made; stats are aggregated per
``module.function`` as they close instead of keeping every span, because
``interpolate_pose`` alone closes tens of thousands of spans a round.
"""

from __future__ import annotations

import importlib
import inspect
import logging
import sys
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter

# Layers are the modules under src/doatrack; each wraps the functions its
# per-layer metrics name.
LAYER_FUNCTIONS = {
    "simulate": ("synthesize",),
    "corpus_io": ("write_recording", "read_recording"),
    "sigproc": ("frame_signal", "cross_power_spectrum"),
    "localize": ("srp_phat", "music_spectrum", "gcc_phat", "tdoa_to_azimuth",
                 "pseudo_intensity"),
    "cli": ("run_pipeline", "localize_stream", "track_stream", "resample_tracks"),
    "track": ("track_lifecycle", "kf_predict", "kf_update", "wrapped_kf_update",
              "pf_step"),
    "evaluate": ("evaluate_submission", "align_vaps", "gate_and_associate",
                 "ospa_series", "ospa"),
    "geometry": ("interpolate_pose",),
    "assignment": ("gated_assignment", "min_cost_assignment"),
}

# (logger, substring of the format string, counter) for warnings the library
# logs instead of raising.
LOG_COUNTERS = (
    ("doatrack.track", "wrapped KF update rejected", "track.wkf_rejected"),
    ("doatrack.track", "particle filter divergence", "track.pf_weight_collapse"),
    ("doatrack.track", "non-PD covariance", "track.non_pd"),
    ("doatrack.corpus_io", "sample rate", "corpus_io.sample_rate_warnings"),
)

# Counters the hooks and exception handlers fill; listed so that a counter
# that stayed at zero is still reported.
COUNTER_NAMES = (
    "simulate.fd_taps", "corpus_io.bytes_written", "sigproc.frames",
    "localize.blocks", "localize.estimates", "localize.no_signal",
    "track.tracks", "track.filter_divergence",
) + tuple(name for _, _, name in LOG_COUNTERS)


def function_keys():
    """``module.function`` for every wrapped function, in report order."""
    return [f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns]


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def _bound(func, args, kwargs):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_synthesize(counters, func, args, kwargs, scene):
    from doatrack.simulate import SINC_HALF_WIDTH
    # one windowed-sinc read per (source, mic, output sample)
    counters["simulate.fd_taps"] += (len(scene.config.sources) * scene.audio.samples.size
                                     * 2 * SINC_HALF_WIDTH)


def _count_write_recording(counters, func, args, kwargs, result):
    counters["corpus_io.bytes_written"] += _dir_bytes(_bound(func, args, kwargs)["path"])


def _count_frames(counters, func, args, kwargs, frames):
    counters["sigproc.frames"] += len(frames)


def _count_blocks(counters, func, args, kwargs, estimates):
    a = _bound(func, args, kwargs)
    n = a["audio"].length
    n_frames = (n - a["window_length"]) // a["hop"] + 1 if a["window_length"] <= n else 0
    block_frames = a["block_frames"]
    if a["localizer"] == "music":
        block_frames = max(block_frames, a["geometry"].mic_count)
    if n_frames >= block_frames:
        counters["localize.blocks"] += (n_frames - block_frames) // a["block_stride"] + 1
    counters["localize.estimates"] += len(estimates)


def _count_tracks(counters, func, args, kwargs, tracks):
    counters["track.tracks"] += len(tracks)


HOOKS = {
    "simulate.synthesize": _count_synthesize,
    "corpus_io.write_recording": _count_write_recording,
    "sigproc.frame_signal": _count_frames,
    "cli.localize_stream": _count_blocks,
    "cli.track_stream": _count_tracks,
}


class _LogCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if not self.tracer.active:
            return
        for logger_name, needle, counter in LOG_COUNTERS:
            if record.name == logger_name and needle in str(record.msg):
                self.tracer.counters[counter] += 1


class Tracer:
    """Span timing and counters around doatrack's public functions."""

    def __init__(self):
        self.active = False
        self.stats = {key: [0, 0.0] for key in function_keys()}  # calls, self seconds
        self.counters = Counter({name: 0 for name in COUNTER_NAMES})
        self.top_level_s = 0.0  # time inside spans that have no traced parent
        self._stack = []  # child seconds of each open span
        self._last_error = None
        self._errors = ()  # (exception class, counter), set by install
        self._patches = []
        self._log_handler = _LogCounter(self)

    def install(self) -> None:
        from doatrack.localize import NoSignalError
        from doatrack.track import FilterDivergenceError
        self._errors = ((NoSignalError, "localize.no_signal"),
                        (FilterDivergenceError, "track.filter_divergence"))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "doatrack" or name.startswith("doatrack."))]
        for key in function_keys():
            mod_name, fn_name = key.split(".")
            original = getattr(importlib.import_module(f"doatrack.{mod_name}"), fn_name)
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for logger_name in {name for name, _, _ in LOG_COUNTERS}:
            logging.getLogger(logger_name).addHandler(self._log_handler)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        for logger_name in {name for name, _, _ in LOG_COUNTERS}:
            logging.getLogger(logger_name).removeHandler(self._log_handler)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, key, func):
        stat = self.stats[key]
        hook = HOOKS.get(key)
        stack = self._stack

        @wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self._count_error(exc)
                raise
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    self.top_level_s += duration
            if hook is not None:
                hook(self.counters, func, args, kwargs, result)
            return result

        return traced

    def _count_error(self, exc) -> None:
        # an exception crossing several wrapped layers is counted once
        if exc is self._last_error:
            return
        self._last_error = exc
        for cls, counter in self._errors:
            if isinstance(exc, cls):
                self.counters[counter] += 1

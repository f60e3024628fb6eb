"""No library module imports a name it never uses, and no module-level private
helper goes unreferenced in the package (read with the stdlib `ast`). Importing
the package, reading and localizing a recording, tracking and scoring load no
scipy subpackage they never call, and tracking, scoring and `doatrack evaluate`
load none at all (read from `sys.modules` of a fresh interpreter)."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "doatrack"

# Names a module binds only for other code to read through it.
BOUND_FOR_OTHERS = {
    # perfbench calls and traces these pipeline stages through the CLI module
    "cli": {"localize_stream", "track_stream", "resample_tracks"},
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_plain_from_and_aliased_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau as turn\nx = np.zeros(1) * pi\n")
    assert unused_imports(source) == ["os", "turn"]


@pytest.mark.parametrize("path", sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    unused = set(unused_imports(path.read_text())) - BOUND_FOR_OTHERS.get(path.stem, set())
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def private_helpers(source: str) -> set:
    """Names of the module-level functions and classes that start with one `_`."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def referenced_names(source: str) -> set:
    """Every name read as a variable or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def test_private_helpers_and_references_are_read_from_the_source():
    source = ("def _used(): pass\ndef _unused(): pass\nclass _Kept: pass\n"
              "def __dunder__(): pass\ndef public(): return _used(), m._Kept\n")
    assert private_helpers(source) == {"_used", "_unused", "_Kept"}
    assert private_helpers(source) - referenced_names(source) == {"_unused"}


def test_every_private_helper_is_referenced_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    used = set().union(*map(referenced_names, sources.values()))
    unused = [f"{module}.{name}" for module, source in sources.items()
              for name in sorted(private_helpers(source) - used)]
    assert not unused, f"private helpers nothing in the package references: {unused}"


PRINT_SCIPY_SUBPACKAGES = """
import json, sys
loaded = {".".join(m.split(".")[:2]) for m in sys.modules if m.startswith("scipy.")}
print(json.dumps(sorted(loaded)))
"""


def scipy_loaded_after(script: str) -> set:
    """The scipy subpackages (`scipy.signal`, ...) loaded once `script` has run
    in a fresh interpreter that imports the package from the source tree."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script) + PRINT_SCIPY_SUBPACKAGES],
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_package_and_its_cli_loads_no_stage_scipy():
    loaded = scipy_loaded_after("import doatrack, doatrack.cli")
    stage_only = {"scipy.signal", "scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.io",
                  "scipy.linalg"}
    assert not loaded & stage_only, sorted(loaded & stage_only)


def test_tracking_and_scoring_a_turning_array_load_no_scipy():
    # task 6: the array turns, so the truth and the VAP alignment sample
    # rotations between poses, and two talkers and clutter bring gate conflicts
    loaded = scipy_loaded_after("""
        import math
        import numpy as np
        import doatrack.track
        from doatrack import (Doa, DoaEstimate, VapTable, evaluate_submission, task_preset,
                              track_lifecycle)
        from doatrack.evaluate import ground_truth_doas
        from doatrack.pipeline import resample_tracks

        solve, conflicts = doatrack.track.gated_assignment, []
        doatrack.track.gated_assignment = lambda cost, gate: (conflicts.append(gate)
                                                              or solve(cost, gate))
        config = task_preset(6, seed=1, duration=3.0)
        sources = {f"src{i + 1}": s.trajectory for i, s in enumerate(config.sources)}
        vaps = VapTable({f"src{i + 1}": s.vaps for i, s in enumerate(config.sources)})
        doas_at = ground_truth_doas(sources, config.array_trajectory)
        rng = np.random.default_rng(1)
        estimates = []
        for t in np.arange(0.05, 3.0, 0.085):
            for name in vaps.active_sources(float(t)):
                az = doas_at(float(t))[name].azimuth + math.radians(3.0) * rng.standard_normal()
                estimates.append(DoaEstimate(float(t), Doa(az)))
            estimates.append(DoaEstimate(float(t), Doa(float(rng.uniform(-math.pi, math.pi)))))
        tracks = track_lifecycle(estimates)
        clock = config.array_trajectory.timestamps
        report = evaluate_submission(sources, config.array_trajectory, vaps,
                                     resample_tracks(tracks, clock), clock, 3.0)
        assert config.array_trajectory._turns.any() and conflicts and tracks
        assert report.valid_count > 0
    """)
    assert not loaded, sorted(loaded)


def test_evaluate_command_loads_no_scipy(tmp_path):
    # the recording's duration comes from its WAV header, not from decoded audio
    from doatrack import (Submission, bundle_from_scene, synthesize, task_preset,
                          write_recording, write_submission)
    from doatrack.evaluate import ground_truth_arrays

    bundle = bundle_from_scene(synthesize(task_preset(6, seed=1, duration=1.0)))
    write_recording(bundle, tmp_path / "scene")
    clock = bundle.array_trajectory.timestamps
    azimuths, _ = ground_truth_arrays(bundle.source_trajectories, bundle.array_trajectory,
                                      ["src1"], clock)
    write_submission(Submission.from_rows(clock, np.ones(len(clock), dtype=int), azimuths[0]),
                     tmp_path / "submission.txt")
    loaded = scipy_loaded_after(f"""
        from doatrack.cli import main

        assert main(["evaluate", "--input", {str(tmp_path / "scene")!r}, "--submission",
                     {str(tmp_path / "submission.txt")!r}, "--out", {str(tmp_path / "report")!r},
                     "--ospa-series"]) == 0
    """)
    assert not loaded, sorted(loaded)
    assert (tmp_path / "report" / "ospa_series.csv").is_file()


def test_music_loads_scipy_linalg_on_its_first_call():
    loaded = scipy_loaded_after("""
        import sys
        import numpy as np
        from doatrack import (Blocks, MultichannelAudio, azimuth_grid, frame_signal,
                              get_array_preset, music_spectrum)

        # robot_head's 12 microphones take LAPACK's zheevr, not numpy's eigh
        noise = np.random.default_rng(1).standard_normal((12, 2048 + 1024 * 11))
        blocks = Blocks.whole(frame_signal(MultichannelAudio(noise, 48000.0), 2048, 1024))
        assert "scipy.linalg" not in sys.modules
        music_spectrum(blocks, get_array_preset("robot_head"), azimuth_grid(1.0), 1)
    """)
    assert "scipy.linalg" in loaded


def test_reading_and_localizing_a_recording_load_no_scipy_signal_or_stats(tmp_path):
    # the STFT taper is built with numpy: only synthesis filters with scipy.signal.
    # The scene is written here, so the fresh interpreter never synthesizes
    from doatrack import bundle_from_scene, synthesize, task_preset, write_recording

    write_recording(bundle_from_scene(synthesize(task_preset(1, seed=1, duration=2.0))), tmp_path)
    loaded = scipy_loaded_after(f"""
        from doatrack.corpus_io import read_recording
        from doatrack.pipeline import LOCALIZERS, run_pipeline

        bundle = read_recording({str(tmp_path)!r})
        for localizer in LOCALIZERS:  # the robot_head array takes all four
            assert len(run_pipeline(bundle, localizer, "kalman").ids) > 0, localizer
    """)
    assert not loaded & {"scipy.signal", "scipy.stats"}, sorted(loaded)

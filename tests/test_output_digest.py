"""tools/output_digest.py hashes a benchmark round the same way every time."""

import importlib.util
from pathlib import Path

from doatrack.cli import TRACKERS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_prints_the_same_lines_twice(tmp_path):
    tool = _load_tool()
    scenes = ((4, 1.0), (6, 1.0))
    runs = [list(tool.digest_lines("track_eval", 1, tmp_path / f"run{i}", scenes=scenes))
            for i in range(2)]
    assert runs[0] == runs[1]
    fields = [line.split() for line in runs[0]]
    assert [f[:3] for f in fields] == [["track_eval", "1", f"task{task}/{tracker}"]
                                       for task, _ in scenes for tracker in TRACKERS]
    assert all(len(f) == 4 and len(f[3]) == 64 for f in fields)

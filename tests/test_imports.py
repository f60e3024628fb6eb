"""No library module imports a name it never uses (read with the stdlib `ast`)."""

import ast
from pathlib import Path

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

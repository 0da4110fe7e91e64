"""numpy is the only declared dependency: the library imports nothing else
outside the standard library."""

import ast
import sys
from pathlib import Path

import ballmorph

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ballmorph"}


def test_library_imports_only_stdlib_and_numpy():
    sources = sorted(Path(ballmorph.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert foreign == []

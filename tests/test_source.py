"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nprl"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no expression in the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_scanner_finds_unused_names():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd.e(c)\n")
    assert unused_imports(tree) == ["os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []

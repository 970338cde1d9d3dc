"""Static checks over the package source."""

import ast
from fnmatch import fnmatch
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


# functions and methods that no code in the package calls, and why each stays
CALLED_FROM_OUTSIDE = {
    "RunConfig.get_bool": "the benchmark reads a run's boolean keys with it",
    "read_report": "the benchmark reads each arm's pooled AUROC back from report.csv with it",
    "read_theory_report": "the benchmark reads the violation and pair counts back with it",
    "Runner.cmd_*": "cli.main runs a subcommand through getattr(runner, 'cmd_' + name)",
}


def defined_functions(tree: ast.Module) -> list[str]:
    """Top-level functions and the methods of top-level classes, as
    ``name`` or ``Class.name``; dunder methods, which Python calls itself,
    are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            out.append(node.name)
    return [name for name in out if not (name.rpartition(".")[2].startswith("__") and name.endswith("__"))]


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name an expression reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def unreferenced_functions(trees: dict[str, ast.Module]) -> list[str]:
    """``file: name`` of each function or method that no module of
    ``trees`` references and ``CALLED_FROM_OUTSIDE`` does not name."""
    read = set().union(*map(referenced_names, trees.values()))
    return [
        f"{file}: {name}"
        for file, tree in trees.items()
        for name in defined_functions(tree)
        if name.rpartition(".")[2] not in read and not any(fnmatch(name, kept) for kept in CALLED_FROM_OUTSIDE)
    ]


def test_scanner_finds_unreferenced_functions():
    tree = ast.parse(
        "def used(): pass\ndef unused(): pass\nclass A:\n    def __init__(self): pass\n"
        "    def m(self): pass\n    def dead(self): pass\nused()\nA().m()\n"
        "class Runner:\n    def cmd_x(self): pass\n"
    )
    assert unreferenced_functions({"a.py": tree}) == ["a.py: unused", "a.py: A.dead"]


def test_every_function_is_referenced_in_the_package():
    # code that only tests call is surface the program does not use
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_functions(trees) == []

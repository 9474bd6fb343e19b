"""Source hygiene, read with `ast`: no top-level function or class is
defined twice in one file (the second definition silently replaces the
first), every private top-level function of the package is used
somewhere in it, and every name a package module imports is used there
or imported from it by a sibling module (a re-export)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atsbench"


def parsed(directory: Path) -> dict:
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def top_level(tree) -> list:
    return [node for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


@pytest.mark.parametrize("directory", ["src/atsbench", "tests", "bench"])
def test_no_top_level_name_defined_twice(directory):
    twice = []
    for path, tree in parsed(ROOT / directory).items():
        seen = set()
        for node in top_level(tree):
            if node.name in seen:
                twice.append(f"{path.name}:{node.lineno} {node.name}")
            seen.add(node.name)
    assert not twice


def test_private_functions_are_used_in_the_package():
    trees = parsed(PACKAGE)
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in trees.items() for node in top_level(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name.startswith("_") and node.name not in used]
    assert not unused


def imported_names(tree) -> list:
    """(bound name, line) for each name an import statement binds,
    `from __future__` imports aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.asname or alias.name.split(".")[0],
                        node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.extend((alias.asname or alias.name, node.lineno)
                       for alias in node.names)
    return out


def test_imported_names_are_used():
    trees = parsed(PACKAGE)
    reexported = set()          # (module, name) a sibling imports from it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                reexported.update((node.module, alias.name)
                                  for alias in node.names)
    unused = []
    for path, tree in trees.items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused.extend(f"{path.name}:{line} {name}"
                      for name, line in imported_names(tree)
                      if name not in used
                      and (path.stem, name) not in reexported)
    assert not unused

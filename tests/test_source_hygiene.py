"""Source hygiene, read with `ast`: no top-level function or class is
defined twice in one file (the second definition silently replaces the
first), every private top-level function of the package is used
somewhere in it, every name a module of the package or of tests/ imports
is used there or imported from it by a sibling module (a re-export),
every definition of the package is reached, by name, from `cli.main`
or from the benchmark: code that only tests call lives in
tests/helpers.py, and only the pinned optional parameters are passed by
no call in the package or the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atsbench"


def parsed(directory: Path) -> dict:
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def top_level(tree) -> list:
    return [node for node in tree.body
            if isinstance(node, (*FUNCTIONS, ast.ClassDef))]


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
    unused = []
    for directory in (PACKAGE, ROOT / "tests"):
        trees = parsed(directory)
        stems = {path.stem for path in trees}
        reexported = set()      # (module, name) a sibling imports from it
        for tree in trees.values():
            for node in ast.walk(tree):
                if (isinstance(node, ast.ImportFrom)
                        and node.level <= 1 and node.module in stems):
                    reexported.update((node.module, alias.name)
                                      for alias in node.names)
        for path, tree in trees.items():
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            unused.extend(f"{path.parent.name}/{path.name}:{line} {name}"
                          for name, line in imported_names(tree)
                          if name not in used
                          and (path.stem, name) not in reexported)
    assert not unused


def mentioned(node) -> set:
    """Every name and attribute name under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreachable(names=()) -> set:
    """The package's definitions that `cli.main`, the module-level
    statements (they run on import) and `names` do not reach, by
    qualified name: `module.name` for a top-level function or class,
    `module.Class.name` for a function in a class body (listed only when
    its class is reached).  Name-based: a definition reaches every
    definition whose name it mentions; a class mentions what its
    decorators, bases and non-function statements do, and reaches its
    dunder methods."""
    defs, roots = {}, set(names)
    for path, tree in parsed(PACKAGE).items():
        for node in tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                roots |= mentioned(node)
                continue
            defs[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{path.stem}.{node.name}.{sub.name}", sub)
                            for sub in node.body if isinstance(sub, FUNCTIONS))
    by_name = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[1], []).append(qual)
    todo = ["cli.main"] + [q for name in roots for q in by_name.get(name, ())]
    seen = set()
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        node, parts = defs[qual], [defs[qual]]
        if isinstance(node, ast.ClassDef):
            parts = [*node.decorator_list, *node.bases, *node.keywords,
                     *(sub for sub in node.body
                       if not isinstance(sub, FUNCTIONS))]
            todo += [f"{qual}.{sub.name}" for sub in node.body
                     if isinstance(sub, FUNCTIONS)
                     and sub.name.startswith("__") and sub.name.endswith("__")]
        for part in parts:
            for name in mentioned(part):
                todo += by_name.get(name, ())
    unreached = set(defs) - seen
    return {qual for qual in unreached
            if qual.rsplit(".", 1)[0] not in unreached}


def bench_names() -> set:
    """The names the non-test files under bench/ mention: imported names,
    attribute names and identifier strings (the tracer's name tuples)."""
    names = set()
    for path, tree in parsed(ROOT / "bench").items():
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and node.value.isidentifier()):
                names.add(node.value)
    return names


# What `ats` does not run, 355 lines: the triple corpus and seeded
# automorphisms that the benchmark's envelope workload sweeps, and the
# routines it or its tracer name (`extend_automorphism` and what it
# calls, `trivial_subgroup`, `invert_matrix`, `mat_vec`, `solve`,
# `RowSpace.contains`).  Moving any of them out of the package changes
# bench/.  The list may only shrink.  Its one growth is `linalg.solve`:
# simplicity step (c) reads u c = c off the center part and solves for
# no unit, so only `reconstruct_iso` calls it, and the tracer names it.
CLI_UNREACHED = {
    "corpus._trivial", "corpus.symplectic_subgroup", "corpus.CorpusEntry",
    "corpus._entry", "corpus.algebra_corpus", "corpus.TripleEntry",
    "corpus.triple_corpus", "corpus.seeded_automorphisms",
    "groups.trivial_subgroup", "linalg.mat_vec", "linalg.RowSpace.contains",
    "linalg.invert_matrix", "linalg.solve", "omega.pi1_coarsening",
    "triples.Envelope.w_offset", "triples.Envelope.wbar_offset",
    "triples.Envelope.r_offset", "triples.pierce_split",
    "triples.reconstruct_iso", "triples.extend_automorphism",
}


def test_only_the_pinned_definitions_are_unreached_from_cli_main():
    assert unreachable() == CLI_UNREACHED


def test_every_definition_is_reached_from_cli_main_or_the_benchmark():
    assert unreachable(bench_names()) == set()


def optional_parameters() -> dict:
    """(qualified name, parameter) -> position among the positional
    parameters (None for a keyword-only one), for every parameter with a
    default of a package function or method; a method's position leaves
    out `self` (or `cls`), a staticmethod's does not."""
    out = {}
    for path, tree in parsed(PACKAGE).items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs = [(f"{path.stem}.{node.name}", node, 0)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{path.stem}.{node.name}.{sub.name}", sub, 0 if any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in sub.decorator_list) else 1)
                    for sub in node.body if isinstance(sub, FUNCTIONS)]
            else:
                continue
            for qual, fn, bound in defs:
                args = fn.args
                positional = [*args.posonlyargs, *args.args][bound:]
                first = len(positional) - len(args.defaults)
                out.update(((qual, p.arg), i)
                           for i, p in enumerate(positional) if i >= first)
                out.update(((qual, p.arg), None) for p, default
                           in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None)
    return out


def unpassed_options() -> set:
    """The optional parameters that no call in the package or in the
    non-test files under bench/ passes, by keyword or by position.  A
    call matches every definition of its name (`f(...)` or `x.f(...)`),
    and `Class(...)` those of `Class.__init__` and `Class.__new__`; a
    call with `*args` passes every position from its star on, and one
    with `**kwargs` every parameter."""
    trees = [*parsed(PACKAGE).values(),
             *(tree for path, tree in parsed(ROOT / "bench").items()
               if not path.name.startswith("test_"))]
    options = optional_parameters()
    passed = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            width = next((i for i, arg in enumerate(call.args)
                          if isinstance(arg, ast.Starred)), None)
            width = len(call.args) if width is None else float("inf")
            keywords = {k.arg for k in call.keywords}
            for (qual, param), pos in options.items():
                parts = qual.split(".")
                if name != parts[-1] and not (
                        parts[-1] in ("__init__", "__new__")
                        and name == parts[-2]):
                    continue
                if (param in keywords or None in keywords
                        or pos is not None and pos < width):
                    passed.add((qual, param))
    return set(options) - passed


# Options that no call in the package or the benchmark sets (`ats`
# reads sys.argv in place of `cli.main`'s argv); the tests set some of
# them.  The list may only shrink, like CLI_UNREACHED.
UNPASSED_OPTIONS = {("cli.main", "argv")}


def test_only_the_pinned_options_are_never_passed():
    assert unpassed_options() == UNPASSED_OPTIONS

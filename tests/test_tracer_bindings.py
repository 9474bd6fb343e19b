"""The names the benchmark tracer (bench/tracer.py) wraps and the names the
workloads (bench/workloads.py) import from the package must exist in it,
and one traced job of each workload must meet the workload's predicted
zero and non-zero layer counts: a refactor that drops, moves or renames
one, or stops calling a traced layer, fails here, not only in the
benchmark's own run.  Both files are loaded read-only."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from atsbench import classify, constructions, linalg, omega, scalars, triples

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load(TRACER, "atsbench_bench_tracer")


def test_every_traced_name_resolves_in_its_module():
    t = _tracer()
    modules = {"omega": omega, "triples": triples}
    expected = (
        [(linalg.RowSpace, name) for name in t.LINALG_METHODS]
        + [(linalg, name) for name in t.LINALG_FUNCTIONS]
        + [(modules[mod], name) for mod, name in t.SCANS]
        + [(omega, name) for name in t.SIMPLICITY + ("ideal_closure",)]
        + [(constructions, name) for name in t.BUILDS]
        + [(triples, name) for name in t.TRIPLES]
        + [(classify, name) for name in t.SEARCHES + t.CLASSIFY]
        + [(omega.OmegaAlgebra, "apply")])
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name in expected
               if not callable(getattr(owner, name, None))]
    assert not missing
    # methods are looked up in the class body, not through inheritance
    for name in t.LINALG_METHODS:
        assert inspect.isfunction(linalg.RowSpace.__dict__.get(name)), name
    assert any(attr in scalars.Scalar.__dict__ for attr in t.SCALAR_OPS)
    for attr in ("zero", "one"):
        assert isinstance(scalars.CycloField.__dict__[attr], property)


def workload_bindings() -> set:
    """(module, name) for every `from atsbench.module import name` and
    `from atsbench import module` in bench/workloads.py (the latter as
    ("", module)), and for every `module.name` and `inp["module"].name`
    it reads off a module imported that way."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    pairs, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "atsbench":
            modules.update(alias.name for alias in node.names)
            pairs.update(("", alias.name) for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("atsbench.")):
            pairs.update((node.module.split(".", 1)[1], alias.name)
                         for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Subscript):
                owner = owner.slice
            name = getattr(owner, "id", getattr(owner, "value", None))
            if name in modules:
                pairs.add((name, node.attr))
    return pairs


def test_every_workload_import_resolves_in_the_package():
    pairs = workload_bindings()
    assert {("", "corpus"), ("corpus", "triple_corpus"),
            ("corpus", "seeded_automorphisms"), ("groups", "trivial_subgroup"),
            ("constructions", "InvolutionParams"),
            ("constructions", "build_M_inv"), ("cli", "run")} <= pairs
    missing = []
    for module, name in sorted(pairs):
        path = "atsbench" + (f".{module}" if module else "")
        try:
            if not hasattr(importlib.import_module(path), name):
                importlib.import_module(f"{path}.{name}")
        except ImportError:
            missing.append(f"{path}.{name}")
    assert not missing


@pytest.mark.parametrize("name", ("census_z4", "envelope", "wide36"))
def test_traced_job_meets_predicted_layer_counts(name):
    t = _tracer()
    workload = _load(BENCH / "workloads.py",
                     "atsbench_bench_workloads").WORKLOADS[name]
    inputs = workload.setup(0)
    tracer = t.Tracer({module.__name__.rsplit(".", 1)[1]: module for module in
                       (scalars, linalg, omega, constructions, triples,
                        classify)})
    with tracer:
        output = workload.job(inputs)
    assert workload.check(inputs, output)[1] == []
    values = tracer.metrics(0.0, 0.0)
    assert {m: values[m] for m in workload.expect_zero} == dict.fromkeys(
        workload.expect_zero, 0)
    assert [m for m in workload.expect_nonzero if not values[m]] == []

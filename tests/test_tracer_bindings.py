"""The names the benchmark tracer (bench/tracer.py) wraps must exist in the
package: a refactor that drops or renames one fails here, not only in the
benchmark's own checks.  The tracer file is loaded read-only."""

import importlib.util
import inspect
from pathlib import Path

from atsbench import classify, constructions, linalg, omega, scalars, triples

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("atsbench_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

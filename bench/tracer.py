"""Per-layer tracing of the atsbench package, installed from outside it.

The tracer replaces the public functions and methods of each layer with
timing wrappers for the duration of one job, then restores them.  A
function imported by name into another module (``from .omega import
is_simple`` in ``classify``, ``cli`` and ``triples``) is replaced in every
module that binds it, so no call escapes through an alias.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it caused, so the self times of all spans plus
the untraced remainder add up to the job's wall time.  Spans of the hot
leaf layers (scalar arithmetic, row reduction) are aggregated per
function; the spans above them are also kept as records (name, parent,
start, end) in memory and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

# Scalar arithmetic counted per conductor: every binary and unary operation
# a caller can invoke.  __radd__/__rmul__ are aliases of __add__/__mul__ in
# the class body, so they are wrapped under the same name.
SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__pow__": "pow", "inverse": "inverse",
}
CONDUCTORS = (1, 2, 4)   # every conductor the three workloads use

LINALG_METHODS = ("insert", "reduce", "contains", "coordinates")
LINALG_FUNCTIONS = ("rref", "solve", "invert_matrix", "kernel", "mat_vec",
                    "mat_mul")

SCANS = (("omega", "check_grading"), ("omega", "check_morphism"),
         ("omega", "check_involution"), ("omega", "check_t4_flip"),
         ("triples", "check_associative"), ("triples", "check_at2"))
SIMPLICITY = ("is_simple", "graded_is_simple")
BUILDS = ("build_M_inv", "build_exchange_pair")
TRIPLES = ("loos_envelope", "extend_automorphism", "triple_from",
           "recover_triple", "triple_is_simple", "pierce_split",
           "reconstruct_iso")
SEARCHES = ("find_structured_iso", "find_component_anti_iso")
CLASSIFY = ("intrinsic_invariants", "graded_center_support", "decide_iso",
            "witness_isomorphism", "refute_isomorphism", "enumerate_labels",
            "run_census") + SEARCHES

# Per-layer metrics, in report order; every traced run reports all of them.
# Layer times are shares of the traced job's wall time (`trace.wall_s`), so
# a layer a workload never calls reads as a zero share, not a zero time.
PER_LAYER = (
    [f"scalars.ops.c{n}" for n in CONDUCTORS]
    + ["scalars.mul", "scalars.inverse", "scalars.zero_one_allocs",
       "scalars.self_share",
       "linalg.inserts", "linalg.insert_rank_up_frac", "linalg.kernel_calls",
       "linalg.solve_calls", "linalg.self_share",
       "omega.scan_calls", "omega.scan_tuples", "omega.scan_fail_frac",
       "omega.apply_calls", "omega.scan_self_share",
       "omega.simple_calls", "omega.closures", "omega.closure_full_frac",
       "omega.simple_self_share", "omega.closure_self_share",
       "omega.simple_total_share",
       "constructions.builds", "constructions.build_dim_sum",
       "constructions.build_share",
       "triples.envelopes", "triples.envelope_share", "triples.extend_share",
       "classify.intrinsics", "classify.intrinsics_self_share",
       "classify.center_share", "classify.decisions",
       "classify.search_attempts", "classify.search_hit_frac",
       "classify.refutes_intrinsic", "classify.refutes_exhausted",
       "classify.search_self_share", "classify.enumerate_share",
       "trace.wall_s", "trace.other_s", "trace.overhead_s"])


def _frac(num, den):
    return num / den if den else 0.0


class Tracer:
    """Wraps the layers of one imported atsbench package; use as a context
    manager around a single job, then read `metrics()`."""

    def __init__(self, modules: dict):
        self.modules = modules            # short name -> module object
        self.stats = {}                   # stat -> [calls, self_s]
        self.counts = Counter()           # named counters set by hooks
        self.spans = []                   # [name, parent, start, end]
        self._stack = [[0.0, -1]]         # [child_s, recorded span index]
        self._patches = []                # (owner, attr, original)
        self._origin = 0.0

    # -- installing --------------------------------------------------------

    def _wrap(self, fn, stat, record=False, key=None, after=None):
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter
        entry = self.stats.setdefault(stat, [0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if record:
                frame[1] = len(spans)
                spans.append([stat, parent[1], 0.0, 0.0])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                entry[0] += 1
                entry[1] += elapsed - frame[0]
                if record:
                    spans[frame[1]][2:] = [start, start + elapsed]
            if key is not None:
                counts[key(args)] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, name, stat, **options):
        """Replace `module.name` in every atsbench module that binds it."""
        original = getattr(module, name)
        wrapped = self._wrap(original, stat, **options)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("atsbench"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def _patch_method(self, cls, name, stat, **options):
        self._set(cls, name, self._wrap(cls.__dict__[name], stat, **options))

    def install(self):
        m = self.modules
        counts = self.counts
        Scalar, CycloField = m["scalars"].Scalar, m["scalars"].CycloField
        for attr, op in SCALAR_OPS.items():
            if attr in Scalar.__dict__:
                self._patch_method(Scalar, attr, f"scalars.{op}",
                                   key=lambda a, op=op: (op, a[0].conductor))
        for attr in ("zero", "one"):
            prop = CycloField.__dict__[attr]
            self._set(CycloField, attr,
                      property(self._wrap(prop.fget, f"scalars.{attr}")))

        def inserted(args, grew):
            counts["linalg.rank_up"] += bool(grew)
        RowSpace = m["linalg"].RowSpace
        for name in LINALG_METHODS:
            self._patch_method(RowSpace, name, f"linalg.{name}",
                               after=inserted if name == "insert" else None)
        for name in LINALG_FUNCTIONS:
            self._patch_function(m["linalg"], name, f"linalg.{name}")

        self._set(m["omega"].OmegaAlgebra, "apply", self._count_only(
            m["omega"].OmegaAlgebra.__dict__["apply"], "omega.apply"))

        def scanned(args, report):
            counts["omega.scan_tuples"] += report.checked
            counts["omega.scan_failed"] += not report.passed
        for mod, name in SCANS:
            self._patch_function(m[mod], name, f"omega.scan.{name}",
                                 record=True, after=scanned)
        for name in SIMPLICITY:
            self._patch_function(m["omega"], name, f"omega.simple.{name}",
                                 record=True)

        def closed(args, space):
            counts["omega.closure_full"] += space.rank == args[0].dim
        self._patch_function(m["omega"], "ideal_closure",
                             "omega.closure.ideal_closure", record=True,
                             after=closed)

        def built(args, ca):
            counts["constructions.build_dim_sum"] += ca.algebra.dim
        cons = m["constructions"]
        for name, fn in list(vars(cons).items()):
            if (inspect.isfunction(fn) and fn.__module__ == cons.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(fn)):
                self._patch_function(cons, name, f"constructions.{name}",
                                     record=True,
                                     after=built if name in BUILDS else None)

        for name in TRIPLES:
            self._patch_function(m["triples"], name, f"triples.{name}",
                                 record=True)

        def searched(args, result):
            found, meta = result
            counts["classify.search_hits"] += found is not None
            counts["classify.search_attempts"] += (
                meta["attempts"] if isinstance(meta, dict) else meta)

        def refuted(args, ref):
            counts[f"classify.refutes.{ref.method}"] += 1
        for name in CLASSIFY:
            after = (searched if name in SEARCHES
                     else refuted if name == "refute_isomorphism" else None)
            self._patch_function(m["classify"], name, f"classify.{name}",
                                 record=True, after=after)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        self._origin = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reading -------------------------------------------------------------

    def _sum(self, prefix, column):
        return sum(v[column] for k, v in self.stats.items()
                   if k.startswith(prefix))

    def calls(self, prefix):
        return self._sum(prefix, 0)

    def self_s(self, prefix):
        return self._sum(prefix, 1)

    def outermost_s(self, prefix):
        """Inclusive time of the recorded spans named `prefix*` that have
        no ancestor of the same prefix (nested calls counted once)."""
        spans = self.spans
        total = 0.0
        for name, parent, start, end in spans:
            if not name.startswith(prefix):
                continue
            while parent >= 0 and not spans[parent][0].startswith(prefix):
                parent = spans[parent][1]
            if parent < 0:
                total += end - start
        return total

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict:
        c = self.counts
        per_conductor = Counter()
        for key, n in c.items():
            if isinstance(key, tuple):
                per_conductor[key[1]] += n

        def share(*prefixes):
            return _frac(sum(self.self_s(p) for p in prefixes), wall_s)

        inserts = self.calls("linalg.insert")
        scans = self.calls("omega.scan.")
        closures = self.calls("omega.closure.")
        searches = sum(self.calls(f"classify.{n}") for n in SEARCHES)
        values = {f"scalars.ops.c{n}": per_conductor[n] for n in CONDUCTORS}
        values.update({
            "scalars.mul": self.calls("scalars.mul"),
            "scalars.inverse": self.calls("scalars.inverse"),
            "scalars.zero_one_allocs": (self.calls("scalars.zero")
                                        + self.calls("scalars.one")),
            "scalars.self_share": share("scalars."),
            "linalg.inserts": inserts,
            "linalg.insert_rank_up_frac": _frac(c["linalg.rank_up"], inserts),
            "linalg.kernel_calls": self.calls("linalg.kernel"),
            "linalg.solve_calls": self.calls("linalg.solve"),
            "linalg.self_share": share("linalg."),
            "omega.scan_calls": scans,
            "omega.scan_tuples": c["omega.scan_tuples"],
            "omega.scan_fail_frac": _frac(c["omega.scan_failed"], scans),
            "omega.apply_calls": c["omega.apply"],
            "omega.scan_self_share": share("omega.scan."),
            "omega.simple_calls": self.calls("omega.simple.is_simple"),
            "omega.closures": closures,
            "omega.closure_full_frac": _frac(c["omega.closure_full"], closures),
            "omega.simple_self_share": share("omega.simple."),
            "omega.closure_self_share": share("omega.closure."),
            "omega.simple_total_share": _frac(
                self.outermost_s("omega.simple."), wall_s),
            "constructions.builds": sum(self.calls(f"constructions.{n}")
                                        for n in BUILDS),
            "constructions.build_dim_sum": c["constructions.build_dim_sum"],
            "constructions.build_share": share("constructions."),
            "triples.envelopes": self.calls("triples.loos_envelope"),
            "triples.envelope_share": share("triples.loos_envelope"),
            "triples.extend_share": share("triples.extend_automorphism"),
            "classify.intrinsics": self.calls("classify.intrinsic_invariants"),
            "classify.intrinsics_self_share":
                share("classify.intrinsic_invariants"),
            "classify.center_share": share("classify.graded_center_support"),
            "classify.decisions": self.calls("classify.decide_iso"),
            "classify.search_attempts": c["classify.search_attempts"],
            "classify.search_hit_frac": _frac(c["classify.search_hits"],
                                              searches),
            "classify.refutes_intrinsic": c["classify.refutes.intrinsic"],
            "classify.refutes_exhausted":
                c["classify.refutes.exhausted-search"],
            "classify.search_self_share": share(
                *(f"classify.{n}" for n in
                  SEARCHES + ("witness_isomorphism", "refute_isomorphism"))),
            "classify.enumerate_share": share("classify.enumerate_labels"),
            "trace.wall_s": wall_s,
            "trace.other_s": wall_s - sum(v[1] for v in self.stats.values()),
            "trace.overhead_s": wall_s - untraced_wall_s,
        })
        return values

    def layer_table(self, wall_s: float):
        """(layer, calls, self seconds, share of wall) rows, largest first."""
        layers = {}
        for stat, (calls, self_s) in self.stats.items():
            parts = stat.split(".")
            layer = ".".join(parts[:2]) if parts[0] == "omega" else parts[0]
            row = layers.setdefault(layer, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        rows = [(name, n, s, _frac(s, wall_s)) for name, (n, s) in
                layers.items()]
        return sorted(rows, key=lambda r: -r[2])

    def write_spans(self, path):
        """Write the recorded spans, times relative to the job start."""
        origin = self._origin
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": [[n, p, round(s - origin, 9),
                                  round(e - origin, 9)]
                                 for n, p, s, e in self.spans]}, fh)
            fh.write("\n")

"""The three benchmark workloads, each driven through the public atsbench API.

A workload has three parts:

* `setup(seed)` imports the package, parses configs and builds the inputs
  the timed job consumes (everything a user pays for before the job);
* `job(inputs)` is one timed end-to-end job;
* `check(inputs, output)` returns (operations attempted, failures) for one
  job's output, judged against answers fixed in this file.

Gates never compare report JSON bytes or `ClassLabel.name` (the name omits
beta), so report-format changes keep passing and distinct labels stay
distinct.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# `ats census configs/census_z4.cfg` at the seed commit: 32 labels, every
# pair decided, YES backed by witnesses and NO by refutations.
CENSUS_LABELS = 32
CENSUS_PAIRS = 528
CENSUS_YES = 112
CENSUS_NO = 416
CENSUS_DIGEST = (
    "72b2ea026aa9a903e941ac2d651fb41f59470191786a965d7732b4f6f5962058")

# Acceptance criterion 3: exhaustive AT2 scans up to dim 8, 10^4 seeded
# tuples above.
AT2_EXHAUSTIVE_LIMIT = 8
AT2_SAMPLES = 10 ** 4
AUTOMORPHISMS = 12


def label_key(label) -> list:
    """A label's identity: its case and every parameter, canonically."""
    return [label.case, _canon(label.params)]


def _canon(x):
    kind = type(x).__name__
    if kind == "GroupElement":
        return list(x.coords)
    if kind == "Subgroup":
        return sorted(list(e.coords) for e in x.elements)
    if kind == "Bicharacter":
        return [x.exponent, sorted([list(a.coords), list(b.coords),
                                    k % x.exponent]
                                   for (a, b), k in x.table.items())]
    if kind == "AbelianGroup":
        return [x.free_rank, list(x.torsion)]
    if is_dataclass(x):
        return [[f.name, _canon(getattr(x, f.name))] for f in fields(x)]
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    return x


def census_digest(keys, decisions) -> str:
    """sha256 over (left, right, verdict) with labels keyed by index and
    parameters (`keys[i]` is `label_key` of label i)."""
    rows = [[i, keys[i], j, keys[j], verdict] for i, j, verdict in decisions]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class Census:
    name = "census_z4"
    config = ROOT / "configs" / "census_z4.cfg"
    expect_zero = ("triples.envelopes",)
    expect_nonzero = ("omega.simple_calls", "classify.decisions",
                      "classify.refutes_intrinsic", "constructions.builds")

    def setup(self, seed):
        from atsbench import classify, cli, config
        cfg = config.parse_config(self.config.read_text(encoding="utf-8"))
        cfg.command = "census"
        cfg.seed = seed
        return {"cli": cli, "classify": classify, "cfg": cfg}

    def job(self, inp):
        return inp["cli"].run(inp["cfg"])

    def check(self, inp, report):
        census = report.artifacts["census"]
        decisions = [(d["left"], d["right"], d["verdict"])
                     for d in census["decisions"]]
        if "label_keys" not in inp:
            # keys only: the labels hold their built algebras
            cfg = inp["cfg"]
            inp["label_keys"] = [label_key(lab) for lab in
                                 inp["classify"].enumerate_labels(
                                     cfg.group, cfg.max_dim,
                                     cases=cfg.census_cases,
                                     max_support=cfg.max_support)]
        gates = {
            "status pass": report.status == "pass",
            f"{CENSUS_LABELS} labels": len(census["labels"]) == CENSUS_LABELS,
            f"{CENSUS_PAIRS} pairs": len(decisions) == CENSUS_PAIRS,
            f"{CENSUS_YES} YES": census["yes"] == CENSUS_YES,
            f"{CENSUS_NO} NO": census["no"] == CENSUS_NO,
            "every YES witnessed": census["verified_witnesses"] == CENSUS_YES,
            "every NO refuted": census["refutations"] == CENSUS_NO,
            "decision digest": census_digest(inp["label_keys"], decisions)
                               == CENSUS_DIGEST,
        }
        failures = [f"{name} failed" for name, ok in gates.items() if not ok]
        # each inconclusive pair is a failed operation of its own
        failures += ["inconclusive pair"] * census["inconclusive"]
        return len(decisions) + len(gates), failures


class Envelope:
    name = "envelope"
    expect_zero = ("omega.simple_calls", "omega.closures",
                   "constructions.builds", "classify.decisions")
    expect_nonzero = ("triples.envelopes", "omega.scan_tuples",
                      "linalg.inserts")

    def setup(self, seed):
        from atsbench import corpus, omega, triples
        from atsbench.constructions import InvolutionParams, build_M_inv
        from atsbench.groups import AbelianGroup, Bicharacter, trivial_subgroup
        from atsbench.scalars import CycloField
        entries = corpus.triple_corpus()
        # the dim-9 triple of acceptance criterion 3
        Z2 = AbelianGroup(0, (2,))
        T = trivial_subgroup(Z2)
        e, z = Z2.identity, Z2.element((1,))
        big = build_M_inv(InvolutionParams(
            group=Z2, T=T, beta=Bicharacter.from_generator_matrix(T, (), []),
            kappa0=(1, 2), gamma0=(e, z), kappa1=(1, 2), gamma1=(e, z),
            delta=1, g=e, S_signs0=(1,), S_signs1=(1,)), CycloField(2))
        W9, _ = triples.triple_from(big.algebra, big.grading)
        autos = corpus.seeded_automorphisms(entries, seed=seed,
                                            want=AUTOMORPHISMS)
        return {"omega": omega, "triples": triples, "seed": seed,
                "triples_in": [en.triple for en in entries] + [W9],
                "autos": [(en.triple, psi) for en, psi in autos]}

    def job(self, inp):
        tr, seed = inp["triples"], inp["seed"]
        results, envelopes = [], {}
        for W in inp["triples_in"]:
            at2 = tr.check_at2(W, seed=seed,
                               exhaustive_limit=AT2_EXHAUSTIVE_LIMIT,
                               samples=AT2_SAMPLES)
            env = tr.loos_envelope(W)
            envelopes[id(W)] = env
            reports = (at2, tr.check_associative(env.algebra),
                       inp["omega"].check_involution(env.algebra),
                       inp["omega"].check_grading(env.grading))
            W2 = tr.recover_triple(env)
            round_trip = (W2.algebra.tensors[tr.TRIPLE]
                          == W.algebra.tensors[tr.TRIPLE])
            results.append((W, env, reports, round_trip))
        extensions = []
        for W, psi in inp["autos"]:
            env = envelopes[id(W)]
            ext = tr.extend_automorphism(W, psi, env)
            off = env.w_offset
            extensions.append(all(
                ext.columns[off + k] == {off + i: c for i, c in
                                         psi.columns[k].items()}
                for k in range(W.dim)))
        return results, extensions

    def check(self, inp, output):
        results, extensions = output
        failures = []
        for n, (W, env, reports, round_trip) in enumerate(results):
            d, D = W.dim, env.algebra.dim
            graded = sum(len(env.algebra.tensors[op])
                         for op in env.grading.graded_ops
                         if env.algebra.operators[op])
            expected = (d ** 5 if d <= AT2_EXHAUSTIVE_LIMIT else AT2_SAMPLES,
                        D ** 3, D + D * D, graded)
            for rep, want in zip(reports, expected):
                if not rep.passed or rep.checked != want:
                    failures.append(f"triple {n}: {rep.name} passed="
                                    f"{rep.passed} checked={rep.checked}, "
                                    f"expected {want}")
            if not round_trip:
                failures.append(f"triple {n}: round trip differs")
        if len(extensions) != AUTOMORPHISMS:
            failures.append(f"{len(extensions)} automorphisms, expected "
                            f"{AUTOMORPHISMS}")
        failures += [f"extension {k} does not restrict to psi"
                     for k, ok in enumerate(extensions) if not ok]
        attempted = 5 * len(results) + max(len(extensions), AUTOMORPHISMS)
        return attempted, failures


class Wide:
    name = "wide36"
    configs = (BENCH_DIR / "configs" / "wide36_minus.cfg",
               BENCH_DIR / "configs" / "wide36_plus.cfg")
    expect_zero = ("triples.envelopes",)
    expect_nonzero = ("omega.simple_calls", "classify.intrinsics",
                      "classify.refutes_exhausted", "linalg.kernel_calls")

    def setup(self, seed):
        from atsbench import cli, config
        cfg = config.parse_config(self.configs[0].read_text(encoding="utf-8"))
        cfg.command = "decide-iso"
        cfg.seed = seed
        return {"cli": cli, "cfg": cfg}

    def job(self, inp):
        # run() re-reads and re-parses both label configs, so every job
        # builds fresh labels and none reuses ClassLabel's build caches
        return inp["cli"].run(inp["cfg"], decide_paths=tuple(
            str(p) for p in self.configs), verify_flag=True)

    def check(self, inp, report):
        checks = {c["name"]: c for c in report.checks}
        refutation = checks.get("refutation", {})
        gates = {
            "status pass": report.status == "pass",
            "verdict NO": report.artifacts.get("verdict") == "NO",
            "refuted": refutation.get("passed") is True,
            "method exhausted-search":
                refutation.get("detail", "").split(":")[0]
                == "exhausted-search",
        }
        return len(gates), [f"{name} failed" for name, ok in gates.items()
                            if not ok]


WORKLOADS = {w.name: w for w in (Census(), Envelope(), Wide())}

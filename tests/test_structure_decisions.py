"""The structure decisions of `omega` and `classify` against their
references in `helpers`: the center equations built by row lookups, the
center support by one kernel per homogeneous component, and the zero
divisors of simplicity step (c) by ideal closures.

The inputs are every label over Z/2, Z/4, Z/2 x Z/2 and Z/2 x Z/4 up to
dimension 8, the two dim-36 bench labels (read only), the envelopes of
the triple corpus and three small commutative algebras whose center has
dimension > 1.
"""

from pathlib import Path

import pytest

import atsbench.classify
import atsbench.omega
from atsbench import linalg
from atsbench.classify import (classify_conductor, enumerate_labels,
                               graded_center_support, intrinsic_invariants)
from atsbench.cli import run
from atsbench.config import parse_config
from atsbench.corpus import triple_corpus
from atsbench.groups import AbelianGroup
from atsbench.omega import (INVOLUTION, PRODUCT, Grading, OmegaAlgebra,
                            SimplicityUndecided, _center_part, center_basis,
                            graded_is_simple, is_simple)
from atsbench.scalars import CycloField
from atsbench.triples import loos_envelope
from helpers import (ref_center_basis, ref_graded_center_support,
                     ref_zero_divisor_candidates)

ROOT = Path(__file__).resolve().parents[1]
WIDE36 = [ROOT / "bench" / "configs" / f"wide36_{sign}.cfg"
          for sign in ("minus", "plus")]
GROUPS = {"Z4": (4,), "Z2xZ2": (2, 2), "Z2xZ4": (2, 4)}
GAUSSIAN = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}


def _labelled(labels):
    field = CycloField(classify_conductor(*labels))
    return [(lab.name, lab.build(field)) for lab in labels]


def _envelopes():
    return [(entry.name, loos_envelope(entry.triple))
            for entry in triple_corpus()]


def _verdict(alg, grading, ops):
    try:
        return is_simple(alg, grading, ops)
    except SimplicityUndecided:
        return None


def _check_zero_divisors(alg, grading, ops, seen):
    """Every candidate of step (c): the rank of w C below dim C exactly
    when the ideal closure of w is proper; and the verdict that follows."""
    verdict = _verdict(alg, grading, ops)
    step = ref_zero_divisor_candidates(alg, grading, ops)
    if step is None:
        return verdict
    center, candidates = step
    for w, proper in candidates:
        products = [alg.mul(w, c) for c in center]
        assert (len(linalg.rref(alg.field, products, alg.dim))
                < len(center)) == proper
        seen.add(proper)
    expected = (True if len(center) == 1 else
                False if any(p for _, p in candidates) else None)
    assert verdict == expected
    return verdict


def _check_centers(alg, grading):
    """Every center part cut out of the one center kernel, against its own
    kernel by row lookups: the identity component (under `grading`) or
    all of A, each without and with the involution.  Every basis vector
    of the center is homogeneous under `grading`, which _center_part
    relies on."""
    identity = [i for i, d in enumerate(grading.degmap)
                if d == grading.group.identity]
    flags = (False, True) if INVOLUTION in alg.operators else (False,)
    center = center_basis(alg)
    for z in center:
        assert len({grading.degmap[i] for i in z}) == 1
    for indices, cut in ((identity, grading), (range(alg.dim), None)):
        for symmetric in flags:
            new = _center_part(alg, center, cut, symmetric)
            old = ref_center_basis(alg, indices, symmetric)
            # values and key order
            assert [list(v.items()) for v in new] == \
                [list(v.items()) for v in old]
    assert graded_center_support(alg, grading, center) == \
        ref_graded_center_support(alg, grading)


@pytest.mark.parametrize("group", GROUPS)
def test_structure_decisions_match_references_on_labels(group):
    labels = enumerate_labels(AbelianGroup(0, GROUPS[group]), 8)
    seen = set()
    for name, ca in _labelled(labels):
        alg, grading = ca.algebra, ca.grading
        _check_centers(alg, grading)
        for g in (None, grading):
            for ops in ({PRODUCT}, None):
                _check_zero_divisors(alg, g, ops, seen)
    # exchange pairs have a zero divisor, the simple ones have none
    assert seen == {True, False}


def test_structure_decisions_match_references_on_wide36():
    labels = [parse_config(path.read_text(encoding="utf-8")).label
              for path in WIDE36]
    for name, ca in _labelled(labels):
        alg, grading = ca.algebra, ca.grading
        _check_centers(alg, grading)
        for g in (None, grading):
            for ops in ({PRODUCT}, None):
                _check_zero_divisors(alg, g, ops, set())


def _table_algebra(n, table, conductor):
    field = CycloField(conductor)
    alg = OmegaAlgebra(field, n, {PRODUCT: 2})
    for idx, out in table.items():
        alg.set_entry(PRODUCT, idx, {k: field.scalar(c)
                                     for k, c in out.items()})
    return alg


def test_zero_divisors_match_closures_on_commutative_centers():
    """Centers of dimension > 1: Q(i) over Q, a field, gets no verdict;
    Q(i) over Q(i) and Q(i) x Q over Q split."""
    seen = set()
    verdicts = [_check_zero_divisors(_table_algebra(n, table, conductor),
                                     None, None, seen)
                for n, table, conductor in (
                    (2, GAUSSIAN, 1), (2, GAUSSIAN, 4),
                    (3, {**GAUSSIAN, (2, 2): {2: 1}}, 1))]
    assert verdicts == [None, False, False]
    assert seen == {True, False}


def test_structure_decisions_match_references_on_envelopes():
    seen, verdicts = set(), set()
    for name, env in _envelopes():
        _check_centers(env.algebra, env.grading)
        for ops in (None, {PRODUCT}):       # involution active, then not
            verdicts.add(_check_zero_divisors(env.algebra, None, ops, seen))
    assert verdicts == seen == {True, False}


def test_associative_structure_decisions_run_no_closure(monkeypatch):
    """The simplicity decisions of the census and of the corpus envelopes
    find zero divisors by rank, without an ideal closure."""
    def closure(*args, **kwargs):
        raise AssertionError("ideal_closure on the associative path")
    monkeypatch.setattr(atsbench.omega, "ideal_closure", closure)
    cfg = parse_config((ROOT / "configs" / "census_z4.cfg")
                       .read_text(encoding="utf-8"))
    labels = enumerate_labels(cfg.group, cfg.max_dim,
                              cases=cfg.census_cases,
                              max_support=cfg.max_support)
    assert len(labels) == 32
    for name, ca in _labelled(labels):
        intrinsic_invariants(ca.algebra, ca.grading)
    for name, env in _envelopes():
        for ops in (None, {PRODUCT}):
            is_simple(env.algebra, ops=ops)


ORACLE_CENSUSES = {"census_z4": (32, 24), "census_z2": (12, 8),
                   "census_v4": (80, 64), "Z2xZ4": (192, 160)}


@pytest.mark.parametrize("census", ORACLE_CENSUSES)
def test_intrinsic_simplicity_matches_the_guarded_tests(census):
    """On every census label, the intrinsic simple and graded-simple flags
    (the graded test given the center Z, unguarded) equal is_simple and
    graded_is_simple called alone, with the check that the grading grades
    the product."""
    if census.startswith("census_"):
        cfg = parse_config((ROOT / "configs" / f"{census}.cfg")
                           .read_text(encoding="utf-8"))
        labels = enumerate_labels(cfg.group, cfg.max_dim,
                                  cases=cfg.census_cases,
                                  max_support=cfg.max_support)
    else:
        labels = enumerate_labels(AbelianGroup(0, GROUPS[census]), 8)
    field = CycloField(classify_conductor(*labels))
    not_simple = 0
    for lab in labels:
        ca = lab.build(field)
        inv = lab.intrinsics(field)
        assert inv.simple == is_simple(ca.algebra, ops={PRODUCT}), lab.name
        assert inv.graded_simple == graded_is_simple(ca.algebra, ca.grading), \
            lab.name
        not_simple += not inv.simple
    # the graded test runs on the labels that are not simple
    assert (len(labels), not_simple) == ORACLE_CENSUSES[census]


def test_census_checks_each_label_grading_once(monkeypatch):
    """One census_z4 job scans each of its 32 label gradings once, in
    ConstructedAlgebra.verify; the graded simplicity test trusts that
    check and does not repeat it."""
    calls = []
    real = atsbench.omega._misgraded

    def counting(grading, ops):
        calls.append(grading)
        return real(grading, ops)
    monkeypatch.setattr(atsbench.omega, "_misgraded", counting)
    cfg = parse_config((ROOT / "configs" / "census_z4.cfg")
                       .read_text(encoding="utf-8"))
    assert run(cfg).status == "pass"
    assert len(calls) == len({id(g) for g in calls}) == 32


def test_intrinsic_invariants_solve_one_center_kernel(monkeypatch):
    """The simplicity test, the graded test and the center support of a
    label share one center kernel, and give what each gives on its own."""
    calls = []

    def counting(alg):
        calls.append(alg)
        return center_basis(alg)
    labels = enumerate_labels(AbelianGroup(0, (4,)), 8)
    simple_labels = 0
    for name, ca in _labelled(labels):
        alg, grading = ca.algebra, ca.grading
        alone = (is_simple(alg, ops={PRODUCT}),
                 graded_is_simple(alg, grading),
                 tuple(e.coords for e in graded_center_support(
                     alg, grading, center_basis(alg))))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(atsbench.omega, "center_basis", counting)
            m.setattr(atsbench.classify, "center_basis", counting)
            inv = intrinsic_invariants(alg, grading)
        assert (inv.simple, inv.graded_simple, inv.center_support) == alone, \
            name
        assert calls == [alg], name
        simple_labels += inv.simple
    # the simple labels reach step (b) with the shared kernel, and the
    # others the graded test too
    assert 0 < simple_labels < len(labels)


def test_center_part_when_the_involution_moves_the_identity_component():
    """F[Z/2 x Z/2] over Q with basis 1, x, y, xy, graded by Z/2 with
    deg x = deg xy = 1 and deg y = 0, and phi swapping x and y.  The
    identity-degree, phi-fixed part of the center is span(1): projecting
    the center onto A_e first and symmetrizing after would give x + y,
    which is not in A_e."""
    field = CycloField(1)
    alg = OmegaAlgebra(field, 4, {PRODUCT: 2, INVOLUTION: 1})
    for a in range(4):
        for b in range(4):
            alg.set_entry(PRODUCT, (a, b), {a ^ b: field.one})
        alg.set_entry(INVOLUTION, (a,), {(0, 2, 1, 3)[a]: field.one})
    Z2 = AbelianGroup(0, (2,))
    grading = Grading(alg, Z2, tuple(Z2.element((k,)) for k in (0, 1, 0, 1)),
                      graded_ops=frozenset({PRODUCT}))
    part = _center_part(alg, center_basis(alg), grading, True)
    assert part == ref_center_basis(alg, [0, 2], symmetric=True) == [
        {0: field.one}]

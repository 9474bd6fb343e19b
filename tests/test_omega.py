"""Structure-tensor algebras: gradings, morphisms, ideals, simplicity."""

import json
import random
import re

import pytest

from atsbench.groups import AbelianGroup
from atsbench.linalg import rref
from atsbench.omega import (INVOLUTION, PRODUCT, TRIPLE, Grading, LinearMap,
                            OmegaAlgebra, SimplicityUndecided, _center_part,
                            algebra_from_dict, algebra_to_dict, center_basis,
                            check_grading, check_involution, check_morphism,
                            check_t4_flip, graded_is_simple, ideal_closure,
                            is_simple, pi1_coarsening)
from atsbench.scalars import CycloField
from helpers import coarsen, ref_ideal_closure, unit

FQ = CycloField(1)
Z = AbelianGroup(1)
ZxZ2 = AbelianGroup(1, (2,))


def matrix_algebra(n, with_involution=True):
    alg = OmegaAlgebra(FQ, n * n, {PRODUCT: 2},
                       [f"E{i+1}{j+1}" for i in range(n) for j in range(n)])
    def ix(i, j):
        return n * i + j
    for i in range(n):
        for j in range(n):
            for l in range(n):
                alg.set_entry(PRODUCT, (ix(i, j), ix(j, l)), {ix(i, l): FQ.one})
    if with_involution:
        alg.add_operator(INVOLUTION, 1)
        for i in range(n):
            for j in range(n):
                alg.set_entry(INVOLUTION, (ix(i, j),), {ix(j, i): FQ.one})
    return alg


def m2_grading(alg):
    degs = (Z.element((0,)), Z.element((-1,)), Z.element((1,)), Z.element((0,)))
    return Grading(alg, Z, degs, graded_ops=frozenset({PRODUCT}))


def test_m2_standard_grading_passes():
    alg = matrix_algebra(2)
    assert check_grading(m2_grading(alg)).passed


def test_bad_degmap_reports_violation():
    # E12 E21 = E11 would need degree (2) if both have degree (1)
    alg = matrix_algebra(2)
    degs = (Z.element((0,)), Z.element((1,)), Z.element((1,)), Z.element((0,)))
    rep = check_grading(Grading(alg, Z, degs, graded_ops=frozenset({PRODUCT})))
    assert not rep.passed
    assert any("(1, 2)" in v for v in rep.violations)


def test_trivial_grading_passes():
    alg = matrix_algebra(3)
    degs = tuple(Z.element((0,)) for _ in range(9))
    # everything sits in degree 0, so even the involution is graded here
    assert check_grading(Grading(alg, Z, degs)).passed


def test_identity_morphism_passes():
    alg = matrix_algebra(2)
    assert check_morphism(LinearMap.identity(alg)).passed


def test_transpose_is_involution():
    alg = matrix_algebra(2)
    assert check_involution(alg).passed
    # 16 product pairs + 4 squares were scanned
    assert check_involution(alg).checked == 20


def test_broken_involutions_are_reported():
    # phi^2 != id: without a product only the squares are scanned
    alg = OmegaAlgebra(FQ, 2, {INVOLUTION: 1})
    alg.set_entry(INVOLUTION, (0,), {1: FQ.one})
    alg.set_entry(INVOLUTION, (1,), {1: FQ.one})
    rep = check_involution(alg)
    assert (rep.checked, rep.violations) == (2, ["phi^2(e0) != e0"])
    # phi^2 = id, but phi(e0 e0) = -e0 while phi(e0) phi(e0) = e0
    alg = make_f_plus_f(exchange=False)
    alg.add_operator(INVOLUTION, 1)
    alg.set_entry(INVOLUTION, (0,), {0: FQ.scalar(-1)})
    alg.set_entry(INVOLUTION, (1,), {1: FQ.one})
    rep = check_involution(alg)
    assert (rep.checked, rep.violations) == (
        6, ["phi(e0 e0) != phi(e0) phi(e0)"])


def test_swap_is_not_automorphism():
    alg = matrix_algebra(2)
    cols = [alg.basis_vec(0), alg.basis_vec(2), alg.basis_vec(1),
            alg.basis_vec(3)]
    f = LinearMap(alg, alg, cols)
    rep = check_morphism(f, ops=[PRODUCT])
    assert not rep.passed
    # the swap is the transpose: f(xy) = f(y) f(x), which differs from
    # f(x) f(y) exactly on the non-commuting pairs of matrix units
    noncommuting = [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1),
                    (2, 3), (3, 1), (3, 2)]
    products = [f"product{p}: f(op(x)) != op(f(x))" for p in noncommuting]
    assert (rep.checked, rep.violations) == (16, products)
    # with the 3-grading, E12 (degree -1) and E21 (degree 1) change places
    grading = m2_grading(alg)
    rep = check_morphism(f, ops=[PRODUCT], gradings=(grading, grading))
    assert (rep.checked, rep.violations) == (
        20, products + ["f(e1) leaves component (-1)",
                        "f(e2) leaves component (1)"])


def test_monomial_is_bijective_matches_rref():
    # a map with one term per column takes the distinct-targets path;
    # every verdict must equal the rank test by row reduction
    rng = random.Random(11)
    alg = OmegaAlgebra(FQ, 5, {PRODUCT: 2})
    maps = []
    for _ in range(40):
        targets = rng.sample(range(5), 5)
        values = [FQ.scalar(rng.choice([1, -1, 2, 3])) for _ in range(5)]
        if rng.random() < 0.5:
            targets[rng.randrange(5)] = targets[rng.randrange(5)]
        if rng.random() < 0.3:
            values[rng.randrange(5)] = FQ.zero      # a stored zero
        maps.append(LinearMap(alg, alg, [{t: c} for t, c in
                                         zip(targets, values)]))
    verdicts = [f.is_bijective() for f in maps]
    assert verdicts == [len(rref(FQ, f.columns, 5)) == 5 for f in maps]
    assert True in verdicts and False in verdicts
    cols = [{0: FQ.one}, {0: FQ.scalar(2)}, {2: FQ.one}, {3: FQ.one},
            {4: FQ.one}]
    assert not LinearMap(alg, alg, cols).is_bijective()    # repeated target
    cols[1] = {1: FQ.zero}
    assert not LinearMap(alg, alg, cols).is_bijective()    # zero coefficient
    # a stored zero is dropped, so maps compare as plain column lists
    assert LinearMap(alg, alg, cols).columns[1] == {}
    assert LinearMap(alg, alg, cols) == LinearMap(alg, alg, cols[:1] + [{}]
                                                  + cols[2:])


def test_apply_rejects_wrong_arity():
    alg = matrix_algebra(2)
    with pytest.raises(ValueError, match="product takes 2 arguments, got 1"):
        alg.apply(PRODUCT, alg.basis_vec(0))


def test_t4_flip():
    alg = matrix_algebra(2)
    assert check_t4_flip(m2_grading(alg)).passed


def test_ideal_closure_of_zero():
    alg = matrix_algebra(2)
    assert ideal_closure(alg, [{}]).rank == 0


def test_ideal_closure_reaches_everything():
    alg = matrix_algebra(2)
    assert ideal_closure(alg, [alg.basis_vec(0)]).rank == 4


def make_f_plus_f(exchange):
    ops = {PRODUCT: 2}
    alg = OmegaAlgebra(FQ, 2, ops)
    alg.set_entry(PRODUCT, (0, 0), {0: FQ.one})
    alg.set_entry(PRODUCT, (1, 1), {1: FQ.one})
    if exchange:
        alg.add_operator(INVOLUTION, 1)
        alg.set_entry(INVOLUTION, (0,), {1: FQ.one})
        alg.set_entry(INVOLUTION, (1,), {0: FQ.one})
    return alg


def test_exchange_insertion_in_closure():
    alg = make_f_plus_f(exchange=True)
    assert ideal_closure(alg, [alg.basis_vec(0)]).rank == 2


def test_simplicity_examples():
    assert is_simple(matrix_algebra(2))
    assert not is_simple(make_f_plus_f(exchange=False))
    assert is_simple(make_f_plus_f(exchange=True))


def test_simplicity_catches_rotated_ideal():
    # F + F presented on the basis (1,1), (1,-1): no basis vector lies in
    # a proper ideal, the field test finds the zero divisor e1 - 1 of the
    # two-dimensional center
    alg = OmegaAlgebra(FQ, 2, {PRODUCT: 2})
    half = FQ.scalar(1) / FQ.scalar(2)
    # e0 = (1,1), e1 = (1,-1): e0*e0 = (1,1) = e0, e0*e1 = (1,-1) = e1,
    # e1*e1 = (1,1) = e0
    alg.set_entry(PRODUCT, (0, 0), {0: FQ.one})
    alg.set_entry(PRODUCT, (0, 1), {1: FQ.one})
    alg.set_entry(PRODUCT, (1, 0), {1: FQ.one})
    alg.set_entry(PRODUCT, (1, 1), {0: FQ.one})
    assert not is_simple(alg)


def algebra_from_table(n, table, conductor=1):
    """An n-dim product-only algebra over Q(zeta_conductor) from
    {(i, j): {k: int}}."""
    field = CycloField(conductor)
    alg = OmegaAlgebra(field, n, {PRODUCT: 2})
    for idx, out in table.items():
        alg.set_entry(PRODUCT, idx, {k: field.scalar(c) for k, c in out.items()})
    return alg


def test_simplicity_edge_cases():
    # zero products: every subspace is an ideal
    assert is_simple(algebra_from_table(1, {}))
    assert not is_simple(algebra_from_table(2, {}))
    # zero product with degrees 0, 1 swapped by the involution: no proper
    # graded phi-stable ideal here, so dim > 1 does not give False
    swapped = algebra_from_table(2, {})
    swapped.add_operator(INVOLUTION, 1)
    swapped.set_entry(INVOLUTION, (0,), {1: FQ.one})
    swapped.set_entry(INVOLUTION, (1,), {0: FQ.one})
    G = AbelianGroup(0, (2,))
    gr = Grading(swapped, G, (G.element((0,)), G.element((1,))),
                 graded_ops=frozenset({PRODUCT}))
    assert ref_ideal_closure(swapped, [swapped.basis_vec(0)], gr).rank == 2
    with pytest.raises(SimplicityUndecided):
        is_simple(swapped, gr)
    assert not is_simple(swapped)             # span(e0 + e1) is phi-stable
    # nilpotent with A^2 = span(e1) != 0
    assert not is_simple(algebra_from_table(2, {(0, 0): {1: 1}}))
    # upper triangular 2x2 matrices (E11, E12, E22): radical span(E12)
    upper = algebra_from_table(3, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                   (1, 2): {1: 1}, (2, 2): {2: 1}})
    assert not is_simple(upper)
    # Q(i) over Q is a field, but i - lambda is invertible for every
    # candidate lambda in {0, 1, -1}: no verdict rather than a guessed True
    gaussian = algebra_from_table(2, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                      (1, 0): {1: 1}, (1, 1): {0: -1}})
    with pytest.raises(SimplicityUndecided):
        is_simple(gaussian)
    # over Q(i) the same table splits: i - zeta_4 is a zero divisor
    assert not is_simple(algebra_from_table(
        2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}},
        conductor=4))


def test_center_basis():
    alg = matrix_algebra(2)
    center = center_basis(alg)
    assert center == [{0: FQ.one, 3: FQ.one}]
    # a degree map (it grades nothing) with identity part span(E12, E21)
    Z2 = AbelianGroup(0, (2,))
    off = Grading(alg, Z2, tuple(Z2.element((k,)) for k in (1, 0, 0, 1)))
    assert _center_part(alg, center, off, False) == []
    swap = make_f_plus_f(exchange=True)
    assert len(center_basis(swap)) == 2
    assert _center_part(swap, center_basis(swap), None, True) == [
        {0: FQ.one, 1: FQ.one}]


def test_closure_monotone_idempotent():
    alg = matrix_algebra(2)
    small = ideal_closure(alg, [alg.basis_vec(1)])
    again = ideal_closure(alg, small.rows)
    assert again.rank == small.rank
    assert ideal_closure(alg, [alg.basis_vec(i) for i in range(4)]).rank == 4


def test_coarsening():
    alg = matrix_algebra(2)
    grading = m2_grading(alg)
    same = coarsen(grading, lambda d: d, Z)
    assert same.degmap == grading.degmap
    # Z -> Z/2 coarsening: degrees become (0), (1), (1), (0)
    Z2 = AbelianGroup(0, (2,))
    mod2 = coarsen(grading, lambda d: Z2.element((d.coords[0],)), Z2)
    assert check_grading(mod2).passed
    assert [d.coords for d in mod2.degmap] == [(0,), (1,), (1,), (0,)]


def test_coarsening_functoriality():
    # check_grading passes on the coarsened grading whenever it passes
    alg = matrix_algebra(2)
    gr = Grading(alg, ZxZ2,
                 (ZxZ2.element((0, 0)), ZxZ2.element((-1, 1)),
                  ZxZ2.element((1, 1)), ZxZ2.element((0, 0))),
                 graded_ops=frozenset({PRODUCT}))
    assert check_grading(gr).passed
    pi1 = pi1_coarsening(gr)
    assert check_grading(pi1).passed
    assert sorted(set(d.coords[0] for d in pi1.degmap)) == [-1, 0, 1]


def test_graded_simplicity_vs_plain():
    alg = make_f_plus_f(exchange=True)
    G = AbelianGroup(0, (2,))
    gr = Grading(alg, G, (G.identity, G.identity),
                 graded_ops=frozenset({PRODUCT}))
    assert not graded_is_simple(alg, gr)      # each block is a graded ideal
    assert is_simple(alg)                     # but phi-stability saves it
    # degrees 0, 1 do not grade the product (e1 e1 = e1): no verdict
    odd = Grading(alg, G, (G.identity, G.element((1,))),
                  graded_ops=frozenset({PRODUCT}))
    with pytest.raises(ValueError, match="does not grade the product"):
        graded_is_simple(alg, odd)


def test_triple_nontriviality_requirement():
    # a triple system is decided through its envelope
    # (triples.triple_is_simple), never by is_simple on the triple
    W = OmegaAlgebra(FQ, 1, {TRIPLE: 3})
    W.set_entry(TRIPLE, (0, 0, 0), {0: FQ.one})
    with pytest.raises(ValueError, match="'triple'"):
        is_simple(W)


@pytest.mark.parametrize("operators, ops, named", [
    ({INVOLUTION: 1}, None, "operators ['involution']"),
    ({PRODUCT: 2}, set(), "operators []"),
    ({PRODUCT: 2, "shift": 1}, None, "operators ['product', 'shift']"),
])
def test_is_simple_rejects_inputs_outside_the_associative_case(
        operators, ops, named):
    alg = OmegaAlgebra(FQ, 1, operators)
    with pytest.raises(ValueError, match=re.escape(named)):
        is_simple(alg, ops=ops)


def test_unit_detection():
    alg = matrix_algebra(2)
    u = unit(alg)
    assert u == {0: FQ.one, 3: FQ.one}
    nounit = OmegaAlgebra(FQ, 1, {PRODUCT: 2})
    assert unit(nounit) is None


def test_json_round_trip():
    alg = matrix_algebra(2)
    gr = m2_grading(alg)
    data = json.loads(json.dumps(algebra_to_dict(alg, gr)))
    alg2, gr2 = algebra_from_dict(data)
    assert alg2.tensors == alg.tensors
    assert gr2.degmap == gr.degmap
    assert gr2.graded_ops == gr.graded_ops


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["tensor"].append(["cube", [0], 0, "1"]), "unknown operator"),
    (lambda d: d["tensor"].append(["product", [0], 0, "1"]), "arity 2, not 1"),
    (lambda d: d["tensor"].append(["product", [0, 4], 0, "1"]),
     r"outside \[0, 4\)"),
    (lambda d: d["tensor"].append(["product", [0, 0], -1, "1"]),
     r"outside \[0, 4\)"),
    (lambda d: d["degrees"].pop(), "3 entries for dimension 4"),
    (lambda d: d["tensor"].append(["product", 0, 0, "1"]),
     "index is not a list of ints"),
    (lambda d: d["tensor"].append(["product", [0, 0], 0, "2/0"]),
     "zero denominator in scalar literal '2/0'"),
])
def test_json_rejects_malformed_entries(edit, message):
    alg = matrix_algebra(2)
    data = json.loads(json.dumps(algebra_to_dict(alg, m2_grading(alg))))
    edit(data)
    with pytest.raises(ValueError, match=message):
        algebra_from_dict(data)

"""Standard realizations, involutions, doubles, matrix algebras, Phi."""

import dataclasses
import itertools
import math

import pytest

import atsbench.constructions
from atsbench.classify import (all_subgroups,
                               nondegenerate_alternating_bicharacters)
from atsbench.constructions import (ConstraintError, ExchangePairParams,
                                    InvolutionParams, _resolve_part,
                                    _with_involution, build_exchange_pair,
                                    build_M_inv, check_commutation, d_inv,
                                    division_part,
                                    exchange_double_division, kappa_expand,
                                    matrix_grading, opposite, part_layouts,
                                    phi_matrix, standard_realization,
                                    transpose_form)
from atsbench.groups import (AbelianGroup, Bicharacter, GroupError,
                             QuadraticForm, Subgroup, extend_bicharacter,
                             symplectic_decomposition, trivial_subgroup)
from atsbench.omega import (INVOLUTION, PRODUCT, Grading, LinearMap,
                            VerificationError, check_grading,
                            check_involution, check_morphism, check_t4_flip,
                            is_simple)
from atsbench.scalars import CycloField
from atsbench.corpus import algebra_corpus
from atsbench.triples import check_associative
from helpers import (all_quadratic_forms, classification_supports, dense_eq,
                     dense_mul, dense_scale, dense_transpose,
                     exchange_subgroup_transfer, generator_power,
                     graded_division_iso, mono_dense,
                     ref_exchange_double_division,
                     ref_phi_involution, ref_standard_realization,
                     ref_transpose_form, removal_twist, run_optimized)

F2 = CycloField(2)
V4 = AbelianGroup(0, (2, 2))
A_, B_ = V4.element((1, 0)), V4.element((0, 1))


def symplectic_v4():
    T = Subgroup(V4, (A_, B_))
    return T, Bicharacter.from_generator_matrix(T, (A_, B_), [[0, 1], [1, 0]])


def trivial_pair(G):
    T = trivial_subgroup(G)
    return T, Bicharacter.from_generator_matrix(T, (), [])


# ---------------------------------------------------------------------------
# standard realizations
# ---------------------------------------------------------------------------

def test_trivial_support_gives_base_field():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    D = standard_realization(T, beta, F2)
    assert D.dim == 1
    c, k = D.mu(0, 0)
    assert c == F2.one and k == 0


def test_z2_squared_clock_and_shift():
    T, beta = symplectic_v4()
    D, mats = ref_standard_realization(T, beta, F2)
    assert D.dim == 4
    (a, b, l), = symplectic_decomposition(T, beta)
    assert l == 2
    Xa = mono_dense(mats[D.index[a]], F2)
    Xb = mono_dense(mats[D.index[b]], F2)
    assert dense_eq(Xa, [[F2.one, F2.zero], [F2.zero, F2.scalar(-1)]])
    assert dense_eq(Xb, [[F2.zero, F2.one], [F2.one, F2.zero]])
    # independent oracle: explicit 2x2 multiplication
    assert dense_eq(dense_mul(F2, Xa, Xb),
                    dense_scale(F2.scalar(-1), dense_mul(F2, Xb, Xa)))


@pytest.mark.parametrize("torsion,matrix,conductor", [
    ((2, 2), [[0, 1], [1, 0]], 2),
    ((3, 3), [[0, 1], [-1, 0]], 3),
    ((4, 4), [[0, 1], [-1, 0]], 4),
    ((2, 2, 2, 2), [[0, 1, 0, 0], [1, 0, 0, 0],
                    [0, 0, 0, 1], [0, 0, 1, 0]], 2),
])
def test_commutation_relation_and_powers(torsion, matrix, conductor):
    G = AbelianGroup(0, torsion)
    gens = tuple(G.element(tuple(1 if i == k else 0 for i in range(len(torsion))))
                 for k in range(len(torsion)))
    T = Subgroup(G, gens)
    beta = Bicharacter.from_generator_matrix(T, gens, matrix)
    field = CycloField(conductor)
    D = standard_realization(T, beta, field)
    assert D.dim == len(T)
    for i, ti in enumerate(D.elements):
        for j, tj in enumerate(D.elements):
            ci, ki = D.mu(i, j)
            cj, kj = D.mu(j, i)
            assert ki == kj
            assert ci == beta.eval(ti, tj, field) * cj
    rep = check_commutation(D)
    assert rep.name == "commutation-relation"
    assert rep.passed and rep.checked == D.dim ** 2
    # X_(a_i)^(l_i) = 1 = X_(b_i)^(l_i) for the hyperbolic pair generators
    for (a, b, l) in symplectic_decomposition(T, beta):
        for gen in (a, b):
            assert generator_power(D, gen, l) == (
                field.one, D.index[T.group.identity])
    assert check_grading(D.grading).passed


def equivalence_cases():
    """(G, T, beta) for every subgroup T of the small groups and every
    beta on it, and the first beta on T = Z/2^4 (all 28 would make the
    test about four times slower)."""
    for torsion in ((2, 2), (3, 3), (4, 4), (2, 4), (2, 2, 2), (2, 2, 4)):
        G = AbelianGroup(0, torsion)
        for T in all_subgroups(G):
            for beta in nondegenerate_alternating_bicharacters(T):
                yield G, T, beta
    G = AbelianGroup(0, (2, 2, 2, 2))
    T = Subgroup(G, [G.element(tuple(int(i == k) for i in range(4)))
                     for k in range(4)])
    yield G, T, nondegenerate_alternating_bicharacters(T)[0]


def assert_same_division(D, R):
    assert D.algebra.tensors == R.algebra.tensors
    assert D.algebra.basis_labels == R.algebra.basis_labels
    assert D.elements == R.elements
    assert D.grading.degmap == R.grading.degmap
    assert D.grading.graded_ops == R.grading.graded_ops
    assert check_associative(D.algebra).passed


def test_structure_constants_match_the_matrix_references():
    # every D(T, beta), its transpose form and every double at t, built
    # from structure constants, equal the Kronecker realization and the
    # double of a general algebra with involution, scalar for scalar
    count = 0
    for G, T, beta in equivalence_cases():
        field = CycloField(2 * math.lcm(2, T.exponent, beta.exponent))
        D = standard_realization(T, beta, field)
        R, mats = ref_standard_realization(T, beta, field)
        assert_same_division(D, R)
        count += 1
        if not T.is_elementary_2():
            continue
        tau = transpose_form(D)
        assert tau == ref_transpose_form(R, mats)
        D = _with_involution(D, tau)
        for t in G.elements():
            if t.order() == 2 and t not in T:
                assert_same_division(exchange_double_division(D, t),
                                     ref_exchange_double_division(D, t))
                count += 1
    assert count == 107


def test_degenerate_bicharacter_rejected():
    G = AbelianGroup(0, (2,))
    T = Subgroup(G, (G.element((1,)),))
    beta = Bicharacter.from_generator_matrix(T, (G.element((1,)),), [[0]])
    with pytest.raises(ConstraintError):
        standard_realization(T, beta, F2)


# ---------------------------------------------------------------------------
# involutions on division algebras
# ---------------------------------------------------------------------------

def test_identity_involution_on_f():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    D = d_inv(T, beta, QuadraticForm(T, {G.identity: 1}), F2)
    assert D.algebra.row(INVOLUTION, (0,)) == {0: F2.one}


def test_transpose_form_gives_matrix_transpose():
    T, beta = symplectic_v4()
    D = division_part(T, beta, None, F2)
    tau = D.sign_form
    # the symmetric/antisymmetric split of the four basis matrices
    _, mats = ref_standard_realization(T, beta, F2)
    for i, t in enumerate(D.elements):
        dense = mono_dense(mats[i], F2)
        assert dense_eq(dense_transpose(dense),
                        dense_scale(F2.scalar(tau(t)), dense))
    assert sum(1 for t in T.elements if tau(t) == -1) == 1   # only X_a X_b


def test_other_form_is_conjugated_transpose():
    # d -> tau(t) d with tau(b-generator) = -1 equals Int(X_s) o transpose
    # for the support element s with beta(s, .) = tau_transpose * tau
    T, beta = symplectic_v4()
    D0 = standard_realization(T, beta, F2)
    tau_tr = transpose_form(D0)
    _, mats = ref_standard_realization(T, beta, F2)
    for tau in all_quadratic_forms(beta):
        D = d_inv(T, beta, tau, F2)
        chi = {t: tau(t) * tau_tr(t) for t in T.elements}
        s = next(t for t in T.elements
                 if all(beta.eval(t, u, F2) == F2.scalar(chi[u])
                        for u in T.elements))
        Xs = mono_dense(mats[D.index[s]], F2)
        Xs_inv = dense_scale(
            (D.mu(D.index[s], D.index[s])[0]).inverse(), Xs)
        for i, t in enumerate(D.elements):
            dense = mono_dense(mats[i], F2)
            via_int = dense_mul(F2, Xs_inv,
                                dense_mul(F2, dense_transpose(dense), Xs))
            assert dense_eq(via_int, dense_scale(F2.scalar(tau(t)), dense))


def test_polar_mismatch_rejected():
    T, beta = symplectic_v4()
    e = V4.identity
    wrong = QuadraticForm(T, {e: 1, A_: 1, B_: 1, A_ + B_: 1})  # polar trivial
    with pytest.raises(ConstraintError):
        d_inv(T, beta, wrong, F2)


def test_involution_needs_elementary_two_support():
    G = AbelianGroup(0, (3, 3))
    gens = (G.element((1, 0)), G.element((0, 1)))
    T = Subgroup(G, gens)
    beta = Bicharacter.from_generator_matrix(T, gens, [[0, 1], [-1, 0]])
    with pytest.raises((ConstraintError, GroupError)):
        division_part(T, beta, None, CycloField(3))


# ---------------------------------------------------------------------------
# exchange doubles
# ---------------------------------------------------------------------------

def test_smallest_double():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    D = d_inv(T, beta, QuadraticForm(T, {G.identity: 1}), F2)
    t = G.element((1,))
    Dx = exchange_double_division(D, t)
    assert Dx.dim == 2
    assert [d.coords for d in Dx.grading.degmap] == [(0,), (1,)]
    # involution = exchange: fixes Y_e, negates Y_t
    assert Dx.algebra.row(INVOLUTION, (0,)) == {0: F2.one}
    assert Dx.algebra.row(INVOLUTION, (1,)) == {1: F2.scalar(-1)}


def test_double_of_z2_squared():
    G = AbelianGroup(0, (2, 2, 2))
    a, b, t = G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 1))
    T = Subgroup(G, (a, b))
    beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
    D = division_part(T, beta, None, F2)
    Dx = exchange_double_division(D, t)
    assert Dx.dim == 8
    assert len(set(Dx.grading.degmap)) == 8       # all components 1-dim
    assert check_involution(Dx.algebra).passed
    assert check_grading(Dx.grading).passed
    for i in range(Dx.dim):
        Dx.basis_inverse(i)                       # every Y_s invertible
    assert is_simple(Dx.algebra)
    # the involution follows the extended transpose form (X,Y) -> (Y^t, X^t)
    tau_ext = D.sign_form.extend(t)
    for i, s in enumerate(Dx.elements):
        assert Dx.algebra.row(INVOLUTION, (i,)) == {i: F2.scalar(tau_ext(s))}


def test_commutation_check_catches_wrong_bicharacter(monkeypatch):
    # against the commuting bicharacter, the six anticommuting pairs of
    # distinct non-identity elements of V4 are violations
    T, beta = symplectic_v4()
    D = standard_realization(T, beta, F2)
    commuting = Bicharacter.from_generator_matrix(T, (A_, B_), [[0, 0], [0, 0]])
    rep = check_commutation(dataclasses.replace(D, bicharacter=commuting))
    assert rep.checked == 16 and len(rep.violations) == 6
    assert "Z1 Z2 != beta * Z2 Z1" in rep.violations
    # the double refuses an extended bicharacter its products do not follow
    G = AbelianGroup(0, (2, 2, 2))
    a, b, t = G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 1))
    T3 = Subgroup(G, (a, b))
    beta3 = Bicharacter.from_generator_matrix(T3, (a, b), [[0, 1], [1, 0]])
    flat = Bicharacter.from_generator_matrix(T3, (a, b), [[0, 0], [0, 0]])
    D3 = division_part(T3, beta3, None, F2)
    monkeypatch.setattr(atsbench.constructions, "extend_bicharacter",
                        lambda _, s: extend_bicharacter(flat, s))
    with pytest.raises(VerificationError, match="commutation factor"):
        exchange_double_division(D3, t)


def test_double_preconditions():
    # the doubling element must have order 2 and avoid the support, and
    # D must carry an involution
    T, beta = symplectic_v4()
    D = division_part(T, beta, None, F2)
    with pytest.raises(ConstraintError, match="must have order 2"):
        exchange_double_division(D, V4.identity)           # order 1
    with pytest.raises(ConstraintError, match="must avoid the support"):
        exchange_double_division(D, A_)
    with pytest.raises(ConstraintError, match="needs an involution on D"):
        exchange_double_division(standard_realization(T, beta, F2), A_)


# ---------------------------------------------------------------------------
# kappa expansion and matrix gradings
# ---------------------------------------------------------------------------

def test_kappa_expand():
    g1, g2, e = A_, B_, V4.identity
    assert kappa_expand((1,), (g1,)) == (g1,)
    assert kappa_expand((2, 1), (g1, g2)) == (g1, g1, g2)
    assert kappa_expand((1, 1, 2), (g1, g2, e)) == (g1, g2, e, e)
    # the lengths are checked once, when the label parameters are made
    T, beta = trivial_pair(V4)
    with pytest.raises(ConstraintError, match="kappa0/gamma0 length mismatch"):
        ExchangePairParams(group=V4, T=T, beta=beta, kappa0=(1, 2),
                           gamma0=(g1,), kappa1=(1,), gamma1=(e,))


def test_matrix_grading_degrees():
    G = AbelianGroup(0, (2, 2))
    T, beta = trivial_pair(G)
    D = standard_realization(T, beta, F2)
    e, a, b = G.identity, A_, B_
    mk = matrix_grading(D, (e,), (e,))
    def deg(i, j):
        return mk.grading.degmap[mk.bidx(0, i, j)].coords
    assert deg(0, 1) == (-1, 0, 0)
    assert deg(1, 0) == (1, 0, 0)
    mk2 = matrix_grading(D, (e, a), (b,))
    assert mk2.grading.degmap[mk2.bidx(0, 0, 2)].coords == (-1, 0, 1)
    # division part with support: deg(X_a E12) = (-1, a)
    Ts, bs = symplectic_v4()
    Ds = standard_realization(Ts, bs, F2)
    mks = matrix_grading(Ds, (V4.identity,), (V4.identity,))
    ia = Ds.index[A_]
    assert mks.grading.degmap[mks.bidx(ia, 0, 1)].coords == (-1, 1, 0)
    assert check_grading(mks.grading).passed


# ---------------------------------------------------------------------------
# Phi matrices and the assembled involutions
# ---------------------------------------------------------------------------

def test_phi_trivial_is_identity():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    e = G.identity
    p = InvolutionParams(group=G, T=T, beta=beta, kappa0=(1,), gamma0=(e,),
                         kappa1=(1,), gamma1=(e,), delta=1, g=e)
    D = division_part(T, beta, None, F2)
    phi = phi_matrix(p, D, D.sign_form)
    assert phi == {(0, 0): (0, F2.one), (1, 1): (0, F2.one)}


def test_phi_paired_block_shape():
    G = AbelianGroup(0, (2, 2))
    T, beta = trivial_pair(G)
    e = G.identity
    for delta in (1, -1):
        p = InvolutionParams(group=G, T=T, beta=beta,
                             kappa0=(1, 1), gamma0=(A_, B_), m0=0,
                             kappa1=(1, 1), gamma1=(e, A_ + B_), m1=0,
                             delta=delta, g=A_ + B_)
        D = division_part(T, beta, None, F2)
        phi = phi_matrix(p, D, D.sign_form)
        # [[0, I], [delta I, 0]] per part
        assert phi[(0, 1)] == (0, F2.one)
        assert phi[(1, 0)] == (0, F2.scalar(delta))
        assert phi[(2, 3)] == (0, F2.one)
        assert phi[(3, 2)] == (0, F2.scalar(delta))


def test_phi_block_with_support_element():
    # t-value ab with transpose sign -1 forces delta = -1
    T, beta = symplectic_v4()
    e, ab = V4.identity, A_ + B_
    p = InvolutionParams(group=V4, T=T, beta=beta, kappa0=(1,), gamma0=(e,),
                         kappa1=(1,), gamma1=(e,), delta=-1, g=ab)
    ca = build_M_inv(p, F2)
    D = ca.D
    assert ca.phi[(0, 0)][0] == D.index[ab]
    with pytest.raises(ConstraintError) as err:
        build_M_inv(InvolutionParams(group=V4, T=T, beta=beta, kappa0=(1,),
                                     gamma0=(e,), kappa1=(1,), gamma1=(e,),
                                     delta=1, g=ab), F2)
    assert "sign constraint" in str(err.value)


def test_build_trivial_gives_m2_transpose():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    e = G.identity
    ca = build_M_inv(InvolutionParams(group=G, T=T, beta=beta, kappa0=(1,),
                                      gamma0=(e,), kappa1=(1,), gamma1=(e,),
                                      delta=1, g=e), F2)
    assert ca.algebra.dim == 4
    # transpose swaps E12 and E21, satisfying the degree flip
    i12, i21 = ca.matrix.bidx(0, 0, 1), ca.matrix.bidx(0, 1, 0)
    assert ca.algebra.row(INVOLUTION, (i12,)) == {i21: F2.one}
    assert check_t4_flip(ca.grading).passed


def test_build_exchange_structure():
    # the exchange-double case composes the component swap with transposes
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    e, t = G.identity, G.element((1,))
    ca = build_M_inv(InvolutionParams(group=G, T=T, beta=beta, kappa0=(1,),
                                      gamma0=(e,), kappa1=(1,), gamma1=(e,),
                                      delta=1, g=e, t=t), F2)
    assert ca.algebra.dim == 8
    assert is_simple(ca.algebra)
    assert not is_simple(ca.algebra, ops={PRODUCT})
    # phi(Y_e E12) must land on Y_e E21 with coefficient +1 (transpose part)
    iye12 = ca.matrix.bidx(ca.D.index[e], 0, 1)
    iye21 = ca.matrix.bidx(ca.D.index[e], 1, 0)
    assert ca.algebra.row(INVOLUTION, (iye12,)) == {iye21: F2.one}
    # and anti-fix the odd part of the double: Y_t E12 -> -Y_t E21
    iyt12 = ca.matrix.bidx(ca.D.index[t], 0, 1)
    iyt21 = ca.matrix.bidx(ca.D.index[t], 1, 0)
    assert ca.algebra.row(INVOLUTION, (iyt12,)) == {iyt21: F2.scalar(-1)}


def test_build_symplectic_zero_block():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    e, u = G.identity, G.element((1,))
    ca = build_M_inv(InvolutionParams(group=G, T=T, beta=beta, kappa0=(2,),
                                      gamma0=(e,), kappa1=(2,), gamma1=(u,),
                                      delta=-1, g=e, S_signs0=(-1,),
                                      S_signs1=(-1,)), F2)
    assert check_involution(ca.algebra).passed
    assert check_t4_flip(ca.grading).passed
    assert ca.phi[(0, 1)] == (0, F2.one)
    assert ca.phi[(1, 0)] == (0, F2.scalar(-1))


def test_delta_forced_positive_in_exchange_case():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    e, t = G.identity, G.element((1,))
    with pytest.raises(ConstraintError) as err:
        build_M_inv(InvolutionParams(group=G, T=T, beta=beta, kappa0=(1,),
                                     gamma0=(e,), kappa1=(1,), gamma1=(e,),
                                     delta=-1, g=e, t=t), F2)
    assert "sgn(B)" in str(err.value)


def test_gamma_distinct_mod_support():
    G = AbelianGroup(0, (2, 2))
    T, beta = symplectic_v4()
    e = V4.identity
    with pytest.raises(ConstraintError):
        InvolutionParams(group=V4, T=T, beta=beta, kappa0=(1, 1),
                         gamma0=(e, A_), kappa1=(1,), gamma1=(e,),
                         delta=1, g=e)


def test_part_layouts_are_the_layouts_the_part_check_accepts():
    # _resolve_part checks the layout's shape before any degree or sign
    # constraint, and each shape message starts with "kappa0:"
    G = AbelianGroup(0, (8,))
    T, beta = trivial_pair(G)
    sigma = QuadraticForm(T, {G.identity: 1})
    elements = G.elements()

    def shape_ok(kappa, m):
        p = InvolutionParams(group=G, T=T, beta=beta, kappa0=kappa,
                             gamma0=elements[:len(kappa)], kappa1=(1,),
                             gamma1=(G.identity,), delta=1, g=G.identity,
                             m0=m)
        try:
            _resolve_part(p, 0, sigma)
        except ConstraintError as err:
            return not str(err).startswith("kappa0:")
        return True

    for n in range(1, 6):
        layouts = list(part_layouts(n))
        assert len(layouts) == len(set(layouts))
        kappas = [k for r in range(1, n + 1)
                  for k in itertools.product(range(1, n + 1), repeat=r)
                  if sum(k) == n]
        assert set(layouts) == {(k, m) for k in kappas
                                for m in range(-1, len(k) + 2)
                                if shape_ok(k, m)}


# ---------------------------------------------------------------------------
# opposites and exchange pairs
# ---------------------------------------------------------------------------

def test_opposite_of_commutative_is_identity():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    D = standard_realization(T, beta, F2)
    op_alg, op_gr = opposite(D.algebra, D.grading)
    assert op_alg.tensors[PRODUCT] == D.algebra.tensors[PRODUCT]


def test_m2_opposite_isomorphic_via_transpose():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    D = standard_realization(T, beta, F2)
    mk = matrix_grading(D, (G.identity,), (G.element((1,)),))
    op_alg, op_gr = opposite(mk.algebra, mk.grading)
    cols = []
    for i in range(2):
        for j in range(2):
            cols.append({mk.bidx(0, j, i): F2.one})
    f = LinearMap(op_alg, mk.algebra, cols)
    assert check_morphism(f, ops=[PRODUCT]).passed


def test_division_opposite_same_class():
    # D(T, beta)^op is a graded division algebra with bicharacter beta o ex,
    # which equals beta on elementary 2-groups
    T, beta = symplectic_v4()
    D = standard_realization(T, beta, F2)
    op_alg, _ = opposite(D.algebra, D.grading)
    op_gr = Grading(op_alg, D.grading.group, D.grading.degmap,
                    graded_ops=frozenset({PRODUCT}))
    from atsbench.constructions import GradedDivision
    Dop = GradedDivision(F2, V4, T, op_alg, op_gr, D.elements, beta.swapped())
    f = graded_division_iso(Dop, D)
    assert f is not None


def test_division_opposite_z3_squared():
    # over Z3^2 the opposite changes the bicharacter class: D^op matches
    # D(T, beta o ex) = D(T, beta^{-1}) and not D(T, beta)
    F3 = CycloField(3)
    G = AbelianGroup(0, (3, 3))
    gens = (G.element((1, 0)), G.element((0, 1)))
    T = Subgroup(G, gens)
    beta = Bicharacter.from_generator_matrix(T, gens, [[0, 1], [-1, 0]])
    D = standard_realization(T, beta, F3)
    op_alg, _ = opposite(D.algebra, D.grading)
    op_gr = Grading(op_alg, D.grading.group, D.grading.degmap,
                    graded_ops=frozenset({PRODUCT}))
    from atsbench.constructions import GradedDivision
    Dop = GradedDivision(F3, G, T, op_alg, op_gr, D.elements, beta.swapped())
    D_inverse_beta = standard_realization(T, beta.swapped(), F3)
    assert graded_division_iso(Dop, D_inverse_beta) is not None
    assert graded_division_iso(Dop, D) is None      # beta != beta^{-1} here


def test_exchange_pair_build():
    G = AbelianGroup(0, (2,))
    T, beta = trivial_pair(G)
    e, u = G.identity, G.element((1,))
    ca = build_exchange_pair(
        ExchangePairParams(group=G, T=T, beta=beta, kappa0=(1,), gamma0=(e,),
                           kappa1=(1,), gamma1=(u,)), F2)
    assert ca.algebra.dim == 8
    assert is_simple(ca.algebra)
    assert not is_simple(ca.algebra, ops={PRODUCT})
    d = ca.matrix.algebra.dim
    # the exchange grading pairs (i, g) with (-i, g)
    for k in range(d):
        z, rest = ca.grading.degmap[k].coords[0], ca.grading.degmap[k].coords[1:]
        mate = ca.grading.degmap[k + d].coords
        assert mate == (-z,) + rest


# ---------------------------------------------------------------------------
# exchange-double theorems on instances
# ---------------------------------------------------------------------------

def z2cube():
    G = AbelianGroup(0, (2, 2, 2))
    return G, G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 1))


def test_exchange_subgroup_transfer_instances():
    G, a, b, t = z2cube()
    T1 = Subgroup(G, (a, b))
    beta1 = Bicharacter.from_generator_matrix(T1, (a, b), [[0, 1], [1, 0]])
    checked = 0
    for tau1 in all_quadratic_forms(beta1):
        Dx1 = exchange_double_division(d_inv(T1, beta1, tau1, F2), t)
        for gens in [(a + t, b), (a + t, b + t), (a, b + t)]:
            T2 = Subgroup(G, gens)
            beta2, tau2, _ = exchange_subgroup_transfer(Dx1, T2)
            tau1_ext = tau1.extend(t)
            assert all(tau2(h) == tau1_ext(h) for h in T2.elements)
            assert tau2.polar_form() == beta2
            Dx2 = exchange_double_division(d_inv(T2, beta2, tau2, F2), t)
            assert graded_division_iso(Dx1, Dx2) is not None
            checked += 1
    assert checked >= 3


def test_removal_twist_instances():
    G, a, b, t = z2cube()
    T1 = Subgroup(G, (a, b))
    beta1 = Bicharacter.from_generator_matrix(T1, (a, b), [[0, 1], [1, 0]])
    taus = all_quadratic_forms(beta1)
    checked = 0
    for tau1, tau2 in itertools.combinations(taus, 2):
        Dx1 = exchange_double_division(d_inv(T1, beta1, tau1, F2), t)
        Dx2 = exchange_double_division(d_inv(T1, beta1, tau2, F2), t)
        t_prime, ident = removal_twist(Dx1, Dx2)
        assert t_prime in T1
        checked += 1
    assert checked >= 3


def test_scan_verdicts_survive_optimize_flag():
    # a failing involution scan in d_inv and a failing morphism scan in
    # removal_twist raise VerificationError, also under python -O
    code = (
        "import atsbench.constructions as c\n"
        "import helpers as h\n"
        "from atsbench.groups import AbelianGroup, Bicharacter, Subgroup\n"
        "from atsbench.omega import VerificationError, VerificationReport\n"
        "from atsbench.scalars import CycloField\n"
        "F = CycloField(2)\n"
        "G = AbelianGroup(0, (2, 2, 2))\n"
        "a, b, t = (G.element(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))\n"
        "T = Subgroup(G, (a, b))\n"
        "beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])\n"
        "tau1, tau2 = h.all_quadratic_forms(beta)[:2]\n"
        "Dx1, Dx2 = (c.exchange_double_division(c.d_inv(T, beta, tau, F), t)\n"
        "            for tau in (tau1, tau2))\n"
        "c.check_involution = h.check_morphism = (\n"
        "    lambda *args, **kw: VerificationReport('forced', ['forced']))\n"
        "for call in (lambda: c.d_inv(T, beta, tau1, F),\n"
        "             lambda: h.removal_twist(Dx1, Dx2)):\n"
        "    try:\n"
        "        call()\n"
        "    except VerificationError:\n"
        "        print('raised')\n"
        "print('debug', __debug__)\n")
    assert run_optimized(code) == ["raised", "raised", "debug", "False"]


def test_elimination_checks_survive_optimize_flag():
    # the involution and the commutation factor checked by
    # exchange_double_division, the L/R subalgebra check of loos_envelope
    # and the A_0 spanning check of reconstruct_iso each raise
    # VerificationError when forced to fail, also under python -O
    code = (
        "import atsbench.constructions as c\n"
        "import atsbench.linalg as la\n"
        "import atsbench.triples as tr\n"
        "from atsbench.groups import (AbelianGroup, Bicharacter, QuadraticForm,\n"
        "                             Subgroup, trivial_subgroup)\n"
        "from helpers import all_quadratic_forms\n"
        "from atsbench.omega import VerificationError\n"
        "from atsbench.scalars import CycloField\n"
        "F = CycloField(2)\n"
        "G = AbelianGroup(0, (2, 2, 2))\n"
        "a, b, t = (G.element(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))\n"
        "T = Subgroup(G, (a, b))\n"
        "beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])\n"
        "D = c.d_inv(T, beta, all_quadratic_forms(beta)[0], F)\n"
        "Z2 = AbelianGroup(0, (2,))\n"
        "e, T1 = Z2.identity, trivial_subgroup(Z2)\n"
        "m2 = c.build_M_inv(c.InvolutionParams(\n"
        "    group=Z2, T=T1, beta=Bicharacter.from_generator_matrix(T1, (), []),\n"
        "    kappa0=(1,), gamma0=(e,), kappa1=(1,), gamma1=(e,), delta=1, g=e), F)\n"
        "extend = QuadraticForm.extend\n"
        "class Constant:\n"
        "    def eval(self, x, y, field):\n"
        "        return field.scalar(2)\n"
        "cases = [\n"
        "    (QuadraticForm, 'extend', lambda q, s: lambda u: -extend(q, s)(u),\n"
        "     lambda: c.exchange_double_division(D, t)),\n"
        "    (c, 'extend_bicharacter', lambda *args: Constant(),\n"
        "     lambda: c.exchange_double_division(D, t)),\n"
        "    (la.RowSpace, 'coordinates', lambda self, vec: None,\n"
        "     lambda: tr.loos_envelope(tr.scalar_triple(F))),\n"
        "    (la, 'solve', lambda *args: None,\n"
        "     lambda: tr.reconstruct_iso(m2.algebra, m2.grading)),\n"
        "]\n"
        "for owner, name, fake, call in cases:\n"
        "    real = getattr(owner, name)\n"
        "    setattr(owner, name, fake)\n"
        "    try:\n"
        "        call()\n"
        "    except VerificationError as err:\n"
        "        print(str(err).split()[0])\n"
        "    setattr(owner, name, real)\n"
        "print('debug', __debug__)\n")
    assert run_optimized(code) == ["involution", "commutation",
                                   "L*L", "A_0", "debug", "False"]


def test_double_is_simple_with_involution_only():
    # the double is graded-division and simple with involution while the
    # underlying algebra is not simple
    G, a, b, t = z2cube()
    T1 = Subgroup(G, (a, b))
    beta1 = Bicharacter.from_generator_matrix(T1, (a, b), [[0, 1], [1, 0]])
    Dx = exchange_double_division(division_part(T1, beta1, None, F2), t)
    assert is_simple(Dx.algebra)
    assert not is_simple(Dx.algebra, ops={PRODUCT})
    assert len(set(Dx.grading.degmap)) == Dx.dim


def test_double_isomorphism_criterion_on_divisions():
    # doubles at different doubling elements inside the same full support
    # are never isomorphic: the extended bicharacters have different
    # radicals, so no graded isomorphism exists
    G, a, b, t = z2cube()
    T1 = Subgroup(G, (a, b))
    T2 = Subgroup(G, (a, t))
    beta1 = Bicharacter.from_generator_matrix(T1, (a, b), [[0, 1], [1, 0]])
    beta2 = Bicharacter.from_generator_matrix(T2, (a, t), [[0, 1], [1, 0]])
    Dx1 = exchange_double_division(division_part(T1, beta1, None, F2), t)
    Dx2 = exchange_double_division(division_part(T2, beta2, None, F2), b)
    assert set(Dx1.support.elements) == set(Dx2.support.elements)
    assert graded_division_iso(Dx1, Dx2) is None
    # and doubles with different extended quadratic forms at the same t
    # are not isomorphic as algebras with involution
    taus = all_quadratic_forms(beta1)
    t_exts = {}
    for tau in taus:
        t_exts.setdefault(tuple(sorted((s.coords, v) for s, v in
                                       tau.extend(t).values.items())), tau)
    distinct = list(t_exts.values())
    assert len(distinct) >= 2
    Dxa = exchange_double_division(d_inv(T1, beta1, distinct[0], F2), t)
    Dxb = exchange_double_division(d_inv(T1, beta1, distinct[1], F2), t)
    assert graded_division_iso(Dxa, Dxb) is None


def test_sandwich_matches_the_realization_matrices():
    # Z_a Z_b Z_c = s Z_k, read off the monomial matrices of the realization
    for name, T, beta, conductor in classification_supports():
        if len(T) > 9:
            continue
        D = standard_realization(T, beta, CycloField(conductor))
        _, mats = ref_standard_realization(T, beta, CycloField(conductor))
        for a, b, c in itertools.product(range(D.dim), repeat=3):
            s, k = D.sandwich(a, b, c)
            assert (mats[a] @ mats[b] @ mats[c]).scalar_ratio(mats[k]) == s


def test_involutions_match_the_entrywise_phi_loop():
    # the conjugation kernel gives every built involution of the corpus
    # entry by entry as the loop over (i, j, b) of Phi^{-1} X^* Phi
    entries = [e for e in algebra_corpus() if e.label.case != "exchange_pair"]
    assert len(entries) > 20
    for entry in entries:
        ca = entry.build()
        assert ca.algebra.tensors[INVOLUTION] == ref_phi_involution(ca)

"""Groups, bicharacters, quadratic forms: spec examples and invariants."""

import itertools
import random

import pytest

from atsbench.classify import all_subgroups
from atsbench.groups import (AbelianGroup, Bicharacter, GroupError,
                             QuadraticForm, Subgroup, extend_bicharacter,
                             prepend_z, symplectic_decomposition,
                             trivial_subgroup, zg_element)
from atsbench.scalars import CycloField
from helpers import all_quadratic_forms, is_multiplicative, power

F2 = CycloField(2)
V4 = AbelianGroup(0, (2, 2))
A = V4.element((1, 0))
B = V4.element((0, 1))


def symplectic_v4():
    T = Subgroup(V4, (A, B))
    return T, Bicharacter.from_generator_matrix(T, (A, B), [[0, 1], [1, 0]])


def test_element_arithmetic_and_order():
    G = AbelianGroup(1, (4,))
    x = G.element((2, 3))
    assert (x + x).coords == (4, 2)
    assert (-x).coords == (-2, 1)
    assert x.order() is None
    assert G.element((0, 2)).order() == 2
    assert G.element((0, 3)).order() == 4
    assert G.identity.order() == 1


def test_bicharacter_identity_slot():
    T, beta = symplectic_v4()
    for t in T.elements:
        assert beta.eval(V4.identity, t, F2) == F2.one


def test_symplectic_value():
    # nondegeneracy on Z2^2 forces beta(a, b) = -1
    T, beta = symplectic_v4()
    assert beta.eval(A, B, F2) == F2.scalar(-1)


def test_multiplicative_expansion():
    # beta(ab, a) = beta(a,a) beta(b,a) = 1 * (-1)
    T, beta = symplectic_v4()
    assert beta.eval(A + B, A, F2) == F2.scalar(-1)


def test_equal_bicharacters_of_different_exponents_hash_alike():
    # the same values stored as powers of zeta_4: equal, so one set element
    T, beta = symplectic_v4()
    wide = Bicharacter(T, 4, {key: 2 * k for key, k in beta.table.items()})
    assert wide == beta and hash(wide) == hash(beta)
    assert len({beta, wide}) == 1


def test_multiplicativity_exhaustive():
    T, beta = symplectic_v4()
    assert is_multiplicative(beta)
    for t1, t2, t3 in itertools.product(T.elements, repeat=3):
        lhs = beta.eval(t1 + t2, t3, F2)
        assert lhs == beta.eval(t1, t3, F2) * beta.eval(t2, t3, F2)


def test_nondegeneracy_examples():
    G = V4
    Tb = Subgroup(G, (A,))
    trivial_on_z2 = Bicharacter.from_generator_matrix(Tb, (A,), [[0]])
    assert not trivial_on_z2.is_nondegenerate_alternating()
    T, beta = symplectic_v4()
    assert beta.is_nondegenerate_alternating()
    diag = Subgroup(G, (A + B,))
    assert not beta.restrict(diag).is_nondegenerate_alternating()


def test_elementary_two_symmetry():
    # beta = beta o ex on elementary 2-groups
    T, beta = symplectic_v4()
    assert beta == beta.swapped()


def test_polar_form_examples():
    T, beta = symplectic_v4()
    e = V4.identity
    trivial_tau = QuadraticForm(T, {e: 1, A: 1, B: 1, A + B: 1})
    polar = trivial_tau.polar_form()
    assert all(polar.eval(s, t, F2) == F2.one
               for s in T.elements for t in T.elements)
    tau1 = QuadraticForm(T, {e: 1, A: 1, B: 1, A + B: -1})
    tau2 = QuadraticForm(T, {e: 1, A: -1, B: -1, A + B: -1})
    # independent oracle: expand tau(t1+t2) tau(t1) tau(t2) over all pairs
    for tau in (tau1, tau2):
        expanded = {(s, t): tau(s + t) * tau(s) * tau(t)
                    for s in T.elements for t in T.elements}
        assert expanded[(A, B)] == -1
        got = tau.polar_form()
        for (s, t), sign in expanded.items():
            assert got.eval(s, t, F2) == F2.scalar(sign)
        assert got == beta
    # the same oracle on the 16 quadratic forms of a symplectic beta on Z/2^4
    G4 = AbelianGroup(0, (2, 2, 2, 2))
    gens = [G4.element(v) for v in ((1, 0, 0, 0), (0, 1, 0, 0),
                                    (0, 0, 1, 0), (0, 0, 0, 1))]
    T4 = Subgroup(G4, gens)
    beta4 = Bicharacter.from_generator_matrix(
        T4, gens, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    forms4 = all_quadratic_forms(beta4)
    assert len(set(forms4)) == 16
    for tau in forms4:
        got = tau.polar_form()
        for s, t in itertools.product(T4.elements, repeat=2):
            assert got.eval(s, t, F2) == F2.scalar(tau(s + t) * tau(s) * tau(t))
        assert is_multiplicative(got) and got == beta4
    # a cubic form's polar form is no bicharacter
    cubic = QuadraticForm(T4, {x: (-1) ** (x.coords[0] * x.coords[1]
                                          * x.coords[2])
                               for x in T4.elements})
    assert not is_multiplicative(cubic.polar_form())


def test_quadratic_form_validation():
    T, beta = symplectic_v4()
    e = V4.identity
    with pytest.raises(GroupError):
        QuadraticForm(T, {e: -1, A: 1, B: 1, A + B: 1})
    G3 = AbelianGroup(0, (3,))
    T3 = Subgroup(G3, (G3.element((1,)),))
    with pytest.raises(GroupError):
        QuadraticForm(T3, {t: 1 for t in T3.elements})


def test_extension_definitions():
    G = AbelianGroup(0, (2, 2, 2))
    a, b, t = G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 1))
    T = Subgroup(G, (a, b))
    beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
    bx = extend_bicharacter(beta, t)
    # beta^[t](at, b) = beta(a, b) = -1
    assert bx.eval(a + t, b, F2) == F2.scalar(-1)
    # t sits in the radical
    for x in bx.domain.elements:
        assert bx.eval(t, x, F2) == F2.one
    tau = QuadraticForm(T, {G.identity: 1, a: 1, b: 1, a + b: -1})
    tx = tau.extend(t)
    assert tx(t) == -1                      # tau(e) * (-1)^1
    assert tx(G.identity) == 1
    assert tx(a + b + t) == 1               # tau(ab) * (-1) = (-1)(-1)
    # polar form of the extension equals the extension of the polar form
    assert tx.polar_form() == bx


def test_extension_preconditions():
    G = AbelianGroup(0, (2, 2))
    T = Subgroup(G, (G.element((1, 0)),))
    beta = Bicharacter.from_generator_matrix(T, (G.element((1, 0)),), [[0]])
    with pytest.raises(GroupError):
        extend_bicharacter(beta, G.element((1, 0)))   # already inside


def test_extension_commutes_for_all_forms():
    G = AbelianGroup(0, (2, 2, 2))
    a, b, t = G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 1))
    T = Subgroup(G, (a, b))
    beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
    for tau in all_quadratic_forms(beta):
        assert tau.extend(t).polar_form() == extend_bicharacter(beta, t)


def test_trivial_extension():
    G = AbelianGroup(0, (2,))
    T = trivial_subgroup(G)
    beta = Bicharacter.from_generator_matrix(T, (), [])
    t = G.element((1,))
    bx = extend_bicharacter(beta, t)
    assert all(bx.eval(s, u, F2) == F2.one
               for s in bx.domain.elements for u in bx.domain.elements)


@pytest.mark.parametrize("torsion,matrix,expected_orders", [
    ((2, 2), [[0, 1], [1, 0]], [2]),
    ((3, 3), [[0, 1], [-1, 0]], [3]),
    ((4, 4), [[0, 1], [-1, 0]], [4]),
    ((2, 2, 2, 2), [[0, 1, 0, 0], [1, 0, 0, 0],
                    [0, 0, 0, 1], [0, 0, 1, 0]], [2, 2]),
])
def test_symplectic_decomposition(torsion, matrix, expected_orders):
    G = AbelianGroup(0, torsion)
    gens = tuple(G.element(tuple(1 if i == k else 0 for i in range(len(torsion))))
                 for k in range(len(torsion)))
    T = Subgroup(G, gens)
    beta = Bicharacter.from_generator_matrix(T, gens, matrix)
    pairs = symplectic_decomposition(T, beta)
    assert sorted(l for _, _, l in pairs) == sorted(expected_orders)
    # hyperbolic pairs: beta(a_i, b_i) primitive of order l_i and the
    # pairs are mutually orthogonal
    M = beta.exponent
    field = CycloField(M if M % 2 == 0 else 2 * M)
    for (a, b, l) in pairs:
        val = beta.eval(a, b, field)
        assert power(val, l) == field.one
        assert all(power(val, k) != field.one for k in range(1, l))


def test_symplectic_rejects_degenerate():
    G = AbelianGroup(0, (2,))
    T = Subgroup(G, (G.element((1,)),))
    beta = Bicharacter.from_generator_matrix(T, (G.element((1,)),), [[0]])
    with pytest.raises(GroupError):
        symplectic_decomposition(T, beta)


def test_coset_reps_and_subgroups():
    G = AbelianGroup(0, (2, 2))
    T = Subgroup(G, (B,))
    assert T.coset_rep(A + B) == A          # smallest coords in the coset
    assert T.coset_rep(A) == A
    assert len(T) == 2 and T.is_elementary_2()
    with pytest.raises(GroupError):
        Subgroup(AbelianGroup(1), (AbelianGroup(1).element((1,)),))


def plain(G, coords):
    """Coordinates reduced by hand: free ones as they are, torsion ones
    into [0, m)."""
    r = G.free_rank
    return tuple(coords[:r]) + tuple(
        c % m for c, m in zip(coords[r:], G.torsion))


def plain_order(G, coords):
    if any(coords[:G.free_rank]):
        return None
    return next(n for n in itertools.count(1)
                if plain(G, [n * c for c in coords]) == G.identity.coords)


@pytest.mark.parametrize("G", [AbelianGroup(0, (4,)), AbelianGroup(0, (2, 4)),
                               AbelianGroup(0, (2, 2, 2)), AbelianGroup(1, (2,)),
                               AbelianGroup(0, (2, 2, 2, 2)),
                               AbelianGroup(0, (3, 3)), AbelianGroup(1, (4,))])
def test_add_neg_match_element_reduction(G):
    # sums, differences, negatives, orders and multiples agree with plain
    # coordinate arithmetic: on every pair of a finite group, on sampled
    # pairs (free coordinates in [-9, 9]) with free rank
    rng = random.Random(7)
    if G.is_finite():
        draws = G.elements()
    else:
        draws = [G.element([rng.randrange(-9, 10) for _ in range(G.ncoords)])
                 for _ in range(40)]
    for x, y in itertools.product(draws, repeat=2):
        total = x + y
        assert total.coords == plain(G, [a + b for a, b in zip(x.coords, y.coords)])
        assert (x - y).coords == plain(G, [a - b for a, b in zip(x.coords, y.coords)])
        assert total == G.element([a + b for a, b in zip(x.coords, y.coords)])
        assert total.group is G and type(total.coords[0]) is int
    for x in draws:
        assert (-x).coords == plain(G, [-a for a in x.coords])
        assert -x == G.element([-a for a in x.coords])
        assert x - x == G.identity
        assert x.order() == plain_order(G, x.coords)
        for n in range(-3, 6):
            assert x.scaled(n).coords == plain(G, [n * a for a in x.coords])
    other = AbelianGroup(G.free_rank, G.torsion + (3,))
    with pytest.raises(GroupError, match="different groups"):
        draws[0] + other.identity


def test_elements_are_interned_and_equal_across_equal_groups():
    # one object per group and one per element of it: equal groups, and
    # so their equal elements, are the same object; the hashes are pinned,
    # hash((group, coords)) and hash((free_rank, torsion)), since set
    # iteration orders, and so report bytes, follow them
    for torsion, free in (((2, 4), 0), ((3, 3), 0), ((4,), 1), ((), 2)):
        G, H = AbelianGroup(free, torsion), AbelianGroup(free, list(torsion))
        assert G is H and G == H and hash(G) == hash(H)
        assert hash(G) == hash((G.free_rank, G.torsion)) == hash((free, torsion))
        coords = [(k, -k, 2 * k, 3, 1)[:G.ncoords] for k in range(-2, 5)]
        for c in coords:
            x, y = G.element(c), H.element(c)
            assert G.element(c) is x and x is y
            assert x == y and hash(x) == hash(y)
            assert hash(x) == hash((x.group, x.coords)) == hash((G, x.coords))
            assert str(x) == "(" + ",".join(map(str, x.coords)) + ")"
            assert repr(x) == (f"GroupElement(group=AbelianGroup(free_rank="
                               f"{free}, torsion={torsion}), coords={x.coords})")
            assert x + y == y + x and (x + y).group is G and (y + x).group is H
            assert len({x, y}) == 1 and (-x) + y == G.identity
        assert G.identity is G.element([0] * G.ncoords)
        assert G.identity.is_identity() and H.identity == G.identity
    assert AbelianGroup(0, (2,)) != AbelianGroup(1, (2,))
    assert AbelianGroup(0, (2,)).element((1,)) != AbelianGroup(0, (4,)).element((1,))


def test_coset_rep_table_matches_min_scan():
    # the least coordinates of g + T, over every subgroup of three finite
    # groups and over finite subgroups of Z x Z/4 with shifts that have a
    # free part; the second pass reads the table
    cases = [(G, all_subgroups(G)) for G in (
        AbelianGroup(0, (2, 4)), AbelianGroup(0, (2, 2, 2, 2)),
        AbelianGroup(0, (3, 3)))]
    ZG = AbelianGroup(1, (4,))
    cases.append((ZG, [Subgroup(ZG, ()), Subgroup(ZG, (ZG.element((0, 2)),)),
                       Subgroup(ZG, (ZG.element((0, 1)),))]))
    for G, subgroups in cases:
        shifts = (G.elements() if G.is_finite() else
                  [G.element((z, k)) for z in (-2, 0, 3) for k in range(4)])
        for T in subgroups:
            for g in shifts * 2:
                want = min(plain(G, [a + b for a, b in zip(g.coords, t.coords)])
                           for t in T.elements)
                assert T.coset_rep(g).coords == want
                assert (g in T) == (want == G.identity.coords)
    G = AbelianGroup(0, (2, 4))
    with pytest.raises(GroupError):
        Subgroup(G, ()).coset_rep(V4.identity)
    assert V4.identity not in Subgroup(G, ())


def test_prepend_z():
    ZG = prepend_z(V4)
    assert ZG.free_rank == 1 and ZG.torsion == (2, 2)
    e = zg_element(ZG, -1, A)
    assert e.coords == (-1, 1, 0)

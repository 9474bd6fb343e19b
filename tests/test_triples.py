"""Triple systems, Loos envelopes, reconstruction, automorphism extension."""

import pytest

import atsbench.triples

from atsbench.constructions import (ExchangePairParams, InvolutionParams,
                                    build_exchange_pair, build_M_inv)
from atsbench.corpus import triple_corpus
from atsbench.groups import (AbelianGroup, Bicharacter, GroupElement,
                             trivial_subgroup)
from atsbench.linalg import combine
from atsbench.omega import (INVOLUTION, PRODUCT, TRIPLE, LinearMap,
                            OmegaAlgebra, SimplicityUndecided,
                            VerificationError, algebra_from_dict,
                            check_grading, check_involution, check_morphism,
                            is_simple)
from atsbench.scalars import CycloField
from atsbench.triples import (TripleSystem, check_associative, check_at2,
                              direct_sum_triple, extend_automorphism,
                              loos_envelope, pierce_split, reconstruct_iso,
                              recover_triple, scalar_triple, triple_from,
                              triple_is_simple, zero_triple)
from helpers import (GAUSSIAN_TRIPLE, ROTATED_SPLIT_TRIPLE, compose,
                     run_optimized, unit)

FQ = CycloField(1)
F2 = CycloField(2)
Z2 = AbelianGroup(0, (2,))


def trivial_pair(G):
    T = trivial_subgroup(G)
    return T, Bicharacter.from_generator_matrix(T, (), [])


def m2_standard():
    T, beta = trivial_pair(Z2)
    e = Z2.identity
    return build_M_inv(InvolutionParams(group=Z2, T=T, beta=beta, kappa0=(1,),
                                        gamma0=(e,), kappa1=(1,), gamma1=(e,),
                                        delta=1, g=e), F2)


def m2_exchange_pair():
    T, beta = trivial_pair(Z2)
    return build_exchange_pair(
        ExchangePairParams(group=Z2, T=T, beta=beta, kappa0=(1,),
                           gamma0=(Z2.identity,), kappa1=(1,),
                           gamma1=(Z2.element((1,)),)), F2)


# ---------------------------------------------------------------------------
# triples from algebras
# ---------------------------------------------------------------------------

def test_triple_from_m2_is_scalar_cube():
    # W = F E12 with {x,y,z} = xyz since E12 (E12)^t E12 = E12
    ca = m2_standard()
    W, minus = triple_from(ca.algebra, ca.grading)
    assert W.dim == 1
    assert W.algebra.tensors[TRIPLE] == {(0, 0, 0): {0: F2.one}}


def test_triple_from_exchange_pair_matches_pair_formula():
    # {(x1,x2),(y1,y2),(z1,z2)} = (x1 y2 z1, z2 y1 x2)
    ca = m2_exchange_pair()
    W, _ = triple_from(ca.algebra, ca.grading)
    assert W.dim == 2
    assert W.algebra.tensors[TRIPLE] == {(0, 1, 0): {0: F2.one},
                                         (1, 0, 1): {1: F2.one}}


def test_triple_from_requires_flip():
    ca = m2_standard()
    broken = OmegaAlgebra(ca.field, ca.algebra.dim, dict(ca.algebra.operators))
    for op, tensor in ca.algebra.tensors.items():
        for idx, row in tensor.items():
            broken.set_entry(op, idx, dict(row))
    # identity "involution" does not flip the grading
    for i in range(broken.dim):
        broken.set_entry(INVOLUTION, (i,), {i: ca.field.one})
    with pytest.raises(ValueError):
        triple_from(broken, ca.grading)


# ---------------------------------------------------------------------------
# the AT2 axiom
# ---------------------------------------------------------------------------

def test_scalar_triple_is_at2():
    assert check_at2(scalar_triple(FQ)).passed


def test_pair_triple_is_at2():
    ca = m2_exchange_pair()
    W, _ = triple_from(ca.algebra, ca.grading)
    rep = check_at2(W)
    assert rep.passed and rep.checked == 2 ** 5


def test_sum_product_is_not_at2():
    bad = OmegaAlgebra(FQ, 2, {TRIPLE: 3})
    for t in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]:
        bad.set_entry(TRIPLE, t, {0: FQ.one, 1: FQ.one})
    from atsbench.triples import TripleSystem
    assert not check_at2(TripleSystem(bad)).passed
    # one entry each: {e0,e1,e0} = e0 breaks only the middle identity,
    # {e0,e0,e1} = e1 only the right one, each at a single 5-tuple
    mid = "{{u,v,x},y,z} != {u,{y,x,v},z} at (0, 1, 0, 1, 0)"
    right = "{{u,v,x},y,z} != {u,v,{x,y,z}} at (0, 0, 0, 0, 1)"
    for entry, out, violation in [((0, 1, 0), 0, mid), ((0, 0, 1), 1, right)]:
        W = OmegaAlgebra(FQ, 2, {TRIPLE: 3})
        W.set_entry(TRIPLE, entry, {out: FQ.one})
        rep = check_at2(TripleSystem(W))
        assert (rep.checked, rep.violations) == (2 ** 5, [violation])


def test_at2_sampling_path():
    # above the exhaustive cutoff the check runs seeded random tuples
    big = direct_sum_triple(FQ, 14)
    rep = check_at2(big, seed=3, exhaustive_limit=8, samples=500)
    assert rep.passed and rep.checked == 500


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------

def test_envelope_of_scalar_triple():
    W = scalar_triple(FQ)
    env = loos_envelope(W)
    assert env.algebra.dim == 4
    assert env.dim_L == 1 and env.dim_R == 1    # lambda(1,1) = e1
    assert check_associative(env.algebra).passed
    assert check_involution(env.algebra).passed
    assert check_grading(env.grading).passed
    # Peirce idempotents
    for e in (env.e1, env.e2):
        assert env.algebra.mul(e, e) == e
        assert env.algebra.apply(INVOLUTION, e) == e
    assert env.algebra.mul(env.e1, env.e2) == {}
    assert unit(env.algebra) == combine([(FQ.one, env.e1), (FQ.one, env.e2)])


def test_envelope_of_zero_triple():
    W = zero_triple(FQ, 1)
    env = loos_envelope(W)
    assert env.algebra.dim == 4                  # L0 = R0 = 0
    assert env.dim_L == 1 and env.dim_R == 1
    # W Wbar = 0
    assert env.algebra.mul({env.w_offset: FQ.one},
                           {env.wbar_offset: FQ.one}) == {}
    assert not triple_is_simple(W, env)


def test_round_trip_recovers_tensor():
    for W in (scalar_triple(FQ), direct_sum_triple(FQ, 2), zero_triple(FQ, 2)):
        env = loos_envelope(W)
        W2 = recover_triple(env)
        assert W2.algebra.tensors[TRIPLE] == W.algebra.tensors[TRIPLE]


def test_envelopes_remake_no_degree_on_a_second_pass(monkeypatch):
    # one group object per (free rank, torsion): the Z and Z x G gradings
    # of envelopes and the G gradings of recovered triples reuse the
    # degrees of a first pass, though each call asks for its groups anew
    assert AbelianGroup(1) is AbelianGroup(1)
    triples = [entry.triple for entry in triple_corpus()]

    def sweep():
        for W in triples:
            recover_triple(loos_envelope(W))
    sweep()
    made = []
    init = GroupElement.__init__
    monkeypatch.setattr(GroupElement, "__init__", lambda self, *args:
                        made.append(args) or init(self, *args))
    sweep()
    assert made == []


def test_simplicity_examples():
    assert triple_is_simple(scalar_triple(FQ))
    assert not triple_is_simple(direct_sum_triple(FQ, 2))
    assert not triple_is_simple(zero_triple(FQ, 1))


def test_simplicity_is_decided_on_the_envelope():
    # every basis vector of the rotated F + F generates W: only the
    # envelope shows the proper ideal
    W = TripleSystem(*algebra_from_dict(ROTATED_SPLIT_TRIPLE))
    assert not triple_is_simple(W)
    # Q(i) over Q: the envelope's undecided verdict passes through
    with pytest.raises(SimplicityUndecided):
        triple_is_simple(TripleSystem(*algebra_from_dict(GAUSSIAN_TRIPLE)))


def _says_simple(alg, **kwargs):
    """A stub simplicity test: True on every algebra."""
    return True


def test_transfer_disagreement_raises(monkeypatch):
    # the envelope's True against a basis vector in a proper ideal of W,
    # and against a zero triple product
    monkeypatch.setattr(atsbench.triples, "is_simple", _says_simple)
    for W in (direct_sum_triple(FQ, 2), zero_triple(FQ, 1)):
        with pytest.raises(VerificationError, match="simplicity transfer"):
            triple_is_simple(W)


def test_transfer_check_survives_optimize_flag():
    code = (
        "import atsbench.triples as tr\n"
        "from atsbench.omega import VerificationError\n"
        "from atsbench.scalars import CycloField\n"
        "tr.is_simple = lambda alg, **kw: True\n"
        "try:\n"
        "    tr.triple_is_simple(tr.direct_sum_triple(CycloField(1), 2))\n"
        "except VerificationError:\n"
        "    print('debug', __debug__, 'raised')\n")
    assert run_optimized(code) == ["debug", "False", "raised"]


def test_envelope_associativity_on_pair_case():
    ca = m2_exchange_pair()
    W, _ = triple_from(ca.algebra, ca.grading)
    env = loos_envelope(W)
    assert env.algebra.dim == 8
    rep = check_associative(env.algebra)
    assert rep.passed and rep.checked == 8 ** 3
    # e0 e0 = e1, e1 e0 = e0 and all other products zero
    bad = OmegaAlgebra(FQ, 2, {PRODUCT: 2})
    bad.set_entry(PRODUCT, (0, 0), {1: FQ.one})
    bad.set_entry(PRODUCT, (1, 0), {0: FQ.one})
    rep = check_associative(bad)
    assert (rep.checked, rep.violations) == (8, [
        "(e0 e0) e0 != e0 (e0 e0)", "(e0 e1) e0 != e0 (e1 e0)",
        "(e1 e0) e0 != e1 (e0 e0)", "(e1 e1) e0 != e1 (e1 e0)"])


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_m2():
    ca = m2_standard()
    psi, env, W = reconstruct_iso(ca.algebra, ca.grading)
    assert env.algebra.dim == 4
    assert psi.is_bijective()


def test_reconstruct_exchange_pair():
    ca = m2_exchange_pair()
    psi, env, W = reconstruct_iso(ca.algebra, ca.grading)
    assert env.algebra.dim == 8


def test_reconstruct_m3():
    T, beta = trivial_pair(Z2)
    e = Z2.identity
    ca = build_M_inv(InvolutionParams(group=Z2, T=T, beta=beta, kappa0=(2,),
                                      gamma0=(e,), kappa1=(1,), gamma1=(e,),
                                      delta=1, g=e, S_signs0=(1,)), F2)
    assert ca.algebra.dim == 9
    psi, env, W = reconstruct_iso(ca.algebra, ca.grading)
    assert env.algebra.dim == 9


def test_pierce_decomposition():
    ca = m2_standard()
    minus, zero, plus, pm, mp, _, _ = pierce_split(ca.algebra, ca.grading)
    # A_1 A_-1 + A_-1 A_1 = A_0 with zero intersection
    assert pm.rank + mp.rank == len(zero)
    for row in mp.rows:
        assert not pm.contains(row) or all(x.is_zero() for x in row.values())


def test_pierce_corner_is_simple():
    # e1 (A(W)) e1 with the restricted involution is simple
    ca = m2_exchange_pair()
    psi, env, W = reconstruct_iso(ca.algebra, ca.grading)
    alg = env.algebra
    corner_vectors = []
    for i in range(alg.dim):
        v = alg.mul(env.e1, alg.mul(alg.basis_vec(i), env.e1))
        if v:
            corner_vectors.append(v)
    from atsbench import linalg
    space = linalg.RowSpace(alg.field, alg.dim)
    basis = []
    for v in corner_vectors:
        if space.insert(v):
            basis.append(v)
    index = {tuple(sorted(v.items(), key=lambda kv: kv[0])): k
             for k, v in enumerate(basis)}
    corner = OmegaAlgebra(alg.field, len(basis), {PRODUCT: 2, INVOLUTION: 1})
    def coords(v):
        c = space.coordinates(v)
        assert c is not None
        return {k: x for k, x in c.items() if not x.is_zero()}
    for i, vi in enumerate(basis):
        corner.set_entry(INVOLUTION, (i,), coords(alg.apply(INVOLUTION, vi)))
        for j, vj in enumerate(basis):
            corner.set_entry(PRODUCT, (i, j), coords(alg.mul(vi, vj)))
    assert check_involution(corner).passed
    assert is_simple(corner)


# ---------------------------------------------------------------------------
# automorphism extension
# ---------------------------------------------------------------------------

def test_extend_identity():
    W = scalar_triple(FQ)
    env = loos_envelope(W)
    ext = extend_automorphism(W, LinearMap.identity(W.algebra), env)
    assert ext == LinearMap.identity(env.algebra)


def test_scalar_automorphisms_are_signs():
    # psi(x) = c x satisfies psi{x,y,z} = {psi x, psi y, psi z} iff c^3 = c
    W = scalar_triple(FQ)
    for c, ok in ((1, True), (-1, True), (2, False)):
        psi = LinearMap(W.algebra, W.algebra, [{0: FQ.scalar(c)}])
        assert check_morphism(psi, ops=[TRIPLE]).passed == ok
    env = loos_envelope(W)
    neg = LinearMap(W.algebra, W.algebra, [{0: FQ.scalar(-1)}])
    ext = extend_automorphism(W, neg, env)
    # restriction recovers psi
    assert ext.columns[env.w_offset] == {env.w_offset: FQ.scalar(-1)}


def test_pair_swap_and_diagonal_extensions():
    ca = m2_exchange_pair()
    W, _ = triple_from(ca.algebra, ca.grading)
    env = loos_envelope(W)
    swap = LinearMap(W.algebra, W.algebra, [{1: F2.one}, {0: F2.one}])
    diag = LinearMap(W.algebra, W.algebra,
                     [{0: F2.scalar(2)}, {1: F2.one / F2.scalar(2)}])
    for psi in (swap, diag):
        assert check_morphism(psi, ops=[TRIPLE]).passed
        ext = extend_automorphism(W, psi, env)
        for k in range(W.dim):
            assert ext.columns[env.w_offset + k] == {
                env.w_offset + i: c for i, c in psi.columns[k].items()}
    # composition law A(psi o chi) = A(psi) o A(chi)
    ext_swap = extend_automorphism(W, swap, env)
    ext_diag = extend_automorphism(W, diag, env)
    ext_comp = extend_automorphism(W, compose(swap, diag), env)
    assert ext_comp == compose(ext_swap, ext_diag)


def test_extend_rejects_non_automorphism():
    W = scalar_triple(FQ)
    bad = LinearMap(W.algebra, W.algebra, [{0: FQ.scalar(2)}])
    with pytest.raises(ValueError):
        extend_automorphism(W, bad)


def test_matrix_triple_formula_with_nontrivial_phi():
    # for the symplectic-type M4 the induced triple on the off-diagonal
    # block must match X Phi2^{-1} Y^t Phi1 Z computed with plain dense
    # matrices (Phi1, Phi2 = the part blocks of the involution matrix)
    from helpers import dense_mul, dense_transpose
    T = trivial_subgroup(Z2)
    beta = Bicharacter.from_generator_matrix(T, (), [])
    e, u = Z2.identity, Z2.element((1,))
    ca = build_M_inv(InvolutionParams(group=Z2, T=T, beta=beta, kappa0=(2,),
                                      gamma0=(e,), kappa1=(2,), gamma1=(u,),
                                      delta=-1, g=e, S_signs0=(-1,),
                                      S_signs1=(-1,)), F2)
    W, minus = triple_from(ca.algebra, ca.grading)
    assert W.dim == 4
    F = ca.field
    S = [[F.zero, F.one], [-F.one, F.zero]]
    S_inv = [[F.zero, -F.one], [F.one, F.zero]]
    phi1, phi2_inv = S, S_inv

    # W basis k corresponds to the 2x2 block position (r, c)
    def block(k):
        i, j = divmod(minus[k] // ca.D.dim, 4)
        return i, j - 2

    def unit(r, c):
        m = [[F.zero] * 2 for _ in range(2)]
        m[r][c] = F.one
        return m

    for kx in range(4):
        for ky in range(4):
            for kz in range(4):
                X, Y, Z = (unit(*block(k)) for k in (kx, ky, kz))
                expected = dense_mul(F, X, dense_mul(F, phi2_inv, dense_mul(
                    F, dense_transpose(Y), dense_mul(F, phi1, Z))))
                got = [[F.zero] * 2 for _ in range(2)]
                for out, coeff in W.row(kx, ky, kz).items():
                    r, c = block(out)
                    got[r][c] = got[r][c] + coeff
                assert all(a == b for ra, rb in zip(expected, got)
                           for a, b in zip(ra, rb)), (kx, ky, kz)


def test_decide_and_reconstruct_over_infinite_group():
    # grading by Z x Z: free grading groups work end to end
    from atsbench.classify import ClassLabel, decide_iso, witness_isomorphism
    Zfree = AbelianGroup(1)
    T = trivial_subgroup(Zfree)
    beta = Bicharacter.from_generator_matrix(T, (), [])

    def label(c):
        g = Zfree.element((c,))
        return ClassLabel(InvolutionParams(
            group=Zfree, T=T, beta=beta, kappa0=(1,), gamma0=(g,),
            kappa1=(1,), gamma1=(g,), delta=1, g=Zfree.element((-2 * c,))))

    l0, l1 = label(0), label(1)
    d = decide_iso(l0, l1)
    assert d.is_yes
    f = witness_isomorphism(l0, l1, d.certificate)
    assert f.is_bijective()
    ca = l1.build(CycloField(2))
    psi, env, W = reconstruct_iso(ca.algebra, ca.grading)
    assert env.algebra.dim == 4


def test_extension_of_degree_mixing_automorphism():
    # the split M3 triple is a 2-dim column space with {x,y,z} = x <y,z>;
    # the coordinate swap is orthogonal, hence a triple automorphism, and
    # it mixes the two G-degrees of W.  It must still extend to an
    # automorphism of the 3-graded envelope.
    T = trivial_subgroup(Z2)
    beta = Bicharacter.from_generator_matrix(T, (), [])
    e, u = Z2.identity, Z2.element((1,))
    ca = build_M_inv(InvolutionParams(group=Z2, T=T, beta=beta,
                                      kappa0=(1, 1), gamma0=(e, u),
                                      kappa1=(1,), gamma1=(e,),
                                      delta=1, g=e), F2)
    W, _ = triple_from(ca.algebra, ca.grading)
    assert W.dim == 2
    assert len(set(W.grading.degmap)) == 2
    swap = LinearMap(W.algebra, W.algebra, [{1: F2.one}, {0: F2.one}])
    assert check_morphism(swap, ops=[TRIPLE]).passed
    env = loos_envelope(W)
    ext = extend_automorphism(W, swap, env)
    assert ext.is_bijective()

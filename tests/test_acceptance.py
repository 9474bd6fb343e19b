"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; run with -s (or read the
captured output) for the per-criterion summary.  Everything here is a
zero-tolerance exact check.
"""

import itertools

from atsbench.classify import (classify_conductor, enumerate_labels,
                               run_census)
from atsbench.constructions import (d_inv, exchange_double_division,
                                    standard_realization)
from atsbench.corpus import algebra_corpus, seeded_automorphisms, triple_corpus
from atsbench.groups import (AbelianGroup, Bicharacter, Subgroup,
                             symplectic_decomposition)
from atsbench.omega import (PRODUCT, TRIPLE, check_grading, check_involution,
                            check_t4_flip, graded_is_simple, is_simple,
                            pi1_coarsening)
from atsbench.scalars import CycloField
from atsbench.triples import (check_at2, extend_automorphism, loos_envelope,
                              pierce_split, reconstruct_iso, recover_triple,
                              triple_from, triple_is_simple)
from helpers import (all_quadratic_forms, classification_supports, compose,
                     exchange_subgroup_transfer, generator_power,
                     graded_division_iso, involuted_division_corpus,
                     removal_twist)

_corpus = algebra_corpus()
_triples = triple_corpus()


def test_criterion_1_standard_realizations():
    """D(T, beta) for T in {Z2^2, Z2^4, Z3^2, Z4^2}: dimension, commutation,
    generator powers, simplicity."""
    for name, T, beta, conductor in classification_supports():
        field = CycloField(conductor)
        D = standard_realization(T, beta, field)
        assert D.dim == len(T), name
        for i, ti in enumerate(D.elements):
            for j, tj in enumerate(D.elements):
                ci, ki = D.mu(i, j)
                cj, kj = D.mu(j, i)
                assert ki == kj
                assert ci == beta.eval(ti, tj, field) * cj, (name, ti, tj)
        for (a, b, l) in symplectic_decomposition(T, beta):
            for gen in (a, b):
                assert generator_power(D, gen, l) == (
                    field.one, D.index[T.group.identity]), (name, gen)
        assert is_simple(D.algebra), name
    print("ACCEPTANCE 1: PASS  standard realizations "
          "(Z2^2, Z2^4, Z3^2, Z4^2)")


def test_criterion_2_involution_suite():
    """phi^2 = id, anti-multiplicativity and the (T4) degree flip by
    exhaustive tensor scan over the shipped corpus (>= 30 configs, all
    three cases, dims <= 16) and over every d_inv / double."""
    cases = set()
    assert len(_corpus) >= 30
    for entry in _corpus:
        ca = entry.build()
        assert ca.algebra.dim <= 16, entry.name
        cases.add(entry.label.case)
        assert check_involution(ca.algebra).passed, entry.name
        assert check_grading(ca.grading).passed, entry.name
        assert check_t4_flip(ca.grading).passed, entry.name
        pi1 = pi1_coarsening(ca.grading)
        assert check_grading(pi1).passed, entry.name
        assert sorted(d.coords[0] for d in set(pi1.degmap)) == [-1, 0, 1]
    assert cases == {"exchange_pair", "simple_algebra", "exchange_division"}
    for div in involuted_division_corpus():
        assert check_involution(div.D.algebra).passed, div.name
        assert check_grading(div.D.grading).passed, div.name
    print(f"ACCEPTANCE 2: PASS  involution suite over {len(_corpus)} corpus "
          f"configs + {len(involuted_division_corpus())} division algebras")


def test_criterion_3_at2_axiom():
    """Every corpus triple satisfies the defining identities: exhaustively
    for dim <= 8, by 10^4 seeded tuples above."""
    exhaustive = sampled = 0
    for entry in _triples:
        rep = check_at2(entry.triple, seed=0, exhaustive_limit=8,
                        samples=10 ** 4)
        assert rep.passed, entry.name
        if entry.triple.dim <= 8:
            assert rep.checked == entry.triple.dim ** 5
            exhaustive += 1
        else:
            assert rep.checked == 10 ** 4
            sampled += 1
    # exercise the sampling path on a wider triple as well
    from atsbench.constructions import InvolutionParams, build_M_inv
    from atsbench.groups import trivial_subgroup
    Z2 = AbelianGroup(0, (2,))
    T = trivial_subgroup(Z2)
    beta = Bicharacter.from_generator_matrix(T, (), [])
    e = Z2.identity
    big = build_M_inv(InvolutionParams(
        group=Z2, T=T, beta=beta, kappa0=(1, 2), gamma0=(e, Z2.element((1,))),
        kappa1=(1, 2), gamma1=(e, Z2.element((1,))), delta=1, g=e,
        S_signs0=(1,), S_signs1=(1,)), CycloField(2))
    W, _ = triple_from(big.algebra, big.grading)
    assert W.dim == 9
    rep = check_at2(W, seed=0, exhaustive_limit=8, samples=10 ** 4)
    assert rep.passed and rep.checked == 10 ** 4
    sampled += 1
    print(f"ACCEPTANCE 3: PASS  AT2 axiom ({exhaustive} exhaustive, "
          f"{sampled} sampled with 10^4 tuples)")


def test_criterion_4_loos_round_trips():
    """W(A(W)) = W tensor-identically; A(W(A)) ~ A through a verified
    reconstruction for every corpus algebra (all have A_-1 != 0)."""
    for entry in _triples:
        env = loos_envelope(entry.triple)
        W2 = recover_triple(env)
        assert W2.algebra.tensors[TRIPLE] == \
            entry.triple.algebra.tensors[TRIPLE], entry.name
    reconstructed = 0
    for entry in _corpus:
        ca = entry.build()
        psi, env, W = reconstruct_iso(ca.algebra, ca.grading)
        reconstructed += 1
    print(f"ACCEPTANCE 4: PASS  round trips (A: {len(_triples)} triples, "
          f"B: {reconstructed} reconstructions)")


def test_criterion_5_simplicity_transfer():
    """triple_is_simple agrees with envelope simplicity on every corpus
    triple, including the engineered non-simple instances (disagreement
    raises VerificationError inside triple_is_simple)."""
    seen_nonsimple = 0
    for entry in _triples:
        simple = triple_is_simple(entry.triple)
        assert simple == entry.expect_simple, entry.name
        if not simple:
            seen_nonsimple += 1
    assert seen_nonsimple >= 3
    print(f"ACCEPTANCE 5: PASS  simplicity transfer on {len(_triples)} "
          f"triples ({seen_nonsimple} engineered non-simple)")


SIMPLICITY_PATTERN = {"exchange_pair": (False, False),
                      "simple_algebra": (True, True),
                      "exchange_division": (False, True)}


def test_simplicity_decision_matches_case_pattern():
    """The exact simplicity decision reproduces the paper's case pattern
    (simple, graded-simple) on every label over Z/2, Z/4 and Z/2 x Z/2 up
    to dim 8 and on every corpus algebra; each of them is simple as an
    algebra with involution, and every corpus envelope gets the verdict
    its triple is expected to have."""
    algebras = []
    for torsion in ((2,), (4,), (2, 2)):
        labels = enumerate_labels(AbelianGroup(0, torsion), 8)
        field = CycloField(classify_conductor(*labels))
        algebras += [(lab.name, lab.case, lab.build(field)) for lab in labels]
    algebras += [(e.name, e.label.case, e.build()) for e in _corpus]
    for name, case, ca in algebras:
        pattern = (is_simple(ca.algebra, ops={PRODUCT}),
                   graded_is_simple(ca.algebra, ca.grading))
        assert pattern == SIMPLICITY_PATTERN[case], name
        assert is_simple(ca.algebra), name
    for entry in _triples:
        env = loos_envelope(entry.triple)
        assert is_simple(env.algebra) == entry.expect_simple, entry.name
    print(f"SIMPLICITY: PASS  case pattern on {len(algebras)} algebras, "
          f"{len(_triples)} envelopes")


def test_criterion_6_pierce_decomposition():
    """A_1 A_-1 + A_-1 A_1 = A_0 as a direct sum, for every corpus algebra."""
    for entry in _corpus:
        ca = entry.build()
        minus, zero, plus, pm, mp, _, _ = pierce_split(ca.algebra, ca.grading)
        assert plus, entry.name
        assert pm.rank + mp.rank == len(zero), entry.name
        # zero intersection: the union of both bases stays independent
        from atsbench import linalg
        joint = linalg.RowSpace(ca.field, ca.algebra.dim)
        for row in pm.rows + mp.rows:
            assert joint.insert(dict(row)), entry.name
    print(f"ACCEPTANCE 6: PASS  Pierce 0-component split on {len(_corpus)} "
          f"corpus algebras")


def test_criterion_7_census_coherence():
    """Censuses over Z2 and Z4 (dims <= 8): every YES carries a verified
    witness, every NO a refutation, zero INCONCLUSIVE."""
    summaries = []
    for torsion in ((2,), (4,)):
        G = AbelianGroup(0, torsion)
        res = run_census(G, 8)
        assert res.labels, str(G)
        assert res.inconclusive == 0, str(G)
        assert res.verified_witnesses == res.yes_count, str(G)
        assert res.refutations == res.no_count, str(G)
        summaries.append(f"{G}: {len(res.labels)} labels, "
                         f"{res.yes_count} YES / {res.no_count} NO")
    print("ACCEPTANCE 7: PASS  census coherence (" + "; ".join(summaries) + ")")


def test_criterion_8_exchange_double_theorems():
    """Index-2 subgroup transfer and involution-twist removal, each on at
    least three parameter choices with supports of rank <= 3."""
    field = CycloField(2)
    G = AbelianGroup(0, (2, 2, 2))
    a, b, t = G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 1))
    T1 = Subgroup(G, (a, b))
    beta1 = Bicharacter.from_generator_matrix(T1, (a, b), [[0, 1], [1, 0]])
    taus = all_quadratic_forms(beta1)
    transfer_checked = 0
    for tau1 in taus[:2]:
        Dx1 = exchange_double_division(d_inv(T1, beta1, tau1, field), t)
        for gens in [(a + t, b), (a + t, b + t), (a, b + t)]:
            T2 = Subgroup(G, gens)
            beta2, tau2, _ = exchange_subgroup_transfer(Dx1, T2)
            assert all(tau2(h) == tau1.extend(t)(h) for h in T2.elements)
            Dx2 = exchange_double_division(d_inv(T2, beta2, tau2, field), t)
            assert graded_division_iso(Dx1, Dx2) is not None
            transfer_checked += 1
    removal_checked = 0
    for tau1, tau2 in itertools.combinations(taus, 2):
        Dx1 = exchange_double_division(d_inv(T1, beta1, tau1, field), t)
        Dx2 = exchange_double_division(d_inv(T1, beta1, tau2, field), t)
        t_prime, _ = removal_twist(Dx1, Dx2)
        assert t_prime in T1
        removal_checked += 1
    assert transfer_checked >= 3 and removal_checked >= 3
    print(f"ACCEPTANCE 8: PASS  exchange-double theorems "
          f"({transfer_checked} transfers, {removal_checked} twist removals)")


def test_criterion_9_automorphism_extension():
    """At least ten seeded triple automorphisms extend to verified
    envelope automorphisms; restriction recovers the original and the
    composition law holds on pairs."""
    autos = seeded_automorphisms(_triples, seed=0, want=12)
    assert len(autos) >= 10
    by_entry = {}
    for entry, psi in autos:
        env = by_entry.setdefault(id(entry), (entry, loos_envelope(entry.triple)))[1]
        ext = extend_automorphism(entry.triple, psi, env)
        for k in range(entry.triple.dim):
            assert ext.columns[env.w_offset + k] == {
                env.w_offset + i: c for i, c in psi.columns[k].items()}
    compositions = 0
    for key, (entry, env) in by_entry.items():
        here = [psi for e, psi in autos if e is entry]
        for p1, p2 in itertools.combinations(here, 2):
            lhs = extend_automorphism(entry.triple, compose(p1, p2), env)
            rhs = compose(extend_automorphism(entry.triple, p1, env),
                          extend_automorphism(entry.triple, p2, env))
            assert lhs == rhs
            compositions += 1
        if compositions >= 6:
            break
    assert compositions >= 3
    print(f"ACCEPTANCE 9: PASS  automorphism extension ({len(autos)} "
          f"automorphisms, {compositions} composition-law pairs)")

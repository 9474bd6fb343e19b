"""Decision procedures: Xi multisets, decide/witness/refute, intrinsics."""

import dataclasses
import hashlib
import io
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from atsbench import classify, cli, constructions
from atsbench.classify import (EXCHANGE_DIVISION, EXCHANGE_PAIR,
                               INTRINSIC_ATTRS, SIMPLE_ALGEBRA, ClassLabel,
                               Decision, Refutation, WitnessError,
                               _antimap_candidates, classify_conductor,
                               decide_iso, enumerate_labels, halvings,
                               intrinsic_invariants, refute_isomorphism,
                               witness_isomorphism, xi_multiset)
from atsbench.cli import main, write_report
from atsbench.config import parse_config
from atsbench.constructions import (ConstraintError, ExchangePairParams,
                                    InvolutionParams, d_inv,
                                    exchange_double_division, part_layouts,
                                    standard_realization)
from atsbench.corpus import algebra_corpus
from atsbench.groups import (AbelianGroup, Bicharacter, QuadraticForm,
                             Subgroup, extend_bicharacter, trivial_subgroup)
from atsbench.linalg import invert_matrix
from atsbench.omega import LinearMap, VerificationError, check_morphism
from atsbench.scalars import CycloField
from helpers import (all_quadratic_forms, classification_supports, compose,
                     involuted_division_corpus, involution_sign,
                     label_dimension,
                     ref_all_subgroups, ref_antimap_candidates,
                     ref_enumerate_labels,
                     ref_pairwise_census, xi_shift_equal)

Z2 = AbelianGroup(0, (2,))
Z4 = AbelianGroup(0, (4,))
V4 = AbelianGroup(0, (2, 2))
F2 = CycloField(2)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def trivial_pair(G):
    T = trivial_subgroup(G)
    return T, Bicharacter.from_generator_matrix(T, (), [])


def simple_label(G, g0, g1, g, delta=1, kappa0=(1,), kappa1=(1,), **kw):
    T, beta = trivial_pair(G)
    return ClassLabel(InvolutionParams(
        group=G, T=T, beta=beta, kappa0=kappa0, gamma0=g0, kappa1=kappa1,
        gamma1=g1, delta=delta, g=g, **kw))


# ---------------------------------------------------------------------------
# Xi multisets
# ---------------------------------------------------------------------------

def test_xi_singleton():
    T, _ = trivial_pair(Z2)
    xi = xi_multiset((1,), (Z2.identity,), T)
    assert xi.counts == {Z2.identity: 1}


def test_xi_multiplicities():
    T, _ = trivial_pair(V4)
    g1, g2 = V4.element((1, 0)), V4.element((0, 1))
    xi = xi_multiset((2, 1), (g1, g2), T)
    assert xi.counts == {g1: 2, g2: 1}


def test_xi_coset_merge():
    # gamma = (a, ab) with T = <b>: both entries land in aT
    a, b = V4.element((1, 0)), V4.element((0, 1))
    T = Subgroup(V4, (b,))
    xi = xi_multiset((1, 1), (a, a + b), T)
    assert xi.counts == {T.coset_rep(a): 2}


def test_shift_equal_trivial():
    T, _ = trivial_pair(V4)
    a = V4.element((1, 0))
    xi = xi_multiset((1, 2), (a, V4.identity), T)
    assert xi_shift_equal(xi, xi) == V4.identity
    shifted = xi.shifted(a)
    g = xi_shift_equal(shifted, xi)
    assert g is not None and shifted == xi.shifted(g)


def test_shift_none_when_multiplicities_differ():
    T, _ = trivial_pair(V4)
    a = V4.element((1, 0))
    x1 = xi_multiset((1, 2), (V4.identity, a), T)
    x2 = xi_multiset((3,), (V4.identity,), T)
    assert xi_shift_equal(x1, x2) is None


def test_shift_coherence_property():
    # a shift is found for Xi(kappa, gamma) vs Xi(kappa, g + gamma), all g
    T, _ = trivial_pair(V4)
    kappa = (1, 2, 1)
    gamma = (V4.identity, V4.element((1, 0)), V4.element((0, 1)))
    base = xi_multiset(kappa, gamma, T)
    for g in V4.elements():
        moved = xi_multiset(kappa, tuple(g + x for x in gamma), T)
        got = xi_shift_equal(moved, base)
        assert got is not None and moved == base.shifted(got)


def test_halvings():
    assert [h.coords for h in halvings(Z4, Z4.element((2,)))] == [(1,), (3,)]
    assert halvings(Z4, Z4.element((1,))) == []
    Zfree = AbelianGroup(1)
    assert [h.coords for h in halvings(Zfree, Zfree.element((4,)))] == [(2,)]
    assert halvings(Zfree, Zfree.element((3,))) == []


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def test_self_decision_is_yes_with_trivial_shift():
    lab = simple_label(Z2, (Z2.identity,), (Z2.identity,), Z2.identity)
    d = decide_iso(lab, lab)
    assert d.is_yes
    assert d.certificate["shift"].is_identity()


def test_delta_mismatch_is_no():
    e, ab = V4.identity, V4.element((1, 1))
    T = Subgroup(V4, (V4.element((1, 0)), V4.element((0, 1))))
    beta = Bicharacter.from_generator_matrix(
        T, (V4.element((1, 0)), V4.element((0, 1))), [[0, 1], [1, 0]])
    lab1 = ClassLabel(InvolutionParams(
        group=V4, T=T, beta=beta, kappa0=(1,), gamma0=(e,), kappa1=(1,),
        gamma1=(e,), delta=1, g=e))
    lab2 = ClassLabel(InvolutionParams(
        group=V4, T=T, beta=beta, kappa0=(1,), gamma0=(e,), kappa1=(1,),
        gamma1=(e,), delta=-1, g=ab))
    d = decide_iso(lab1, lab2)
    assert not d.is_yes and "delta" in d.certificate["violated"]


def test_shifted_pair_yes_with_witness():
    # over Z4: gamma shifted by 1 and g dropped by 2 is the same class
    one, three = Z4.element((1,)), Z4.element((3,))
    l1 = simple_label(Z4, (one,), (one,), Z4.element((2,)))
    l2 = simple_label(Z4, ((Z4.element((2,)),)), (Z4.element((2,)),),
                      Z4.element((0,)))
    d = decide_iso(l1, l2)
    assert d.is_yes
    f = witness_isomorphism(l1, l2, d.certificate)
    assert f.is_bijective()


def test_cross_case_is_no():
    T, beta = trivial_pair(Z2)
    e, u = Z2.identity, Z2.element((1,))
    lab1 = simple_label(Z2, (e,), (e,), e)
    lab2 = ClassLabel(ExchangePairParams(
        group=Z2, T=T, beta=beta, kappa0=(1,), gamma0=(e,), kappa1=(1,),
        gamma1=(u,)))
    d = decide_iso(lab1, lab2)
    assert not d.is_yes
    assert d.certificate["violated"] == "different classification case"
    assert d.certificate["intrinsic"]["left"]["graded_simple"]
    assert not d.certificate["intrinsic"]["right"]["graded_simple"]


def test_decide_symmetry_on_random_pairs():
    labels = enumerate_labels(Z2, 8)
    rng = random.Random(11)
    for _ in range(30):
        l1, l2 = rng.choice(labels), rng.choice(labels)
        assert decide_iso(l1, l2).verdict == decide_iso(l2, l1).verdict


def test_decide_transitivity_on_random_triples():
    # YES and YES give YES; YES and NO give NO (isomorphism is an
    # equivalence relation); both cases must actually occur
    labels = enumerate_labels(Z2, 8)
    rng = random.Random(13)
    seen = {"yes-yes": 0, "yes-no": 0}
    for _ in range(60):
        l1, l2, l3 = (rng.choice(labels) for _ in range(3))
        d12, d23 = decide_iso(l1, l2), decide_iso(l2, l3)
        if d12.is_yes:
            kind = "yes-yes" if d23.is_yes else "yes-no"
            seen[kind] += 1
            assert decide_iso(l1, l3).is_yes == d23.is_yes
    assert all(seen.values()), seen


def test_exchange_pair_opposite_branch():
    # over Z4 the labels (1),(0) and (3),(0) relate only by the opposite map
    T, beta = trivial_pair(Z4)
    def pair(g0c, g1c):
        return ClassLabel(ExchangePairParams(
            group=Z4, T=T, beta=beta, kappa0=(1,),
            gamma0=(Z4.element((g0c,)),), kappa1=(1,),
            gamma1=(Z4.element((g1c,)),)))
    l1, l2 = pair(1, 0), pair(3, 0)
    d = decide_iso(l1, l2)
    assert d.is_yes and d.certificate["branch"] == "op"
    f = witness_isomorphism(l1, l2, d.certificate)
    assert f.is_bijective()
    l3 = pair(2, 0)
    d2 = decide_iso(l1, l3)
    assert not d2.is_yes
    assert refute_isomorphism(l1, l3).refuted


def test_refute_smallest_delta_pair():
    # symmetric vs symplectic involution at the smallest size: every
    # intrinsic invariant agrees, the bounded search must exhaust
    e, a, b, ab = (V4.element(c) for c in
                   ((0, 0), (1, 0), (0, 1), (1, 1)))
    def lab(delta):
        return simple_label(V4, (e, ab), (a, b), ab, delta=delta,
                            kappa0=(1, 1), kappa1=(1, 1), m0=0, m1=0)
    l1, l2 = lab(1), lab(-1)
    d = decide_iso(l1, l2)
    assert not d.is_yes
    ref = refute_isomorphism(l1, l2)
    assert ref.refuted and ref.method == "exhausted-search"


def test_refute_by_dimension_function():
    l1 = simple_label(Z2, (Z2.identity,), (Z2.identity,), Z2.identity)
    l2 = simple_label(Z2, (Z2.identity,), (Z2.element((1,)),), Z2.identity)
    ref = refute_isomorphism(l1, l2)
    assert ref.refuted and ref.method == "intrinsic"
    assert ref.details["invariant"] == "dims"
    F = CycloField(classify_conductor(l1, l2))
    assert ref.details["left"] == str(l1.intrinsics(F).dims)
    assert ref.details["right"] == str(l2.intrinsics(F).dims)
    assert refute_isomorphism(l1, l2).details == ref.details


def test_witness_search_failure_raises():
    l1 = simple_label(Z2, (Z2.identity,), (Z2.identity,), Z2.identity)
    l2 = simple_label(Z2, (Z2.identity,), (Z2.element((1,)),), Z2.identity)
    with pytest.raises(WitnessError):
        witness_isomorphism(l1, l2, {"branch": "direct",
                                     "shift": Z2.identity})


# ---------------------------------------------------------------------------
# intrinsic invariants
# ---------------------------------------------------------------------------

def commutation_table(D):
    return {(s1, s2): D.commutation(i, j)
            for i, s1 in enumerate(D.elements)
            for j, s2 in enumerate(D.elements)}


def test_intrinsic_extraction_recovers_bicharacter():
    a, b = V4.element((1, 0)), V4.element((0, 1))
    T = Subgroup(V4, (a, b))
    beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
    D = standard_realization(T, beta, F2)
    assert commutation_table(D) == {(t1, t2): beta.eval(t1, t2, F2)
                                    for t1 in T.elements
                                    for t2 in T.elements}


def test_intrinsic_signs_recover_quadratic_form():
    a, b = V4.element((1, 0)), V4.element((0, 1))
    T = Subgroup(V4, (a, b))
    beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
    for tau in all_quadratic_forms(beta):
        D = d_inv(T, beta, tau, F2)
        for i, t in enumerate(D.elements):
            assert involution_sign(D, i) == F2.scalar(tau(t))


def test_center_support_of_double():
    G = AbelianGroup(0, (2, 2, 2))
    a, b, t = G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 1))
    T = Subgroup(G, (a, b))
    beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
    tau = QuadraticForm(T, {G.identity: 1, a: 1, b: 1, a + b: -1})
    Dx = exchange_double_division(d_inv(T, beta, tau, F2), t)
    inv = intrinsic_invariants(Dx.algebra, Dx.grading)
    assert set(inv.center_support) == {G.identity.coords, t.coords}


def test_distinct_bicharacters_refuted_intrinsically():
    # two distinct nondegenerate beta on Z2^4 give different commutation
    G = AbelianGroup(0, (2, 2, 2, 2))
    gens = tuple(G.element(tuple(1 if i == k else 0 for i in range(4)))
                 for k in range(4))
    T = Subgroup(G, gens)
    b1 = Bicharacter.from_generator_matrix(
        T, gens, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    b2 = Bicharacter.from_generator_matrix(
        T, gens, [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]])
    assert b1 != b2
    assert b1.is_nondegenerate_alternating()
    assert b2.is_nondegenerate_alternating()
    D1 = standard_realization(T, b1, F2)
    D2 = standard_realization(T, b2, F2)
    assert commutation_table(D1) != commutation_table(D2)


def test_dims_of_standard_matrix_label():
    lab = simple_label(Z2, (Z2.identity,), (Z2.identity,), Z2.identity)
    inv = lab.intrinsics(CycloField(classify_conductor(lab)))
    assert inv.dims == {(0, 0): 2, (-1, 0): 1, (1, 0): 1}


def test_census_z2_tiny_bound():
    # at dimension bound 4 only the fully odd simple-algebra labels fit;
    # the class list is finite and fully verified
    res = __import__("atsbench.classify", fromlist=["run_census"]).run_census(
        AbelianGroup(0, (2,)), 4)
    assert res.labels
    assert all(lab.case == SIMPLE_ALGEBRA for lab in res.labels)
    assert res.inconclusive == 0
    assert res.verified_witnesses == res.yes_count
    assert res.refutations == res.no_count


@pytest.mark.parametrize("torsion, count", [
    ((2, 4), 8), ((4, 4), 15), ((2, 2, 2), 16), ((2, 2, 4), 27),
    ((2, 2, 2, 2), 67)])
def test_all_subgroups_counts_every_subgroup_once(torsion, count):
    # Z/2^4 needs four generators for itself: closing sets of at most
    # three elements found 66 of its 67 subgroups
    G = AbelianGroup(0, torsion)
    subgroups = classify.all_subgroups(G)
    assert len(subgroups) == count
    assert len({frozenset(s.elements) for s in subgroups}) == count
    assert len(subgroups[-1]) == len(G.elements())


@pytest.mark.parametrize("torsion", [
    (2,), (3,), (4,), (2, 2), (3, 3), (4, 4), (2, 4), (2, 2, 2),
    (2, 2, 4), (2, 2, 2, 2)])
def test_all_subgroups_match_reference(torsion):
    # the same subgroups, generators, elements and order as closing every
    # generator set of up to G.ncoords elements
    G = AbelianGroup(0, torsion)
    new, ref = classify.all_subgroups(G), ref_all_subgroups(G)
    assert [(s.generators, s.elements) for s in new] == \
        [(s.generators, s.elements) for s in ref]


@pytest.mark.parametrize("G, classes", [(Z2, 11), (Z4, 14)],
                         ids=["Z2", "Z4"])
def test_enumerated_labels_keep_the_dimension_bound(G, classes):
    # an even self-dual block of q dimensions has multiplicity q: every
    # label built fits max_dim = 9, and the labels with a kappa = (2,)
    # part (M3 with an even block) are listed
    labels = enumerate_labels(G, 9)
    for lab in labels:
        ca = lab.build(CycloField(classify_conductor(lab)))
        assert ca.algebra.dim == label_dimension(lab) <= 9
    assert any((2,) in (lab.params.kappa0, lab.params.kappa1)
               for lab in labels)
    res = classify.run_census(G, 9)
    assert res.inconclusive == 0
    assert (len(res.labels), len(res.representatives)) == (len(labels),
                                                           classes)


# sha256 over [name, m0, m1] of every label, in order, as the enumeration
# over ordered block-shape lists listed them; the names omit m, so the
# digest also pins which m a label with several admissible ones keeps
@pytest.mark.parametrize("torsion, max_dim, count, digest", [
    ((2,), 9, 28,
     "f966535b37fb62d48d98b8c278a8e01839a7a14ded31cb0facf0e1c945f1adef"),
    ((2,), 16, 72,
     "b35c9a33f6445d6f36f7d04ff495851b12703516c9c9811127af2102c077cafd"),
    ((4,), 9, 80,
     "011188e534fd66b286aeaf5703efa073d77e6c236a4fe2171688bdb454616280"),
    ((4,), 16, 312,
     "0e4834250b9481e4cd73f0b81cd50b155b8cc23e278d440605e70ca465af626b"),
    ((2, 2), 8, 80,
     "47e169d78481d200d8b3c5430b1cbbdaaed691290c3fb00f2d587f5a9bcfb2be"),
    ((2, 2), 9, 208,
     "8d93824bc3c05ee44ca831fb8801f65a6fab4cf780873e086fc25455f9b8bc4a"),
    ((2, 4), 8, 192,
     "aa2819ccf1e4464d27bda3a447134aa01f259ebf2e54cd19dad0fb1a5fe42010"),
    ((2, 2, 2), 8, 576,
     "62d3a1ff0d09f0876958ce5b02118d9934dcbd8f85db0236e7601ed9255e6369"),
])
def test_enumerated_labels_are_pinned(torsion, max_dim, count, digest):
    labels = enumerate_labels(AbelianGroup(0, torsion), max_dim)
    rows = [[lab.name, getattr(lab.params, "m0", None),
             getattr(lab.params, "m1", None)] for lab in labels]
    assert len(rows) == count
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def _label_rows(labels):
    """Each label's case, name and every parameter field, in order."""
    return [[lab.case, lab.name] + [getattr(lab.params, f.name)
                                    for f in dataclasses.fields(lab.params)]
            for lab in labels]


@pytest.mark.parametrize("torsion, max_dim, kwargs", [
    *(pytest.param(torsion, max_dim, {},
                   id=f"Z{'xZ'.join(map(str, torsion))}-{max_dim}")
      for torsion in ((2,), (3,), (4,), (2, 2), (2, 4), (2, 2, 2))
      for max_dim in (8, 9)),
    pytest.param((4,), 16, {}, id="Z4-16"),
    pytest.param((2, 2), 16, {"max_support": 1}, id="Z2xZ2-16-support-1"),
    *(pytest.param((2, 2), 9, {"cases": (case,)}, id=f"Z2xZ2-9-{case}")
      for case in (EXCHANGE_PAIR, SIMPLE_ALGEBRA, EXCHANGE_DIVISION)),
])
def test_enumeration_by_construction_matches_filtering(torsion, max_dim,
                                                       kwargs):
    # solving the degree and sign constraints keeps exactly the labels
    # that checking every candidate keeps: the same cases, parameters (m
    # included) and order; and each label is built
    G = AbelianGroup(0, torsion)
    labels = enumerate_labels(G, max_dim, **kwargs)
    assert labels and all(lab._built for lab in labels)
    assert _label_rows(labels) == _label_rows(
        ref_enumerate_labels(G, max_dim, **kwargs))


@pytest.mark.parametrize("torsion, max_dim", [
    ((4,), 16), ((2, 4), 9), ((2, 2), 9)],
    ids=["Z4-16", "Z2xZ4-9", "Z2xZ2-9"])
def test_a_phi_label_admits_one_m(torsion, max_dim):
    # a degree x that may head a dual pair has -g - x distinct from x
    # modulo the support, so 2x + g is not in it and x is no self-dual
    # degree: the degrees of a label fix its m, and no other m of its
    # kappa builds
    tried = 0
    for lab in enumerate_labels(AbelianGroup(0, torsion), max_dim):
        if lab.case == EXCHANGE_PAIR:
            continue
        p = lab.params
        field = CycloField(classify_conductor(lab))
        for which, kappa in enumerate((p.kappa0, p.kappa1)):
            m = getattr(p, f"m{which}")
            for other in (k for kap, k in part_layouts(sum(kappa))
                          if kap == kappa and k != m):
                with pytest.raises(ConstraintError):
                    constructions.build_M_inv(dataclasses.replace(
                        p, **{f"m{which}": other}), field)
                tried += 1
    assert tried


@pytest.mark.parametrize("torsion, max_dim, count", [
    ((2, 2, 2), 8, 576), ((4,), 16, 312)], ids=["Z2xZ2xZ2-8", "Z4-16"])
def test_enumeration_builds_no_rejected_candidate(monkeypatch, torsion,
                                                  max_dim, count):
    # filtering made 4 672 and 12 368 builds here; by construction every
    # build is a label's
    builds = []
    for name in ("build_M_inv", "build_exchange_pair"):
        def counting(*args, _real=getattr(classify, name), **kwargs):
            builds.append(args[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(classify, name, counting)
    labels = enumerate_labels(AbelianGroup(0, torsion), max_dim)
    assert len(labels) == count
    assert len(builds) <= 1.1 * count


def test_a_name_repeated_over_a_second_beta_exits_2(monkeypatch, tmp_path,
                                                    capsys):
    # Z/3 x Z/3 carries two nondegenerate alternating bicharacters, and a
    # label name omits beta: their exchange pairs of dim 72 share names,
    # which the enumeration reports instead of keeping the first beta's
    monkeypatch.setattr(ClassLabel, "build", lambda self, field: None)
    G = AbelianGroup(0, (3, 3))
    assert len(enumerate_labels(G, 71, cases=(EXCHANGE_PAIR,))) == 8100
    named = ("label exchange_pair T=(0,1)|(1,0) k0=(1,) g0=((0,0)) k1=(1,) "
             "g1=((0,0)) recurs over T = <(0,1), (1,0)>")
    with pytest.raises(ConstraintError) as err:
        enumerate_labels(G, 72, cases=(EXCHANGE_PAIR,))
    assert named in str(err.value)
    cfg = tmp_path / "census.cfg"
    cfg.write_text("[group]\nG = Z/3 x Z/3\n[census]\nmax_dim = 72\n"
                   "cases = exchange_pair\n")
    assert main(["census", str(cfg)]) == 2
    assert named in capsys.readouterr().err


def test_exchange_division_pairs_over_v4():
    T, beta = trivial_pair(V4)
    e, a = V4.identity, V4.element((1, 0))
    t1, t2 = V4.element((0, 1)), V4.element((1, 1))

    def label(g1, t):
        return ClassLabel(InvolutionParams(
            group=V4, T=T, beta=beta, kappa0=(1,), gamma0=(e,), kappa1=(1,),
            gamma1=(g1,), delta=1, g=e, t=t))

    # same t, gamma1 differing by t: the coset multisets agree
    l1, l2 = label(e, t1), label(t1, t1)
    d = decide_iso(l1, l2)
    assert d.is_yes
    f = witness_isomorphism(l1, l2, d.certificate)
    assert f.is_bijective()
    # gamma1 differing outside T<t>: refuted by the dimension function
    l3 = label(a, t1)
    d2 = decide_iso(l1, l3)
    assert not d2.is_yes
    assert refute_isomorphism(l1, l3).refuted
    # different doubling elements: t != t' and the graded centers differ
    l4 = label(e, t2)
    d3 = decide_iso(l1, l4)
    assert not d3.is_yes and d3.certificate["violated"] == "t != t'"
    ref = refute_isomorphism(l1, l4)
    assert ref.refuted and ref.method == "intrinsic"


def test_refute_distinct_bicharacters_matrix_level():
    # the smallest matrix algebras over the two bicharacter classes of
    # Z2^4: same dimensions and centers, separated by exhausting the
    # structured family (the division-level separation is the extracted
    # commutation table, tested above)
    G = AbelianGroup(0, (2, 2, 2, 2))
    gens = tuple(G.element(tuple(1 if i == k else 0 for i in range(4)))
                 for k in range(4))
    T = Subgroup(G, gens)
    b1 = Bicharacter.from_generator_matrix(
        T, gens, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    b2 = Bicharacter.from_generator_matrix(
        T, gens, [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]])
    e = G.identity
    def lab(beta):
        return ClassLabel(InvolutionParams(
            group=G, T=T, beta=beta, kappa0=(1,), gamma0=(e,), kappa1=(1,),
            gamma1=(e,), delta=1, g=e))
    l1, l2 = lab(b1), lab(b2)
    d = decide_iso(l1, l2)
    assert not d.is_yes and "beta" in d.certificate["violated"]
    ref = refute_isomorphism(l1, l2)
    assert ref.refuted and ref.method == "exhausted-search"


def test_corpus_diagonal_yes_with_witnesses():
    # decide(label, label) is YES with a verified witness for every
    # shipped corpus label, including the nontrivial-support ones the
    # censuses never reach
    from atsbench.corpus import algebra_corpus
    for entry in algebra_corpus():
        lab = entry.label
        field = CycloField(classify_conductor(lab))
        d = decide_iso(lab, lab, field)
        assert d.is_yes, entry.name
        f = witness_isomorphism(lab, lab, d.certificate, field)
        assert f.is_bijective(), entry.name


def test_witness_with_division_support_shift():
    # gamma tuples moved inside the full support Z2^2: the witness is a
    # genuinely monomial map with X_t entries and solved scalars
    a, b = V4.element((1, 0)), V4.element((0, 1))
    T = Subgroup(V4, (a, b))
    beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
    e = V4.identity
    def lab(g0, g1):
        return ClassLabel(InvolutionParams(
            group=V4, T=T, beta=beta, kappa0=(1,), gamma0=(g0,),
            kappa1=(1,), gamma1=(g1,), delta=1, g=e))
    l1, l2 = lab(e, e), lab(a, b)
    d = decide_iso(l1, l2)
    assert d.is_yes
    f = witness_isomorphism(l1, l2, d.certificate)
    assert f.is_bijective()


BUDGET_LABEL = """
[group]
G = Z/2

[label]
case = simple_algebra
kappa0 = 1 1
gamma0 = (0) (1)
kappa1 = 1 1
gamma1 = (0) (1)
"""


def test_exhausted_search_budget_is_inconclusive(monkeypatch, tmp_path):
    # a search that gives up must say INCONCLUSIVE, never NO: the smallest
    # pair refuted by exhausted search (two dim-16 labels, 2 attempts),
    # with the search budget set to 0
    texts = {"a.cfg": BUDGET_LABEL + "delta = -1\ng = (1)\nm0 = 0\nm1 = 0\n",
             "b.cfg": BUDGET_LABEL + "delta = 1\ng = (0)\n"}
    l1, l2 = (parse_config(text).label for text in texts.values())
    assert label_dimension(l1) == label_dimension(l2) == 16
    field = CycloField(classify_conductor(l1, l2))
    assert not decide_iso(l1, l2, field).is_yes
    assert refute_isomorphism(l1, l2, field) == Refutation(
        True, "exhausted-search", {"attempts": 2})
    monkeypatch.setattr(classify, "SEARCH_CAP", 0)
    assert refute_isomorphism(l1, l2, field) == Refutation(
        False, "INCONCLUSIVE",
        {"reason": "search budget exhausted", "attempts": 1})
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "d.json"
    assert main(["decide-iso", str(tmp_path / "a.cfg"),
                 str(tmp_path / "b.cfg"), "--verify", "--json", str(out)]) == 1
    check = json.loads(out.read_text())["checks"][-1]
    assert check["name"] == "refutation" and not check["passed"]
    assert check["detail"].startswith("INCONCLUSIVE")


def test_antimap_candidates_match_reference_loop():
    # the shared diagonal solver gives the same candidate lists, in the
    # same order, as the standalone propagation loop it replaced: |T|
    # maps D -> D^op when beta = beta^-1 (every support here but Z/3^2
    # and Z/4^2), none otherwise
    divisions = [entry.D for entry in involuted_division_corpus()]
    divisions += [standard_realization(T, beta, CycloField(conductor))
                  for name, T, beta, conductor in classification_supports()]
    for D in divisions:
        roots = D.field.roots_of_unity()
        got = _antimap_candidates(D, roots)
        assert got == ref_antimap_candidates(D, roots)
        assert len(got) == (0 if D.support.group.torsion in ((3, 3), (4, 4))
                            else len(D.support))


# ---------------------------------------------------------------------------
# per-run and per-label caches
# ---------------------------------------------------------------------------

def _census_group(name):
    return parse_config((CONFIGS / name).read_text()).group


def test_census_builds_each_division_part_once(monkeypatch):
    # census_z4 has two distinct division parts (T trivial, t absent or
    # (2), conductor 4); a second census in the same process builds its
    # own, so nothing is carried over between runs
    built = []
    real = constructions.transpose_form

    def counting(D):
        built.append((frozenset(D.elements), D.field.conductor))
        return real(D)
    monkeypatch.setattr(constructions, "transpose_form", counting)
    G = _census_group("census_z4.cfg")
    first = classify.run_census(G, 8)
    assert len(built) == 2 and len(first.labels) == 32
    second = classify.run_census(G, 8)
    assert len(built) == 4 and second.to_dict() == first.to_dict()


def _tensors(D):
    return {op: {idx: dict(row) for idx, row in t.items()}
            for op, t in D.algebra.tensors.items()}


def test_shared_division_parts_are_not_changed_by_a_census(monkeypatch):
    # a division part is shared by every label of its (T, beta, t,
    # conductor); no construction, decision or search may change it
    seen = {}
    real = constructions.division_part

    def recording(T, beta, t, field, divisions=None):
        D = real(T, beta, t, field, divisions)
        seen.setdefault(id(D), (D, _tensors(D), dict(D.algebra.operators)))
        return D
    monkeypatch.setattr(constructions, "division_part", recording)
    res = classify.run_census(_census_group("census_z4.cfg"), 8)
    assert res.inconclusive == 0 and len(seen) == 2
    for D, tensors, operators in seen.values():
        assert _tensors(D) == tensors and D.algebra.operators == operators


def test_label_caches_match_fresh_values():
    # cached xi, full_support and coset_rep equal their uncached
    # definitions on every label of census_v4
    G = _census_group("census_v4.cfg")
    labels = enumerate_labels(G, 8)
    assert len(labels) == 80
    for lab in labels:
        p = lab.params
        fresh = p.T.extended_by(p.t) if getattr(p, "t", None) else p.T
        assert lab.full_support is p.full_support is lab.full_support
        assert set(lab.full_support.elements) == set(fresh.elements)
        if lab.case != EXCHANGE_PAIR:
            assert p.full_beta is p.full_beta and p.full_beta == (
                extend_bicharacter(p.beta, p.t) if p.t else p.beta)
        for g in G.elements():
            assert lab.full_support.coset_rep(g) == min(
                (g + t for t in fresh.elements), key=lambda e: e.coords)
        for which, (kappa, gamma) in enumerate(((p.kappa0, p.gamma0),
                                                (p.kappa1, p.gamma1))):
            for inverted in (False, True):
                gam = tuple(-x for x in gamma) if inverted else gamma
                want = xi_multiset(kappa, gam, fresh)
                assert lab.xi(which, inverted).counts == want.counts


def test_shifted_xi_and_halvings_match_fresh_values():
    # the shifted coset multisets and the halvings equal their
    # definitions on every label of census_v4, every shift
    G = _census_group("census_v4.cfg")
    for lab in enumerate_labels(G, 8):
        p = lab.params
        fresh = p.T.extended_by(p.t) if getattr(p, "t", None) else p.T
        for which, (kappa, gamma) in enumerate(((p.kappa0, p.gamma0),
                                                (p.kappa1, p.gamma1))):
            for inverted in (False, True):
                gam = tuple(-x for x in gamma) if inverted else gamma
                base = xi_multiset(kappa, gam, fresh)
                for g in G.elements():
                    got = lab.xi(which, inverted).shifted(g)
                    assert got.counts == base.shifted(g).counts
    for r in G.elements():
        assert halvings(G, r) == [x for x in G.elements() if x + x == r]


def test_equal_labels_compare_equal_after_build():
    # the build and intrinsics caches take no part in equality
    a, b = enumerate_labels(Z4, 8), enumerate_labels(Z4, 8)
    assert a[0]._built and b[0]._built
    assert a == b and a[0] == b[0]
    F = CycloField(classify_conductor(a[0]))
    a[0].intrinsics(F)
    assert a[0] == b[0] and a[0] != a[1]


# ---------------------------------------------------------------------------
# the structured search: pinned enumeration order
# ---------------------------------------------------------------------------

def _pair_label(G, gamma0, gamma1, kappa0=(1,), kappa1=(1,)):
    T, beta = trivial_pair(G)
    return ClassLabel(ExchangePairParams(
        group=G, T=T, beta=beta, kappa0=kappa0, gamma0=gamma0, kappa1=kappa1,
        gamma1=gamma1))


def _paired_division_label(g0, g1, g):
    # Z/4, t = (2), one dual pair of blocks in each part (dim 32)
    T, beta = trivial_pair(Z4)
    return ClassLabel(InvolutionParams(
        group=Z4, T=T, beta=beta, kappa0=(1, 1), gamma0=g0, m0=0,
        kappa1=(1, 1), gamma1=g1, m1=0, delta=1, g=g, t=Z4.element((2,))))


def _search_pins():
    v, z = V4.element, Z4.element
    corpus = {e.name: e.label for e in algebra_corpus()}
    return [
        # census_v4 labels, exchange pair, direct branch
        ("direct", _pair_label(V4, (v((0, 0)),), (v((0, 0)),)),
         _pair_label(V4, (v((0, 1)),), (v((0, 1)),)), ((0, 1), [0, 1], 1)),
        # census_z4 labels, exchange pair, opposite branch
        ("op", _pair_label(Z4, (z((0,)),), (z((1,)),)),
         _pair_label(Z4, (z((0,)),), (z((3,)),)), ((0,), [0, 1], 1)),
        # exchange pair over Z/4 with a block permutation, opposite branch
        ("op", _pair_label(Z4, (z((0,)), z((1,))), (z((2,)),), kappa0=(1, 1)),
         _pair_label(Z4, (z((0,)), z((1,))), (z((3,)),), kappa0=(1, 1)),
         ((1,), [1, 0, 2], 1)),
        # simple_algebra over D(Z2^2) (census_v4's group)
        (None, corpus["M2(D(Z2^2)) g1=(0,0) g=(0,0)"],
         corpus["M2(D(Z2^2)) g1=(1,0) g=(0,0)"], ((0, 0), [0, 1], 1)),
        # exchange_division over Z/4: shift (0) fails under the trivial
        # and the sign character before shift (1) succeeds
        (None, _paired_division_label((z((0,)), z((3,))), (z((2,)), z((1,))),
                                      z((1,))),
         _paired_division_label((z((0,)), z((1,))), (z((0,)), z((1,))),
                                z((3,))), ((1,), [1, 0, 3, 2], 3)),
    ]


def test_search_enumeration_order_is_pinned():
    # every shift of G in order: the (shift, pi, attempts) each search
    # shape returns fixes the order of shifts, matchings and twists
    for branch, l1, l2, want in _search_pins():
        field = CycloField(classify_conductor(l1, l2))
        ca1, ca2 = l1.build(field), l2.build(field)
        shifts = l1.params.group.elements()
        f, meta = (classify.find_structured_iso(ca1, ca2, shifts)
                   if branch is None
                   else classify._pair_search(ca1, ca2, branch, shifts))
        assert f is not None and f.is_bijective()
        assert (meta["shift"].coords, meta["pi"], meta["attempts"]) == want


def test_label_case_follows_from_its_parameters():
    T, beta = trivial_pair(Z2)
    e, t = Z2.identity, Z2.element((1,))
    common = dict(group=Z2, T=T, beta=beta, kappa0=(1,), gamma0=(e,),
                  kappa1=(1,), gamma1=(e,))
    for params, case in (
            (ExchangePairParams(**common), EXCHANGE_PAIR),
            (InvolutionParams(**common, delta=1, g=e), SIMPLE_ALGEBRA),
            (InvolutionParams(**common, delta=1, g=e, t=t),
             EXCHANGE_DIVISION)):
        label = ClassLabel(params)
        assert label.case == case and label.name.startswith(case + " ")


# ---------------------------------------------------------------------------
# census through isomorphism classes
# ---------------------------------------------------------------------------

CLASS_CENSUSES = ("census_z2.cfg", "census_z4.cfg", "census_v4.cfg")


@pytest.mark.parametrize("G", [Z4, V4, AbelianGroup(0, (2, 4))], ids=str)
def test_keys_agree_with_decide_iso(G):
    # equal keys exactly on a YES, equal direct keys exactly on a YES by
    # the direct branch, on every pair of labels
    labels = enumerate_labels(G, 8)
    field = CycloField(classify_conductor(*labels))
    keyed = [(lab, lab.key(), lab.key(direct=True)) for lab in labels]
    for (l1, k1, d1), (l2, k2, d2) in itertools.combinations_with_replacement(
            keyed, 2):
        decision = decide_iso(l1, l2, field)
        assert (k1 == k2) == decision.is_yes
        if decision.is_yes:
            assert (d1 == d2) == (decision.certificate["branch"] == "direct")


def test_census_takes_each_orbit_once(monkeypatch):
    # run_census reads both keys of every label, and the orbits behind them
    # are taken once per label: one for a Phi-involution label, two (the
    # direct and the opposite branch) for an exchange pair; reading the
    # keys again takes none
    taken = []
    real = ClassLabel._orbit

    def counting(lab, inverted, g=None):
        taken.append(id(lab))
        return real(lab, inverted, g)
    monkeypatch.setattr(ClassLabel, "_orbit", counting)
    res = classify.run_census(_census_group("census_z4.cfg"), 8)
    cases = {lab.case for lab in res.labels}
    assert EXCHANGE_PAIR in cases and len(cases) > 1
    for lab in res.labels:
        key, direct = lab.key(), lab.key(direct=True)
        if lab.case == EXCHANGE_PAIR:
            assert direct[0] == key[0] and direct[1] in key[1]
        else:
            assert direct == key
    assert Counter(taken) == Counter(
        {id(lab): 2 if lab.case == EXCHANGE_PAIR else 1
         for lab in res.labels})


def _census_report(name, max_dim=None):
    cfg = parse_config((CONFIGS / name).read_text())
    cfg.max_dim = max_dim or cfg.max_dim
    report = cli.run(cfg)
    out = io.StringIO()
    write_report(out, report.to_dict())
    return out.getvalue(), report


def _inconclusive_unless_intrinsic(real):
    def wrapped(l1, l2, field=None):
        ref = real(l1, l2, field)
        if ref.method == "intrinsic":
            return ref
        return Refutation(False, "INCONCLUSIVE", {"reason": "wrapped"})
    return wrapped


# Z/2 at max_dim 12 has 24 NO pairs whose class refutation is an
# exhausted search, so each member pair is refuted on its own; made
# INCONCLUSIVE, each of them is counted and the census fails
@pytest.mark.parametrize("name, max_dim, inconclusive", [
    *(pytest.param(name, None, 0, id=name) for name in CLASS_CENSUSES),
    pytest.param("census_z2.cfg", 12, 0, id="census_z2.cfg-12"),
    pytest.param("census_z2.cfg", 12, 24, id="census_z2.cfg-12-inconclusive")])
def test_class_census_report_matches_pairwise_census(name, max_dim,
                                                     inconclusive,
                                                     monkeypatch):
    if inconclusive:
        monkeypatch.setattr(classify, "refute_isomorphism",
                            _inconclusive_unless_intrinsic(
                                classify.refute_isomorphism))
    got, report = _census_report(name, max_dim)
    assert report.artifacts["census"]["inconclusive"] == inconclusive
    assert {c["name"] for c in report.checks if not c["passed"]} == (
        {"all-no-refuted", "zero-inconclusive"} if inconclusive else set())
    monkeypatch.setattr(cli, "run_census", ref_pairwise_census)
    assert got == _census_report(name, max_dim)[0]


def _class_map(res, k, field):
    """psi_k: A_rep -> A_k for label k and its class representative."""
    rep, lab = res.labels[res.representatives[res.classes[k]]], res.labels[k]
    if rep is lab:
        return LinearMap.identity(lab.build(field).algebra)
    return witness_isomorphism(rep, lab, decide_iso(rep, lab, field)
                               .certificate, field)


@pytest.mark.parametrize("name, n_classes, n_yes", [
    ("census_z2.cfg", None, 22), ("census_z4.cfg", 6, 112),
    ("census_v4.cfg", 14, 296)])
def test_composed_class_maps_certify_every_yes_pair(name, n_classes, n_yes):
    # every YES pair (i, j) is the graded isomorphism psi_j o psi_i^{-1}
    # with involution, and intrinsic invariants agree inside a class
    res = classify.run_census(_census_group(name), 8)
    field = CycloField(classify_conductor(*res.labels))
    assert len(res.classes) == len(res.labels)
    assert sorted(set(res.classes)) == list(range(len(res.representatives)))
    assert [res.classes[r] for r in res.representatives] == list(
        range(len(res.representatives)))
    assert n_classes in (None, len(res.representatives))
    table = {f.name for f in dataclasses.fields(res)} - {
        "group", "max_dim", "labels"}
    assert len(table) == 6 and not table & set(res.to_dict())
    psi = [_class_map(res, k, field) for k in range(len(res.labels))]
    yes = [(i, j) for i, j, verdict, _ in res.decisions() if verdict == "YES"]
    assert len(yes) == n_yes == res.yes_count == res.verified_witnesses
    for i, j in yes:
        assert res.classes[i] == res.classes[j]
        ca_i, ca_j = res.labels[i].build(field), res.labels[j].build(field)
        inverse = LinearMap(ca_i.algebra, psi[i].source,
                            invert_matrix(field, psi[i].columns))
        f = compose(psi[j], inverse)
        assert check_morphism(f, gradings=(ca_i.grading, ca_j.grading)).passed
        assert f.is_bijective()
    for k, lab in enumerate(res.labels):
        rep = res.labels[res.representatives[res.classes[k]]]
        for attr in INTRINSIC_ATTRS:
            assert (str(getattr(lab.intrinsics(field), attr))
                    == str(getattr(rep.intrinsics(field), attr)))


def _flipped_pairs():
    """A representative and a member of one census_z4 class, and the
    representatives of two classes, by label name."""
    res = classify.run_census(_census_group("census_z4.cfg"), 8)
    member = next(k for k in range(len(res.labels))
                  if k not in res.representatives)
    inside = (res.representatives[res.classes[member]], member)
    return [tuple(res.labels[k].name for k in pair)
            for pair in (inside, res.representatives[:2])]


def _census_raises(capsys, flip):
    with pytest.raises(WitnessError, match=f"decided {flip} against"):
        classify.run_census(_census_group("census_z4.cfg"), 8)
    assert main(["census", str(CONFIGS / "census_z4.cfg")]) == 3
    assert f"decided {flip} against the classes" in capsys.readouterr().err


def test_unwitnessed_members_fail_all_yes_witnessed(monkeypatch, capsys):
    # a member whose witness search returns no map certifies none of its
    # YES pairs: verified_witnesses falls below yes, and `ats census`
    # exits 1 with all-yes-witnessed failing
    monkeypatch.setattr(classify, "witness_isomorphism", lambda *args: None)
    res = classify.run_census(_census_group("census_z2.cfg"), 8)
    assert res.verified_witnesses == len(res.representatives) < res.yes_count
    assert main(["census", str(CONFIGS / "census_z2.cfg")]) == 1
    out = capsys.readouterr().out
    assert f"FAIL all-yes-witnessed ({res.yes_count} checks) -- " \
           f"{len(res.representatives)}/{res.yes_count}" in out


@pytest.mark.parametrize("flip", ["NO", "YES"])
def test_verdict_against_the_classes_raises(monkeypatch, capsys, flip):
    # a NO from a representative to its member, or a YES across two
    # representatives, contradicts the keys: WitnessError, and `ats
    # census` exits 3
    inside, across = _flipped_pairs()
    names = inside if flip == "NO" else across
    real = classify.decide_iso

    def flipped(l1, l2, field=None):
        if (l1.name, l2.name) != names:
            return real(l1, l2, field)
        if flip == "NO":
            return Decision("NO", {"violated": "flipped"})
        return Decision("YES", {"branch": "direct",
                                "shift": l1.params.group.identity})
    monkeypatch.setattr(classify, "decide_iso", flipped)
    _census_raises(capsys, flip)


@pytest.mark.parametrize("flip", ["NO", "YES"])
def test_key_against_the_classes_raises(monkeypatch, capsys, flip):
    # a key that merges two classes puts a label under a representative
    # decide_iso says NO to; one that splits a class makes two
    # representatives it says YES to
    (_, member), across = _flipped_pairs()
    real = ClassLabel.key

    def faulty(lab, direct=False):
        if flip == "NO" and lab.name in across:
            return "merged"
        if flip == "YES" and lab.name == member:
            return "split"
        return real(lab, direct)
    monkeypatch.setattr(ClassLabel, "key", faulty)
    _census_raises(capsys, flip)


def test_class_member_with_other_intrinsics_raises(monkeypatch):
    # a label witnessed into a class must share its representative's
    # intrinsic invariants; one that does not contradicts the program
    (_, member), _ = _flipped_pairs()
    real = ClassLabel.intrinsics

    def altered(lab, field):
        inv = real(lab, field)
        if lab.name != member:
            return inv
        return dataclasses.replace(inv, center_support=())
    monkeypatch.setattr(ClassLabel, "intrinsics", altered)
    with pytest.raises(VerificationError,
                       match="differs in the intrinsic invariant "
                             "center_support"):
        classify.run_census(_census_group("census_z4.cfg"), 8)

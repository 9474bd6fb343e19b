"""The identity scans skip the basis tuples whose sides are all zero, and
the per-entry checks make one pass over the stored entries; both must
report exactly what the per-tuple reference scans in helpers do: the
same `checked` count and the same violations in the same order, on the
corpus and on seeded corruptions of it."""

import dataclasses
import itertools
import random
from pathlib import Path

import pytest

from atsbench.classify import classify_conductor
from atsbench.config import parse_config
from atsbench.constructions import (InvolutionParams, build_M_inv,
                                   check_commutation, standard_realization)
from atsbench.corpus import algebra_corpus, seeded_automorphisms, triple_corpus
from atsbench.groups import (AbelianGroup, Bicharacter, GroupError,
                             Subgroup, trivial_subgroup, z_part)
from atsbench.omega import (INVOLUTION, PRODUCT, TRIPLE, Grading, LinearMap,
                            OmegaAlgebra, _unequal_sums, check_grading,
                            check_involution, check_morphism, check_t4_flip,
                            combine)
from atsbench.scalars import CycloField
from atsbench.triples import (TripleSystem, _draw_tuples, check_associative,
                              check_at2, extend_automorphism, loos_envelope,
                              reconstruct_iso, triple_from)
from helpers import (identity_map, involuted_division_corpus, random_scalar,
                     ref_check_associative, ref_check_at2,
                     ref_check_commutation, ref_check_grading,
                     ref_check_involution, ref_check_morphism,
                     ref_check_t4_flip, ref_sums, ref_unequal_sums)

WIDE36 = [Path(__file__).resolve().parents[1] / "bench" / "configs" /
          f"wide36_{sign}.cfg" for sign in ("minus", "plus")]


def same(new, ref):
    return ((new.name, new.passed, new.checked, new.violations)
            == (ref.name, ref.passed, ref.checked, ref.violations))


@pytest.fixture(scope="module")
def corpus():
    """(triple, envelope) for every corpus triple and the dim-9 triple."""
    Z2 = AbelianGroup(0, (2,))
    T = trivial_subgroup(Z2)
    e, z = Z2.identity, Z2.element((1,))
    big = build_M_inv(InvolutionParams(
        group=Z2, T=T, beta=Bicharacter.from_generator_matrix(T, (), []),
        kappa0=(1, 2), gamma0=(e, z), kappa1=(1, 2), gamma1=(e, z),
        delta=1, g=e, S_signs0=(1,), S_signs1=(1,)), CycloField(2))
    W9, _ = triple_from(big.algebra, big.grading)
    triples = [entry.triple for entry in triple_corpus()] + [W9]
    return [(W, loos_envelope(W)) for W in triples]


def copied(alg):
    out = OmegaAlgebra(alg.field, alg.dim, alg.operators, alg.basis_labels)
    out.tensors = {name: {idx: dict(row) for idx, row in t.items()}
                   for name, t in alg.tensors.items()}
    return out


def corrupt(alg, op, kind, rng):
    """A copy of alg with one entry of op's tensor scaled, deleted, or
    stray: stored where no row was when there is such a place (then its
    side of some tuples turns nonzero while the partner side stays zero),
    else added to a stored row."""
    bad = copied(alg)
    table = bad.tensors[op]
    if kind == "scaled":
        idx = rng.choice(sorted(table))
        k = rng.choice(sorted(table[idx]))
        table[idx][k] = table[idx][k] * alg.field.scalar(2)
    elif kind == "deleted":
        del table[rng.choice(sorted(table))]
    else:
        empty = [idx for idx in itertools.product(
            range(alg.dim), repeat=alg.operators[op]) if idx not in table]
        row = table.setdefault(
            rng.choice(empty) if empty else rng.choice(sorted(table)), {})
        row[rng.choice([k for k in range(alg.dim) if k not in row])] = \
            alg.field.one
    return bad


def test_scans_match_reference_on_corpus(corpus):
    for W, env in corpus:
        assert same(check_at2(W, exhaustive_limit=8, samples=2000),
                    ref_check_at2(W, exhaustive_limit=8, samples=2000))
        assert same(check_associative(env.algebra),
                    ref_check_associative(env.algebra))
        assert same(check_involution(env.algebra),
                    ref_check_involution(env.algebra))


@pytest.mark.parametrize("kind", ["scaled", "deleted", "stray"])
def test_scans_match_reference_on_corruptions(corpus, kind):
    rng = random.Random(f"corrupt-{kind}")
    # envelopes up to dim 24 keep the per-tuple reference quick
    small = [(W, env) for W, env in corpus
             if env.algebra.dim <= 24 and W.dim > 1]
    failed = 0
    for _ in range(12):
        W, env = rng.choice(small)
        bad = corrupt(env.algebra, PRODUCT, kind, rng)
        for new, ref in ((check_associative(bad), ref_check_associative(bad)),
                         (check_involution(bad), ref_check_involution(bad))):
            assert same(new, ref)
            failed += not ref.passed
        bad = corrupt(env.algebra, INVOLUTION, kind, rng)
        new, ref = check_involution(bad), ref_check_involution(bad)
        assert same(new, ref)
        failed += not ref.passed
        bad_W = TripleSystem(corrupt(W.algebra, TRIPLE, kind, rng))
        new, ref = check_at2(bad_W, exhaustive_limit=6), \
            ref_check_at2(bad_W, exhaustive_limit=6)
        assert same(new, ref)
        failed += not ref.passed
    # the comparisons above are between failing reports, mostly
    assert failed >= 40


def test_at2_matches_reference_on_multiple_corruptions(corpus):
    # two to four corrupted entries in each dim-4 triple: reports with many
    # violations, compared with the reference's in full and in order
    rng = random.Random("corrupt-at2")
    kinds = ("scaled", "deleted", "stray")
    counts = []
    for W, _ in corpus:
        if W.dim != 4:
            continue
        for _ in range(3):
            bad = W.algebra
            for _ in range(rng.randint(2, 4)):
                bad = corrupt(bad, TRIPLE, rng.choice(kinds), rng)
            new = check_at2(TripleSystem(bad), exhaustive_limit=8)
            ref = ref_check_at2(TripleSystem(bad), exhaustive_limit=8)
            assert same(new, ref) and new.checked == 4 ** 5
            counts.append(len(ref.violations))
    assert len(counts) >= 24 and min(counts) > 0
    assert sum(counts) >= 1000 and max(counts) >= 50


def test_sampled_at2_matches_reference_on_corruptions(corpus):
    # the dim-9 triple above exhaustive_limit = 8: 10^4 seeded tuples
    # each, on scaled, deleted and stray entries
    W9 = corpus[-1][0]
    assert W9.dim == 9
    rng = random.Random("corrupt-sampled")
    counts = []
    for kind in ("scaled", "deleted", "stray") * 2:
        bad = TripleSystem(corrupt(W9.algebra, TRIPLE, kind, rng))
        new = check_at2(bad, seed=3, exhaustive_limit=8)
        ref = ref_check_at2(bad, seed=3, exhaustive_limit=8)
        assert same(new, ref) and new.checked == 10000
        counts.append(len(ref.violations))
    assert min(counts) > 0


def test_sampled_at2_repeats_the_violations_of_a_tuple_drawn_twice():
    # a dim-2 triple forced to sample: 10^4 draws from 32 tuples, so every
    # failing tuple is drawn many times and reports its violations each
    # time, in draw order
    F = CycloField(1)
    bad = OmegaAlgebra(F, 2, {TRIPLE: 3})
    bad.set_entry(TRIPLE, (0, 0, 0), {1: F.one})
    bad.set_entry(TRIPLE, (1, 1, 1), {0: F.one})
    rng = random.Random("corrupt-dim-2")
    for W in [TripleSystem(bad)] + [TripleSystem(corrupt(
            bad, TRIPLE, kind, rng)) for kind in ("scaled", "stray")]:
        new = check_at2(W, seed=5, exhaustive_limit=1)
        ref = ref_check_at2(W, seed=5, exhaustive_limit=1)
        assert same(new, ref) and new.checked == 10000
        assert len(ref.violations) > len(set(ref.violations)) > 0


def same_or_raise(check, ref, grading):
    """check(grading) equals ref(grading), or both raise GroupError."""
    try:
        expected = ref(grading)
    except GroupError:
        with pytest.raises(GroupError):
            check(grading)
        return None
    new = check(grading)
    assert same(new, expected)
    return new


def test_grading_and_flip_checks_match_reference(corpus):
    # per corpus algebra: its grading with one basis vector's degree moved
    # to another component, to a degree no basis vector has (so some
    # predicted degrees are no vector's degree) and to an element of
    # another group, its degrees taken as a grading by another group, and
    # its involution with a term phi(e_i) = e_i added at a vector of
    # nonzero Z degree (one that does not flip Z)
    rng = random.Random("per-entry")
    entries = algebra_corpus()[::3]
    failed = raised = 0
    other = AbelianGroup(0, (5,)).element((1,))
    for entry in entries:
        ca = entry.build()
        alg, grading = ca.algebra, ca.grading
        group = grading.group
        k = rng.randrange(alg.dim)
        fresh = group.element((max(abs(z_part(d)) for d in grading.degmap)
                               + 5,) + grading.degmap[k].coords[1:])
        moved = {}
        for name, degree in (
                ("moved", rng.choice([d for d in grading.degmap
                                      if d != grading.degmap[k]])),
                ("fresh", fresh), ("foreign", other)):
            deg = list(grading.degmap)
            deg[k] = degree
            moved[name] = Grading(alg, group, tuple(deg), grading.graded_ops)
        moved["regrouped"] = Grading(alg, other.group, grading.degmap,
                                     grading.graded_ops)
        predicted = {sum((moved["fresh"].degmap[i] for i in idx),
                         group.identity) for idx in alg.tensors[PRODUCT]}
        assert not predicted <= set(moved["fresh"].degmap)
        for gr in (grading, *moved.values()):
            for check, ref in ((check_grading, ref_check_grading),
                               (check_t4_flip, ref_check_t4_flip)):
                new = same_or_raise(check, ref, gr)
                if new is None:
                    raised += 1
                    continue
                assert new.passed or gr is not grading
                failed += not new.passed
        bad = copied(alg)
        i = rng.choice([i for i, d in enumerate(grading.degmap) if z_part(d)])
        bad.tensors[INVOLUTION][(i,)][i] = alg.field.one
        unflipped = Grading(bad, grading.group, grading.degmap,
                            grading.graded_ops)
        new, old = check_t4_flip(unflipped), ref_check_t4_flip(unflipped)
        assert same(new, old) and not old.passed
        assert f"phi(e{i}) [{grading.degmap[i]}] meets component " \
               f"{grading.degmap[i]}" in new.violations[0]
    assert failed >= 3 * len(entries) and raised == 2 * len(entries)
    # a graded operator of arity 1: the exchange doubles' gradings grade
    # the involution, here also with a term phi(e_0) = e_j, j of another
    # degree
    doubles = [entry.D for entry in involuted_division_corpus()
               if INVOLUTION in entry.D.grading.graded_ops]
    assert doubles
    for D in doubles:
        grading = D.grading
        bad = copied(D.algebra)
        j = next(j for j, d in enumerate(grading.degmap)
                 if d != grading.degmap[0])
        bad.tensors[INVOLUTION][(0,)][j] = D.field.one
        stray = Grading(bad, grading.group, grading.degmap,
                        grading.graded_ops)
        assert same_or_raise(check_grading, ref_check_grading, grading).passed
        new = same_or_raise(check_grading, ref_check_grading, stray)
        assert new.violations == [f"involution(0,) -> index {j}: degree "
                                  f"{grading.degmap[j]} != predicted "
                                  f"{grading.degmap[0]}"]
    # a graded operator of arity 3: the graded corpus triples on TRIPLE,
    # also with one basis vector's degree moved
    graded = [W for W, _ in corpus if W.grading is not None]
    assert graded
    failed = 0
    for W in graded:
        grading = W.grading
        assert same_or_raise(check_grading, ref_check_grading, grading).passed
        deg = list(grading.degmap)
        k = rng.randrange(W.dim)
        deg[k] = rng.choice([g for g in grading.group.elements()
                             if g != deg[k]])
        new = same_or_raise(check_grading, ref_check_grading, Grading(
            W.algebra, grading.group, tuple(deg), grading.graded_ops))
        failed += not new.passed
    assert failed >= len(graded) // 2


def test_grading_check_sums_once_per_degree_tuple(monkeypatch):
    # the wide36 labels: 216 product entries in 6 distinct degrees each;
    # degrees keep their sums (GroupElement._sums), so on groups made
    # afresh the check reduces each distinct sum identity + a + b at most
    # once, not once per entry
    monkeypatch.setattr(AbelianGroup, "_groups", {})
    labels = [parse_config(path.read_text(encoding="utf-8")).label
              for path in WIDE36]
    field = CycloField(classify_conductor(*labels))
    element = AbelianGroup.element
    for label in labels:
        grading = label.build(field).grading
        table = grading.algebra.tensors[PRODUCT]
        assert grading.graded_ops == {PRODUCT} and len(table) == 216
        pairs = {tuple(grading.degmap[i] for i in idx) for idx in table}
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(AbelianGroup, "element", lambda G, coords:
                          calls.append(1) or element(G, coords))
            report = check_grading(grading)
        assert report.passed and report.checked == len(table)
        assert len(calls) <= 2 * len(pairs) < len(table)


def test_commutation_check_matches_reference():
    # standard realizations checked against their own bicharacter and a
    # wrong one: the commuting one on V4, and the inverse on Z/4 x Z/4
    V4, Z44 = AbelianGroup(0, (2, 2)), AbelianGroup(0, (4, 4))
    cases = []
    for G, n, right, wrong in ((V4, 2, [[0, 1], [1, 0]], [[0, 0], [0, 0]]),
                               (Z44, 4, [[0, 1], [3, 0]], [[0, 3], [1, 0]])):
        gens = (G.element((1, 0)), G.element((0, 1)))
        T = Subgroup(G, gens)
        D = standard_realization(
            T, Bicharacter.from_generator_matrix(T, gens, right),
            CycloField(n))
        cases.append((D, True))
        cases.append((dataclasses.replace(
            D, bicharacter=Bicharacter.from_generator_matrix(T, gens, wrong)),
            False))
    for D, passes in cases:
        new, ref = check_commutation(D), ref_check_commutation(D)
        assert same(new, ref) and new.checked == D.dim ** 2
        assert new.passed == passes


def test_cancelling_side_equals_an_absent_one():
    # {x,x,x} = p - q and {p,x,x} = {q,x,x} = y, all else zero: the terms of
    # {{x,x,x},x,x} cancel, and the other two sides have no term at all.
    # The product xx = p - q, px = qx = y is associative the same way:
    # (xx)x = y - y while x(xx) has no term.
    F = CycloField(1)
    x, p, q, y = range(4)
    W = OmegaAlgebra(F, 4, {TRIPLE: 3})
    A = OmegaAlgebra(F, 4, {PRODUCT: 2})
    for alg, op, head in ((W, TRIPLE, (x, x)), (A, PRODUCT, (x,))):
        alg.set_entry(op, head + (x,), {p: F.one, q: -F.one})
        alg.set_entry(op, (p,) + head, {y: F.one})
        alg.set_entry(op, (q,) + head, {y: F.one})
    assert W.apply(TRIPLE, {p: F.one, q: -F.one}, {x: F.one}, {x: F.one}) \
        == A.mul({p: F.one, q: -F.one}, {x: F.one}) == {}
    at2, ref = check_at2(TripleSystem(W)), ref_check_at2(TripleSystem(W))
    assert same(at2, ref) and at2.passed and at2.checked == 4 ** 5
    assoc, ref = check_associative(A), ref_check_associative(A)
    assert same(assoc, ref) and assoc.passed and assoc.checked == 4 ** 3
    # f(e0) = a + b and f(e3) = a into B with aa = bb = y, ab = ba = -y:
    # f(e0) f(e0), f(e0) f(e3) and f(e3) f(e0) cancel where A' has no
    # product, and f(e3 e3) = f(e1) = y
    a, b, w, y = range(4)
    A2, B = OmegaAlgebra(F, 4, {PRODUCT: 2}), OmegaAlgebra(F, 4, {PRODUCT: 2})
    A2.set_entry(PRODUCT, (3, 3), {1: F.one})
    for idx, c in (((a, a), F.one), ((a, b), -F.one), ((b, a), -F.one),
                   ((b, b), F.one)):
        B.set_entry(PRODUCT, idx, {y: c})
    f = LinearMap(A2, B, [{a: F.one, b: F.one}, {y: F.one}, {w: F.one},
                          {a: F.one}])
    a_b = f.columns[0]
    assert B.mul(a_b, a_b) == B.mul(a_b, {a: F.one}) \
        == B.mul({a: F.one}, a_b) == {}
    morph, ref = check_morphism(f, [PRODUCT]), ref_check_morphism(f, [PRODUCT])
    assert same(morph, ref) and morph.passed and morph.checked == 4 ** 2
    # phi(e1) = e0 - e1 in C with e0 e0 = e0 e1 = y: phi(e1) phi(e1) and
    # phi(e0) phi(e1) cancel where e1 e1 and e1 e0 are zero
    C = OmegaAlgebra(F, 4, {PRODUCT: 2, INVOLUTION: 1})
    C.set_entry(PRODUCT, (0, 0), {y: F.one})
    C.set_entry(PRODUCT, (0, 1), {y: F.one})
    for i, image in enumerate(({0: F.one}, {0: F.one, 1: -F.one},
                               {w: F.one}, {y: F.one})):
        C.set_entry(INVOLUTION, (i,), image)
    phi1 = C.row(INVOLUTION, (1,))
    assert C.mul(phi1, phi1) == C.mul({0: F.one}, phi1) == {}
    inv, ref = check_involution(C), ref_check_involution(C)
    assert same(inv, ref) and inv.passed and inv.checked == 4 + 4 ** 2


def broken(f: LinearMap, rng) -> list:
    """f with one column scaled by 2, and f with a stray term added to
    one column."""
    k = rng.randrange(f.source.dim)
    scaled = [dict(c) for c in f.columns]
    scaled[k] = {i: c * f.target.field.scalar(2) for i, c in scaled[k].items()}
    stray = [dict(c) for c in f.columns]
    stray[k][rng.randrange(f.target.dim)] = f.target.field.one
    return [LinearMap(f.source, f.target, cols) for cols in (scaled, stray)]


def sheared(ca):
    """(B, grading, f): B is ca.algebra transported along the shear
    f(e_b) = e_b + e_a, for two basis vectors a != b of one degree-0
    component, so f: A -> B is a graded isomorphism that is not
    monomial."""
    A, deg, one = ca.algebra, ca.grading.degmap, ca.algebra.field.one
    a, b = next((a, b) for a in range(A.dim) for b in range(A.dim)
                if a != b and deg[a] == deg[b] and z_part(deg[a]) == 0)
    cols = [{i: one} for i in range(A.dim)]
    inverse = [dict(c) for c in cols]
    cols[b], inverse[b] = {b: one, a: one}, {b: one, a: -one}
    B = OmegaAlgebra(A.field, A.dim, A.operators)
    for op, arity in A.operators.items():
        for idx in itertools.product(range(A.dim), repeat=arity):
            image = A.apply(op, *(inverse[i] for i in idx))
            B.set_entry(op, idx, combine((c, cols[i])
                                         for i, c in image.items()))
    grading = Grading(B, ca.grading.group, deg, ca.grading.graded_ops)
    return B, grading, LinearMap(A, B, cols)


def test_morphism_scan_matches_reference():
    rng = random.Random(7)
    both = [PRODUCT, INVOLUTION]
    entries = triple_corpus()
    maps = []
    # monomial triple automorphisms and their envelope extensions
    for entry, psi in seeded_automorphisms(entries, seed=0, want=6):
        maps.append((psi, [TRIPLE], None))
        maps.append((extend_automorphism(entry.triple, psi), both, None))
    # a rotation of the dim-2 triple of M3 and its extension
    W = next(e.triple for e in entries if e.name.startswith("GrW M3"))
    F = W.field
    rotation = LinearMap(W.algebra, W.algebra, [
        {0: F.scalar(3) / F.scalar(5), 1: F.scalar(4) / F.scalar(5)},
        {0: F.scalar(-4) / F.scalar(5), 1: F.scalar(3) / F.scalar(5)}])
    maps.append((rotation, [TRIPLE], None))
    maps.append((extend_automorphism(W, rotation), both, None))
    # reconstruction maps of corpus algebras, as built and sheared
    for entry in algebra_corpus()[::8]:
        ca = entry.build()
        psi, env, _ = reconstruct_iso(ca.algebra, ca.grading)
        maps.append((psi, both, (ca.grading, env.grading)))
        B, grading, shear = sheared(ca)
        psi, env, _ = reconstruct_iso(B, grading)
        maps.append((psi, both, (grading, env.grading)))
        maps.append((shear, both, (ca.grading, grading)))
    monomial = [all(len(c) == 1 for c in f.columns) for f, _, _ in maps]
    assert any(monomial) and not all(monomial)
    failed = 0
    for f, ops, gradings in maps:
        assert same(check_morphism(f, ops, gradings),
                    ref_check_morphism(f, ops, gradings))
        for g in broken(f, rng):
            new, ref = (check_morphism(g, ops, gradings),
                        ref_check_morphism(g, ops, gradings))
            assert same(new, ref)
            failed += not ref.passed
    assert failed >= len(maps)


def random_sides(F, rng) -> list:
    """One to three sides of terms (key, c, row) over a few keys: the first
    side random, with empty rows, +1, -1 and other coefficients, and pairs
    of terms that cancel; each further side the first one shuffled, some
    of its terms split in two, some coefficients scaled and some terms
    added.  Rows are shared between terms, as tensor rows are."""
    def coefficient():
        pick = rng.random()
        if pick < 0.35:
            return F.one
        if pick < 0.5:
            return -F.one
        while (c := random_scalar(F, rng)).is_zero():
            pass
        return c / F.scalar(rng.choice([1, 1, 2, 3]))

    def row():
        vec = {}
        for k in rng.sample(range(4), rng.choice([0, 1, 1, 2, 3])):
            vec[k] = coefficient()
        return vec
    rows = [row() for _ in range(6)]
    first = []
    for _ in range(rng.randint(0, 14)):
        key, c, r = rng.randrange(5), coefficient(), rng.choice(rows)
        first.append((key, c, r))
        if rng.random() < 0.2:
            first.append((key, -c, r))
    sides = [first]
    for _ in range(rng.randint(0, 2)):
        other = []
        for key, c, r in first:
            if rng.random() < 0.2:
                part = coefficient()
                if part != c:
                    other += [(key, part, r), (key, c - part, r)]
                    continue
            if rng.random() < 0.1:
                c = c * F.scalar(2)
            other.append((key, c, r))
        for _ in range(rng.choice([0, 0, 1])):
            other.append((rng.randrange(5), coefficient(), rng.choice(rows)))
        rng.shuffle(other)
        sides.append(other)
    return sides


@pytest.mark.parametrize("conductor", [1, 2, 4])
def test_kernel_matches_reference_on_random_term_streams(conductor):
    # the one-pass kernel reads each side once and writes no row
    F = CycloField(conductor)
    rng = random.Random(f"kernel-{conductor}")
    seen = dict.fromkeys(("equal", "unequal", "cancelled", "empty"), 0)
    for _ in range(400):
        sides = random_sides(F, rng)
        rows = [(r, dict(r)) for side in sides for _, _, r in side]
        got = _unequal_sums(*(iter(side) for side in sides))
        assert got == ref_unequal_sums(*sides)
        assert all(r == before for r, before in rows)
        seen["equal"] += sum(not bad for bad in got)
        seen["unequal"] += sum(bool(bad) for bad in got)
        seen["cancelled"] += len({key for key, _, r in sides[0] if r}
                                 - ref_sums(sides[0]).keys())
        seen["empty"] += sum(not r for _, _, r in sides[0])
    assert min(seen.values()) > 50


def test_scans_leave_every_tensor_unchanged(corpus):
    # the kernel stores a tensor row itself as a key's sum when the key's
    # first term has coefficient +1, and must copy it before a second term
    # is added: with {x,x,x} = p - q, the terms of {{x,x,x},x,x} are
    # +1 {p,x,x} and then -1 {q,x,x}, and with xx = p - q those of (xx)x
    # are +1 px and then -1 qx; the corpus adds many more such keys
    F = CycloField(1)
    x, p, q, y = range(4)
    W = OmegaAlgebra(F, 4, {TRIPLE: 3})
    A = OmegaAlgebra(F, 4, {PRODUCT: 2, INVOLUTION: 1})
    for alg, op, head in ((W, TRIPLE, (x, x)), (A, PRODUCT, (x,))):
        alg.set_entry(op, head + (x,), {p: F.one, q: -F.one})
        alg.set_entry(op, (p,) + head, {y: F.one})
        alg.set_entry(op, (q,) + head, {y: F.one})
    for i in range(4):
        A.set_entry(INVOLUTION, (i,), {i: F.one})
    cases = [(TripleSystem(W), A)] + [(V, env.algebra) for V, env in corpus]
    # a copy down to the rows (scalars are immutable)
    before = [(copied(V.algebra).tensors, copied(B).tensors) for V, B in cases]
    for V, B in cases:
        check_at2(V, exhaustive_limit=V.dim)
        check_at2(V, exhaustive_limit=V.dim - 1, samples=500)
        check_associative(B)
        check_involution(B)
        for alg in (V.algebra, B):
            check_morphism(identity_map(alg))
    assert [(V.algebra.tensors, B.tensors) for V, B in cases] == before


@pytest.mark.parametrize("d", [1, 2, 3, 9, 16, 17, 36, 100])
def test_bulk_draw_equals_randrange(d):
    for seed, n in itertools.product(range(3), (3000, 10 ** 4)):
        rng = random.Random(seed)
        want = [tuple(rng.randrange(d) for _ in range(5)) for _ in range(n)]
        assert _draw_tuples(random.Random(seed), d, n) == want

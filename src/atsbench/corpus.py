"""The shipped instance corpus.

The instances the benchmark and the tests sweep: thirty-plus
matrix-algebra configurations spanning the three classified families at
dimension at most 16, their induced graded triples (the triple corpus),
a few engineered non-simple triples, and seeded triple automorphisms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .classify import ClassLabel, classify_conductor
from .constructions import ExchangePairParams, InvolutionParams
from .groups import AbelianGroup, Bicharacter, Subgroup, trivial_subgroup
from .omega import TRIPLE, LinearMap, check_morphism
from .scalars import CycloField
from .triples import (TripleSystem, direct_sum_triple, scalar_triple,
                      triple_from, zero_triple)

Z2 = AbelianGroup(0, (2,))
Z4 = AbelianGroup(0, (4,))
V4 = AbelianGroup(0, (2, 2))


def _trivial(G):
    T = trivial_subgroup(G)
    return T, Bicharacter.from_generator_matrix(T, (), [])


def symplectic_subgroup(G, gens):
    """T = <gens> with beta pairing gens[2k] with gens[2k+1]."""
    T = Subgroup(G, gens)
    matrix = [[0] * len(gens) for _ in gens]
    for k in range(len(gens) // 2):
        matrix[2 * k][2 * k + 1] = 1
        matrix[2 * k + 1][2 * k] = -1
    return T, Bicharacter.from_generator_matrix(T, gens, matrix)


# ---------------------------------------------------------------------------
# matrix algebra corpus (>= 30 labels, dims <= 16, all three cases)
# ---------------------------------------------------------------------------

@dataclass
class CorpusEntry:
    name: str
    label: ClassLabel
    field: CycloField

    def build(self):
        return self.label.build(self.field)


def _entry(name, params):
    label = ClassLabel(params, name=name)
    return CorpusEntry(name, label, CycloField(classify_conductor(label)))


def algebra_corpus() -> list[CorpusEntry]:
    out = []
    # --- simple algebras over the trivial support
    Tt, bt = _trivial(Z2)
    e, u = Z2.identity, Z2.element((1,))
    for g0 in (e, u):
        for g1 in (e, u):
            out.append(_entry(
                f"M2 Z2 g0={g0} g1={g1}",
                InvolutionParams(group=Z2, T=Tt, beta=bt, kappa0=(1,),
                                 gamma0=(g0,), kappa1=(1,), gamma1=(g1,),
                                 delta=1, g=e)))
    T4, b4 = _trivial(Z4)
    for g0c, g1c in ((0, 0), (0, 2), (2, 0), (1, 1), (1, 3), (3, 3)):
        g0, g1 = Z4.element((g0c,)), Z4.element((g1c,))
        g = Z4.element((-2 * g0c,))
        out.append(_entry(
            f"M2 Z4 g0={g0} g1={g1}",
            InvolutionParams(group=Z4, T=T4, beta=b4, kappa0=(1,),
                             gamma0=(g0,), kappa1=(1,), gamma1=(g1,),
                             delta=1, g=g)))
    # M3: even self-dual block (S = I) next to an odd one
    for g1 in (e, u):
        out.append(_entry(
            f"M3 Z2 even+odd g1={g1}",
            InvolutionParams(group=Z2, T=Tt, beta=bt, kappa0=(2,),
                             gamma0=(e,), kappa1=(1,), gamma1=(g1,),
                             delta=1, g=e, S_signs0=(1,))))
    # M3: two odd blocks with distinct degrees
    out.append(_entry(
        "M3 Z2 split",
        InvolutionParams(group=Z2, T=Tt, beta=bt, kappa0=(1, 1),
                         gamma0=(e, u), kappa1=(1,), gamma1=(e,),
                         delta=1, g=e)))
    # M4: symplectic-type involution (S-blocks with sign -1, delta = -1)
    for g1 in (e, u):
        out.append(_entry(
            f"M4 Z2 symplectic g1={g1}",
            InvolutionParams(group=Z2, T=Tt, beta=bt, kappa0=(2,),
                             gamma0=(e,), kappa1=(2,), gamma1=(g1,),
                             delta=-1, g=e,
                             S_signs0=(-1,), S_signs1=(-1,))))
    out.append(_entry(
        "M4 Z2 orthogonal",
        InvolutionParams(group=Z2, T=Tt, beta=bt, kappa0=(2,), gamma0=(e,),
                         kappa1=(2,), gamma1=(u,), delta=1, g=e,
                         S_signs0=(1,), S_signs1=(1,))))
    # M4 over V4: dual-pair isotypic blocks, both signs of delta
    av, bv = V4.element((1, 0)), V4.element((0, 1))
    Tv, bvt = _trivial(V4)
    for delta in (1, -1):
        out.append(_entry(
            f"M4 V4 paired delta={delta}",
            InvolutionParams(group=V4, T=Tv, beta=bvt, kappa0=(1, 1),
                             gamma0=(av, bv), m0=0, kappa1=(1, 1),
                             gamma1=(V4.identity, av + bv), m1=0,
                             delta=delta, g=av + bv)))
    # M2(D) with the full Z2^2 support: delta read off the transpose form
    Ts, bs = symplectic_subgroup(V4, (av, bv))
    for g1, g in ((V4.identity, V4.identity), (av, V4.identity),
                  (V4.identity, av + bv), (av, av)):
        delta = 1 if g in (V4.identity, av, bv) else -1
        out.append(_entry(
            f"M2(D(Z2^2)) g1={g1} g={g}",
            InvolutionParams(group=V4, T=Ts, beta=bs, kappa0=(1,),
                             gamma0=(V4.identity,), kappa1=(1,),
                             gamma1=(g1,), delta=delta, g=g)))
    # --- exchange-division case
    tz = Z2.element((1,))
    for g0 in (e, u):
        for g1 in (e, u):
            out.append(_entry(
                f"M2ex Z2 g0={g0} g1={g1}",
                InvolutionParams(group=Z2, T=Tt, beta=bt, kappa0=(1,),
                                 gamma0=(g0,), kappa1=(1,), gamma1=(g1,),
                                 delta=1, g=e, t=tz)))
    T4t = Z4.element((2,))
    for g0c, g1c in ((0, 0), (1, 1), (1, 3), (0, 2)):
        g0, g1 = Z4.element((g0c,)), Z4.element((g1c,))
        g = Z4.element((-2 * g0c,))
        out.append(_entry(
            f"M2ex Z4 g0={g0} g1={g1}",
            InvolutionParams(group=Z4, T=T4, beta=b4, kappa0=(1,),
                             gamma0=(g0,), kappa1=(1,), gamma1=(g1,),
                             delta=1, g=g, t=T4t)))
    tv = V4.element((0, 1))
    for g1 in (V4.identity, av):
        out.append(_entry(
            f"M2ex V4 g1={g1}",
            InvolutionParams(group=V4, T=Tv, beta=bvt, kappa0=(1,),
                             gamma0=(V4.identity,), kappa1=(1,),
                             gamma1=(g1,), delta=1, g=V4.identity, t=tv)))
    # --- exchange pairs
    for g0 in (e, u):
        for g1 in (e, u):
            out.append(_entry(
                f"M2pair Z2 g0={g0} g1={g1}",
                ExchangePairParams(group=Z2, T=Tt, beta=bt, kappa0=(1,),
                                   gamma0=(g0,), kappa1=(1,), gamma1=(g1,))))
    for g0c, g1c in ((0, 0), (1, 0), (1, 2), (3, 1)):
        out.append(_entry(
            f"M2pair Z4 g0=({g0c}) g1=({g1c})",
            ExchangePairParams(group=Z4, T=T4, beta=b4, kappa0=(1,),
                               gamma0=(Z4.element((g0c,)),), kappa1=(1,),
                               gamma1=(Z4.element((g1c,)),))))
    out.append(_entry(
        "M2pair V4",
        ExchangePairParams(group=V4, T=Tv, beta=bvt, kappa0=(1,),
                           gamma0=(av,), kappa1=(1,), gamma1=(bv,))))
    return out


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

@dataclass
class TripleEntry:
    name: str
    triple: TripleSystem
    expect_simple: bool
    source: CorpusEntry = None      # set for GrW triples


def triple_corpus() -> list[TripleEntry]:
    out = []
    for entry in algebra_corpus():
        ca = entry.build()
        W, _ = triple_from(ca.algebra, ca.grading, label=f"GrW {entry.name}")
        out.append(TripleEntry(f"GrW {entry.name}", W, True, entry))
    FQ = CycloField(1)
    out.append(TripleEntry("scalar", scalar_triple(FQ), True))
    out.append(TripleEntry("zero dim1", zero_triple(FQ, 1), False))
    out.append(TripleEntry("zero dim2", zero_triple(FQ, 2), False))
    out.append(TripleEntry("direct sum", direct_sum_triple(FQ, 2), False))
    return out


def seeded_automorphisms(entries: list[TripleEntry], seed: int = 0,
                         want: int = 12):
    """Seeded monomial triple automorphisms spread across the corpus,
    verified before being returned: (entry, psi) pairs.  At most three
    maps come from any one triple so several different corpus shapes
    contribute."""
    rng = random.Random(seed)
    found = []
    scalars = [1, -1, 2, -2]
    # widest triples first so several shapes contribute before the bound
    ordered = sorted((e for e in entries if e.expect_simple),
                     key=lambda e: (-e.triple.dim, e.name))
    for entry in ordered:
        W = entry.triple
        d = W.dim
        field = W.field
        tries = here = 0
        while tries < 40 and here < 3 and len(found) < want:
            tries += 1
            perm = list(range(d))
            rng.shuffle(perm)
            vals = [field.scalar(rng.choice(scalars)) for _ in range(d)]
            cols = [{perm[k]: vals[k]} for k in range(d)]
            psi = LinearMap(W.algebra, W.algebra, cols)
            if check_morphism(psi, ops=[TRIPLE]).passed:
                if not any(e is entry and p == psi for e, p in found):
                    found.append((entry, psi))
                    here += 1
        if len(found) >= want:
            break
    return found


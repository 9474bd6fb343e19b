"""Associative triple systems of the second kind and their envelopes.

A triple system here is a space W with a ternary product subject to

    {{u,v,x},y,z} = {u,{y,x,v},z} = {u,v,{x,y,z}}.

Every such system embeds as the degree -1 part of a 3-graded
associative algebra with involution (the envelope built below from the
left/right multiplication operators); conversely any algebra with
involution and a 3-grading flipped by the involution yields a triple
via {x,y,z} = x phi(y) z.  Both directions are implemented with exact
round-trip verification.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass

from . import linalg
from .groups import AbelianGroup, g_part, prepend_z, z_part, zg_element
from .omega import (INVOLUTION, PRODUCT, TRIPLE, Grading, LinearMap,
                    OmegaAlgebra, SparseVec, VerificationError,
                    VerificationReport, _slot_views, _unequal_sums,
                    check_morphism, combine, ideal_closure, is_simple)
from .scalars import CycloField


@dataclass
class TripleSystem:
    algebra: OmegaAlgebra            # single TRIPLE operator
    grading: Grading = None          # optional G-grading
    label: str = ""

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def field(self) -> CycloField:
        return self.algebra.field

    def row(self, i, j, k) -> SparseVec:
        return self.algebra.row(TRIPLE, (i, j, k))


def triple_from(algebra: OmegaAlgebra, grading: Grading,
                label: str = "") -> tuple[TripleSystem, list[int]]:
    """The triple on the degree -1 part of a Z x G (or Z) graded algebra
    with involution: {x,y,z} = x phi(y) z.

    Returns the system plus the list of source basis indices.  The G
    part of the grading restricts to W when the grading group is larger
    than Z.
    """
    minus = [i for i, d in enumerate(grading.degmap) if z_part(d) == -1]
    if not minus:
        raise ValueError("degree -1 component is zero")
    for i in minus:
        img = algebra.row(INVOLUTION, (i,))
        for j in img:
            if z_part(grading.degmap[j]) != 1:
                raise ValueError("involution does not flip the 3-grading")
    pos = {a: k for k, a in enumerate(minus)}
    field = algebra.field
    W = OmegaAlgebra(field, len(minus), {TRIPLE: 3},
                     [algebra.basis_labels[i] for i in minus])
    phi_rows = [algebra.row(INVOLUTION, (v,)) for v in minus]
    for ku, u in enumerate(minus):
        for kv, phi_v in enumerate(phi_rows):
            left = algebra.apply_slot(PRODUCT, 1, phi_v, (u,))
            if not left:
                continue
            for kw, w in enumerate(minus):
                out = algebra.apply_slot(PRODUCT, 0, left, (w,))
                if not out:
                    continue
                if not all(j in pos for j in out):
                    raise VerificationError(
                        "triple product must stay in the degree -1 component")
                W.set_entry(TRIPLE, (ku, kv, kw), {pos[j]: c for j, c in out.items()})
    w_grading = None
    if grading.group.ncoords > 1:
        G = AbelianGroup(grading.group.free_rank - 1, grading.group.torsion)
        degmap = tuple(g_part(G, grading.degmap[i]) for i in minus)
        w_grading = Grading(W, G, degmap)
    return TripleSystem(W, w_grading, label=label), minus


# the violation texts of check_at2, formatted with the basis 5-tuple
_AT2_MIDDLE = "{{{{u,v,x}},y,z}} != {{u,{{y,x,v}},z}} at {}"
_AT2_RIGHT = "{{{{u,v,x}},y,z}} != {{u,v,{{x,y,z}}}} at {}"


def _at2_violations(bad_mid: set, bad_rhs: set, at) -> list:
    """The texts for the keys at which the middle or the right side
    differs, in key order, the middle one first; at(key) is the key's
    basis 5-tuple."""
    return [text.format(at(key)) for key in sorted(bad_mid | bad_rhs)
            for text, bad in ((_AT2_MIDDLE, bad_mid), (_AT2_RIGHT, bad_rhs))
            if key in bad]


def _draw_tuples(rng: random.Random, d: int, n: int) -> list:
    """The n tuples of five rng.randrange(d) values each, drawn in bulk.

    For d < 2**32 (which a dim-d table implies), randrange(d) keeps the
    top k = d.bit_length() bits of the next 32-bit Mersenne Twister word
    if they are below d and draws again otherwise; getrandbits(32 * m)
    holds the next m words, in order in its native-endian bytes.  So
    chunks of 4096 words give the same values as the randrange calls."""
    shift = 32 - d.bit_length()

    def values():
        while True:
            words = memoryview(rng.getrandbits(32 * 4096).to_bytes(
                4 * 4096, sys.byteorder)).cast("I")
            yield from [v for w in words if (v := w >> shift) < d]
    stream = values()
    return list(itertools.islice(zip(*[stream] * 5), n))


def check_at2(W: TripleSystem, seed: int = 0, exhaustive_limit: int = 12,
              samples: int = 10000) -> VerificationReport:
    """The defining identities on basis 5-tuples: exhaustive up to
    exhaustive_limit (dim^5 tuples), seeded random tuples beyond.

    Each side is a sum of stored rows pushed through a second product,
    compared in one kernel (_unequal_sums): {{u,v,x},y,z} sums c {m,y,z}
    over the terms c e_m of the row {u,v,x}, {u,{y,x,v},z} sums
    c {u,m,z} over the terms of {y,x,v}, and {u,v,{x,y,z}} sums
    c {u,v,m} over the terms of {x,y,z}.  The exhaustive scan is
    row-wise, one first index u at a time: the sides of all (v, x, y, z)
    are accumulated at once and compared once, and a u in the first slot
    of no row has every side zero.  The sampled scan draws all `samples`
    tuples first, each the values of five rng.randrange(dim) calls taken
    in bulk (_draw_tuples), and keys each side's terms by the tuple's
    position, so a tuple drawn twice is checked twice.  Either way
    `checked` counts every tuple (dim^5, or `samples`), and the
    violations come in tuple order, the {u,{y,x,v},z} message before the
    {u,v,{x,y,z}} one for each tuple."""
    table = W.algebra.tensors[TRIPLE]
    d = W.dim
    if d <= exhaustive_limit:
        report = VerificationReport("at2-axiom", checked=d ** 5)
        rows, containing = _slot_views(table)
        for u, urows in sorted(rows.items()):
            lhs = (((v, x) + yz, c, out) for (v, x), row in urows
                   for m, c in row.items() for yz, out in rows.get(m, ()))
            mid = (((v, x, y, z), c, out) for (m, z), out in urows
                   for (y, x, v), c in containing.get(m, ()))
            rhs = (((v, x, y, z), c, out) for (v, m), out in urows
                   for (x, y, z), c in containing.get(m, ()))
            bad_mid, bad_rhs = _unequal_sums(lhs, mid, rhs)
            report.violations.extend(_at2_violations(
                bad_mid, bad_rhs, lambda key: (u,) + key))
        return report
    rng = random.Random(seed)
    drawn = _draw_tuples(rng, d, samples)
    lhs = ((n, c, table[m, y, z]) for n, (u, v, x, y, z) in enumerate(drawn)
           for m, c in table.get((u, v, x), {}).items() if (m, y, z) in table)
    mid = ((n, c, table[u, m, z]) for n, (u, v, x, y, z) in enumerate(drawn)
           for m, c in table.get((y, x, v), {}).items() if (u, m, z) in table)
    rhs = ((n, c, table[u, v, m]) for n, (u, v, x, y, z) in enumerate(drawn)
           for m, c in table.get((x, y, z), {}).items() if (u, v, m) in table)
    return VerificationReport("at2-axiom", checked=len(drawn), violations=(
        _at2_violations(*_unequal_sums(lhs, mid, rhs), drawn.__getitem__)))


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------

@dataclass
class Envelope:
    triple: TripleSystem
    algebra: OmegaAlgebra
    grading: Grading                 # Z x G (or plain Z) grading
    dim_L: int
    dim_R: int
    e1: SparseVec
    e2: SparseVec
    L_space: linalg.RowSpace         # flattened operator pairs (f, g)
    R_space: linalg.RowSpace

    @property
    def w_offset(self) -> int:
        return self.dim_L

    @property
    def wbar_offset(self) -> int:
        return self.dim_L + self.triple.dim

    @property
    def r_offset(self) -> int:
        return self.dim_L + 2 * self.triple.dim


def _flatten(f, g) -> SparseVec:
    """The pair of d x d matrices (lists of d sparse rows) as one sparse
    vector of width 2 d^2: f[r][c] at r d + c, g[r][c] at d^2 + r d + c."""
    d = len(f)
    return {off + r * d + c: x for off, m in ((0, f), (d * d, g))
            for r, row in enumerate(m) for c, x in row.items()}


def _transpose(vectors, d: int, off: int = 0) -> list[SparseVec]:
    """The transpose of sparse vectors over [0, d): vector k of the result
    holds entry k of vectors[i] at index off + i."""
    out = [{} for _ in range(d)]
    for i, v in enumerate(vectors):
        for k, c in v.items():
            out[k][off + i] = c
    return out


def _split(flat: SparseVec, d: int):
    f, g = [{} for _ in range(d)], [{} for _ in range(d)]
    for key, x in flat.items():
        half, rc = divmod(key, d * d)
        r, c = divmod(rc, d)
        (g if half else f)[r][c] = x
    return f, g


def _coords(space: linalg.RowSpace, offset: int, flat, what: str) -> SparseVec:
    """Coordinates of flat over the rows of space, as a sparse vector
    shifted by offset; a flat outside the span raises VerificationError."""
    coords = space.coordinates(flat)
    if coords is None:
        raise VerificationError(what)
    return {offset + k: c for k, c in coords.items()}


def loos_envelope(W: TripleSystem) -> Envelope:
    """L + W + Wbar + R with the 2x2-block product and the bar involution.

    L is spanned by the unit pair together with all lambda(x, y) =
    (l(x,y), l(y,x)); R by the unit and rho(x, y) = (r(y,x), r(x,y)).
    Operator pairs are row-reduced exactly; the subalgebra claims are
    verified while the product table is assembled.
    """
    field = W.field
    d = W.dim

    def operator(index):
        # the d x d matrix whose column k is W.row(*index(k))
        return _transpose([W.row(*index(k)) for k in range(d)], d)

    pairs = list(itertools.product(range(d), repeat=2))
    l_ops = {(i, j): operator(lambda k: (i, j, k)) for i, j in pairs}
    # r(z, y) x = {x, y, z}: operator of the pair (z=i, y=j)
    r_ops = {(i, j): operator(lambda k: (k, j, i)) for i, j in pairs}
    lams = [_flatten(l_ops[i, j], l_ops[j, i]) for i, j in pairs]
    rhos = [_flatten(r_ops[j, i], r_ops[i, j]) for i, j in pairs]

    ident = [{i: field.one} for i in range(d)]
    e1_flat = _flatten(ident, ident)   # also e2 = (id, id) in E^op + E
    L_space = linalg.RowSpace(field, 2 * d * d)
    R_space = linalg.RowSpace(field, 2 * d * d)
    for space, generators in ((L_space, lams), (R_space, rhos)):
        space.insert(e1_flat)
        for gen in generators:
            if gen:     # a zero operator pair cannot raise the rank
                space.insert(gen)

    nL, nR = L_space.rank, R_space.rank
    dim = nL + 2 * d + nR
    w_off, wbar_off, r_off = nL, nL + d, nL + 2 * d
    labels = ([f"L{k}" for k in range(nL)] + [f"w{k}" for k in range(d)] +
              [f"wbar{k}" for k in range(d)] + [f"R{k}" for k in range(nR)])
    alg = OmegaAlgebra(field, dim, {PRODUCT: 2, INVOLUTION: 1}, labels)

    def L_coords(flat, what):
        return _coords(L_space, 0, flat, f"{what} escaped the L subalgebra")

    def R_coords(flat, what):
        return _coords(R_space, r_off, flat, f"{what} escaped the R subalgebra")

    L_rows = [_split(row, d) for row in L_space.rows]
    R_rows = [_split(row, d) for row in R_space.rows]

    # L x L -> L: (f,g)(f',g') = (f f', g' g)
    for a, (f, g) in enumerate(L_rows):
        for b, (f2, g2) in enumerate(L_rows):
            prod = _flatten(linalg.mat_mul(f, f2), linalg.mat_mul(g2, g))
            alg.set_entry(PRODUCT, (a, b), L_coords(prod, "L*L"))
    # R x R -> R: (b1,b2)(b1',b2') = (b1' b1, b2 b2')
    for a, (f, g) in enumerate(R_rows):
        for b, (f2, g2) in enumerate(R_rows):
            prod = _flatten(linalg.mat_mul(f2, f), linalg.mat_mul(g, g2))
            alg.set_entry(PRODUCT, (r_off + a, r_off + b), R_coords(prod, "R*R"))
    # L x W -> W: a x = f(x);   Wbar x L -> Wbar: y a = g(y)
    for a, (f, g) in enumerate(L_rows):
        for k, (fk, gk) in enumerate(zip(_transpose(f, d, w_off),
                                         _transpose(g, d, wbar_off))):
            alg.set_entry(PRODUCT, (a, w_off + k), fk)
            alg.set_entry(PRODUCT, (wbar_off + k, a), gk)
    # W x R -> W: x b = b1(x);   R x Wbar -> Wbar: b y = b2(y)
    for a, (b1, b2) in enumerate(R_rows):
        for k, (b1k, b2k) in enumerate(zip(_transpose(b1, d, w_off),
                                           _transpose(b2, d, wbar_off))):
            alg.set_entry(PRODUCT, (w_off + k, r_off + a), b1k)
            alg.set_entry(PRODUCT, (r_off + a, wbar_off + k), b2k)
    # W x Wbar -> L and Wbar x W -> R
    for (i, j), lam, rho in zip(pairs, lams, rhos):
        alg.set_entry(PRODUCT, (w_off + i, wbar_off + j),
                      L_coords(lam, "lambda(x,y)"))
        alg.set_entry(PRODUCT, (wbar_off + i, w_off + j),
                      R_coords(rho, "rho(y,x)"))
    # involution: bar swaps pair components on L and R, exchanges W and Wbar
    for a, (f, g) in enumerate(L_rows):
        alg.set_entry(INVOLUTION, (a,),
                      L_coords(_flatten(g, f), "bar on L"))
    for a, (f, g) in enumerate(R_rows):
        alg.set_entry(INVOLUTION, (r_off + a,),
                      R_coords(_flatten(g, f), "bar on R"))
    for k in range(d):
        alg.set_entry(INVOLUTION, (w_off + k,), {wbar_off + k: field.one})
        alg.set_entry(INVOLUTION, (wbar_off + k,), {w_off + k: field.one})

    grading = _envelope_grading(W, alg, nL, nR, L_rows, R_rows, d)
    e1 = L_coords(e1_flat, "e1")
    e2 = R_coords(e1_flat, "e2")
    return Envelope(W, alg, grading, nL, nR, e1, e2, L_space, R_space)


def _envelope_grading(W: TripleSystem, alg, nL, nR, L_rows, R_rows, d):
    """Z grading (L, R at 0; W at -1; Wbar at +1), refined by the G
    degrees of W when the triple is graded: an L or R row takes the one
    shift deg(e_i) - deg(e_k) of the terms e_k -> e_i of its operators,
    which the interned degrees keep once computed."""
    if W.grading is None:
        Z = AbelianGroup(1)
        degmap = ([Z.element((0,))] * nL + [Z.element((-1,))] * d +
                  [Z.element((1,))] * d + [Z.element((0,))] * nR)
        return Grading(alg, Z, tuple(degmap), graded_ops=frozenset({PRODUCT}))
    G = W.grading.group
    ZG = prepend_z(G)
    wdeg = W.grading.degmap

    def operator_shift(pair, what):
        shift = None
        for m in pair:
            for i, row in enumerate(m):
                for k in row:
                    s = wdeg[i] - wdeg[k]
                    if shift is not None and s is not shift:
                        raise VerificationError(f"{what} mixes G-degrees")
                    shift = s
        return shift if shift is not None else G.identity

    degmap = []
    for a, pair in enumerate(L_rows):
        degmap.append(zg_element(ZG, 0, operator_shift(pair, f"L row {a}")))
    degmap.extend(zg_element(ZG, -1, g) for g in wdeg)
    degmap.extend(zg_element(ZG, 1, g) for g in wdeg)
    for a, pair in enumerate(R_rows):
        degmap.append(zg_element(ZG, 0, operator_shift(pair, f"R row {a}")))
    return Grading(alg, ZG, tuple(degmap), graded_ops=frozenset({PRODUCT}))


def check_associative(alg: OmegaAlgebra) -> VerificationReport:
    """(e_i e_j) e_k = e_i (e_j e_k) on all dim^3 basis triples, row-wise
    (Gustavson), one i at a time: the left sides of all (j, k) are the
    sums of c e_m e_k over the terms c e_m of the rows e_i e_j, and the
    right sides the sums of c e_i e_m over the rows e_j e_k with a term
    c e_m.  Both are accumulated at once and compared once; an i with
    e_i A = 0 has both sides zero.  `checked` counts all dim^3 triples,
    and the violations come in (i, j, k) order."""
    report = VerificationReport("associativity", checked=alg.dim ** 3)
    rows, containing = _slot_views(alg.tensors[PRODUCT])
    for i, irows in sorted(rows.items()):
        lhs = (((j, k), c, out) for (j,), ij in irows
               for m, c in ij.items() for (k,), out in rows.get(m, ()))
        rhs = ((jk, c, out) for (m,), out in irows
               for jk, c in containing.get(m, ()))
        bad, = _unequal_sums(lhs, rhs)
        report.violations.extend(f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})"
                                 for j, k in sorted(bad))
    return report


def recover_triple(env: Envelope) -> TripleSystem:
    """W(A(W)): the triple on the degree -1 part of the envelope; equals
    the original triple tensor-identically (asserted by callers)."""
    W2, _ = triple_from(env.algebra, env.grading)
    return W2


def triple_is_simple(W: TripleSystem, env: Envelope = None) -> bool:
    """W is simple iff its envelope is, as an algebra with involution
    (Loos, "Assoziative Tripelsysteme", 1972): the exact decision on
    A(W), whose SimplicityUndecided passes through.  A True is checked
    against what disproves it in W, a zero triple product or a basis
    vector whose ideal closure is proper; either raises VerificationError."""
    simple = is_simple((env or loos_envelope(W)).algebra)
    alg = W.algebra
    if simple and (not alg.tensors[TRIPLE] or any(
            ideal_closure(alg, [alg.basis_vec(i)]).rank < W.dim
            for i in range(W.dim))):
        raise VerificationError("simplicity transfer violated: envelope says "
                                "True, triple has a zero product or a "
                                "proper ideal")
    return simple


# ---------------------------------------------------------------------------
# reconstruction and automorphism extension
# ---------------------------------------------------------------------------

def pierce_split(algebra: OmegaAlgebra, grading: Grading):
    """Spans of A_1 A_-1 and A_-1 A_1 plus the index lists, for the
    0-component decomposition of a simple 3-graded algebra."""
    minus = [i for i, dg in enumerate(grading.degmap) if z_part(dg) == -1]
    zero = [i for i, dg in enumerate(grading.degmap) if z_part(dg) == 0]
    plus = [i for i, dg in enumerate(grading.degmap) if z_part(dg) == 1]
    field = algebra.field
    pm = linalg.RowSpace(field, algebra.dim)
    mp = linalg.RowSpace(field, algebra.dim)
    pm_products, mp_products = [], []
    for p in plus:
        for m in minus:
            v = algebra.row(PRODUCT, (p, m))
            pm_products.append(((p, m), v))
            pm.insert(v)
    for m in minus:
        for p in plus:
            v = algebra.row(PRODUCT, (m, p))
            mp_products.append(((m, p), v))
            mp.insert(v)
    return minus, zero, plus, pm, mp, pm_products, mp_products


def reconstruct_iso(algebra: OmegaAlgebra, grading: Grading):
    """The isomorphism A -> A(W(A)) for a simple 3-graded algebra with
    involution and A_-1 != 0: identity on degree -1, involution-conjugate
    on degree +1, multiplicative on the 0 part.

    Returns (psi, envelope, W).  psi is verified as a bijective morphism
    of algebras with involution respecting the gradings; verification
    failure raises.
    """
    field = algebra.field
    if not is_simple(algebra):
        raise ValueError("reconstruction requires a simple algebra with involution")
    W, minus = triple_from(algebra, grading)
    env = loos_envelope(W)
    pos = {a: k for k, a in enumerate(minus)}
    _, zero, plus, pm, mp, pm_products, mp_products = pierce_split(algebra, grading)

    cols = [None] * algebra.dim
    for a in minus:
        cols[a] = {env.w_offset + pos[a]: field.one}
    for b in plus:
        img = algebra.row(INVOLUTION, (b,))
        if not all(j in pos for j in img):
            raise VerificationError(
                "involution must map degree +1 into degree -1")
        cols[b] = {env.wbar_offset + pos[j]: c for j, c in img.items()}

    products = pm_products + mp_products
    prod_cols = [v for _, v in products]
    env_products = []
    for (x, y), _ in products:
        env_products.append(env.algebra.mul(cols[x], cols[y]))
    for x in zero:
        sol = linalg.solve(field, prod_cols, algebra.basis_vec(x),
                           algebra.dim)
        if sol is None:
            raise VerificationError("A_0 is not spanned by A_1 A_-1 + A_-1 A_1")
        cols[x] = combine((c, env_products[j]) for j, c in sol.items())

    psi = LinearMap(algebra, env.algebra, cols)
    if not psi.is_bijective():
        raise VerificationError("reconstruction map is not bijective")
    rep = check_morphism(psi, ops=[PRODUCT, INVOLUTION],
                         gradings=(grading, env.grading))
    if not rep.passed:
        raise VerificationError(f"reconstruction map fails: {rep.violations[:3]}")
    return psi, env, W


def extend_automorphism(W: TripleSystem, psi: LinearMap,
                        env: Envelope = None) -> LinearMap:
    """Extend a triple automorphism psi of W to an automorphism of the
    envelope: psi on W, conjugated by the involution on Wbar, and
    lambda(x,y) -> lambda(psi x, psi y) on the operator parts.

    Since l(psi x, psi y) = P l(x,y) P^-1 for the matrix P of psi (and
    likewise for r), every operator pair (f, g) spanning L or R maps to
    (P f P^-1, P g P^-1).  The extension is verified as an automorphism
    of the envelope (with involution and grading); the images landing
    back in L/R is the well-definedness guarantee and is verified too.
    """
    rep = check_morphism(psi, ops=[TRIPLE])
    if not rep.passed or not psi.is_bijective():
        raise ValueError("psi is not a triple automorphism")
    env = env or loos_envelope(W)
    field = W.field
    d = W.dim
    alg = env.algebra
    psi_cols = psi.columns
    P = _transpose(psi_cols, d)
    P_inv = linalg.invert_matrix(field, P)

    def conjugate(m):
        return linalg.mat_mul(linalg.mat_mul(P, m), P_inv)

    cols = [None] * alg.dim
    for name, space, off in (("L", env.L_space, 0),
                             ("R", env.R_space, env.r_offset)):
        for a, row in enumerate(space.rows):
            f, g = _split(row, d)
            cols[off + a] = _coords(
                space, off, _flatten(conjugate(f), conjugate(g)),
                f"automorphism image escapes {name} (well-definedness)")
    for k in range(d):
        cols[env.w_offset + k] = {env.w_offset + i: c
                                  for i, c in psi_cols[k].items()}
        cols[env.wbar_offset + k] = {env.wbar_offset + i: c
                                     for i, c in psi_cols[k].items()}

    extended = LinearMap(alg, alg, cols)
    # the extension is an automorphism of the 3-graded algebra with
    # involution; a triple automorphism need not respect a finer G-grading
    from .omega import pi1_coarsening
    z_grading = (pi1_coarsening(env.grading)
                 if env.grading.group.ncoords > 1 else env.grading)
    rep = check_morphism(extended, ops=[PRODUCT, INVOLUTION],
                         gradings=(z_grading, z_grading))
    if not rep.passed or not extended.is_bijective():
        raise VerificationError(
            f"extension fails verification: {rep.violations[:3]}")
    return extended


# ---------------------------------------------------------------------------
# hand-built triples for engineered corpus instances
# ---------------------------------------------------------------------------

def scalar_triple(field: CycloField) -> TripleSystem:
    """W = F with {x,y,z} = xyz."""
    alg = OmegaAlgebra(field, 1, {TRIPLE: 3}, ["w"])
    alg.set_entry(TRIPLE, (0, 0, 0), {0: field.one})
    return TripleSystem(alg, label="scalar")


def zero_triple(field: CycloField, dim: int = 1) -> TripleSystem:
    """All products zero; never simple."""
    return TripleSystem(OmegaAlgebra(field, dim, {TRIPLE: 3}), label="zero")


def direct_sum_triple(field: CycloField, copies: int = 2) -> TripleSystem:
    """Componentwise xyz on F^copies; a proper ideal per component."""
    alg = OmegaAlgebra(field, copies, {TRIPLE: 3})
    for k in range(copies):
        alg.set_entry(TRIPLE, (k, k, k), {k: field.one})
    return TripleSystem(alg, label=f"direct-sum-{copies}")

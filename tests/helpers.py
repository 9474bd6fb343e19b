"""Shared test oracles: dense exact matrices, plain-Fraction cyclotomic
arithmetic and a complex-float embedding, plus small routines only the
tests use.

The dense-matrix routines are an independent implementation (plain list
arithmetic, no sparse tensors) used to cross-check structure constants;
the `ref_*` routines redo Q(zeta_N) arithmetic on tuples of `Fraction`s
(schoolbook convolution, long division by the cyclotomic polynomial,
Gauss-Jordan for inverses) to cross-check `Scalar`, and
`ref_antimap_candidates` is the standalone propagation loop that
`classify._antimap_candidates` is checked against, `ref_phi_involution`
the entrywise Phi^{-1} X^* Phi loop the built involutions are checked
against, `ref_pairwise_census` the census that witnesses and refutes
every pair on its own and stores every pair's record in a
`PairwiseCensus`, the oracle for the census through isomorphism
classes, `ref_enumerate_labels` the label enumeration that checks every
candidate of the dimension bound and keeps those that pass, the oracle for
the enumeration that solves the constraints, `ref_all_subgroups` the
subgroup list that closes every generator set of up to `G.ncoords`
elements, the oracle for the one that grows spans, `ref_standard_realization`
(Kronecker products of clock and shift matrices, `MonoMatrix`) with
`ref_transpose_form` and `ref_exchange_double_division` (the double of a
general algebra with involution in the (x, phi x), (x, -phi x) basis,
re-sorted) the oracles for the division algebras built from their
structure constants, `ROTATED_SPLIT_TRIPLE` and `GAUSSIAN_TRIPLE` two
serialized triples kept out of the corpus (whose counts the benchmark pins), and
the `ref_check_*` scans, run by the per-tuple harness
`scan`, evaluate every basis tuple (or stored entry) one by one, the
oracle for the checks that compare summed rows or make one pass over the
stored entries, and `ref_unequal_sums` sums each key's terms apart
(`ref_sums`), the oracle for the one-pass kernel behind those checks;
`RefRowSpace` and `ref_solve`/`ref_invert_matrix`/`ref_kernel` are the
dense elimination kernel that the sparse `linalg` is checked against;
`ref_center_basis`, `ref_graded_center_support` and
`ref_zero_divisor_candidates` are the
structure decisions by row lookups with one kernel per center part, one
kernel per component and ideal closures (with their own unit solve,
`unit_in`, and their own graded closure over chosen operators,
`ref_ideal_closure`), the oracles for the one center kernel and the
parts cut out of it, the center support and the zero-divisor tests; the
float embedding sends z_N to exp(2 pi i / N) and is used as a sanity oracle
next to the exact assertions, never instead of them.

The last section holds the routines that only tests call, kept out of
the package: `power` (of a scalar), `mono_dense`, `generator_power`,
`involution_sign`, `label_dimension` and the general `coarsen`,
`is_multiplicative` (the |T|^3 scan of a bicharacter table),
`all_quadratic_forms`, the division corpus (`classification_supports`,
`involuted_division_corpus`) and the exchange-double theorems
(`graded_division_iso`, `exchange_subgroup_transfer`, `removal_twist`).
"""

import bisect
import cmath
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm
from pathlib import Path

from atsbench import classify, scalars
from atsbench.classify import xi_shift_candidates
from atsbench.constructions import (ConstraintError, ExchangePairParams,
                                    GradedDivision, InvolutionParams,
                                    _compositions, d_inv, division_part,
                                    diagonal_solutions,
                                    exchange_double_division, part_layouts,
                                    phi_matrix)
from atsbench.corpus import symplectic_subgroup
from atsbench.linalg import RowSpace, combine, kernel, solve
from atsbench.groups import (AbelianGroup, Bicharacter, QuadraticForm,
                             Subgroup, extend_bicharacter, flip_z,
                             symplectic_decomposition, trivial_subgroup)
from atsbench.omega import (INVOLUTION, PRODUCT, TRIPLE, Grading, LinearMap,
                            OmegaAlgebra, VerificationError, VerificationReport,
                            _misgraded, check_morphism)
from atsbench.scalars import (CycloField, Scalar, cyclotomic_polynomial,
                              euler_phi)


def _dim2_triple(image) -> dict:
    """The algebra_to_dict data of a dim-2 triple over Q whose product of
    basis vectors with n indices equal to 1 is image(n) = (slot, scalar)."""
    return {"conductor": 1, "dim": 2, "operators": {"triple": 3},
            "tensor": [["triple", list(idx), *image(sum(idx))]
                       for idx in itertools.product(range(2), repeat=3)]}


# F + F on the rotated basis f_0 = (1, 1), f_1 = (1, -1): {f_a, f_b, f_c}
# = f_(a+b+c mod 2).  Not simple, though every basis vector generates W.
ROTATED_SPLIT_TRIPLE = _dim2_triple(lambda n: (n % 2, "1"))
# Q(i) with {x,y,z} = xyz on the basis 1, i: simple, but the center part
# Q(i) of its envelope shows no zero divisor over Q, so no verdict.
GAUSSIAN_TRIPLE = _dim2_triple(lambda n: (n % 2, "1" if n < 2 else "-1"))


def numeric(s: Scalar) -> complex:
    z = cmath.exp(2j * cmath.pi / s.conductor)
    return sum(float(c) * z ** k for k, c in enumerate(s.coeffs))


def ref_reduce(poly, conductor: int) -> tuple:
    """A polynomial (low to high) modulo Phi_N, as phi(N) coefficients."""
    mod = cyclotomic_polynomial(conductor)
    phi = len(mod) - 1
    out = [Fraction(c) for c in poly] + [Fraction(0)] * phi
    for k in range(len(out) - 1, phi - 1, -1):
        c = out[k]
        if c:
            for j, m in enumerate(mod):
                out[k - phi + j] -= c * m
    return tuple(out[:phi])


def ref_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(a, b, conductor: int) -> tuple:
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return ref_reduce(conv, conductor)


def ref_inverse(a, conductor: int) -> tuple:
    """Solve a * y = 1 for y: column j of the system is a * z^j."""
    phi = len(a)
    cols = [ref_mul(a, [Fraction(int(k == j)) for k in range(phi)], conductor)
            for j in range(phi)]
    rows = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))]
            for i in range(phi)]
    for c in range(phi):
        p = next(r for r in range(c, phi) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(phi):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[phi] for row in rows)


def close(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(a - b) < tol


def dense_mul(field, a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[field.zero for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for k in range(m):
            if a[i][k].is_zero():
                continue
            for j in range(p):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def dense_transpose(m):
    return [list(row) for row in zip(*m)]


def dense_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def dense_scale(c, m):
    return [[c * x for x in row] for row in m]


def to_dense(field, v, dim):
    """A sparse vector {index: Scalar} as a list of dim scalars."""
    out = [field.zero] * dim
    for i, c in v.items():
        out[i] = c
    return out


def to_sparse(v):
    """A list of scalars as a sparse vector, zeros dropped; the one way
    dense test inputs reach the sparse linear algebra."""
    return {i: c for i, c in enumerate(v) if not c.is_zero()}


class RefRowSpace:
    """The dense reference for linalg.RowSpace: rows are lists of width
    scalars, every reduction walks all of them."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = list(vec)
        combo = [self.field.zero] * len(self.rows)
        for idx, (row, p) in enumerate(zip(self.rows, self.pivots)):
            c = v[p]
            if c.is_zero():
                continue
            combo[idx] = c
            for j in range(p, self.width):
                if not row[j].is_zero():
                    v[j] = v[j] - c * row[j]
        return v, combo

    def insert(self, vec):
        v, _ = self.reduce(vec)
        pivot = next((j for j in range(self.width) if not v[j].is_zero()),
                     None)
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        v = [x * inv for x in v]
        for row in self.rows:
            c = row[pivot]
            if c.is_zero():
                continue
            for j in range(pivot, self.width):
                if not v[j].is_zero():
                    row[j] = row[j] - c * v[j]
        pos = bisect.bisect(self.pivots, pivot)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pivot)
        return True

    def coordinates(self, vec):
        v, combo = self.reduce(vec)
        if any(not x.is_zero() for x in v):
            return None
        return combo


def ref_solve(field, columns, target):
    """Dense solve of sum_j x_j columns[j] = target, free variables zero."""
    n = len(columns)
    space = RefRowSpace(field, n + 1)
    for i, t in enumerate(target):
        space.insert([col[i] for col in columns] + [t])
    if space.pivots and space.pivots[-1] == n:
        return None
    x = [field.zero] * n
    for row, p in zip(space.rows, space.pivots):
        x[p] = row[n]
    return x


def ref_invert_matrix(field, m):
    n = len(m)
    space = RefRowSpace(field, 2 * n)
    for i, row in enumerate(m):
        space.insert(list(row) + [field.one if k == i else field.zero
                                  for k in range(n)])
    if space.pivots != list(range(n)):
        return None
    return [row[n:] for row in space.rows]


def ref_center_basis(alg, indices, symmetric=False):
    """The central elements of span{e_i : i in indices}, and with
    `symmetric` only those the involution fixes: one kernel over
    len(indices) unknowns, its equations built by row lookups: for each
    unknown, the rows of e_i e_j and e_j e_i for every j (and of
    phi(e_i)).  The oracle for omega.center_basis (all indices) and for
    each part omega._center_part cuts out of it (the identity-degree
    indices, or all of them, with or without `symmetric`)."""
    equations = {}
    for col, i in enumerate(indices):
        terms = [((j, k), c) for j in range(alg.dim)
                 for k, c in alg.row(PRODUCT, (i, j)).items()]
        terms += [((j, k), -c) for j in range(alg.dim)
                  for k, c in alg.row(PRODUCT, (j, i)).items()]
        if symmetric:
            terms += [(k, c) for k, c in alg.row(INVOLUTION, (i,)).items()]
            terms.append((i, -alg.field.one))
        for key, c in terms:
            row = equations.setdefault(key, {})
            row[col] = row[col] + c if col in row else c
    basis = kernel(alg.field, equations.values(), len(indices))
    return [{indices[col]: c for col, c in v.items()} for v in basis]


def ref_graded_center_support(alg, grading):
    """classify.graded_center_support with one kernel per homogeneous
    component: the degrees g with a nonzero central element in A_g."""
    return tuple(g for g in grading.support()
                 if ref_center_basis(alg, [i for i, d in
                                           enumerate(grading.degmap)
                                           if d == g]))


def ref_zero_divisor_candidates(alg, grading=None, ops=None):
    """Step (c) of omega.is_simple by ideal closures: the center part C
    (from `ref_center_basis`) and, when dim C > 1, each candidate
    w = z - lambda u with True when its ideal closure is proper.  None
    when is_simple does not reach step (c): not on its associative path,
    or a nonzero radical (the kernel of the dense trace form)."""
    active = set(ops if ops is not None else alg.operators)
    if (PRODUCT not in active or not active <= {PRODUCT, INVOLUTION}
            or grading is not None and _misgraded(grading, [PRODUCT])):
        return None
    F, dim = alg.field, alg.dim
    trace = [sum((alg.row(PRODUCT, (k, j)).get(j, F.zero)
                  for j in range(dim)), F.zero) for k in range(dim)]
    form = [[sum((c * trace[k] for k, c in alg.row(PRODUCT, (i, j)).items()),
                 F.zero) for j in range(dim)] for i in range(dim)]
    if ref_kernel(F, form, dim):
        return None
    indices = list(range(dim)) if grading is None else [
        i for i, d in enumerate(grading.degmap) if d == grading.group.identity]
    center = ref_center_basis(alg, indices, symmetric=INVOLUTION in active)
    if len(center) == 1:
        return center, []
    u = unit_in(alg, center)
    candidates = []
    for z in center:
        for lam in [F.zero] + F.roots_of_unity():
            w = combine([(F.one, z), (-lam, u)])
            if w:
                candidates.append((w, ref_ideal_closure(
                    alg, [w], grading, active).rank < dim))
    return center, candidates


def ref_ideal_closure(alg, seeds, grading=None, ops=None):
    """The smallest subspace containing the seeds and closed under
    inserting one element into any slot of an operator in `ops` (default
    all; the other slots range over A) and, with a grading, under the
    projections onto its homogeneous components: the graded ideal
    closure.  omega.ideal_closure is the ungraded one over every
    operator, the only closure the package needs."""
    space = RowSpace(alg.field, alg.dim)
    work = []
    active = {op: alg.operators[op]
              for op in (ops if ops is not None else alg.operators)}

    def push(v):
        parts = {}
        for i, c in v.items():
            d = None if grading is None else grading.degmap[i]
            parts.setdefault(d, {})[i] = c
        for piece in parts.values():
            if space.insert(piece):
                work.append(piece)

    for s in seeds:
        push(s)
    while work and space.rank < alg.dim:
        v = work.pop()
        for op, arity in active.items():
            for slot in range(arity):
                for others in itertools.product(range(alg.dim),
                                                repeat=arity - 1):
                    push(alg.apply_slot(op, slot, v, others))
                    if space.rank == alg.dim:
                        return space
    return space


def unit_in(alg, span):
    """The element u of the span with u c = c for every c in it ({} when
    there is none): one solve with an unknown per element of the span.
    omega.is_simple never solves for the unit, so this solve is the
    references' own."""
    dim = alg.dim
    columns = [{n * dim + i: x for n, c in enumerate(span)
                for i, x in alg.mul(b, c).items()} for b in span]
    target = {n * dim + i: x for n, c in enumerate(span) for i, x in c.items()}
    sol = solve(alg.field, columns, target, len(span) * dim) or {}
    return combine((x, span[j]) for j, x in sol.items())


def ref_kernel(field, rows, width):
    space = RefRowSpace(field, width)
    for v in rows:
        space.insert(v)
    basis = []
    for f in range(width):
        if f in space.pivots:
            continue
        v = [field.zero] * width
        v[f] = field.one
        for row, p in zip(space.rows, space.pivots):
            if not row[f].is_zero():
                v[p] = -row[f]
        basis.append(v)
    return basis


def run_optimized(code: str, *args) -> list:
    """The words `code` prints when run under `python -O` with `args`, the
    imported package and this directory (for `import helpers`) first on
    the path."""
    src = str(Path(classify.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, here] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-O", "-c", code, *args], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.split()


def scalar_from_coeffs(conductor: int, coeffs) -> Scalar:
    """The scalar with these coordinates (anything Fraction takes) on the
    power basis 1, zeta, ..., zeta^(phi(N) - 1)."""
    phi = euler_phi(conductor)
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != phi:
        raise ValueError(f"expected {phi} coefficients for conductor "
                         f"{conductor}, got {len(coeffs)}")
    # the lcm of lowest-terms denominators leaves the numerators coprime to it
    den = lcm(*(c.denominator for c in coeffs))
    return scalars._make(conductor, tuple(
        c.numerator * (den // c.denominator) for c in coeffs), den)


def random_scalar(F, rng, lo: int = -3, hi: int = 3) -> Scalar:
    """A scalar of F with integer coefficients drawn from [lo, hi]."""
    return scalar_from_coeffs(F.conductor, [
        rng.randint(lo, hi) for _ in range(euler_phi(F.conductor))])


def unit(alg):
    """The two-sided unit of the binary product, or None: the left unit
    solved by `unit_in`, when it is also a right identity (a left unit
    equals any two-sided unit, so none is missed)."""
    u = unit_in(alg, [alg.basis_vec(i) for i in range(alg.dim)])
    if all(alg.apply_slot(PRODUCT, 1, u, (i,)) == {i: alg.field.one}
           for i in range(alg.dim)):
        return u
    return None


def map_apply(f: LinearMap, v: dict) -> dict:
    """f(v) for a sparse vector v."""
    return combine((c, f.columns[i]) for i, c in v.items())


def identity_map(alg) -> LinearMap:
    return LinearMap(alg, alg, [alg.basis_vec(i) for i in range(alg.dim)])


def compose(g: LinearMap, f: LinearMap) -> LinearMap:
    """g o f."""
    return LinearMap(f.source, g.target,
                     [map_apply(g, col) for col in f.columns])


def xi_shift_equal(a, b):
    """Some g with a = g.b for two coset multisets, or None."""
    return next((g for g in xi_shift_candidates(a, b) if a == b.shifted(g)),
                None)


def ref_matchings(mk1, mk2, shift, op=False):
    """classify._matchings by brute force: every permutation pi of the
    module basis, in lexicographic order, that keeps each basis vector in
    its part and has every s_i = gamma_i - shift - gamma'_(pi(i)) in T
    (+ gamma'_(pi(i)) with `op`), as (pi, s) pairs."""
    if mk1.N != mk2.N:
        return []
    out = []
    for pi in itertools.permutations(range(mk1.N)):
        s = [g - shift + mk2.gamma[j] if op else g - shift - mk2.gamma[j]
             for g, j in zip(mk1.gamma, pi)]
        if (all((i < mk1.k0) == (j < mk2.k0) for i, j in enumerate(pi))
                and all(x in mk2.D.support for x in s)):
            out.append((list(pi), s))
    return out


def ref_antimap_candidates(D, roots):
    """Diagonal maps nu(Z_b) = n_b Z_b with n_u n_v mu(v, u) =
    n_(u+v) mu(u, v), by choosing values on a basis of the support,
    propagating, verifying the full table and skipping repeats."""
    T = D.support
    basis = T.basis()
    if not basis:
        return [{T.group.identity: D.field.one}]
    out = []
    for choice in itertools.product(roots, repeat=len(basis)):
        values = {T.group.identity: D.field.one}
        ok = True
        for gen, n_gen in zip(basis, choice):
            new_values = dict(values)
            gen_idx = D.index[gen]
            for u in list(values):
                prev = u
                for _ in range(1, gen.order()):
                    cu, ku = D.mu(D.index[prev], gen_idx)
                    cg, kg = D.mu(gen_idx, D.index[prev])
                    assert ku == kg
                    new_values[prev + gen] = new_values[prev] * n_gen * cg / cu
                    prev = prev + gen
            values = new_values
        for u in T.elements:
            for v in T.elements:
                cu, k = D.mu(D.index[u], D.index[v])
                cv, _ = D.mu(D.index[v], D.index[u])
                if values[u] * values[v] * cv != values[u + v] * cu:
                    ok = False
                    break
            if not ok:
                break
        if ok and values not in out:
            out.append(values)
    return out


def scan(name, tuples, sides):
    """One exact identity scan, tuple by tuple: `sides(t)` yields (lhs,
    rhs, message) for each tuple t (of basis indices, or of stored tensor
    entries).  Every tuple counts one check and every unequal pair one
    violation, with the text message() (formatted only then)."""
    report = VerificationReport(name)
    for t in tuples:
        report.checked += 1
        for lhs, rhs, message in sides(t):
            if lhs != rhs:
                report.violations.append(message())
    return report


def ref_sums(terms) -> dict:
    """The nonzero sums of c * row over the terms (key, c, row), by key:
    the terms grouped by key and each group summed by `combine`."""
    grouped = {}
    for key, c, row in terms:
        grouped.setdefault(key, []).append((c, row))
    return {key: vec for key, group in grouped.items()
            if (vec := combine(group))}


def ref_unequal_sums(first, *others) -> list[set]:
    """The identity-scan kernel side by side (`ref_sums`, one fresh dict
    per key): the sets of keys at which each of `others` differs from
    `first`, a sum that cancels to zero equal to an absent one.  The
    oracle for `omega._unequal_sums`."""
    lhs = ref_sums(first)
    return [{key for key in lhs.keys() | rhs.keys()
             if lhs.get(key) != rhs.get(key)}
            for rhs in map(ref_sums, others)]


def ref_check_grading(grading):
    """Every stored tensor entry lands in the predicted component, entry
    by entry and output index by output index."""
    alg, degmap = grading.algebra, grading.degmap
    tuples = ((op, idx, out) for op in sorted(grading.graded_ops)
              if alg.operators[op] for idx, out in alg.tensors[op].items())

    def sides(t):
        op, idx, out = t
        predicted = grading.group.identity
        for i in idx:
            predicted = predicted + degmap[i]
        for j in out:
            yield (degmap[j], predicted,
                   lambda: f"{op}{idx} -> index {j}: degree {degmap[j]}"
                           f" != predicted {predicted}")
    return scan("grading", tuples, sides)


def ref_check_t4_flip(grading):
    """The involution maps the (i, g) component onto the (-i, g) one,
    basis vector by basis vector."""
    alg, degmap = grading.algebra, grading.degmap

    def sides(i):
        d = degmap[i]
        flipped = flip_z(d)
        for j in alg.row(INVOLUTION, (i,)):
            yield (degmap[j], flipped,
                   lambda: f"phi(e{i}) [{d}] meets component {degmap[j]}"
                           f" != {flipped}")
    return scan("t4-degree-flip", range(alg.dim), sides)


def ref_check_commutation(D):
    """Z_i Z_j = beta(s_i, s_j) Z_j Z_i, pair by pair."""
    beta, elements, field = D.bicharacter, D.elements, D.field

    def sides(ij):
        i, j = ij
        yield (D.commutation(i, j),
               beta.eval(elements[i], elements[j], field),
               lambda: f"Z{i} Z{j} != beta * Z{j} Z{i}")
    return scan("commutation-relation",
                itertools.product(range(D.dim), repeat=2), sides)


def ref_check_associative(alg):
    """(e_i e_j) e_k = e_i (e_j e_k), evaluated on every basis triple."""
    def sides(t):
        i, j, k = t
        yield (alg.apply_slot(PRODUCT, 0, alg.row(PRODUCT, (i, j)), (k,)),
               alg.apply_slot(PRODUCT, 1, alg.row(PRODUCT, (j, k)), (i,)),
               lambda: f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})")
    return scan("associativity", itertools.product(range(alg.dim), repeat=3),
                sides)


def ref_check_at2(W, seed=0, exhaustive_limit=12, samples=10000):
    """The AT2 identities, evaluated on every basis 5-tuple (or on the
    same seeded draws above exhaustive_limit)."""
    alg = W.algebra
    d = alg.dim
    if d <= exhaustive_limit:
        tuples = itertools.product(range(d), repeat=5)
    else:
        rng = random.Random(seed)
        tuples = (tuple(rng.randrange(d) for _ in range(5))
                  for _ in range(samples))

    def sides(t):
        u, v, x, y, z = t
        lhs = alg.apply_slot(TRIPLE, 0, W.row(u, v, x), (y, z))
        yield (lhs, alg.apply_slot(TRIPLE, 1, W.row(y, x, v), (u, z)),
               lambda: f"{{{{u,v,x}},y,z}} != {{u,{{y,x,v}},z}} at {t}")
        yield (lhs, alg.apply_slot(TRIPLE, 2, W.row(x, y, z), (u, v)),
               lambda: f"{{{{u,v,x}},y,z}} != {{u,v,{{x,y,z}}}} at {t}")
    return scan("at2-axiom", tuples, sides)


def ref_check_morphism(f, ops=None, gradings=None):
    """f(omega(x1..xn)) = omega(f(x1)..f(xn)), evaluated on every basis
    tuple, plus the graded-map condition."""
    src, tgt = f.source, f.target
    names = sorted(ops if ops is not None else src.operators)
    tuples = itertools.chain(
        ((op, idx) for op in names if src.operators[op]
         for idx in itertools.product(range(src.dim),
                                      repeat=src.operators[op])),
        ((None, i) for i in range(src.dim) if gradings is not None))

    def sides(t):
        op, idx = t
        if op is None:
            source, target = gradings
            deg = source.degmap[idx]
            yield (all(target.degmap[j] == deg for j in f.columns[idx]), True,
                   lambda: f"f(e{idx}) leaves component {deg}")
        else:
            yield (map_apply(f, src.row(op, idx)),
                   tgt.apply(op, *(f.columns[i] for i in idx)),
                   lambda: f"{op}{idx}: f(op(x)) != op(f(x))")
    return scan("morphism", tuples, sides)


def ref_check_involution(alg):
    """phi^2 = id and phi(xy) = phi(y)phi(x), evaluated on every basis
    tuple."""
    one = alg.field.one
    squares = ((i,) for i in range(alg.dim))
    pairs = itertools.product(range(alg.dim), repeat=2) \
        if PRODUCT in alg.operators else ()

    def sides(t):
        if len(t) == 1:
            i, = t
            yield (alg.apply_slot(INVOLUTION, 0, alg.row(INVOLUTION, t)),
                   {i: one}, lambda: f"phi^2(e{i}) != e{i}")
        else:
            i, j = t
            yield (alg.apply_slot(INVOLUTION, 0, alg.row(PRODUCT, t)),
                   alg.apply(PRODUCT, alg.row(INVOLUTION, (j,)),
                             alg.row(INVOLUTION, (i,))),
                   lambda: f"phi(e{i} e{j}) != phi(e{j}) phi(e{i})")
    return scan("involution", itertools.chain(squares, pairs), sides)


def ref_phi_involution(ca):
    """The involution X -> Phi^{-1} X^* Phi of a built M_inv algebra, as
    its structure tensor {(basis index,): image row}: the loop over
    (i, j, b) with Phi^{-1} formed entrywise and one structure-constant
    lookup per factor of Z_l Z_b Z_r, the sign of * read off the
    division part."""
    D, mk, phi, field = ca.D, ca.matrix, ca.phi, ca.field
    phi_inv = {}
    for (i, j), (b, c) in phi.items():
        ci, bi = D.basis_inverse(b)
        phi_inv[(j, i)] = (bi, ci * c.inverse())
    col_of_row = {i: j for (i, j) in phi}
    out = {}
    for i in range(mk.N):
        q = col_of_row[i]
        b_r, c_r = phi[(i, q)]
        for j in range(mk.N):
            p = col_of_row[j]
            b_l, c_l = phi_inv[(p, j)]
            for b in range(D.dim):
                sgn = field.scalar(D.sign_form(D.elements[b]))
                c1, k1 = D.mu(b_l, b)
                c2, k2 = D.mu(k1, b_r)
                out[(mk.bidx(b, i, j),)] = {mk.bidx(k2, p, q):
                                            sgn * c_l * c1 * c2 * c_r}
    return out


@dataclass
class PairwiseCensus:
    """ref_pairwise_census's result: every pair's record and the counts,
    stored as they are made; to_dict is CensusResult.to_dict's report."""
    group: object
    max_dim: int
    labels: list
    decisions: list = dc_field(default_factory=list)  # (i, j, verdict, detail)
    yes_count: int = 0
    no_count: int = 0
    inconclusive: int = 0
    verified_witnesses: int = 0
    refutations: int = 0

    def to_dict(self):
        return {
            "group": str(self.group),
            "max_dim": self.max_dim,
            "labels": [lab.name for lab in self.labels],
            "decisions": [
                {"left": i, "right": j, "verdict": v, "detail": d}
                for (i, j, v, d) in self.decisions],
            "yes": self.yes_count,
            "no": self.no_count,
            "inconclusive": self.inconclusive,
            "verified_witnesses": self.verified_witnesses,
            "refutations": self.refutations,
        }


def ref_pairwise_census(G, max_dim, cases=(classify.EXCHANGE_PAIR,
                                           classify.SIMPLE_ALGEBRA,
                                           classify.EXCHANGE_DIVISION),
                        max_support=None):
    """classify.run_census pair by pair: decide every pair, then verify
    each YES with its own witness and each NO with its own refutation."""
    labels = classify.enumerate_labels(G, max_dim, cases=cases,
                                       max_support=max_support)
    result = PairwiseCensus(G, max_dim, labels)
    if not labels:
        return result
    field = CycloField(classify.classify_conductor(*labels))
    for i, l1 in enumerate(labels):
        for j in range(i, len(labels)):
            l2 = labels[j]
            decision = classify.decide_iso(l1, l2, field)
            if decision.is_yes:
                result.yes_count += 1
                detail = str(decision.certificate.get("branch", "direct"))
                classify.witness_isomorphism(l1, l2, decision.certificate,
                                             field)
                result.verified_witnesses += 1
            else:
                result.no_count += 1
                detail = decision.certificate.get("violated", "")
                ref = classify.refute_isomorphism(l1, l2, field)
                if not ref.refuted:
                    result.inconclusive += 1
                    detail += " [INCONCLUSIVE]"
                else:
                    result.refutations += 1
                    detail += f" [{ref.method}]"
            result.decisions.append((i, j, decision.verdict, detail))
    return result


def ref_enumerate_labels(G, max_dim, cases=(classify.EXCHANGE_PAIR,
                                            classify.SIMPLE_ALGEBRA,
                                            classify.EXCHANGE_DIVISION),
                         max_support=None):
    """classify.enumerate_labels by filtering: every degree tuple, delta
    and m of the dimension bound is a candidate, and a candidate is kept
    when the checks a build makes before it assembles anything raise no
    ConstraintError: those of the parameters and, for a Phi involution,
    the block resolution of phi_matrix.  A name keeps its first label;
    the labels are not built."""
    elements = G.elements()
    labels = {}
    divisions = {}

    def add(params_cls, **fields):
        try:
            lab = classify.ClassLabel(params_cls(group=G, **fields))
            if params_cls is InvolutionParams:
                p = lab.params
                D = division_part(
                    p.T, p.beta, p.t,
                    CycloField(classify.classify_conductor(lab)), divisions)
                phi_matrix(p, D, D.sign_form)
        except ConstraintError:
            return
        labels.setdefault(lab.name, lab)

    def phi(T, beta, t):
        tdim = len(T) * (2 if t is not None else 1)
        deltas = (1,) if t is not None else (1, -1)
        n = 2
        while n * n * tdim <= max_dim:
            for n0 in range(1, n):
                for (kappa0, m0), (kappa1, m1) in itertools.product(
                        part_layouts(n0), part_layouts(n - n0)):
                    for g, gam0, gam1, delta in itertools.product(
                            elements,
                            itertools.product(elements, repeat=len(kappa0)),
                            itertools.product(elements, repeat=len(kappa1)),
                            deltas):
                        add(InvolutionParams, T=T, beta=beta, kappa0=kappa0,
                            gamma0=gam0, kappa1=kappa1, gamma1=gam1,
                            delta=delta, g=g, t=t, m0=m0, m1=m1)
            n += 1

    for T in classify.all_subgroups(G):
        if max_support is not None and len(T) > max_support:
            continue
        for beta in classify.nondegenerate_alternating_bicharacters(T):
            tdim = len(T)
            if classify.EXCHANGE_PAIR in cases:
                n = 2
                while 2 * n * n * tdim <= max_dim:
                    for k0 in range(1, min(n, 3)):
                        k1 = n - k0
                        if not 1 <= k1 <= 2:
                            continue
                        for kappa0, kappa1 in itertools.product(
                                _compositions(k0), _compositions(k1)):
                            for g0, g1 in itertools.product(
                                    itertools.product(elements,
                                                      repeat=len(kappa0)),
                                    itertools.product(elements,
                                                      repeat=len(kappa1))):
                                add(ExchangePairParams, T=T, beta=beta,
                                    kappa0=kappa0, gamma0=g0, kappa1=kappa1,
                                    gamma1=g1)
                    n += 1
            if not T.is_elementary_2():
                continue
            if classify.SIMPLE_ALGEBRA in cases:
                phi(T, beta, None)
            if classify.EXCHANGE_DIVISION in cases:
                for t in elements:
                    if t.order() == 2 and t not in T:
                        phi(T, beta, t)
    return sorted(labels.values(), key=lambda lab: lab.name)


def ref_all_subgroups(G):
    """classify.all_subgroups by closing every generator set of at most
    G.ncoords elements, in order of size and then lexicographically, and
    keeping the first set of each subgroup."""
    elements = G.elements()
    seen = {}
    for size in range(G.ncoords + 1):
        for gens in itertools.combinations(elements, size):
            sub = Subgroup(G, gens)
            seen.setdefault(frozenset(e.coords for e in sub.elements), sub)
    return sorted(seen.values(), key=lambda s: (len(s), tuple(
        e.coords for e in s.elements)))


# ---------------------------------------------------------------------------
# the division algebras as matrices: the Kronecker realization and the
# double in the (x, phi x), (x, -phi x) basis, the oracles for the
# constructions from structure constants
# ---------------------------------------------------------------------------

class MonoMatrix:
    """A generalized permutation matrix: one nonzero entry per column.

    perm[j] is the row of the nonzero entry in column j, vals[j] its value.
    """

    __slots__ = ("n", "perm", "vals")

    def __init__(self, n, perm, vals):
        self.n = n
        self.perm = tuple(perm)
        self.vals = tuple(vals)

    @staticmethod
    def identity(field, n: int) -> "MonoMatrix":
        return MonoMatrix(n, range(n), [field.one] * n)

    @staticmethod
    def clock(eps, n: int) -> "MonoMatrix":
        return MonoMatrix(n, range(n), [power(eps, k) for k in range(n)])

    @staticmethod
    def shift(field, n: int) -> "MonoMatrix":
        # e_k -> e_(k+1 mod n)
        return MonoMatrix(n, [(j + 1) % n for j in range(n)], [field.one] * n)

    def __matmul__(self, other: "MonoMatrix") -> "MonoMatrix":
        perm = [self.perm[other.perm[j]] for j in range(self.n)]
        vals = [self.vals[other.perm[j]] * other.vals[j] for j in range(self.n)]
        return MonoMatrix(self.n, perm, vals)

    def kron(self, other: "MonoMatrix") -> "MonoMatrix":
        n = self.n * other.n
        perm = [0] * n
        vals = [None] * n
        for j1 in range(self.n):
            for j2 in range(other.n):
                j = j1 * other.n + j2
                perm[j] = self.perm[j1] * other.n + other.perm[j2]
                vals[j] = self.vals[j1] * other.vals[j2]
        return MonoMatrix(n, perm, vals)

    def transpose(self) -> "MonoMatrix":
        perm = [0] * self.n
        vals = [None] * self.n
        for j in range(self.n):
            perm[self.perm[j]] = j
            vals[self.perm[j]] = self.vals[j]
        return MonoMatrix(self.n, perm, vals)

    def scalar_ratio(self, other: "MonoMatrix"):
        """c with self = c * other, or None."""
        if self.perm != other.perm:
            return None
        c = self.vals[0] / other.vals[0]
        if all(self.vals[j] == c * other.vals[j] for j in range(self.n)):
            return c
        return None


def ref_standard_realization(T, beta, field):
    """(D(T, beta), its matrices): X_t = (x)_i S^(d_i) C^(c_i), Kronecker
    products of clock and shift matrices over the hyperbolic pairs, and
    each structure constant divided back out of X_s X_t."""
    pairs = symplectic_decomposition(T, beta)
    group = T.group
    coords = {group.identity: ()}
    for (a, b, l) in pairs:
        for g in (a, b):
            coords = {e + g.scaled(k): c + (k,)
                      for e, c in coords.items() for k in range(l)}
    assert len(coords) == len(T)

    def realize(exps) -> MonoMatrix:
        m = MonoMatrix.identity(field, 1)
        for r, (a, b, l) in enumerate(pairs):
            clock = MonoMatrix.clock(beta.eval(a, b, field), l)
            blk = MonoMatrix.identity(field, l)
            for _ in range(exps[2 * r]):
                blk = clock @ blk
            for _ in range(exps[2 * r + 1]):
                blk = MonoMatrix.shift(field, l) @ blk
            m = m.kron(blk)
        return m

    elements = tuple(sorted(T.elements, key=lambda e: e.coords))
    mats = [realize(coords[t]) for t in elements]
    index = {e: i for i, e in enumerate(elements)}
    alg = OmegaAlgebra(field, len(T), {PRODUCT: 2},
                       [f"X{t}" for t in elements])
    for i, ti in enumerate(elements):
        for j, tj in enumerate(elements):
            k = index[ti + tj]
            c = (mats[i] @ mats[j]).scalar_ratio(mats[k])
            assert c is not None, (ti, tj)
            alg.set_entry(PRODUCT, (i, j), {k: c})
    D = GradedDivision(field, group, T, alg, Grading(alg, group, elements),
                       elements, beta)
    return D, mats


def ref_transpose_form(D, mats):
    """tau with X_t^T = tau(t) X_t, read off the transposed matrices."""
    values = {}
    for i, t in enumerate(D.elements):
        c = mats[i].transpose().scalar_ratio(mats[i])
        assert c is not None and c.is_rational(), t
        values[t] = int(c.rational_value())
    return QuadraticForm(D.support, values)


def ref_exchange_double(alg, grading, t):
    """(A + A^op, ex) of any algebra with involution, graded by
    deg(x, phi(x)) = h and deg(x, -phi(x)) = h + t over a homogeneous
    basis of A, on the basis u_k = (x_k, phi(x_k)), v_k = (x_k, -phi(x_k))."""
    field, d = alg.field, alg.dim
    phi_cols = [alg.row(INVOLUTION, (k,)) for k in range(d)]
    half = field.scalar(Fraction(1, 2))

    def to_new(p, q):
        # (p, q) = sum a_k u_k + b_k v_k: a = (p + phi q)/2, b = (p - phi q)/2
        phi_q = alg.apply_slot(INVOLUTION, 0, q)
        a = combine([(half, p), (half, phi_q)])
        b = combine([(half, p), (-half, phi_q)])
        return {**a, **{d + k: c for k, c in b.items()}}

    out = OmegaAlgebra(field, 2 * d, {PRODUCT: 2, INVOLUTION: 1},
                       [f"u{k}" for k in range(d)] + [f"v{k}" for k in range(d)])
    minus_one = field.scalar(-1)
    cols = ([(alg.basis_vec(k), phi_cols[k]) for k in range(d)] +
            [(alg.basis_vec(k), combine([(minus_one, phi_cols[k])]))
             for k in range(d)])
    for i, (p, q) in enumerate(cols):
        for j, (p2, q2) in enumerate(cols):
            # (p, q)(p', q') = (p p', q' q)
            out.set_entry(PRODUCT, (i, j), to_new(alg.mul(p, p2), alg.mul(q2, q)))
        out.set_entry(INVOLUTION, (i,), to_new(q, p))
    degmap = tuple(grading.degmap) + tuple(h + t for h in grading.degmap)
    return out, Grading(out, grading.group, degmap,
                        graded_ops=grading.graded_ops | {INVOLUTION})


def ref_exchange_double_division(D, t):
    """The double of D at t built by ref_exchange_double and copied into
    the basis sorted by support element, Y_s at index(s).  Its sign form
    is left unset: the extended form is the groups module's, not the
    double's, and checking its polar form costs more than the double."""
    alg2, gr2 = ref_exchange_double(D.algebra, D.grading, t)
    Tt = D.support.extended_by(t)
    elements = tuple(sorted(Tt.elements, key=lambda e: e.coords))
    perm = {gr2.degmap.index(s): new for new, s in enumerate(elements)}
    alg = OmegaAlgebra(D.field, alg2.dim, dict(alg2.operators),
                       [f"Y{s}" for s in elements])
    for op in alg2.operators:
        for idx, row in alg2.tensors[op].items():
            alg.set_entry(op, tuple(perm[i] for i in idx),
                          {perm[j]: c for j, c in row.items()})
    grading = Grading(alg, gr2.group, elements, graded_ops=gr2.graded_ops)
    return GradedDivision(D.field, D.group, Tt, alg, grading, elements,
                          extend_bicharacter(D.bicharacter, t), t=t, inner=D)


# ---------------------------------------------------------------------------
# routines only the tests call: dense views, the division corpus and the
# exchange-double theorems, checked on instances
# ---------------------------------------------------------------------------

def power(s: Scalar, n: int) -> Scalar:
    """s^n for n >= 0, by repeated squaring."""
    result = Scalar.rational(1, s.conductor)
    while n:
        if n & 1:
            result = result * s
        s = s * s
        n >>= 1
    return result


def mono_dense(m, field):
    """A MonoMatrix as a dense list of rows."""
    out = [[field.zero] * m.n for _ in range(m.n)]
    for j in range(m.n):
        out[m.perm[j]][j] = m.vals[j]
    return out


def generator_power(D, gen, l: int):
    """(c, k) with Z_gen^l = c Z_k, multiplied out through D.mu."""
    c, k = D.field.one, D.index[D.group.identity]
    for _ in range(l):
        step, k = D.mu(k, D.index[gen])
        c = c * step
    return c, k


def involution_sign(D, i: int):
    """c with phi(Z_i) = c Z_i, read off the involution tensor of D;
    VerificationError when phi(Z_i) is no multiple of Z_i."""
    row = D.algebra.row(INVOLUTION, (i,))
    if list(row) != [i]:
        raise VerificationError(
            f"involution: phi(Z{i}) is no multiple of Z{i}")
    return row[i]


def label_dimension(label) -> int:
    """The dimension of a label's algebra, read off its parameters."""
    p = label.params
    n = sum(p.kappa0) + sum(p.kappa1)
    doubled = 1 if label.case == classify.SIMPLE_ALGEBRA else 2
    return doubled * n * n * len(p.T)


def coarsen(grading, alpha, target_group) -> Grading:
    """Push the grading along a homomorphism alpha: G -> H."""
    return Grading(grading.algebra, target_group,
                   tuple(alpha(d) for d in grading.degmap),
                   graded_ops=grading.graded_ops)


def is_multiplicative(bc) -> bool:
    """Whether a Bicharacter's table is multiplicative in each slot, over
    all |T|^3 triples."""
    els, M, table = bc.domain.elements, bc.exponent, bc.table
    for a, b, c in itertools.product(els, repeat=3):
        ab = a + b
        if ((table[(ab, c)] - table[(a, c)] - table[(b, c)]) % M
                or (table[(c, ab)] - table[(c, a)] - table[(c, b)]) % M):
            return False
    return True


def all_quadratic_forms(beta):
    """Every quadratic form whose polar form is beta (finite: 2^rank choices
    of signs on a basis determine the rest)."""
    T = beta.domain
    basis = T.basis()
    forms = []
    for mask in range(1 << len(basis)):
        values = {T.group.identity: 1}
        for i, b in enumerate(basis):
            sb = -1 if (mask >> i) & 1 else 1
            new_values = dict(values)
            for u, vu in values.items():
                # forced by the polar identity: tau(u+b) = tau(u) tau(b) beta(u, b)
                sign_beta = 1 if beta.table[(u, b)] % beta.exponent == 0 else -1
                new_values[u + b] = vu * sb * sign_beta
            values = new_values
        forms.append(QuadraticForm(T, values))
    return forms


@dataclass
class DivisionEntry:
    name: str
    D: GradedDivision
    T: Subgroup
    beta: Bicharacter


def classification_supports():
    """(name, T, beta, conductor) for the supports the realization
    theorem is exercised on."""
    out = []
    for name, torsion, conductor in (("Z2^2", (2, 2), 2),
                                     ("Z2^4", (2, 2, 2, 2), 2),
                                     ("Z3^2", (3, 3), 3),
                                     ("Z4^2", (4, 4), 4)):
        G = AbelianGroup(0, torsion)
        gens = tuple(G.element(tuple(int(i == k) for i in range(len(torsion))))
                     for k in range(len(torsion)))
        out.append((name, *symplectic_subgroup(G, gens), conductor))
    return out


def involuted_division_corpus():
    """Every d_inv over Z2^2 (all four quadratic forms) and exchange
    doubles over supports of rank <= 3."""
    field = CycloField(2)
    out = []
    V4 = AbelianGroup(0, (2, 2))
    T, beta = symplectic_subgroup(
        V4, (V4.element((1, 0)), V4.element((0, 1))))
    for k, tau in enumerate(all_quadratic_forms(beta)):
        D = d_inv(T, beta, tau, field)
        out.append(DivisionEntry(f"D_inv(Z2^2, tau{k})", D, T, beta))
    Z2_3 = AbelianGroup(0, (2, 2, 2))
    a, b, t = (Z2_3.element(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    T1 = Subgroup(Z2_3, (a, b))
    beta1 = Bicharacter.from_generator_matrix(T1, (a, b), [[0, 1], [1, 0]])
    for k, tau in enumerate(all_quadratic_forms(beta1)):
        Dx = exchange_double_division(d_inv(T1, beta1, tau, field), t)
        out.append(DivisionEntry(f"D_inv(Z2^2, tau{k})^ex", Dx, T1, beta1))
    Z2 = AbelianGroup(0, (2,))
    Tt = trivial_subgroup(Z2)
    bt = Bicharacter.from_generator_matrix(Tt, (), [])
    Dx = exchange_double_division(
        d_inv(Tt, bt, QuadraticForm(Tt, {Z2.identity: 1}), field),
        Z2.element((1,)))
    out.append(DivisionEntry("(F+F^op)_t", Dx, Tt, bt))
    return out


def graded_division_iso(Da, Db):
    """A graded isomorphism between two graded division algebras with the
    same support, as a diagonal map Z_s -> c_s Z_s (diagonal_solutions
    with mu_b the structure constants of Db).  Involutions (when present)
    must carry identical sign functions, which the diagonal map preserves.
    Returns a verified LinearMap or None.
    """
    if set(Da.support.elements) != set(Db.support.elements):
        return None
    ops = [PRODUCT] + ([INVOLUTION] if Da.has_involution()
                       and Db.has_involution() else [])
    for c in diagonal_solutions(
            Da, lambda s, t: Db.mu(Db.index[s], Db.index[t])[0],
            Da.field.roots_of_unity()):
        f = LinearMap(Da.algebra, Db.algebra,
                      [{Db.index[s]: c[s]} for s in Da.elements])
        if check_morphism(f, ops=ops, gradings=(Da.grading, Db.grading)).passed:
            return f
    return None


def exchange_subgroup_transfer(Dx, T2):
    """Restrict an exchange double to the part graded by an index-2
    subgroup T2 (not containing the doubling element) and read off the
    transported division structure.

    Returns (bicharacter on T2, sign form on T2, projection map), after
    verifying that the projection (x, y) -> x onto the doubled algebra is
    an algebra isomorphism of the T2-part."""
    if Dx.flavor != "exchange":
        raise ConstraintError("transfer needs an exchange double")
    t = Dx.t
    if t in T2:
        raise ConstraintError("T2 must avoid the doubling element")
    if 2 * len(T2) != len(Dx.support):
        raise ConstraintError("T2 must have index 2 in the full support")
    D1 = Dx.inner
    field = Dx.field
    # psi(Y_(h t^k)) = X_(h t^k) in the inner algebra: projection to the
    # first pair component, up to the normalization of Y
    proj_cols = {}
    for h in T2.elements:
        inner_elt = h if h in D1.support else h + t
        proj_cols[Dx.index[h]] = {D1.index[inner_elt]: field.one}
    # multiplicativity of the projection on the T2 part
    for h1 in T2.elements:
        for h2 in T2.elements:
            i, j = Dx.index[h1], Dx.index[h2]
            c, k = Dx.mu(i, j)
            lhs = {kk: c * cc for kk, cc in proj_cols[k].items()}
            (a1, c1), = proj_cols[i].items()
            (a2, c2), = proj_cols[j].items()
            cc, kk = D1.mu(a1, a2)
            rhs = {kk: c1 * c2 * cc}
            if lhs != rhs:
                raise VerificationError(
                    "projection is not multiplicative on the T2 part")
    # transported commutation bicharacter and involution signs
    table = {}
    for h1 in T2.elements:
        for h2 in T2.elements:
            c = Dx.commutation(Dx.index[h1], Dx.index[h2])
            table[(h1, h2)] = 0 if c == field.one else 1
    signs = {h: 1 if involution_sign(Dx, Dx.index[h]) == field.one else -1
             for h in T2.elements}
    return Bicharacter(T2, 2, table), QuadraticForm(T2, signs), proj_cols


def removal_twist(Dx1, Dx2):
    """For two exchange doubles of the same (T', beta) at the same t with
    different quadratic forms: the element t' in T' and the verified
    identity Int(Y_t') o phi_1 = phi_2.

    Together with the degree-preserving pair map (x, 0) -> (x, 0),
    (0, x) -> (0, tau_1 tau_2 x) (which is the identity in the Y basis),
    this realizes the twist-removal statement; returns (t', twisted_map).
    """
    if Dx1.flavor != "exchange" or Dx2.flavor != "exchange":
        raise ConstraintError("twist removal needs exchange doubles")
    if Dx1.t != Dx2.t or set(Dx1.support.elements) != set(Dx2.support.elements):
        raise ConstraintError("doubles must share the support and t")
    if Dx1.bicharacter != Dx2.bicharacter:
        raise ConstraintError("doubles must share the extended bicharacter")
    field = Dx1.field
    if Dx1.algebra.tensors[PRODUCT] != Dx2.algebra.tensors[PRODUCT]:
        raise VerificationError(
            "Y-basis product tensors of the two doubles must coincide")
    T1 = Dx1.inner.support
    tau1, tau2 = Dx1.inner.sign_form, Dx2.inner.sign_form
    beta = Dx1.inner.bicharacter
    # chi(s) = tau1(s) tau2(s) is a character of T'; nondegeneracy provides
    # t' with beta(t', .) = chi
    t_prime = None
    for cand in T1.elements:
        if all(beta.eval(cand, s, field) ==
               field.scalar(tau1(s) * tau2(s)) for s in T1.elements):
            t_prime = cand
            break
    if t_prime is None:
        raise VerificationError("no t' realizes the character tau1 tau2")
    # Int(Y_t') o phi_1 must equal phi_2 exactly on the Y basis
    alg1 = Dx1.algebra
    i_tp = Dx1.index[t_prime]
    inv_c, inv_idx = Dx1.basis_inverse(i_tp)
    for i in range(alg1.dim):
        s, k2 = Dx1.sandwich(i_tp, i, inv_idx)
        twisted = {k2: involution_sign(Dx1, i) * s * inv_c}
        expected = Dx2.algebra.row(INVOLUTION, (i,))
        if twisted != expected:
            raise VerificationError(f"Int(Y_t') o phi_1 != phi_2 at basis {i}")
    # seatbelt: the identity map intertwines the twisted structures
    ident = LinearMap(Dx2.algebra, Dx1.algebra,
                      [Dx1.algebra.basis_vec(i) for i in range(alg1.dim)])
    rep = check_morphism(ident, ops=[PRODUCT],
                         gradings=(Dx2.grading, Dx1.grading))
    if not rep.passed:
        raise VerificationError(f"the identity does not intertwine the "
                                f"twisted doubles: {rep.violations[:3]}")
    return t_prime, ident

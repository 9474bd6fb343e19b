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
classes, `ROTATED_SPLIT_TRIPLE` and `GAUSSIAN_TRIPLE` two serialized
triples kept out of the corpus (whose counts the benchmark pins), and
the `ref_check_*` scans, run by the per-tuple harness
`scan`, evaluate every basis tuple (or stored entry) one by one, the
oracle for the checks that compare summed rows or make one pass over the
stored entries; `RefRowSpace` and
`ref_solve`/`ref_invert_matrix`/`ref_kernel` are the dense elimination
kernel that the sparse `linalg` is checked against; `ref_center_basis`,
`ref_graded_center_support` and `ref_zero_divisor_candidates` are the
structure decisions by row lookups, one kernel per component and ideal
closures, the oracles for the center and zero-divisor tests; the float
embedding sends z_N to exp(2 pi i / N) and is used as a sanity oracle
next to the exact assertions, never instead of them.
"""

import bisect
import cmath
import itertools
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from atsbench import classify
from atsbench.classify import xi_shift_candidates
from atsbench.linalg import combine, kernel
from atsbench.groups import flip_z
from atsbench.omega import (INVOLUTION, PRODUCT, TRIPLE, LinearMap,
                            VerificationReport, _grades_product, _unit_in,
                            ideal_closure)
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
    """omega.center_basis with its equations built by row lookups: for each
    unknown, the rows of e_i e_j and e_j e_i for every j (and of phi(e_i))."""
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
            or grading is not None and not _grades_product(grading)):
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
    u = _unit_in(alg, center)
    candidates = []
    for z in center:
        for lam in [F.zero] + F.roots_of_unity():
            w = combine([(F.one, z), (-lam, u)])
            if w:
                candidates.append((w, ideal_closure(alg, [w], grading,
                                                    ops=active).rank < dim))
    return center, candidates


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


def random_scalar(F, rng, lo: int = -3, hi: int = 3) -> Scalar:
    """A scalar of F with integer coefficients drawn from [lo, hi]."""
    return Scalar(F.conductor, [rng.randint(lo, hi)
                                for _ in range(euler_phi(F.conductor))])


def unit(alg):
    """The two-sided unit of the binary product, or None: the left unit
    solved by omega._unit_in, when it is also a right identity (a left
    unit equals any two-sided unit, so none is missed)."""
    u = _unit_in(alg, [alg.basis_vec(i) for i in range(alg.dim)])
    if all(alg.apply_slot(PRODUCT, 1, u, (i,)) == {i: alg.field.one}
           for i in range(alg.dim)):
        return u
    return None


def compose(g: LinearMap, f: LinearMap) -> LinearMap:
    """g o f."""
    return LinearMap(f.source, g.target, [g.apply(col) for col in f.columns])


def xi_shift_equal(a, b):
    """Some g with a = g.b for two coset multisets, or None."""
    return next((g for g in xi_shift_candidates(a, b) if a == b.shifted(g)),
                None)


def ref_antimap_candidates(D, roots, cap: int = 4096):
    """Diagonal maps nu(Z_b) = n_b Z_b with n_u n_v mu(v, u) =
    n_(u+v) mu(u, v), by choosing values on a basis of the support,
    propagating, verifying the full table and skipping repeats; stops
    once len(out) * len(roots) exceeds cap."""
    T = D.support
    basis = T.basis()
    if not basis:
        return [{T.group.identity: D.field.one}]
    out = []
    for choice in itertools.product(roots, repeat=len(basis)):
        if len(out) * len(roots) > cap:
            break
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
            yield (f.apply(src.row(op, idx)),
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

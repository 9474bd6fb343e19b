"""Finite-dimensional multi-operator algebras as structure tensors.

An algebra is a vector space with a family of multilinear operators
(binary product, unary involution, ternary triple product, ...), each
given by a sparse structure tensor over a fixed basis.  Gradings assign
a group-element degree to every basis vector.  Every verification is
exact: the identity checks (morphisms, involutions, and in `triples`
associativity and the triple axioms) compare summed rows in one kernel,
_unequal_sums, and the per-entry checks (grading, degree flip) make one
pass over the stored entries.  Degrees are interned group elements that
keep their sums, so those checks compare them by identity, and each
distinct sum is reduced once, by its group.

Vectors are sparse dicts {basis_index: Scalar} with no stored zeros.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field as dc_field
from functools import reduce

from . import linalg
from .groups import AbelianGroup, GroupElement, flip_z, z_part
from .linalg import SparseVec, combine
# VerificationError is defined in the lowest layer that raises it and
# taken from here by the layers above
from .scalars import CycloField, VerificationError, parse_scalar

PRODUCT = "product"
INVOLUTION = "involution"
TRIPLE = "triple"


class OmegaAlgebra:
    """A finite-dimensional algebra over a cyclotomic field.

    operators: dict name -> arity.  The structure tensor of an n-ary
    operator maps an n-tuple of basis indices to a sparse output vector;
    missing tuples mean zero.
    """

    def __init__(self, field: CycloField, dim: int, operators: dict,
                 basis_labels=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.field = field
        self.dim = dim
        self.operators = dict(operators)
        self.tensors = {name: {} for name in operators}
        self.basis_labels = list(basis_labels) if basis_labels else [
            f"e{i}" for i in range(dim)]

    def add_operator(self, op: str, arity: int):
        if op not in self.operators:
            self.operators[op] = arity
            self.tensors[op] = {}

    def set_entry(self, op: str, idx: tuple, out: SparseVec):
        if any(c.is_zero() for c in out.values()):
            out = {i: c for i, c in out.items() if not c.is_zero()}
        if out:
            self.tensors[op][tuple(idx)] = out
        else:
            self.tensors[op].pop(tuple(idx), None)

    def row(self, op: str, idx: tuple) -> SparseVec:
        return self.tensors[op].get(tuple(idx), {})

    def apply(self, op: str, *vecs: SparseVec) -> SparseVec:
        """Multilinear evaluation of an operator on sparse vectors: the
        coefficient of every basis tuple, then one row lookup each."""
        if len(vecs) != self.operators[op]:
            raise ValueError(f"{op} takes {self.operators[op]} arguments, "
                             f"got {len(vecs)}")
        first, *rest = vecs
        terms = [((i,), c) for i, c in first.items()]
        for v in rest:
            terms = [(idx + (j,), c * x) for idx, c in terms
                     for j, x in v.items()]
        table = self.tensors[op]
        return combine((c, table[idx]) for idx, c in terms if idx in table)

    def apply_slot(self, op: str, slot: int, v: SparseVec,
                   others: tuple = ()) -> SparseVec:
        """op on the basis vectors e_k, k in `others`, with v inserted at
        position `slot`: one row lookup per coordinate of v."""
        table = self.tensors[op]
        head, tail = others[:slot], others[slot:]
        return combine((c, table.get(head + (i,) + tail, {}))
                       for i, c in v.items())

    def basis_vec(self, i: int) -> SparseVec:
        return {i: self.field.one}

    def mul(self, a: SparseVec, b: SparseVec) -> SparseVec:
        return self.apply(PRODUCT, a, b)


@dataclass
class Grading:
    """Degree assignment basis index -> group element.

    graded_ops restricts which operators the grading is required to be
    compatible with; a Z x G grading of an algebra with involution
    grades the product only, the involution instead satisfies the
    degree flip checked by check_t4_flip.
    """
    algebra: OmegaAlgebra
    group: AbelianGroup
    degmap: tuple
    graded_ops: frozenset = None

    def __post_init__(self):
        if len(self.degmap) != self.algebra.dim:
            raise ValueError("degmap length must equal the algebra dimension")
        if self.graded_ops is None:
            self.graded_ops = frozenset(self.algebra.operators)

    def support(self) -> list[GroupElement]:
        return sorted(set(self.degmap), key=lambda e: e.coords)


@dataclass
class VerificationReport:
    name: str
    violations: list = dc_field(default_factory=list)
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "checked": self.checked, "violations": self.violations[:50]}

    def __str__(self):
        status = "pass" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return f"{self.name}: {status} [{self.checked} checks]"


class LinearMap:
    """A linear map between algebras, stored as images of basis vectors
    (sparse, with no stored zeros)."""

    def __init__(self, source: OmegaAlgebra, target: OmegaAlgebra, columns):
        self.source = source
        self.target = target
        self.columns = [{i: c for i, c in col.items() if not c.is_zero()}
                        for col in columns]
        if len(self.columns) != source.dim:
            raise ValueError("one image per source basis vector required")

    def apply(self, v: SparseVec) -> SparseVec:
        return combine((c, self.columns[i]) for i, c in v.items())

    def is_bijective(self) -> bool:
        """Full rank; a monomial map (one nonzero term per column) is
        bijective iff its columns hit pairwise distinct basis vectors."""
        if self.source.dim != self.target.dim:
            return False
        if all(len(col) == 1 for col in self.columns):
            targets = {i for col in self.columns for i in col}
            return len(targets) == self.source.dim
        return len(linalg.rref(self.target.field, self.columns,
                               self.target.dim)) == self.source.dim

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.columns == other.columns

    @staticmethod
    def identity(alg: OmegaAlgebra) -> "LinearMap":
        return LinearMap(alg, alg, [alg.basis_vec(i) for i in range(alg.dim)])


# ---------------------------------------------------------------------------
# verification scans
# ---------------------------------------------------------------------------

def _slot_views(table) -> tuple[dict, dict]:
    """Two views of a structure tensor for the row-wise scans: rows[a]
    lists (rest, row) for the rows table[(a,) + rest], and containing[m]
    lists (idx, c) for the rows table[idx] with the term c e_m."""
    rows, containing = {}, {}
    for idx, row in table.items():
        rows.setdefault(idx[0], []).append((idx[1:], row))
        for m, c in row.items():
            containing.setdefault(m, []).append((idx, c))
    return rows, containing


def _unequal_sums(first, *others) -> list[set]:
    """The kernel of every identity scan, row-wise (Gustavson,
    "Two fast algorithms for sparse matrices", 1978).  Each side is an
    iterable of terms (key, c, row), standing for the vector sum of
    c * row over the terms with that key; the result lists, for each of
    `others`, the keys at which its sum differs from the one of `first`.
    A sum that cancels to zero equals an absent one.

    Each side is summed in one pass, into one dict per key.  A key's
    first term stores c * row, or the row object itself when c is +1;
    a second term copies that dict before adding into it, so a tensor
    row is never written.  As rows hold no stored zeros and c != 0, only
    a key with two or more terms can hold a zero, and only those are
    filtered; an empty row adds nothing."""
    sums = []
    for terms in (first, *others):
        acc, summed = {}, set()
        for key, c, row in terms:
            if not row:
                continue
            vec = acc.get(key)
            if vec is None:
                num = c.num
                if c.den == 1 and num[0] == 1 and not any(num[1:]):
                    acc[key] = row
                else:
                    acc[key] = {i: c * x for i, x in row.items()}
                continue
            if key not in summed:
                summed.add(key)
                acc[key] = vec = dict(vec)
            for i, x in row.items():
                s = vec.get(i)
                vec[i] = c * x if s is None else s + c * x
        for key in summed:
            vec = {i: s for i, s in acc[key].items() if not s.is_zero()}
            if vec:
                acc[key] = vec
            else:
                del acc[key]
        sums.append(acc)
    lhs = sums[0]
    return [set() if lhs == rhs else {key for key in lhs.keys() | rhs.keys()
                                      if lhs.get(key) != rhs.get(key)}
            for rhs in sums[1:]]


def _unequal_images(table: dict, columns: list, target: dict) -> list:
    """The sorted basis tuples idx at which f(table[idx]) differs from
    target on the images f(e_i), i in idx, for the linear map f with these
    columns.  The first side sums c f(e_m) over the terms c e_m of the
    stored rows; the second sums c out over the stored target rows out at
    (j1..jn) and the preimage tuples (i1..in) of (j1..jn), c the product
    of the coefficients of e_jk in f(e_ik)."""
    preimages = {}
    for i, col in enumerate(columns):
        for j, c in col.items():
            preimages.setdefault(j, []).append((i, c))
    lhs = ((idx, c, columns[m]) for idx, row in table.items()
           for m, c in row.items())
    rhs = ((tuple(i for i, _ in pre),
            reduce(operator.mul, (c for _, c in pre)), out)
           for jdx, out in target.items()
           for pre in itertools.product(*(preimages.get(j, ())
                                          for j in jdx)))
    bad, = _unequal_sums(lhs, rhs)
    return sorted(bad)


def _misgraded(grading: Grading, ops) -> list:
    """The violations of the grading on the operators `ops`, in stored
    order: one per output index of a stored entry outside the predicted
    component, identity + deg(e_i1) + deg(e_i2) + ....  Degrees are
    interned and keep their sums, so each distinct prefix is reduced at
    most once, and an output degree is compared by identity."""
    alg, degmap = grading.algebra, grading.degmap
    identity = grading.group.identity
    violations = []
    for op in ops:
        for idx, out in alg.tensors[op].items():
            total = identity
            for i in idx:
                total += degmap[i]
            for j in out:
                if degmap[j] is not total:
                    violations.append(f"{op}{idx} -> index {j}: degree "
                                      f"{degmap[j]} != predicted {total}")
    return violations


def check_grading(grading: Grading) -> VerificationReport:
    """Every stored tensor entry must land in the predicted component: one
    check per entry, one violation per output index outside it.  Each
    distinct sum of degrees is reduced once, by the group (_misgraded)."""
    alg = grading.algebra
    ops = [op for op in sorted(grading.graded_ops) if alg.operators[op]]
    return VerificationReport(
        "grading", violations=_misgraded(grading, ops),
        checked=sum(len(alg.tensors[op]) for op in ops))


def check_morphism(f: LinearMap, ops=None, gradings=None) -> VerificationReport:
    """f(omega(x1..xn)) = omega(f(x1)..f(xn)) on all basis tuples, one
    comparison of summed rows per operator (_unequal_images).

    gradings, when given as (source_grading, target_grading), adds the
    graded-map condition f(A_g) <= B_g, one check per basis vector.
    """
    src, tgt = f.source, f.target
    report = VerificationReport("morphism")
    for op in sorted(ops if ops is not None else src.operators):
        if src.operators[op]:
            report.checked += src.dim ** src.operators[op]
            report.violations.extend(
                f"{op}{idx}: f(op(x)) != op(f(x))" for idx in
                _unequal_images(src.tensors[op], f.columns, tgt.tensors[op]))
    if gradings is not None:
        source, target = gradings
        report.checked += src.dim
        report.violations.extend(
            f"f(e{i}) leaves component {source.degmap[i]}"
            for i in range(src.dim)
            if any(target.degmap[j] != source.degmap[i] for j in f.columns[i]))
    return report


def check_involution(alg: OmegaAlgebra) -> VerificationReport:
    """phi^2 = id on every basis vector, and phi(xy) = phi(y)phi(x) on all
    basis pairs: phi is a morphism onto the opposite algebra, whose table
    holds e_i e_j at (j, i), and is compared as in check_morphism."""
    one = alg.field.one
    phi = [alg.row(INVOLUTION, (i,)) for i in range(alg.dim)]
    report = VerificationReport("involution", checked=alg.dim, violations=[
        f"phi^2(e{i}) != e{i}" for i in range(alg.dim)
        if alg.apply_slot(INVOLUTION, 0, phi[i]) != {i: one}])
    if PRODUCT in alg.operators:
        table = alg.tensors[PRODUCT]
        report.checked += alg.dim ** 2
        report.violations.extend(
            f"phi(e{i} e{j}) != phi(e{j}) phi(e{i})" for i, j in
            _unequal_images(table, phi, {(j, i): out for (i, j), out
                                         in table.items()}))
    return report


def check_t4_flip(grading: Grading) -> VerificationReport:
    """The involution must map the (i, g) component onto the (-i, g) one:
    one check per basis vector, one violation per index of phi(e_i)
    outside it.  Degrees are interned, so an index is compared with the
    flipped degree by identity.

    Assumes the grading group is Z x G with the Z slot in coordinate 0.
    """
    alg, degmap = grading.algebra, grading.degmap
    violations = []
    for i, d in enumerate(degmap):
        want = flip_z(d)
        for j in alg.row(INVOLUTION, (i,)):
            if degmap[j] is not want:
                violations.append(f"phi(e{i}) [{d}] meets component "
                                  f"{degmap[j]} != {want}")
    return VerificationReport("t4-degree-flip", violations, checked=alg.dim)


def pi1_coarsening(grading: Grading) -> Grading:
    """Project a Z x G grading to its Z part."""
    Z = AbelianGroup(1)
    return Grading(grading.algebra, Z,
                   tuple(Z.element((z_part(d),)) for d in grading.degmap),
                   graded_ops=grading.graded_ops)


# ---------------------------------------------------------------------------
# ideals and simplicity
# ---------------------------------------------------------------------------

def ideal_closure(alg: OmegaAlgebra, seeds) -> linalg.RowSpace:
    """Smallest subspace containing the seeds and closed under inserting
    one element into any slot of any operator (the other slots range
    over the full algebra).  Its one caller is triples.triple_is_simple's
    cross-check, the ideal of a triple system generated by a basis
    vector."""
    space = linalg.RowSpace(alg.field, alg.dim)
    work: list[SparseVec] = []

    def push(v: SparseVec):
        if v and space.insert(v):
            work.append(v)

    for s in seeds:
        push(s)
    while work and space.rank < alg.dim:
        v = work.pop()
        for op, arity in alg.operators.items():
            for slot in range(arity):
                for others in itertools.product(range(alg.dim),
                                                repeat=arity - 1):
                    push(alg.apply_slot(op, slot, v, others))
                    if space.rank == alg.dim:
                        return space
    return space


class SimplicityUndecided(Exception):
    """The field test found no zero divisor in a center of dimension > 1:
    the algebra may be simple, but no verdict is claimed."""


def center_basis(alg: OmegaAlgebra) -> list:
    """Basis of the center Z of the product: one kernel over dim A
    unknowns, one equation per coordinate of x e_j - e_j x, built in one
    pass over the stored product entries."""
    equations = {}

    def add(key, col, c):
        row = equations.setdefault(key, {})
        row[col] = row[col] + c if col in row else c

    for (i, j), out in alg.tensors[PRODUCT].items():
        for k, c in out.items():            # a term of x e_j
            add((j, k), i, c)
        for k, c in out.items():            # a term of e_i x
            add((i, k), j, -c)
    return linalg.kernel(alg.field, equations.values(), alg.dim)


def _center_part(alg: OmegaAlgebra, center: list, grading: Grading,
                 symmetric: bool) -> list:
    """The elements of span(center) of identity degree under `grading`
    (unless None), and with `symmetric` fixed by the involution.

    `center` is center_basis(alg), and `grading` grades the product:
    is_simple checks that, or its caller vouches for it by passing
    `center`.  Then the center equation keyed (a, k) involves unknowns
    of degree deg e_k - deg e_a only, so every basis vector of Z is
    homogeneous, and those of identity degree span the identity part.
    Only phi(x) = x needs a kernel.  Z's basis, linalg.kernel's, is
    reduced with the coordinates in reverse order, and so is the result:
    the basis linalg.kernel would give for the part itself."""
    if grading is not None:
        identity = grading.group.identity
        center = [z for z in center
                  if grading.degmap[next(iter(z))] is identity]
    if not symmetric:
        return center
    one = alg.field.one
    equations = {}                              # phi(x) - x = 0
    for col, z in enumerate(center):
        moved = combine([(one, alg.apply_slot(INVOLUTION, 0, z)), (-one, z)])
        for k, c in moved.items():
            equations.setdefault(k, {})[col] = c
    kernel = linalg.kernel(alg.field, equations.values(), len(center))
    return [dict(sorted(combine((y, center[k]) for k, y in v.items())
                        .items())) for v in kernel]


def is_simple(alg: OmegaAlgebra, grading: Grading = None, ops=None,
              center: list = None) -> bool:
    """Does A have no ideal other than 0 and A?

    An ideal is a subspace closed under every active operator (`ops`,
    default all) with the other slots ranging over A, and with a grading
    also under the homogeneous projections (a graded ideal).

    The decision is exact, and taken only in the associative case: the
    active ops include an associative product and lie in {product,
    involution}, and a grading, if given, grades the product.  Other
    inputs raise ValueError; a triple system is decided through its
    envelope, by triples.triple_is_simple.
      (a) The radical is the kernel of the trace form tr L_{e_i e_j}
          (Dickson's criterion, characteristic 0).  A radical other than
          0 and A is a proper ideal; when A is nilpotent, A^2 is one
          unless A^2 = 0, and then A is simple iff dim A = 1.
      (b) A semisimple A is simple iff the center part C is a field: the
          elements of the center Z of identity degree with a grading and
          fixed by the involution when it is active (_center_part).
      (c) dim C = 1 gives True.  Otherwise the candidates w = z - lambda u
          (z a basis vector of C, u the unit, lambda 0 or a root of unity of
          the field) are tried.  A semisimple A is unital, and u lies in C:
          it is central, of identity degree and fixed by the involution.  So
          w lies in C, and the ideal it generates is Aw, which the involution
          and the projections keep.  Aw is proper iff w has no inverse (it
          would lie in C), so iff the products w c (c in a basis of C) have
          rank < dim C.  As u c = c, w c = z c - lambda c: u is never solved
          for.  Rank 0 means w = 0; 0 < rank < dim C gives False.  With no
          zero divisor, SimplicityUndecided is raised, never True.
    A zero product under both a grading and an active involution also
    raises SimplicityUndecided.  A caller may pass Z = center_basis(alg)
    as `center`, and so vouches that a grading grades the product: only a
    call without `center` checks that.
    """
    active = set(ops if ops is not None else alg.operators)
    if PRODUCT not in active or not active <= {PRODUCT, INVOLUTION}:
        raise ValueError(f"is_simple takes a product and at most an "
                         f"involution, not the operators {sorted(active)}")
    if (grading is not None and center is None
            and _misgraded(grading, [PRODUCT])):
        raise ValueError("is_simple: the degree map does not grade the "
                         "product")
    field, dim = alg.field, alg.dim
    products = alg.tensors[PRODUCT]
    trace = {}                                      # t_k = tr L_{e_k}
    for (k, j), out in products.items():
        if j in out:
            trace[k] = trace[k] + out[j] if k in trace else out[j]
    form = [{} for _ in range(dim)]                 # zeros: dropped by kernel
    for (i, j), out in products.items():
        for k, c in out.items():
            if k in trace:
                t = c * trace[k]
                form[i][j] = form[i][j] + t if j in form[i] else t
    radical = len(linalg.kernel(field, form, dim))
    if radical:
        if radical < dim or products:
            return False
        if dim > 1 and grading is not None and INVOLUTION in active:
            raise SimplicityUndecided("zero product with a grading and an "
                                      "involution")
        return dim == 1
    if center is None:
        center = center_basis(alg)
    center = _center_part(alg, center, grading, INVOLUTION in active)
    if len(center) == 1:
        return True
    one, lambdas = field.one, [field.zero] + field.roots_of_unity()
    for z in center:
        zc = [(one, alg.mul(z, c)) for c in center]
        for lam in lambdas:
            rank = len(linalg.rref(field, [combine([p, (-lam, c)]) for p, c
                                          in zip(zc, center)], dim))
            if 0 < rank < len(center):
                return False
    raise SimplicityUndecided(f"no zero divisor found in a center part of "
                              f"dimension {len(center)}")


def graded_is_simple(alg: OmegaAlgebra, grading: Grading,
                     center: list = None) -> bool:
    """Graded-simplicity of (A, Gamma): the product-only ideal test with
    homogeneous projections adjoined.  `center`, Z = center_basis(alg), is
    passed on to is_simple, which then skips its check of the grading."""
    return is_simple(alg, grading=grading, ops={PRODUCT}, center=center)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def algebra_to_dict(alg: OmegaAlgebra, grading: Grading = None) -> dict:
    entries = []
    for op in sorted(alg.operators):
        for idx in sorted(alg.tensors[op]):
            for j in sorted(alg.tensors[op][idx]):
                entries.append([op, list(idx), j, str(alg.tensors[op][idx][j])])
    out = {
        "conductor": alg.field.conductor,
        "dim": alg.dim,
        "operators": {k: v for k, v in sorted(alg.operators.items())},
        "basis": alg.basis_labels,
        "tensor": entries,
    }
    if grading is not None:
        out["group"] = {"free_rank": grading.group.free_rank,
                        "torsion": list(grading.group.torsion)}
        out["degrees"] = [list(d.coords) for d in grading.degmap]
        out["graded_ops"] = sorted(grading.graded_ops)
    return out


def _require(data, *path):
    """data[path[0]][path[1]]...; a missing key raises ValueError naming it."""
    for depth, key in enumerate(path):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"missing key {'.'.join(path[:depth + 1])!r}")
        data = data[key]
    return data


def _require_int(data, *path):
    value = _require(data, *path)
    if type(value) is not int:
        raise ValueError(f"{'.'.join(path)!r} must be an int, got {value!r}")
    return value


def _require_list(data, *path, item=None):
    """data[path...] as a list, of entries of type `item` if given."""
    value = _require(data, *path)
    if not isinstance(value, list) or item and not all(
            type(v) is item for v in value):
        what = f"a list of {item.__name__}s" if item else "a list"
        raise ValueError(f"{'.'.join(path)!r} must be {what}, got {value!r}")
    return value


def algebra_from_dict(data: dict):
    """Inverse of algebra_to_dict; a missing or malformed key, tensor entry
    or degree list raises ValueError naming it."""
    field = CycloField(_require_int(data, "conductor"))
    dim = _require_int(data, "dim")
    operators = _require(data, "operators")
    if not (isinstance(operators, dict) and all(
            type(arity) is int and arity >= 1
            for arity in operators.values())):
        raise ValueError(f"'operators' must map names to positive int "
                         f"arities, got {operators!r}")
    basis = _require_list(data, "basis", item=str) if "basis" in data else None
    if basis is not None and len(basis) != dim:
        raise ValueError(f"'basis' lists {len(basis)} labels for dim {dim}")
    alg = OmegaAlgebra(field, dim, operators, basis)
    for entry in _require_list(data, "tensor"):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ValueError(f"tensor entry {entry}: expected "
                             "[operator, index list, slot, scalar text]")
        op, idx, j, text = entry
        if not (isinstance(idx, list) and all(type(i) is int for i in idx)):
            raise ValueError(f"tensor entry {entry}: index is not a list of ints")
        if type(j) is not int:
            raise ValueError(f"tensor entry {entry}: slot is not an int")
        if not isinstance(text, str):
            raise ValueError(f"tensor entry {entry}: scalar is not a string")
        if op not in alg.operators:
            raise ValueError(f"tensor entry {entry}: unknown operator {op!r}")
        if len(idx) != alg.operators[op]:
            raise ValueError(f"tensor entry {entry}: {op!r} has arity "
                             f"{alg.operators[op]}, not {len(idx)}")
        if not all(0 <= i < dim for i in [*idx, j]):
            raise ValueError(f"tensor entry {entry}: index outside [0, {dim})")
        row = dict(alg.row(op, tuple(idx)))
        try:
            row[j] = parse_scalar(text, field.conductor)
        except ValueError as err:
            raise ValueError(f"tensor entry {entry}: {err}") from None
        alg.set_entry(op, tuple(idx), row)
    grading = None
    if "degrees" in data:
        degrees = _require_list(data, "degrees", item=list)
        if len(degrees) != dim:
            raise ValueError(f"degrees lists {len(degrees)} entries "
                             f"for dimension {dim}")
        if not all(type(c) is int for d in degrees for c in d):
            raise ValueError(f"'degrees' must list int coordinates, "
                             f"got {degrees!r}")
        group = AbelianGroup(_require_int(data, "group", "free_rank"),
                             tuple(_require_list(data, "group", "torsion",
                                                 item=int)))
        degmap = tuple(group.element(c) for c in degrees)
        graded_ops = _require(data, "graded_ops")
        if not (isinstance(graded_ops, list) and all(
                isinstance(op, str) and op in alg.operators
                for op in graded_ops)):
            raise ValueError(f"'graded_ops' must list operators of the "
                             f"algebra, got {graded_ops!r}")
        grading = Grading(alg, group, degmap, graded_ops=frozenset(graded_ops))
    return alg, grading


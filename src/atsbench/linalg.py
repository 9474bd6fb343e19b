"""Exact dense linear algebra over a cyclotomic field.

Vectors are lists/tuples of Scalar, matrices are lists of rows.  One
fraction-exact elimination kernel, `RowSpace` (an incrementally reduced
row echelon basis), does all the work: `rref`, `solve`, `invert_matrix`
and `kernel` read their answers off it.  Dimensions in this workbench
stay far below anything that would need pivoting strategies or sparsity
tricks.
"""

from __future__ import annotations

import bisect

from .scalars import CycloField, Scalar


def zeros(field: CycloField, n: int) -> list[Scalar]:
    return [field.zero for _ in range(n)]


def unit_vector(field: CycloField, n: int, i: int) -> list[Scalar]:
    v = zeros(field, n)
    v[i] = field.one
    return v


def identity_matrix(field: CycloField, n: int) -> list[list[Scalar]]:
    return [unit_vector(field, n, i) for i in range(n)]


def mat_vec(field: CycloField, m: list[list[Scalar]], v: list[Scalar]) -> list[Scalar]:
    out = []
    for row in m:
        acc = field.zero
        for a, b in zip(row, v):
            if not (a.is_zero() or b.is_zero()):
                acc = acc + a * b
        out.append(acc)
    return out


def mat_mul(a: list[list[Scalar]], b: list[list[Scalar]]) -> list[list[Scalar]]:
    n, k, m = len(a), len(b), len(b[0])
    zero = a[0][0] - a[0][0]
    out = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c.is_zero():
                continue
            row_b = b[t]
            row_o = out[i]
            for j in range(m):
                if not row_b[j].is_zero():
                    row_o[j] = row_o[j] + c * row_b[j]
    return out


class RowSpace:
    """Incrementally maintained reduced row echelon basis, rows sorted by
    pivot column: the one elimination loop of the package."""

    def __init__(self, field: CycloField, width: int):
        self.field = field
        self.width = width
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []

    def reduce(self, vec) -> tuple[list[Scalar], list[Scalar]]:
        """Return vec reduced against the basis, plus the combination used."""
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

    def insert(self, vec) -> bool:
        """Add vec to the span; returns True if the rank grew."""
        v, _ = self.reduce(vec)
        pivot = next((j for j in range(self.width) if not v[j].is_zero()), None)
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        v = [x * inv for x in v]
        # back-substitute to keep the basis fully reduced
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

    def contains(self, vec) -> bool:
        v, _ = self.reduce(vec)
        return all(x.is_zero() for x in v)

    def coordinates(self, vec):
        """Coefficients of vec over the stored rows, or None if outside."""
        v, combo = self.reduce(vec)
        if any(not x.is_zero() for x in v):
            return None
        return combo

    @property
    def rank(self) -> int:
        return len(self.rows)


def rref(field: CycloField, vectors) -> list[list[Scalar]]:
    space = RowSpace(field, len(vectors[0]) if vectors else 0)
    for v in vectors:
        space.insert(v)
    return space.rows


def solve(field: CycloField, columns: list[list[Scalar]], target: list[Scalar]):
    """Solve sum_j x_j * columns[j] = target; None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    n = len(columns)
    space = RowSpace(field, n + 1)
    for i, t in enumerate(target):
        space.insert([col[i] for col in columns] + [t])
    if space.pivots and space.pivots[-1] == n:
        return None
    x = [field.zero] * n
    for row, p in zip(space.rows, space.pivots):
        x[p] = row[n]
    return x


def invert_matrix(field: CycloField, m: list[list[Scalar]]):
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    space = RowSpace(field, 2 * n)
    for i, row in enumerate(m):
        space.insert(list(row) + unit_vector(field, n, i))
    if space.pivots != list(range(n)):
        return None
    return [row[n:] for row in space.rows]


def kernel(field: CycloField, rows: list[list[Scalar]], width: int):
    """Basis of the right kernel of the matrix with the given rows."""
    space = RowSpace(field, width)
    for v in rows:
        space.insert(v)
    pivots = set(space.pivots)
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        v = zeros(field, width)
        v[f] = field.one
        for row, p in zip(space.rows, space.pivots):
            if not row[f].is_zero():
                v[p] = -row[f]
        basis.append(v)
    return basis

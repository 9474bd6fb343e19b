"""Exact sparse linear algebra over a cyclotomic field.

Vectors are sparse dicts {index: Scalar} with no stored zeros (a stored
zero in an input is dropped); matrices are lists of such rows.  One
fraction-exact elimination kernel, `RowSpace` (an incrementally reduced
row echelon basis), does all the work: `rref`, `solve`, `invert_matrix`
and `kernel` read their answers off it.  Elimination and products touch
only nonzero entries, row by row (Gustavson's sparse products); rows
stay sparse because most structure-tensor equations have a handful of
terms.
"""

from __future__ import annotations

import bisect

from .scalars import CycloField, Scalar

SparseVec = dict


def combine(terms) -> SparseVec:
    """sum of c * row over the (c, row) pairs, stored zeros dropped."""
    out: SparseVec = {}
    for c, row in terms:
        for i, x in row.items():
            s = out.get(i)
            out[i] = c * x if s is None else s + c * x
    return {i: s for i, s in out.items() if not s.is_zero()}


def _check_width(vec: SparseVec, width: int):
    if vec and (min(vec) < 0 or max(vec) >= width):
        bad = next(j for j in vec if not 0 <= j < width)
        raise ValueError(f"index {bad} outside [0, {width}): the vectors "
                         f"have width {width}")


def _subtract(v: SparseVec, c: Scalar, row: SparseVec, skip: int):
    """v -= c * row in place, except at column `skip`."""
    for j, x in row.items():
        if j == skip:
            continue
        s = v.get(j)
        if s is None:
            v[j] = -(c * x)
        else:
            s = s - c * x
            if s.is_zero():
                del v[j]
            else:
                v[j] = s


def mat_vec(m: list[SparseVec], v: SparseVec) -> SparseVec:
    """m v, indexed by row: the sum of v[j] times column j of m."""
    return combine((c, {i: row[j] for i, row in enumerate(m) if j in row})
                   for j, c in v.items())


def mat_mul(a: list[SparseVec], b: list[SparseVec]) -> list[SparseVec]:
    """a b, one row at a time: row i is the sum of a[i][t] * b[t]."""
    return [combine((c, b[t]) for t, c in row.items()) for row in a]


class RowSpace:
    """Incrementally maintained reduced row echelon basis, rows sorted by
    pivot column: the one elimination loop of the package."""

    def __init__(self, field: CycloField, width: int):
        self.field = field
        self.width = width
        self.rows: list[SparseVec] = []
        self.pivots: list[int] = []
        self._by_pivot: dict[int, SparseVec] = {}
        self._one = field.one

    def reduce(self, vec: SparseVec) -> tuple[SparseVec, SparseVec]:
        """Return vec reduced against the basis, plus the combination used
        as {row index: coefficient}.  The rows are fully reduced, so the
        coefficient of the row with pivot p is vec's own entry at p."""
        _check_width(vec, self.width)
        v = {j: c for j, c in vec.items() if not c.is_zero()}
        by_pivot = self._by_pivot
        combo = {}
        for p in [p for p in v if p in by_pivot]:
            c = v.pop(p)
            combo[bisect.bisect_left(self.pivots, p)] = c
            _subtract(v, c, by_pivot[p], p)
        return v, combo

    def insert(self, vec: SparseVec) -> bool:
        """Add vec to the span; returns True if the rank grew."""
        v, _ = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v.pop(pivot).inverse()
        v = {pivot: self._one, **{j: x * inv for j, x in v.items()}}
        # back-substitute to keep the basis fully reduced
        for row in self.rows:
            c = row.pop(pivot, None)
            if c is not None:
                _subtract(row, c, v, pivot)
        pos = bisect.bisect(self.pivots, pivot)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pivot)
        self._by_pivot[pivot] = v
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)[0]

    def coordinates(self, vec: SparseVec):
        """Coefficients of vec over the stored rows, as {row index:
        coefficient}, or None if outside."""
        v, combo = self.reduce(vec)
        return None if v else dict(sorted(combo.items()))

    @property
    def rank(self) -> int:
        return len(self.rows)


def rref(field: CycloField, vectors, width: int) -> list[SparseVec]:
    space = RowSpace(field, width)
    for v in vectors:
        space.insert(v)
    return space.rows


def solve(field: CycloField, columns: list[SparseVec], target: SparseVec,
          height: int):
    """Solve sum_j x_j * columns[j] = target, all of length `height`, as
    {j: x_j}; None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    n = len(columns)
    rows = [{} for _ in range(height)]
    for j, col in enumerate(columns + [target]):
        _check_width(col, height)
        for i, c in col.items():
            rows[i][j] = c
    space = RowSpace(field, n + 1)
    for row in rows:
        if row:     # an empty equation cannot raise the rank
            space.insert(row)
    if space.pivots and space.pivots[-1] == n:
        return None
    return {p: row[n] for row, p in zip(space.rows, space.pivots) if n in row}


def invert_matrix(field: CycloField, m: list[SparseVec]):
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    space = RowSpace(field, 2 * n)
    for i, row in enumerate(m):
        _check_width(row, n)
        space.insert({**row, n + i: field.one})
    if space.pivots != list(range(n)):
        return None
    return [{j - n: c for j, c in row.items() if j >= n} for row in space.rows]


def kernel(field: CycloField, rows, width: int) -> list[SparseVec]:
    """Basis of the right kernel of the matrix with the given rows."""
    space = RowSpace(field, width)
    for v in rows:
        space.insert(v)
    pivots = set(space.pivots)
    basis = []
    for f in range(width):
        if f not in pivots:
            # a row with an entry at f has its pivot left of f
            v = {p: -row[f] for row, p in zip(space.rows, space.pivots)
                 if f in row}
            v[f] = field.one
            basis.append(v)
    return basis

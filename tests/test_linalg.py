"""The elimination kernel and its wrappers: seeded random properties over
Q and Q(i), checked against the dense oracles in helpers, and the sparse
kernel against the dense reference kernel `RefRowSpace` on random and on
real systems."""

import dataclasses
import random
from pathlib import Path

import pytest

from atsbench import linalg
from atsbench.classify import classify_conductor, graded_center_support
from atsbench.config import parse_config
from atsbench.constructions import division_part, exchange_double_division
from atsbench.corpus import triple_corpus
from atsbench.groups import (AbelianGroup, Bicharacter, QuadraticForm,
                             Subgroup)
from atsbench.linalg import (RowSpace, invert_matrix, kernel, mat_mul,
                             mat_vec, rref, solve)
from atsbench.omega import VerificationError, _center_part, center_basis
from atsbench.scalars import CycloField
from atsbench.triples import loos_envelope
from helpers import (RefRowSpace, dense_eq, dense_mul, dense_transpose,
                     random_scalar, ref_invert_matrix, ref_kernel, ref_solve,
                     to_dense, to_sparse)

CONDUCTORS = (1, 4)
TRIALS = 12
WIDE36 = [Path(__file__).resolve().parents[1] / "bench" / "configs" /
          f"wide36_{sign}.cfg" for sign in ("minus", "plus")]


def _scalar(F, rng, zeros=0.35):
    # by default about a third of the entries are zero, so pivots get skipped
    return F.zero if rng.random() < zeros else random_scalar(F, rng, -2, 2)


def _matrix(F, rng, n, m, zeros=0.35):
    return [[_scalar(F, rng, zeros) for _ in range(m)] for _ in range(n)]


def _low_rank_rows(F, rng, n, width, rank, zeros=0.35):
    # n rows, each a random combination of `rank` random vectors
    base = _matrix(F, rng, rank, width, zeros)
    return dense_mul(F, _matrix(F, rng, n, rank, zeros), base)


def _sparse_rows(m):
    return [to_sparse(row) for row in m]


def _cases():
    for N in CONDUCTORS:
        rng = random.Random(1000 + N)
        F = CycloField(N)
        for _ in range(TRIALS):
            yield F, rng


def _rank(F, rows):
    return len(rref(F, _sparse_rows(rows), len(rows[0]))) if rows else 0


def _identity(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def test_rowspace_stays_reduced_echelon():
    for F, rng in _cases():
        width = rng.randint(1, 7)
        space = RowSpace(F, width)
        rows = _low_rank_rows(F, rng, rng.randint(1, 9), width,
                              rng.randint(1, width))
        for v in rows:
            space.insert(to_sparse(v))
            dense = [to_dense(F, row, width) for row in space.rows]
            assert all(p < q for p, q in zip(space.pivots, space.pivots[1:]))
            for k, (row, p) in enumerate(zip(dense, space.pivots)):
                assert row[p] == F.one
                assert all(x.is_zero() for x in row[:p])
                assert all(other[p].is_zero()
                           for m, other in enumerate(dense) if m != k)
        assert all(space.contains(to_sparse(v)) for v in rows)


def test_coordinates_rebuild_vector_or_none():
    for F, rng in _cases():
        width = rng.randint(2, 7)
        space = RowSpace(F, width)
        for v in _low_rank_rows(F, rng, 6, width, rng.randint(1, width - 1)):
            space.insert(to_sparse(v))
        rows = [to_dense(F, row, width) for row in space.rows]
        vec = dense_mul(F, _matrix(F, rng, 1, space.rank), rows)[0]
        coords = space.coordinates(to_sparse(vec))
        assert coords is not None
        coords = to_dense(F, coords, space.rank)
        assert dense_eq([vec], dense_mul(F, [coords], rows))
        free = [j for j in range(width) if j not in space.pivots]
        outside = {rng.choice(free): F.one}
        assert space.coordinates(outside) is None
        assert not space.contains(outside)


def test_solve_consistent_gives_free_variables_zero():
    for F, rng in _cases():
        height, n = rng.randint(1, 7), rng.randint(1, 6)
        m = _low_rank_rows(F, rng, height, n, rng.randint(1, n))
        columns = dense_transpose(m)
        target = dense_mul(F, m, [[_scalar(F, rng)] for _ in range(n)])
        target = [row[0] for row in target]
        x = solve(F, _sparse_rows(columns), to_sparse(target), height)
        assert x is not None
        assert dense_eq([target],
                        [to_dense(F, mat_vec(_sparse_rows(m), x), height)])
        x = to_dense(F, x, n)
        # x is supported on the pivot columns: those outside the span of
        # the columns before them
        for j in range(n):
            if _rank(F, columns[:j + 1]) == _rank(F, columns[:j]):
                assert x[j].is_zero()


def test_solve_inconsistent_gives_none():
    for F, rng in _cases():
        height, n = rng.randint(2, 7), rng.randint(1, 6)
        columns = [[_scalar(F, rng) for _ in range(height - 1)] + [F.zero]
                   for _ in range(n)]
        target = [_scalar(F, rng) for _ in range(height - 1)] + [F.one]
        assert solve(F, _sparse_rows(columns), to_sparse(target),
                     height) is None


def test_invert_matrix_and_singular_none():
    for F, rng in _cases():
        n = rng.randint(1, 5)
        m = _matrix(F, rng, n, n)
        inv = invert_matrix(F, _sparse_rows(m))
        if _rank(F, m) < n:
            assert inv is None
            continue
        inv = [to_dense(F, row, n) for row in inv]
        assert dense_eq(dense_mul(F, inv, m), _identity(F, n))
        assert dense_eq(dense_mul(F, m, inv), _identity(F, n))
        singular = _low_rank_rows(F, rng, n + 1, n + 1, n)
        assert invert_matrix(F, _sparse_rows(singular)) is None


def test_kernel_is_annihilated_with_width_minus_rank_vectors():
    for F, rng in _cases():
        width = rng.randint(1, 7)
        rows = _low_rank_rows(F, rng, rng.randint(1, 6), width,
                              rng.randint(1, width))
        basis = kernel(F, _sparse_rows(rows), width)
        assert len(basis) == width - _rank(F, rows)
        dense = [to_dense(F, v, width) for v in basis]
        assert _rank(F, dense) == len(basis)
        for v in basis:
            assert mat_vec(_sparse_rows(rows), v) == {}


def test_mat_vec_and_mat_mul_match_dense_oracle():
    for F, rng in _cases():
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _matrix(F, rng, n, k), _matrix(F, rng, k, m)
        assert dense_eq([to_dense(F, row, m) for row in
                         mat_mul(_sparse_rows(a), _sparse_rows(b))],
                        dense_mul(F, a, b))
        v = [_scalar(F, rng) for _ in range(k)]
        assert dense_eq([to_dense(F, mat_vec(_sparse_rows(a), to_sparse(v)),
                                  n)],
                        dense_transpose(dense_mul(F, a, [[x] for x in v])))


def test_wrong_width_vectors_raise_naming_index_and_width():
    F = CycloField(1)
    space = RowSpace(F, 2)
    for vec in ({2: F.one}, {0: F.one, 5: F.zero}, {-1: F.one}):
        with pytest.raises(ValueError, match=r"index (2|5|-1) outside "
                                             r"\[0, 2\).*width 2"):
            space.insert(vec)
        with pytest.raises(ValueError, match="width 2"):
            space.coordinates(vec)
        with pytest.raises(ValueError, match="width 2"):
            space.contains(vec)
    assert space.rank == 0
    assert space.insert({1: F.one}) and space.rows == [{1: F.one}]
    with pytest.raises(ValueError, match=r"index 3 outside \[0, 3\)"):
        solve(F, [{3: F.one}], {0: F.one}, 3)
    with pytest.raises(ValueError, match=r"index 2 outside \[0, 2\)"):
        invert_matrix(F, [{0: F.one}, {2: F.one}])
    with pytest.raises(ValueError, match=r"index 4 outside \[0, 4\)"):
        kernel(F, [{4: F.one}], 4)


# ---------------------------------------------------------------------------
# the sparse kernel against the dense reference
# ---------------------------------------------------------------------------

def _no_stored_zeros(vectors):
    return all(not x.is_zero() for v in vectors for x in v.values())


class Mirrored(RowSpace):
    """A RowSpace that repeats every insert and coordinates call on the
    dense reference and asserts the same answer and the same basis."""

    def __init__(self, field, width):
        super().__init__(field, width)
        self.ref = RefRowSpace(field, width)

    def _dense(self, vec):
        return to_dense(self.field, vec, self.width)

    def insert(self, vec):
        grew = super().insert(vec)
        assert grew == self.ref.insert(self._dense(vec))
        assert self.pivots == self.ref.pivots
        assert [self._dense(row) for row in self.rows] == self.ref.rows
        assert _no_stored_zeros(self.rows)
        return grew

    def coordinates(self, vec):
        coords = super().coordinates(vec)
        ref = self.ref.coordinates(self._dense(vec))
        assert (coords is None) == (ref is None)
        if coords is not None:
            assert to_dense(self.field, coords, self.rank) == ref
            assert _no_stored_zeros([coords])
        return coords


def _mirrored_kernel(real):
    def checked(field, rows, width):
        rows = list(rows)
        basis = real(field, rows, width)
        assert [to_dense(field, v, width) for v in basis] == ref_kernel(
            field, [to_dense(field, r, width) for r in rows], width)
        assert _no_stored_zeros(basis)
        return basis
    return checked


def test_sparse_kernel_matches_dense_reference():
    # widths 1-40 at densities 3-50 %, over Q, Q(i) and Q(zeta_8)
    seen = set()
    for N in (1, 4, 8):
        rng = random.Random(7000 + N)
        F = CycloField(N)
        for trial in range(14):
            width = rng.randint(1, 40)
            zeros = rng.uniform(0.5, 0.97)
            height = rng.randint(1, min(width + 4, 12))
            rows = (_low_rank_rows(F, rng, height, width,
                                   rng.randint(1, width), zeros)
                    if trial % 2 else _matrix(F, rng, height, width, zeros))
            space, ref = Mirrored(F, width), RefRowSpace(F, width)
            for row in rows:
                space.insert(to_sparse(row))
                ref.insert(row)
            assert rref(F, _sparse_rows(rows), width) == space.rows
            inside = dense_mul(F, _matrix(F, rng, 1, len(ref.rows)),
                               ref.rows)[0] if ref.rows else [F.zero] * width
            for vec in (_matrix(F, rng, 1, width, zeros)[0], inside):
                v, combo = space.reduce(to_sparse(vec))
                ref_v, ref_combo = ref.reduce(vec)
                assert to_dense(F, v, width) == ref_v
                assert to_dense(F, combo, space.rank) == ref_combo
                assert _no_stored_zeros([v, combo])
                space.coordinates(to_sparse(vec))
            basis = _mirrored_kernel(kernel)(F, _sparse_rows(rows), width)
            assert len(basis) == width - space.rank
            # the rows, cut to n entries, as the columns of an n-row system
            n = min(width, 10)
            columns = [row[:n] for row in rows]
            target = (_matrix(F, rng, 1, n, zeros)[0] if trial % 3 == 0 else
                      dense_mul(F, _matrix(F, rng, 1, len(rows)), columns)[0])
            x = solve(F, _sparse_rows(columns), to_sparse(target), n)
            ref_x = ref_solve(F, columns, target)
            assert (x is None) == (ref_x is None)
            if x is not None:
                assert to_dense(F, x, len(columns)) == ref_x
            square = _matrix(F, rng, n, n, zeros - 0.3)
            inv = invert_matrix(F, _sparse_rows(square))
            ref_inv = ref_invert_matrix(F, square)
            assert (inv is None) == (ref_inv is None)
            if inv is not None:
                assert [to_dense(F, row, n) for row in inv] == ref_inv
            seen |= {("solve", x is None), ("invert", inv is None)}
    assert len(seen) == 4


def test_sparse_kernel_matches_reference_on_wide36_center_equations(
        monkeypatch):
    monkeypatch.setattr(linalg, "RowSpace", Mirrored)
    monkeypatch.setattr(linalg, "kernel", _mirrored_kernel(linalg.kernel))
    labels = [parse_config(path.read_text(encoding="utf-8")).label
              for path in WIDE36]
    field = CycloField(classify_conductor(*labels))
    for label in labels:
        ca = label.build(field)
        alg, grading = ca.algebra, ca.grading
        assert alg.dim == 36
        center = center_basis(alg)
        assert graded_center_support(alg, grading, center)
        assert len(center) == 1
        assert len(_center_part(alg, center, grading, True)) >= 1


def test_sparse_kernel_matches_reference_on_envelope_spaces(monkeypatch):
    # the width-2d^2 L and R operator spaces and every coordinates call
    # made while the envelope product table is assembled
    monkeypatch.setattr(linalg, "RowSpace", Mirrored)
    for entry in triple_corpus():
        env = loos_envelope(entry.triple)
        assert isinstance(env.L_space, Mirrored), entry.name
        assert env.L_space.rank == env.dim_L and env.R_space.rank == env.dim_R


def test_solve_and_envelope_insert_no_empty_rows(monkeypatch):
    # an empty equation or a zero operator pair cannot raise the rank, so
    # solve and loos_envelope leave it out; the answers stay the same
    empty = []
    real = RowSpace.insert

    def insert(self, vec):
        empty.append(not vec)
        return real(self, vec)
    monkeypatch.setattr(RowSpace, "insert", insert)
    for F, rng in _cases():
        height, n = rng.randint(2, 7), rng.randint(1, 6)
        m = _low_rank_rows(F, rng, height, n, rng.randint(1, n))
        m[rng.randrange(height)] = [F.zero] * n
        target = [row[0] for row in dense_mul(
            F, m, [[_scalar(F, rng)] for _ in range(n)])]
        x = solve(F, _sparse_rows(dense_transpose(m)), to_sparse(target),
                  height)
        assert x is not None and dense_eq(
            [target], [to_dense(F, mat_vec(_sparse_rows(m), x), height)])
    for entry in triple_corpus():
        loos_envelope(entry.triple)
    assert empty and not any(empty)


def test_exchange_double_rejects_non_involution():
    # a sign form whose polar form is not beta: ex(Y_s) = tau^[t](s) Y_s
    # is then no involution of the double's product
    G = AbelianGroup(0, (2, 2, 2))
    a, b, t = (G.element(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    T = Subgroup(G, (a, b))
    beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
    F = CycloField(2)
    D = division_part(T, beta, None, F)
    flat = QuadraticForm(T, dict.fromkeys(T.elements, 1))
    with pytest.raises(VerificationError, match="extended quadratic form"):
        exchange_double_division(dataclasses.replace(D, sign_form=flat), t)

"""The elimination kernel and its wrappers: seeded random properties over
Q and Q(i), checked against the dense oracles in helpers."""

import random

import pytest

from atsbench.constructions import ConstraintError, exchange_double
from atsbench.groups import AbelianGroup
from atsbench.linalg import (RowSpace, identity_matrix, invert_matrix, kernel,
                             mat_mul, mat_vec, rref, solve)
from atsbench.omega import INVOLUTION, PRODUCT, Grading, OmegaAlgebra
from atsbench.scalars import CycloField
from helpers import dense_eq, dense_mul, dense_transpose, random_scalar

CONDUCTORS = (1, 4)
TRIALS = 12


def _scalar(F, rng):
    # about a third of the entries are zero, so pivots get skipped
    return F.zero if rng.random() < 0.35 else random_scalar(F, rng, -2, 2)


def _matrix(F, rng, n, m):
    return [[_scalar(F, rng) for _ in range(m)] for _ in range(n)]


def _low_rank_rows(F, rng, n, width, rank):
    # n rows, each a random combination of `rank` random vectors
    base = _matrix(F, rng, rank, width)
    return dense_mul(F, _matrix(F, rng, n, rank), base)


def _cases():
    for N in CONDUCTORS:
        rng = random.Random(1000 + N)
        F = CycloField(N)
        for _ in range(TRIALS):
            yield F, rng


def _rank(F, rows):
    return len(rref(F, rows)) if rows else 0


def test_rowspace_stays_reduced_echelon():
    for F, rng in _cases():
        width = rng.randint(1, 7)
        space = RowSpace(F, width)
        rows = _low_rank_rows(F, rng, rng.randint(1, 9), width,
                              rng.randint(1, width))
        for v in rows:
            space.insert(v)
            assert all(p < q for p, q in zip(space.pivots, space.pivots[1:]))
            for k, (row, p) in enumerate(zip(space.rows, space.pivots)):
                assert row[p] == F.one
                assert all(x.is_zero() for x in row[:p])
                assert all(other[p].is_zero()
                           for m, other in enumerate(space.rows) if m != k)
        assert all(space.contains(v) for v in rows)


def test_coordinates_rebuild_vector_or_none():
    for F, rng in _cases():
        width = rng.randint(2, 7)
        space = RowSpace(F, width)
        for v in _low_rank_rows(F, rng, 6, width, rng.randint(1, width - 1)):
            space.insert(v)
        vec = dense_mul(F, _matrix(F, rng, 1, space.rank), space.rows)[0]
        coords = space.coordinates(vec)
        assert coords is not None
        assert dense_eq([vec], dense_mul(F, [coords], space.rows))
        free = [j for j in range(width) if j not in space.pivots]
        outside = [F.zero] * width
        outside[rng.choice(free)] = F.one
        assert space.coordinates(outside) is None
        assert not space.contains(outside)


def test_solve_consistent_gives_free_variables_zero():
    for F, rng in _cases():
        height, n = rng.randint(1, 7), rng.randint(1, 6)
        m = _low_rank_rows(F, rng, height, n, rng.randint(1, n))
        columns = dense_transpose(m)
        target = mat_vec(F, m, [_scalar(F, rng) for _ in range(n)])
        x = solve(F, columns, target)
        assert x is not None
        assert dense_eq([target], [mat_vec(F, m, x)])
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
        assert solve(F, columns, target) is None


def test_invert_matrix_and_singular_none():
    for F, rng in _cases():
        n = rng.randint(1, 5)
        m = _matrix(F, rng, n, n)
        inv = invert_matrix(F, m)
        if _rank(F, m) < n:
            assert inv is None
            continue
        assert dense_eq(dense_mul(F, inv, m), identity_matrix(F, n))
        assert dense_eq(dense_mul(F, m, inv), identity_matrix(F, n))
        singular = _low_rank_rows(F, rng, n + 1, n + 1, n)
        assert invert_matrix(F, singular) is None


def test_kernel_is_annihilated_with_width_minus_rank_vectors():
    for F, rng in _cases():
        width = rng.randint(1, 7)
        rows = _low_rank_rows(F, rng, rng.randint(1, 6), width,
                              rng.randint(1, width))
        basis = kernel(F, rows, width)
        assert len(basis) == width - _rank(F, rows)
        assert _rank(F, basis) == len(basis)
        for v in basis:
            assert all(x.is_zero() for x in mat_vec(F, rows, v))


def test_mat_vec_and_mat_mul_match_dense_oracle():
    for F, rng in _cases():
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _matrix(F, rng, n, k), _matrix(F, rng, k, m)
        assert dense_eq(mat_mul(a, b), dense_mul(F, a, b))
        v = [_scalar(F, rng) for _ in range(k)]
        assert dense_eq([mat_vec(F, a, v)],
                        dense_transpose(dense_mul(F, a, [[x] for x in v])))


def test_exchange_double_rejects_non_involution():
    # phi(e0) = 2 e0 squares to 4, not the identity
    F = CycloField(1)
    alg = OmegaAlgebra(F, 1, {PRODUCT: 2, INVOLUTION: 1})
    alg.set_entry(PRODUCT, (0, 0), {0: F.one})
    alg.set_entry(INVOLUTION, (0,), {0: F.scalar(2)})
    Z2 = AbelianGroup(0, (2,))
    grading = Grading(alg, Z2, (Z2.identity,))
    with pytest.raises(ConstraintError, match="square to the identity"):
        exchange_double(alg, grading, Z2.element((1,)))

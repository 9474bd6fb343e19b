"""Shared test oracles: dense exact matrices, plain-Fraction cyclotomic
arithmetic and a complex-float embedding.

The dense-matrix routines are an independent implementation (plain list
arithmetic, no sparse tensors) used to cross-check structure constants;
the `ref_*` routines redo Q(zeta_N) arithmetic on tuples of `Fraction`s
(schoolbook convolution, long division by the cyclotomic polynomial,
Gauss-Jordan for inverses) to cross-check `Scalar`; the float embedding
sends z_N to exp(2 pi i / N) and is used as a sanity oracle next to the
exact assertions, never instead of them.
"""

import cmath
from fractions import Fraction

from atsbench.scalars import Scalar, cyclotomic_polynomial


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


def sparse_of_algebra_elem(alg, vec, dim):
    out = [alg.field.zero] * dim
    for i, c in vec.items():
        out[i] = c
    return out

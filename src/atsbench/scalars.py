"""Exact scalars: rational and cyclotomic field arithmetic.

Every coefficient in the workbench lives in Q(zeta_N) for a fixed
conductor N chosen per session (N = 1 or 2 degenerates to plain
rationals).  Elements are coefficient vectors of length phi(N) on the
power basis 1, z, ..., z^(phi(N)-1).  There is no floating point: a
scalar stores integer numerators `num` over one positive common
denominator `den`, in lowest terms (gcd(den, *num) == 1, so zero is
(0, ..., 0)/1).  All arithmetic is integral and reads one table, the
powers of zeta reduced mod Phi_N: products reduce through it, and the
inverse is the product of the other Galois conjugates over the norm.
`coeffs` gives the coefficients as `fractions.Fraction`s.  Arithmetic
takes two scalars of one conductor (an int or Fraction enters through
`CycloField.scalar`); `==` also compares a scalar with an int or Fraction.

>>> F = CycloField(4)
>>> i = F.zeta(4, 1)
>>> i * i == F.scalar(-1)
True
>>> str(F.scalar(Fraction(1, 2)) + F.scalar(Fraction(1, 2)))
'1'
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, sub


class ConductorMismatch(ValueError):
    """Raised when operands live in different cyclotomic fields."""


class ScalarDivisionError(ZeroDivisionError):
    """Raised on division by the zero scalar."""


class VerificationError(RuntimeError):
    """Two exact computations that must agree did not: a bug in the
    workbench, not a property of the input."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d;
    each Phi_d is monic, so the long division stays integral.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            k = len(den) - 1
            quot = [0] * (len(num) - k)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = num[i + k]
                for j, e in enumerate(den):
                    num[i + j] -= c * e
            if any(num):
                raise VerificationError("cyclotomic division must be exact")
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _powers(conductor: int) -> tuple[tuple[int, ...], ...]:
    """Row m is zeta^m reduced mod Phi_N, as phi(N) ints.

    Rows run m = 0 .. max(N, 2 phi - 1) - 1: every power of zeta, and every
    degree a product of two reduced numerators reaches.
    """
    phi = euler_phi(conductor)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1}) since Phi is monic
    low = cyclotomic_polynomial(conductor)[:phi]
    row = (1,) + (0,) * (phi - 1)
    rows = []
    for _ in range(max(conductor, 2 * phi - 1)):
        rows.append(row)
        top = row[-1]
        row = (0,) + row[:-1]
        if top:
            row = tuple(r - top * c for r, c in zip(row, low))
    return tuple(rows)


def _product(conductor: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Integer numerators of a*b: the convolution, reduced by the power table."""
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    powers = _powers(conductor)
    out = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            row = powers[k]
            for j in range(phi):
                out[j] += c * row[j]
    return tuple(out)


def _mismatch(a: "Scalar", b: "Scalar") -> ConductorMismatch:
    return ConductorMismatch(
        f"conductor mismatch: {a.conductor} vs {b.conductor}")


class Scalar:
    """An element of Q(zeta_N), immutable and hashable."""

    __slots__ = ("conductor", "num", "den")

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def rational(value, conductor: int = 1) -> "Scalar":
        if type(value) is not int:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        else:
            num, den = value, 1
        return _make(conductor, (num,) + (0,) * (euler_phi(conductor) - 1), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if self.conductor != other.conductor:
            raise _mismatch(self, other)
        da, db = self.den, other.den
        if da == db:
            return _make(self.conductor, tuple(map(add, self.num, other.num)), da)
        return _make(self.conductor,
                     tuple(a * db + b * da for a, b in zip(self.num, other.num)),
                     da * db)

    def __sub__(self, other):
        if self.conductor != other.conductor:
            raise _mismatch(self, other)
        da, db = self.den, other.den
        if da == db:
            return _make(self.conductor, tuple(map(sub, self.num, other.num)), da)
        return _make(self.conductor,
                     tuple(a * db - b * da for a, b in zip(self.num, other.num)),
                     da * db)

    def __neg__(self):
        return _make(self.conductor, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        conductor = self.conductor
        if conductor != other.conductor:
            raise _mismatch(self, other)
        a, b = self.num, other.num
        # +1 or -1 times x is x itself (scalars are immutable) or -x
        if self.den == 1 and a[0] in (1, -1) and a.count(0) == len(a) - 1:
            return other if a[0] == 1 else _make(
                conductor, tuple(-n for n in b), other.den)
        if other.den == 1 and b[0] in (1, -1) and b.count(0) == len(b) - 1:
            return self if b[0] == 1 else _make(
                conductor, tuple(-n for n in a), self.den)
        den = self.den * other.den
        if len(a) == 1:
            return _make(conductor, (a[0] * b[0],), den)
        return _make(conductor, _product(conductor, a, b), den)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ScalarDivisionError("division by zero scalar")
        conductor, num = self.conductor, self.num
        if not any(num[1:]):                # a rational a = num[0] / den
            return _make(conductor, (self.den if num[0] > 0 else -self.den,)
                         + num[1:], abs(num[0]))
        # a^-1 = P / N(a) with P the product of the conjugates sigma_k(a),
        # k != 1 a unit mod N; the Galois norm N(a) = a*P is rational
        phi = len(num)
        powers = _powers(conductor)
        conj = (1,) + (0,) * (phi - 1)
        for k in range(2, conductor):
            if gcd(k, conductor) == 1:
                sigma = [0] * phi
                for j, n in enumerate(num):
                    if n:
                        row = powers[j * k % conductor]
                        for i in range(phi):
                            sigma[i] += n * row[i]
                conj = _product(conductor, conj, tuple(sigma))
        norm = _product(conductor, num, conj)
        if any(norm[1:]):
            raise VerificationError("the Galois norm must be rational")
        scale = self.den if norm[0] > 0 else -self.den
        return _make(conductor, tuple(scale * c for c in conj), abs(norm[0]))

    def __truediv__(self, other):
        return self * other.inverse()

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.rational(other, self.conductor)
        return (self.num == other.num and self.den == other.den
                and self.conductor == other.conductor)

    def __hash__(self):
        # a rational scalar equals its int or Fraction, so it hashes as one
        if self.is_rational():
            n, den = self.num[0], self.den
            return hash(n) if den == 1 else hash(Fraction(n, den))
        return hash((self.conductor, self.num, self.den))

    def __repr__(self):
        return f"Scalar({self.conductor}, {self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mon = f"z{self.conductor}" if k == 1 else f"z{self.conductor}^{k}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        text = "+".join(parts)
        return text.replace("+-", "-")


_new_scalar = object.__new__
_set_conductor = Scalar.conductor.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__


def _make(conductor: int, num: tuple[int, ...], den: int) -> Scalar:
    """The scalar num/den of this conductor; den > 0, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = tuple(n // g for n in num)
    s = _new_scalar(Scalar)
    _set_conductor(s, conductor)
    _set_num(s, num)
    _set_den(s, den)
    return s


class CycloField:
    """A fixed cyclotomic field Q(zeta_N); hands out scalars of that conductor."""

    def __init__(self, conductor: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self.conductor = conductor
        # scalars are immutable, so every caller can share these two
        self._zero = Scalar.rational(0, conductor)
        self._one = Scalar.rational(1, conductor)

    @property
    def zero(self) -> Scalar:
        return self._zero

    @property
    def one(self) -> Scalar:
        return self._one

    def scalar(self, value) -> Scalar:
        return Scalar.rational(value, self.conductor)

    def zeta(self, order: int, power: int = 1) -> Scalar:
        """zeta_order^power as an element of this field.

        Requires order to divide the conductor so the root actually has
        a monomial representative; the result has multiplicative order
        dividing `order`.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        if self.conductor % order != 0:
            raise ConductorMismatch(
                f"order {order} does not divide conductor {self.conductor}")
        exponent = (self.conductor // order) * power % self.conductor
        return _make(self.conductor, _powers(self.conductor)[exponent], 1)

    def roots_of_unity(self) -> list[Scalar]:
        """All roots of unity contained in the field: the group <zeta_M>
        with M = conductor for even conductors and 2*conductor otherwise."""
        m = self.conductor if self.conductor % 2 == 0 else 2 * self.conductor
        out, seen = [], set()
        for row in _powers(self.conductor)[:self.conductor]:
            for num in (row, tuple(-c for c in row)):
                if num not in seen:
                    seen.add(num)
                    out.append(_make(self.conductor, num, 1))
        if len(out) != m:
            raise VerificationError(f"found {len(out)} roots of unity, "
                                    f"not {m}")
        return out

    def __repr__(self):
        return f"CycloField({self.conductor})"


def parse_scalar(text: str, conductor: int) -> Scalar:
    """Parse the textual scalar form used in configs and reports.

    Accepts sums of terms like `3/2`, `-z4`, `2*z12^5`; the zN marker
    must match the session conductor.

    >>> parse_scalar("1/2 + 1/2", 1).rational_value()
    Fraction(1, 1)
    """
    field = CycloField(conductor)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    total = field.zero
    for term in s.split("+"):
        if not term:
            raise ValueError(f"malformed scalar literal {text!r}")
        try:
            total = total + _parse_term(term, field)
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in scalar literal {text!r}") from None
    return total


def _parse_term(term: str, field: CycloField) -> Scalar:
    coef = Fraction(1)
    body = term
    if "*" in term:
        head, body = term.split("*", 1)
        coef = Fraction(head)
    elif "z" not in term:
        return field.scalar(Fraction(term))
    elif term.startswith("-z"):
        coef, body = Fraction(-1), term[1:]
    if not body.startswith("z"):
        raise ValueError(f"malformed scalar term {term!r}")
    rest = body[1:]
    if "^" in rest:
        n_str, k_str = rest.split("^", 1)
        n, k = int(n_str), int(k_str)
    else:
        n, k = int(rest), 1
    if n != field.conductor:
        raise ConductorMismatch(
            f"scalar literal uses z{n} but session conductor is {field.conductor}")
    return field.scalar(coef) * field.zeta(n, k)

"""Exact cyclotomic arithmetic: spec examples and field axioms."""

import doctest
import random
from fractions import Fraction
from math import gcd

import pytest

from atsbench import scalars
from atsbench.scalars import (ConductorMismatch, CycloField, Scalar,
                              ScalarDivisionError, cyclotomic_polynomial,
                              euler_phi, parse_scalar)
from helpers import (close, numeric, random_scalar, ref_add, ref_inverse,
                     ref_mul, ref_reduce, ref_sub)

# at 5 and 7, 2 phi - 1 > N: products reach powers of zeta beyond zeta^(N-1)
PROPERTY_CONDUCTORS = (1, 3, 4, 5, 7, 8, 9, 12, 15, 16)
TABLE_CONDUCTORS = PROPERTY_CONDUCTORS + (2, 6, 10, 20, 24)


def test_module_doctests_pass():
    # the suite collects tests/ only, so the examples in scalars' docstrings
    # run here
    result = doctest.testmod(scalars)
    assert result.failed == 0 and result.attempted >= 6


def random_scalars(conductor, rng, n):
    """n scalars with small non-integer coefficients, zero among them."""
    phi = euler_phi(conductor)
    out = [Scalar(conductor, [0] * phi)]
    while len(out) < n:
        out.append(Scalar(conductor, [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)]))
    return out


def reference_str(s):
    """The textual form, rebuilt from the Fraction coefficients."""
    if all(c == 0 for c in s.coeffs):
        return "0"
    parts = []
    for k, c in enumerate(s.coeffs):
        if c == 0:
            continue
        mon = f"z{s.conductor}" if k == 1 else f"z{s.conductor}^{k}"
        parts.append(str(c) if k == 0 else mon if c == 1
                     else f"-{mon}" if c == -1 else f"{c}*{mon}")
    return "+".join(parts).replace("+-", "-")


def test_root_of_unity_identity_case():
    assert CycloField(1).zeta(1, 0) == CycloField(1).one


def test_root_of_unity_minus_one():
    F = CycloField(2)
    assert F.zeta(2, 1) == F.scalar(-1)


def test_zeta4_squared_is_minus_one():
    # oracle: reduce x*x modulo x^2 + 1 by hand: x^2 = -1
    F = CycloField(4)
    i = F.zeta(4, 1)
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert i * i == F.scalar(-1)
    assert close(numeric(i) ** 2, -1)


def test_half_plus_half():
    F = CycloField(1)
    assert F.scalar(Fraction(1, 2)) + F.scalar(Fraction(1, 2)) == F.one


def test_inverse_of_minus_one():
    F = CycloField(2)
    assert F.scalar(-1).inverse() == F.scalar(-1)


def test_field_axioms_randomized_exact():
    # associativity, distributivity, inverses on seeded random triples
    rng = random.Random(12345)
    for conductor in (1, 2, 3, 4, 12):
        F = CycloField(conductor)
        for _ in range(40):
            a, b, c = (random_scalar(F, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == F.one
                assert (a / a) == F.one


def test_root_orders():
    for conductor in (2, 3, 4, 6, 12):
        F = CycloField(conductor)
        for n in (1, 2, 3, 4, 6, 12):
            if conductor % n:
                continue
            z = F.zeta(n, 1)
            assert z ** n == F.one
            for k in range(1, n):
                assert z ** k != F.one


def test_conductor_mismatch_errors():
    F3 = CycloField(3)
    with pytest.raises(ConductorMismatch):
        F3.zeta(2, 1)
    with pytest.raises(ConductorMismatch):
        CycloField(4).one + CycloField(2).one


def test_division_by_zero():
    F = CycloField(4)
    with pytest.raises(ScalarDivisionError):
        F.one / F.zero


def test_numeric_embedding_consistency():
    rng = random.Random(7)
    F = CycloField(12)
    for _ in range(25):
        a, b = random_scalar(F, rng), random_scalar(F, rng)
        assert close(numeric(a * b), numeric(a) * numeric(b), 1e-7)
        assert close(numeric(a + b), numeric(a) + numeric(b), 1e-7)


def test_textual_forms():
    assert parse_scalar("1/2 + 1/2", 1).rational_value() == 1
    F = CycloField(12)
    s = F.scalar(Fraction(3, 2)) * F.zeta(12, 5) - F.one
    assert parse_scalar(str(s), 12) == s
    assert str(F.zero) == "0"
    with pytest.raises(ConductorMismatch):
        parse_scalar("z4^1", 12)


def test_euler_phi_small():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_roots_of_unity_group():
    F = CycloField(4)
    roots = F.roots_of_unity()
    assert len(roots) == 4
    assert all((r ** 4) == F.one for r in roots)
    F3 = CycloField(3)
    roots3 = F3.roots_of_unity()
    assert len(roots3) == 6


@pytest.mark.parametrize("conductor", PROPERTY_CONDUCTORS)
def test_field_axioms_on_fractional_coefficients(conductor):
    rng = random.Random(100 + conductor)
    zero, one = CycloField(conductor).zero, CycloField(conductor).one
    xs = random_scalars(conductor, rng, 12)
    for _ in range(40):
        a, b, c = (rng.choice(xs) for _ in range(3))
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a - a == zero
        assert a + (-a) == 0 and a * zero == 0
        if not a.is_zero():
            assert a * a.inverse() == 1
            assert (b / a) * a == b


@pytest.mark.parametrize("conductor", PROPERTY_CONDUCTORS)
def test_arithmetic_agrees_with_fraction_reference(conductor):
    rng = random.Random(200 + conductor)
    xs = random_scalars(conductor, rng, 12)
    for _ in range(40):
        a, b = rng.choice(xs), rng.choice(xs)
        assert (a + b).coeffs == ref_add(a.coeffs, b.coeffs)
        assert (a - b).coeffs == ref_sub(a.coeffs, b.coeffs)
        assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs, conductor)
        assert (-a).coeffs == tuple(-c for c in a.coeffs)
        if not a.is_zero():
            assert a.inverse().coeffs == ref_inverse(a.coeffs, conductor)


@pytest.mark.parametrize("conductor", (1, 2, 3, 4, 5, 8, 12))
def test_rational_inverse_matches_reference(conductor):
    # a rational scalar is inverted as den / num[0], in lowest terms with a
    # positive denominator, without forming Galois conjugates
    F = CycloField(conductor)
    for value in (1, -1, 2, -2, Fraction(3, 7), Fraction(-5, 4),
                  10 ** 20 + 1):
        a = F.scalar(value)
        inv = a.inverse()
        assert inv.coeffs == ref_inverse(a.coeffs, conductor)
        assert inv == 1 / Fraction(value) and a * inv == 1
        assert all(type(n) is int for n in inv.num) and inv.den >= 1
        assert gcd(inv.den, *inv.num) == 1
    with pytest.raises(ScalarDivisionError):
        F.zero.inverse()
    with pytest.raises(ScalarDivisionError):
        F.scalar(Fraction(0, 3)).inverse()


@pytest.mark.parametrize("conductor", (1, 2, 3, 4, 12))
def test_products_with_plus_or_minus_one(conductor):
    # +1 and -1, however they are made, times any scalar on either side:
    # the reference product, in lowest terms; +1 hands back the other
    # factor itself (either one, when both are +1 or -1).  Near-units
    # (1/2, 2, zeta, 1 + zeta) take the full product and must agree too.
    rng = random.Random(500 + conductor)
    F = CycloField(conductor)
    phi = euler_phi(conductor)
    plus = [F.one, F.scalar(1), Scalar(conductor, [1] + [0] * (phi - 1)),
            F.zeta(conductor, 0), -(-F.one)]
    minus = [-F.one, F.scalar(-1), F.one * F.scalar(-1), F.zeta(2, 1)
             if conductor % 2 == 0 else F.zero - F.one]
    near = [F.scalar(Fraction(1, 2)), F.scalar(Fraction(-1, 2)),
            F.scalar(2), F.scalar(-2)]
    if phi > 1:
        near += [F.zeta(conductor, 1), F.one + F.zeta(conductor, 1)]
    partners = random_scalars(conductor, rng, 15) + [
        random_scalar(F, rng) for _ in range(5)] + plus[:1] + minus[:1] + near
    assert any(x.den != 1 for x in partners)
    for unit in plus + minus + near:
        for x in partners:
            for product in (unit * x, x * unit):
                assert product.coeffs == ref_mul(unit.coeffs, x.coeffs,
                                                 conductor)
                assert all(type(n) is int for n in product.num)
                assert product.den >= 1
                assert gcd(product.den, *product.num) == 1
                assert product.den == 1 or not product.is_zero()
                if unit in plus and x not in plus + minus:
                    assert product is x
                if unit in minus:
                    assert product == -x


@pytest.mark.parametrize("conductor", PROPERTY_CONDUCTORS)
def test_hash_text_and_parse_round_trip(conductor):
    rng = random.Random(300 + conductor)
    F = CycloField(conductor)
    xs = random_scalars(conductor, rng, 30) + [F.one, -F.one, F.scalar(7)]
    for s in xs:
        assert hash(s) == (hash(s.rational_value()) if s.is_rational()
                           else hash((conductor, s.num, s.den)))
        assert str(s) == reference_str(s)
        assert repr(s) == f"Scalar({conductor}, {reference_str(s)})"
        assert parse_scalar(str(s), conductor) == s
        assert Scalar(conductor, s.coeffs) == s
        assert Scalar(conductor, [str(c) for c in s.coeffs]) == s
    with pytest.raises(ValueError, match="expected"):
        Scalar(conductor, [1] * (euler_phi(conductor) + 1))


@pytest.mark.parametrize("conductor", [1, 4, 12])
def test_equal_scalars_hash_equal(conductor):
    # hash agrees with ==: a rational scalar is one set or dict key with
    # the int or Fraction it equals, and equal elements of Q(i) built two
    # ways are one key
    F = CycloField(conductor)
    assert 1 in {F.one} and len({F.one, 1}) == 1
    for value in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3), 2 ** 70):
        s = F.scalar(value)
        assert s == value and hash(s) == hash(value)
        assert {value: "v"}[s] == "v" and {s: "s"}[value] == "s"
    if conductor % 4 == 0:
        i = F.zeta(4)
        a = (i + F.scalar(Fraction(1, 2))) * 2
        b = F.scalar(1) + i + i
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert i * i == -1 and hash(i * i) == hash(-1)
        assert i not in {1, -1, Fraction(1, 2)}


@pytest.mark.parametrize("conductor", PROPERTY_CONDUCTORS)
def test_canonical_integer_form(conductor, monkeypatch):
    rng = random.Random(400 + conductor)
    xs = random_scalars(conductor, rng, 12)
    results = list(xs)
    for a, b in zip(xs, xs[1:]):
        results += [a + b, a - b, a * b, -a, a - a, (a + a) * b]
    for s in results:
        assert all(type(n) is int for n in s.num) and type(s.den) is int
        assert s.den >= 1 and gcd(s.den, *s.num) == 1
        assert s.den == 1 or not s.is_zero()

    def no_fraction(*args):
        raise AssertionError("Fraction built")
    F = CycloField(conductor)
    monkeypatch.setattr(scalars, "Fraction", no_fraction)
    for a, b in zip(xs, xs[1:]):
        a + b, a - b, a * b, -a, a.is_zero(), a == b
        if not a.is_zero():
            a.inverse()
    for k in range(-1, conductor + 1):
        F.zeta(conductor, k)
    F.roots_of_unity()


@pytest.mark.parametrize("conductor", TABLE_CONDUCTORS)
def test_power_table_rows(conductor):
    # row m of the table is x^m reduced mod Phi_N, for every power of zeta
    # and every degree a product of two reduced numerators reaches
    phi = euler_phi(conductor)
    rows = scalars._powers(conductor)
    assert len(rows) == max(conductor, 2 * phi - 1)
    assert all(type(c) is int for c in cyclotomic_polynomial(conductor))
    for m, row in enumerate(rows):
        assert all(type(c) is int for c in row)
        assert row == ref_reduce([0] * m + [1], conductor)
        assert Scalar(conductor, row) == CycloField(conductor).zeta(
            conductor, m)


@pytest.mark.parametrize("conductor", TABLE_CONDUCTORS)
def test_roots_of_unity_order(conductor):
    # zeta^0, -zeta^0, zeta^1, -zeta^1, ... with repeats dropped: the order
    # the witness searches try their candidates in
    F = CycloField(conductor)
    z, current, expected = F.zeta(conductor, 1), F.one, []
    for _ in range(conductor):
        for s in (current, -current):
            if s not in expected:
                expected.append(s)
        current = current * z
    roots = F.roots_of_unity()
    assert roots == expected
    assert len(roots) == (conductor if conductor % 2 == 0 else 2 * conductor)

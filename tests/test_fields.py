"""Scalar backends: rational square roots, quadratic extensions, kinds."""
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from porism.errors import FieldInsufficient, MixedBackend
from porism.fields import (
    FLOAT_TOL,
    QuadExt,
    quadext,
    rational_sqrt,
    scalar_kind,
    sqrt_scalar,
)

fractions = st.fractions(min_value=-60, max_value=60, max_denominator=12)
nonzero_fractions = fractions.filter(lambda q: q != 0)


def test_rational_sqrt_exact_values():
    assert rational_sqrt(Fraction(4)) == 2
    assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None


@given(fractions)
def test_rational_sqrt_squares_round_trip(q):
    r = rational_sqrt(q * q)
    assert r == abs(q)


def test_quadext_rejects_trivial_extension():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 0)
    with pytest.raises(ValueError):
        QuadExt(1, 0, 2)


def test_quadext_factory_demotes():
    assert quadext(3, 0, 2) == Fraction(3)
    assert isinstance(quadext(3, 1, 2), QuadExt)


def test_quadext_known_arithmetic():
    r2 = QuadExt(0, 1, 2)  # sqrt(2)
    assert r2 * r2 == Fraction(2)
    assert (1 + r2) * (1 - r2) == Fraction(-1)
    assert (1 + r2) ** 2 == QuadExt(3, 2, 2)
    assert r2.inverse() == QuadExt(0, Fraction(1, 2), 2)
    assert Fraction(1) / r2 == QuadExt(0, Fraction(1, 2), 2)
    assert r2.norm() == -2
    assert r2.conjugate() == QuadExt(0, -1, 2)


def test_quadext_equal_across_generators():
    # sqrt(8) = 2 sqrt(2): same field, same value, same hash
    assert QuadExt(0, 1, 8) == QuadExt(0, 2, 2)
    assert hash(QuadExt(0, 1, 8)) == hash(QuadExt(0, 2, 2))
    assert QuadExt(0, 1, 2) != QuadExt(0, 1, 3)


def test_quadext_incompatible_fields_raise():
    with pytest.raises(MixedBackend):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    with pytest.raises(MixedBackend):
        QuadExt(0, 1, 2) * 1.5


def test_quadext_over_a_rational_radicand_is_held_over_an_integer():
    # sqrt(1/2) = sqrt(2)/2
    x, y = QuadExt(1, 1, Fraction(1, 2)), QuadExt(1, Fraction(1, 2), 2)
    assert x == y and hash(x) == hash(y)
    assert x.d == 2 and repr(x) == repr(y) == "QuadExt(1, 1/2, d=2)"
    assert all(type(v) is Fraction for v in (x.a, x.b, x.d))


def test_quadext_arithmetic_builds_no_fraction(no_fraction_built):
    x, y = QuadExt(1, 2, 3), QuadExt(Fraction(1, 2), -3, 3)
    with no_fraction_built():
        results = [x + y, x - y, 2 - x, x * y, x * 3, x / y, 3 / x, x / 2, x.inverse()]
    assert all(isinstance(r, QuadExt) for r in results)
    assert results[5] * y == x and results[8] * x == Fraction(1)


def test_quadext_compatible_generators_combine():
    assert QuadExt(0, 1, 2) + QuadExt(0, 1, 8) == QuadExt(0, 3, 2)


def test_quadext_negative_discriminant():
    i = QuadExt(0, 1, -1)
    assert i * i == Fraction(-1)
    with pytest.raises(ValueError):
        float(i)
    with pytest.raises(ValueError):
        abs(i)


def test_quadext_abs_decides_the_sign_exactly():
    # 10^20 - sqrt(10^40 + 1) is about -5e-21: its float image rounds to 0.0
    tiny = QuadExt(10**20, -1, 10**40 + 1)
    assert abs(tiny) == QuadExt(-(10**20), 1, 10**40 + 1)
    assert abs(-tiny) == -tiny
    assert abs(QuadExt(0, -1, 2)) == QuadExt(0, 1, 2)
    assert abs(QuadExt(-1, -1, 2)) == QuadExt(1, 1, 2)
    assert abs(QuadExt(2, -1, 3)) == QuadExt(2, -1, 3)  # 2 > sqrt(3)
    assert abs(QuadExt(-2, 1, 5)) == QuadExt(-2, 1, 5)  # sqrt(5) > 2


quad_elements = st.builds(
    QuadExt,
    fractions,
    nonzero_fractions,
    st.sampled_from([2, 3, 5, -1, -3, Fraction(7, 2)]),
)


@given(quad_elements, quad_elements)
def test_quadext_field_axioms_same_d(x, y):
    y = QuadExt(y.a, y.b, x.d)  # move into the same extension
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    assert x * y / y == x


@given(quad_elements)
def test_quadext_inverse_is_two_sided(x):
    assert x * x.inverse() == Fraction(1)
    assert x.inverse() * x == Fraction(1)


def _norm_of(value):
    return value.norm() if isinstance(value, QuadExt) else Fraction(value) ** 2


@given(quad_elements, quad_elements)
def test_quadext_norm_multiplicative(x, y):
    y = QuadExt(y.a, y.b, x.d)
    assert _norm_of(x * y) == x.norm() * y.norm()


def test_sqrt_scalar_rational_square():
    assert sqrt_scalar(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_scalar(Fraction(0)) == 0


def test_sqrt_scalar_extends():
    r = sqrt_scalar(Fraction(2))
    assert isinstance(r, QuadExt)
    assert r * r == Fraction(2)
    # negative rationals extend too (imaginary quadratic field)
    s = sqrt_scalar(Fraction(-3))
    assert s * s == Fraction(-3)


def test_sqrt_scalar_inside_extension():
    # 3 + 2 sqrt(2) = (1 + sqrt(2))^2
    x = QuadExt(3, 2, 2)
    r = sqrt_scalar(x)
    assert r * r == x
    with pytest.raises(FieldInsufficient):
        sqrt_scalar(QuadExt(0, 1, 2))  # sqrt(sqrt(2)) needs a degree-4 field


def test_sqrt_scalar_float():
    assert sqrt_scalar(2.25) == 1.5
    with pytest.raises(FieldInsufficient):
        sqrt_scalar(-1.0)


@given(nonzero_fractions)
def test_sqrt_scalar_squares_anything_rational(q):
    r = sqrt_scalar(q)
    assert r * r == q


def test_scalar_kind_and_helpers():
    assert scalar_kind(Fraction(1)) == "exact"
    assert scalar_kind(1) == "exact"
    assert scalar_kind(QuadExt(0, 1, 5)) == "exact"
    assert scalar_kind(1.5) == "float"
    with pytest.raises(TypeError):
        scalar_kind("x")


@given(quad_elements)
def test_quadext_abs_agrees_with_a_high_precision_sign(x):
    if x.d < 0:
        return
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, d = (Decimal(q.numerator) / Decimal(q.denominator) for q in (x.a, x.b, x.d))
        positive = a + b * d.sqrt() > 0
    assert abs(x) == (x if positive else -x)


@given(quad_elements, st.integers(min_value=-7, max_value=7))
def test_quadext_power_is_the_repeated_product(x, n):
    base = x if n >= 0 else x.inverse()
    expected = Fraction(1)
    for _ in range(abs(n)):
        expected = base * expected
    assert x**n == expected


@given(fractions, nonzero_fractions, st.sampled_from([2, 3, 5, -1, Fraction(7, 2)]),
       st.sampled_from([2, 3, Fraction(1, 2)]))
def test_quadext_equal_elements_hash_equal(a, b, d, k):
    # one element written over d and over k^2 d, and its neighbours in both fields
    x, y = QuadExt(a, b, d), QuadExt(a, b / k, d * k * k)
    assert x == y and hash(x) == hash(y)
    for u in (x, x + 1, -x, x.conjugate(), x * x):
        for v in (y, y + 1, -y, y.conjugate(), y * y):
            if u == v:
                assert hash(u) == hash(v)


def test_quadext_hash_separates_a_shared_rational_part():
    # elements that share only their rational part need not share a bucket
    assert len({hash(QuadExt(1, k, 2)) for k in range(1, 21)}) > 1

"""Scalar backends: rational square roots, quadratic extensions, kinds."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from porism.errors import FieldInsufficient, MixedBackend
from porism.fields import (
    FLOAT_TOL,
    QuadExt,
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


def test_quadext_arithmetic_demotes_to_fraction():
    r2 = QuadExt(0, 1, 2)
    for value in (3 + 0 * r2, (3 + r2) - r2, r2 * r2, r2 / r2):
        assert type(value) is Fraction
    assert isinstance(3 + 1 * r2, QuadExt)


def test_quadext_known_arithmetic():
    r2 = QuadExt(0, 1, 2)  # sqrt(2)
    assert r2 * r2 == Fraction(2)
    assert (1 + r2) * (1 - r2) == Fraction(-1)
    assert (1 + r2) * (1 + r2) == QuadExt(3, 2, 2)
    assert Fraction(1) / r2 == QuadExt(0, Fraction(1, 2), 2)
    assert r2.norm() == -2


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
        results = [x + y, x - y, 2 - x, x * y, x * 3, x / y, 3 / x, x / 2, 1 / x]
    assert all(isinstance(r, QuadExt) for r in results)
    assert results[5] * y == x and results[8] * x == Fraction(1)


def test_quadext_compatible_generators_combine():
    assert QuadExt(0, 1, 2) + QuadExt(0, 1, 8) == QuadExt(0, 3, 2)


def test_quadext_negative_discriminant():
    i = QuadExt(0, 1, -1)
    assert i * i == Fraction(-1)
    with pytest.raises(ValueError):
        float(i)


def test_quadext_float_survives_cancelling_terms():
    # -45040877 + 3356 sqrt(180123244) = -0.62491617770364716...: each term
    # is about 4.5e7, and their float sum was off by 4e-9
    x = QuadExt(-45040877, 3356, 180123244)
    assert float(x) == pytest.approx(-0.6249161777036472, rel=1e-15)
    assert float(-x) == -float(x)
    for y in (QuadExt(1, 1, 2), QuadExt(-1, 1, 2), QuadExt(0, -3, 5), QuadExt(Fraction(7, 3), -1, 6)):
        assert float(y) == pytest.approx(float(y.a) + float(y.b) * float(y.d) ** 0.5, rel=1e-15)


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
    assert x * (1 / x) == Fraction(1)
    assert (1 / x) * x == Fraction(1)


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


@given(quad_elements)
def test_sqrt_scalar_of_an_extension_square_stays_in_its_field(x):
    # an irrational square is rooted by _quadext_sqrt, which reads its norm
    assert sqrt_scalar(x * x) in (x, -x)


def test_scalar_kind_and_helpers():
    assert scalar_kind(Fraction(1)) == "exact"
    assert scalar_kind(1) == "exact"
    assert scalar_kind(QuadExt(0, 1, 5)) == "exact"
    assert scalar_kind(1.5) == "float"
    with pytest.raises(TypeError):
        scalar_kind("x")


@given(fractions, nonzero_fractions, st.sampled_from([2, 3, 5, -1, Fraction(7, 2)]),
       st.sampled_from([2, 3, Fraction(1, 2)]))
def test_quadext_equal_elements_hash_equal(a, b, d, k):
    # one element written over d and over k^2 d, and its neighbours in both fields
    x, y = QuadExt(a, b, d), QuadExt(a, b / k, d * k * k)
    assert x == y and hash(x) == hash(y)
    for u in (x, x + 1, -x, 2 * a - x, x * x):
        for v in (y, y + 1, -y, 2 * a - y, y * y):
            if u == v:
                assert hash(u) == hash(v)


def test_quadext_hash_separates_a_shared_rational_part():
    # elements that share only their rational part need not share a bucket
    assert len({hash(QuadExt(1, k, 2)) for k in range(1, 21)}) > 1

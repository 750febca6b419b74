"""Polynomial recurrence and small exact matrices."""
from fractions import Fraction

from hypothesis import given, strategies as st

from porism.algebra import (
    Mat2,
    Polynomial,
    det3,
    is_scalar_multiple_of_identity,
    pn_polynomial,
)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=8)


def test_polynomial_evaluation_and_ops():
    p = Polynomial([1, 0, -1])  # 1 - x^2, lowest degree first
    assert p(Fraction(2)) == -3
    assert p(Fraction(0)) == 1
    q = Polynomial([0, 1])  # x
    assert (p + q)(Fraction(2)) == -1
    assert (p * q)(Fraction(3)) == -24
    assert (p - p)(Fraction(5)) == 0
    # a scalar on either side of each operator, as in Mat2 entries mixing both
    assert 1 - q == Polynomial([1, -1]) and q - 1 == -(1 - q)
    assert Mat2(1, 0, q, -1).det() == Polynomial([-1])


def test_polynomial_degree_and_equality():
    # trailing zeros are trimmed, so the zero polynomial has no coefficients
    assert Polynomial([1, 0, 0]) == Polynomial([1])
    assert Polynomial([0]).coeffs == () and Polynomial([0]).is_zero()
    assert Polynomial([0, 0, 3]).coeffs == (0, 0, 3)


def test_pn_polynomial_frozen_values():
    # P_0 = 1, P_1 = x, then P_n = x P_{n-1} - P_{n-2}
    assert pn_polynomial(0) == Polynomial([1])
    assert pn_polynomial(1) == Polynomial([0, 1])
    assert pn_polynomial(2) == Polynomial([-1, 0, 1])         # x^2 - 1
    assert pn_polynomial(3) == Polynomial([0, -2, 0, 1])      # x^3 - 2x
    assert pn_polynomial(4) == Polynomial([1, 0, -3, 0, 1])   # x^4 - 3x^2 + 1


@given(st.integers(min_value=2, max_value=12), fractions)
def test_pn_polynomial_recurrence(n, x):
    lhs = pn_polynomial(n)(x)
    rhs = x * pn_polynomial(n - 1)(x) - pn_polynomial(n - 2)(x)
    assert lhs == rhs


def test_mat2_known_products():
    m = Mat2(Fraction(1), Fraction(-1), Fraction(1), Fraction(0))
    cube = m * m * m
    assert cube == Mat2(Fraction(-1), Fraction(0), Fraction(0), Fraction(-1))
    assert is_scalar_multiple_of_identity(cube)
    assert not is_scalar_multiple_of_identity(m)
    assert m.trace() == 1
    assert m.det() == 1


def test_mat2_identity_and_power():
    m = Mat2(Fraction(2), Fraction(1), Fraction(1), Fraction(1))
    assert Mat2.identity() * m == m == m * Mat2.identity()
    assert is_scalar_multiple_of_identity(Mat2.identity())
    # powers of [[2, 1], [1, 1]] are [[F(2k+1), F(2k)], [F(2k), F(2k-1)]]
    assert m * m * m * m * m == Mat2(89, 55, 55, 34)


mat_entries = st.tuples(fractions, fractions, fractions, fractions)


@given(mat_entries, mat_entries)
def test_mat2_det_multiplicative(eu, ev):
    u, v = Mat2(*eu), Mat2(*ev)
    assert (u * v).det() == u.det() * v.det()


def test_det3_frozen_values():
    assert det3((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert det3((1, 2, 3), (4, 5, 6), (7, 8, 9)) == 0
    assert det3((2, 0, 0), (0, 3, 0), (0, 0, 4)) == 24


@given(st.tuples(fractions, fractions, fractions),
       st.tuples(fractions, fractions, fractions),
       st.tuples(fractions, fractions, fractions))
def test_det3_alternating(r1, r2, r3):
    assert det3(r1, r2, r3) == -det3(r2, r1, r3)
    assert det3(r1, r1, r3) == 0


def test_reprs_write_ints_past_the_digit_limit_by_bit_length(digit_limit_640):
    huge = 10**700  # 2326 bits
    assert repr(Mat2(huge, 0, 0, 1)) == "Mat2(<2326-bit int>, 0, 0, 1)"
    assert repr(Mat2(Fraction(-huge, 3), 0, 0, 1)) == "Mat2(Fraction(-<2326-bit int>, 3), 0, 0, 1)"
    assert repr(Polynomial([huge, 1])) == "Polynomial(<2326-bit int> + x)"
    # short values print as repr and str write them
    assert repr(Mat2.identity()) == (
        "Mat2(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))")
    assert repr(Mat2(1, -2, 3, 4)) == "Mat2(1, -2, 3, 4)"
    assert repr(Polynomial([Fraction(1, 2), 1, -3, 0, 2])) == (
        "Polynomial(1/2 + x + -3*x^2 + 2*x^4)")

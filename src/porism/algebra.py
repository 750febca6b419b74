"""Exact linear and polynomial algebra: Mat2, 3x3 determinants, dense
rational polynomials, and the closure polynomials P_n with P_0 = 1, P_1 = x,
P_n = x P_{n-1} - P_{n-2}.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .fields import _text


class Polynomial:
    """Dense univariate polynomial, coefficients lowest degree first.

    Coefficients are exact rationals; evaluation accepts any scalar ring
    element (Fraction, QuadExt, float) via Horner's rule.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __call__(self, value):
        """Evaluate at any ring element by Horner's rule."""
        if not self.coeffs:
            return Fraction(0) if not isinstance(value, float) else 0.0
        acc = self.coeffs[-1] if not isinstance(value, float) else float(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            cc = float(c) if isinstance(value, float) else c
            acc = acc * value + cc
        return acc

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial([0])"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(_text(c))
            elif i == 1:
                terms.append(f"{_text(c)}*x" if c != 1 else "x")
            else:
                terms.append(f"{_text(c)}*x^{i}" if c != 1 else f"x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


def _as_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial([value])
    return None


@lru_cache(maxsize=None)
def pn_polynomial(n: int) -> Polynomial:
    """P_n from the recurrence P_0 = 1, P_1 = x, P_n = x*P_{n-1} - P_{n-2}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Polynomial([1])
    if n == 1:
        return Polynomial.x()
    return Polynomial.x() * pn_polynomial(n - 1) - pn_polynomial(n - 2)


class Mat2:
    """2x2 matrix over any scalar ring (rationals, extensions, polynomials, floats)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return "Mat2({}, {}, {}, {})".format(*map(_repr, self.entries()))


def _repr(x) -> str:
    """repr(x), but an int, alone or as a Fraction's term, is written by
    fields._text, so a repr past the digit limit never raises."""
    if type(x) is Fraction:
        return f"Fraction({_text(x.numerator)}, {_text(x.denominator)})"
    return _text(x) if type(x) is int else repr(x)


def is_scalar_multiple_of_identity(m: Mat2) -> bool:
    """True iff both off-diagonal entries vanish and the diagonal entries agree."""
    return bool(m.b == 0 and m.c == 0 and m.a == m.d)


def det3(p: tuple, q: tuple, r: tuple):
    """Determinant of three coordinate triples (rows)."""
    (a, b, c), (d, e, f), (g, h, i) = p, q, r
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

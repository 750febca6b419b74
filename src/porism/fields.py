"""Scalar backends: exact rationals, quadratic extensions Q(sqrt(d)), and floats.

Exact values are `fractions.Fraction` or `QuadExt`; floats exist only for the
primal chain walker and plotting. Mixing exact and float scalars in one
expression raises MixedBackend; rationals embed into any extension.

A `QuadExt` is four ints (a, b, c, D), the value (a + b*sqrt(D))/c with D a
non-square integer, b != 0, c > 0 and gcd(a, b, c) = 1: the integral
representation of quadratic-field elements (H. Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, ch. 5). Each arithmetic
result is reduced by one gcd and builds no Fraction. The extension triples of
`plane` hold the same integers, as pairs (a, b) over one D with c = 1.

Every square root needed downstream (tangents from a point, fixed points of an
involution) introduces at most one quadratic extension at a time, and the
conjugate root stays inside it, so a single Q(sqrt(d)) per chain suffices.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import FieldInsufficient, MixedBackend

Scalar = Union[Fraction, "QuadExt", float]

#: Relative tolerance for float-backend equality tests.
FLOAT_TOL = 1e-9


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if q is not a rational square."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _text(x) -> str:
    """str(x), but an int past the interpreter's limit on integer strings,
    alone or as a Fraction's term, is written as its bit length: a repr,
    and so an error message naming a huge value, never raises."""
    if type(x) is Fraction:
        num = _text(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_text(x.denominator)}"
    try:
        return str(x)
    except ValueError:  # only an int over the limit raises here
        return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit int>"


def _quotient(num, den) -> Scalar:
    """num / den, exact when both are ints: rational coordinates are plain
    ints, and int / int would leak a float."""
    if type(num) is int and type(den) is int:
        return Fraction(num, den)
    return num / den


def _ext(a: int, b: int, c: int, D: int) -> Fraction | QuadExt:
    """(a + b*sqrt(D))/c for ints with c != 0 and D known to be a
    non-square, reduced by one gcd to c > 0 and demoted to a Fraction when
    b = 0: the constructor of arithmetic results, which skips the checks of
    QuadExt()."""
    if not b:
        return Fraction(a, c)
    g = math.gcd(a, b, c)
    if c < 0:
        g = -g
    x = object.__new__(QuadExt)
    x._a, x._b, x._c, x._D = a // g, b // g, c // g, D
    return x


def _sum(x: tuple, y: tuple, D: int) -> Fraction | QuadExt:
    (a, b, c), (e, f, g) = x, y
    return _ext(a * g + e * c, b * g + f * c, c * g, D)


def _difference(x: tuple, y: tuple, D: int) -> Fraction | QuadExt:
    (a, b, c), (e, f, g) = x, y
    return _ext(a * g - e * c, b * g - f * c, c * g, D)


def _product(x: tuple, y: tuple, D: int) -> Fraction | QuadExt:
    (a, b, c), (e, f, g) = x, y
    return _ext(a * e + b * f * D, a * f + b * e, c * g, D)


def _ratio(x: tuple, y: tuple, D: int) -> Fraction | QuadExt:
    # times the conjugate of y, whose norm e^2 - f^2 D is nonzero for every
    # nonzero y (D a non-square)
    (a, b, c), (e, f, g) = x, y
    n = e * e - f * f * D
    if not n:
        raise ZeroDivisionError("division by zero")
    return _ext(g * (a * e - b * f * D), g * (b * e - a * f), c * n, D)


def _operator(kernel, reflected: bool = False):
    """The QuadExt operator of a kernel on (a, b, c) int triples over
    sqrt(D): the other operand is read over the element's own radicand;
    floats and other fields raise MixedBackend."""

    def op(self, other):
        y = self._split(other)
        if y is None:
            if isinstance(other, float):
                raise MixedBackend("exact extension element mixed with float")
            if isinstance(other, QuadExt):
                raise MixedBackend(
                    f"incompatible extensions Q(sqrt({_text(self._D)})) and "
                    f"Q(sqrt({_text(other._D)}))"
                )
            return NotImplemented
        x = (self._a, self._b, self._c)
        return kernel(y, x, self._D) if reflected else kernel(x, y, self._D)

    return op


class QuadExt:
    """Element (a + b*sqrt(D))/c of a quadratic extension of Q, as four ints.

    D is a non-square integer (possibly negative), b != 0, c > 0 and
    gcd(a, b, c) = 1. QuadExt(a, b, d) takes rationals and means
    a + b*sqrt(d); a rational d = p/q is held over D = p*q, as
    sqrt(p/q) = sqrt(p*q)/q. The properties `.a`, `.b` and `.d` read the
    element back as Fractions, a + b*sqrt(d) with d = D. Arithmetic results
    with b = 0 demote to Fraction. Elements of one field written over
    different radicands (sqrt(8) = 2*sqrt(2)) combine, compare and hash as
    one value. Instances are treated as immutable.
    """

    __slots__ = ("_a", "_b", "_c", "_D")

    def __init__(self, a, b, d):
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if b == 0:
            raise ValueError("rational value; use Fraction")
        if rational_sqrt(d) is not None:
            raise ValueError(f"d = {d} is a rational square; the extension is trivial")
        b /= d.denominator
        c = math.lcm(a.denominator, b.denominator)
        self._a = a.numerator * (c // a.denominator)
        self._b = b.numerator * (c // b.denominator)
        self._c = c
        self._D = d.numerator * d.denominator

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._c)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._c)

    @property
    def d(self) -> Fraction:
        return Fraction(self._D)

    # -- field structure ------------------------------------------------

    def _split(self, other) -> tuple[int, int, int] | None:
        """`other` as ints (a, b, c) over sqrt(self._D), or None if not
        expressible."""
        if isinstance(other, QuadExt):
            D = self._D
            if other._D == D:
                return other._a, other._b, other._c
            # the same field over another radicand: sqrt(D') = (s/|D|) sqrt(D)
            # with s^2 = D D'
            prod = D * other._D
            s = math.isqrt(prod) if prod > 0 else 0
            if s * s != prod:
                return None
            return other._a * abs(D), other._b * s, other._c * abs(D)
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    __add__ = __radd__ = _operator(_sum)
    __sub__ = _operator(_difference)
    __rsub__ = _operator(_difference, reflected=True)
    __mul__ = __rmul__ = _operator(_product)
    __truediv__ = _operator(_ratio)
    __rtruediv__ = _operator(_ratio, reflected=True)

    def __neg__(self):
        return _ext(-self._a, -self._b, self._c, self._D)

    def norm(self) -> Fraction:
        """Field norm (a^2 - b^2 D)/c^2 (product with the conjugate)."""
        a, b, c = self._a, self._b, self._c
        return Fraction(a * a - b * b * self._D, c * c)

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        y = self._split(other)
        if y is None:
            return False if isinstance(other, QuadExt) else NotImplemented
        e, f, g = y
        return self._a * g == e * self._c and self._b * g == f * self._c

    def __hash__(self):
        # equal elements share the reduced a/c and sign(b) b^2 D/c^2,
        # whatever radicand generates the field
        a, b, c = self._a, self._b, self._c
        g = math.gcd(a, c)
        num, den = b * abs(b) * self._D, c * c
        h = math.gcd(num, den)
        return hash((a // g, c // g, num // h, den // h))

    def __float__(self):
        if self._D < 0:
            raise ValueError("negative discriminant has no real image")
        # (a 2^k + b sqrt(D) 2^k) / (c 2^k), the second term by isqrt to
        # within 1: as |a + b sqrt(D)| >= 1 / (|a| + |b| sqrt(D)), this k
        # bounds the relative error by 2^-58 even where the terms cancel
        a, b, c, D = self._a, self._b, self._c, self._D
        k = a.bit_length() + b.bit_length() + D.bit_length() // 2 + 60
        root = math.isqrt(b * b * D << 2 * k)
        return ((a << k) + (root if b > 0 else -root)) / (c << k)

    def __repr__(self):
        return f"QuadExt({_text(self.a)}, {_text(self.b)}, d={_text(self._D)})"


def sqrt_scalar(x: Scalar) -> Scalar:
    """Exact square root, extending the field by one sqrt when needed.

    Rationals return a Fraction when x is a square, else a QuadExt.
    QuadExt arguments are resolved inside their own field or raise
    FieldInsufficient. Floats use math.sqrt; negative floats raise
    FieldInsufficient (no real root).
    """
    if isinstance(x, float):
        if x < 0:
            raise FieldInsufficient("negative value has no real square root")
        return math.sqrt(x)
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        r = rational_sqrt(x)
        if r is not None:
            return r
        return _ext(0, 1, x.denominator, x.numerator * x.denominator)  # sqrt(pq)/q
    if isinstance(x, QuadExt):
        return _quadext_sqrt(x)
    raise TypeError(f"not a scalar: {x!r}")


def _quadext_sqrt(x: QuadExt) -> QuadExt:
    # (p + q sqrt(d))^2 = x requires p^2 = (a ± sqrt(norm))/2 rational square.
    rn = rational_sqrt(x.norm())
    if rn is None:
        raise FieldInsufficient(f"sqrt of {x!r} leaves Q(sqrt({_text(x._D)}))")
    for sign in (rn, -rn):
        p2 = (x.a + sign) / 2
        p = rational_sqrt(p2)
        if p is not None and p != 0:
            q = x.b / (2 * p)
            candidate = QuadExt(p, q, x._D)
            if candidate * candidate == x:
                return candidate
    raise FieldInsufficient(f"sqrt of {x!r} leaves Q(sqrt({_text(x._D)}))")


def scalar_kind(x: Scalar) -> str:
    """'exact' or 'float'; raises TypeError for non-scalars."""
    if isinstance(x, (int, Fraction, QuadExt)):
        return "exact"
    if isinstance(x, float):
        return "float"
    raise TypeError(f"not a scalar: {x!r}")

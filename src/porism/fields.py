"""Scalar backends: exact rationals, quadratic extensions Q(sqrt(d)), and floats.

Exact values are `fractions.Fraction` or `QuadExt`; floats exist only for the
primal chain walker and plotting. Mixing exact and float scalars in one
expression raises MixedBackend; rationals embed into any extension.

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


def _signed_square(b: Fraction, d: Fraction) -> tuple[int, int]:
    # b*sqrt(d) is determined exactly by sign(b) * b^2 * d, used for equality
    # across different d generating the same field: an unreduced numerator
    # and denominator, compared by cross-multiplication over the integers
    p, q = b.numerator, b.denominator
    return p * abs(p) * d.numerator, q * q * d.denominator


def _quotient(num, den) -> Scalar:
    """num / den, exact when both are ints: rational coordinates are plain
    ints, and int / int would leak a float."""
    if type(num) is int and type(den) is int:
        return Fraction(num, den)
    return num / den


def _ext(a: Fraction, b: Fraction, d: Fraction) -> Fraction | QuadExt:
    """a + b*sqrt(d) for Fraction components and a d already known to be a
    non-square, demoted to a when b = 0: the constructor of arithmetic
    results, which skips the checks of QuadExt()."""
    if not b:
        return a
    x = object.__new__(QuadExt)
    x.a = a
    x.b = b
    x.d = d
    return x


class QuadExt:
    """Element a + b*sqrt(d) of a quadratic extension of Q.

    d is a non-square rational (possibly negative), b is nonzero; values with
    b = 0 demote to Fraction via the `quadext` factory. Instances are treated
    as immutable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if b == 0:
            raise ValueError("rational value; use Fraction or the quadext() factory")
        if d == 0 or rational_sqrt(d) is not None:
            raise ValueError(f"d = {d} is a rational square; the extension is trivial")
        self.a = a
        self.b = b
        self.d = d

    # -- field structure ------------------------------------------------

    def _split(self, other) -> tuple[Fraction, Fraction] | None:
        """`other` as components over self.d, or None if not expressible."""
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other.a, other.b
            ratio = rational_sqrt(other.d / self.d)
            if ratio is None:
                return None
            return other.a, other.b * ratio
        if isinstance(other, int) or isinstance(other, Fraction):
            return Fraction(other), Fraction(0)
        return None

    def _refuse(self, other):
        if isinstance(other, float):
            raise MixedBackend("exact extension element mixed with float")
        if isinstance(other, QuadExt):
            raise MixedBackend(
                f"incompatible extensions Q(sqrt({self.d})) and Q(sqrt({other.d}))"
            )
        return NotImplemented

    def __add__(self, other):
        parts = self._split(other)
        if parts is None:
            return self._refuse(other)
        oa, ob = parts
        return _ext(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        parts = self._split(other)
        if parts is None:
            return self._refuse(other)
        oa, ob = parts
        return _ext(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        parts = self._split(other)
        if parts is None:
            return self._refuse(other)
        oa, ob = parts
        return _ext(oa - self.a, ob - self.b, self.d)

    def __mul__(self, other):
        parts = self._split(other)
        if parts is None:
            return self._refuse(other)
        oa, ob = parts
        return _ext(
            self.a * oa + self.b * ob * self.d,
            self.a * ob + self.b * oa,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # norm = a^2 - b^2 d is nonzero for every nonzero element (d non-square)
        n = self.norm()
        return _ext(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        parts = self._split(other)
        if parts is None:
            return self._refuse(other)
        oa, ob = parts
        if ob == 0:
            if oa == 0:
                raise ZeroDivisionError("division by zero")
            return _ext(self.a / oa, self.b / oa, self.d)
        return self * _ext(oa, ob, self.d).inverse()

    def __rtruediv__(self, other):
        parts = self._split(other)
        if parts is None:
            return self._refuse(other)
        oa, ob = parts
        inv = self.inverse()
        if ob == 0:
            return _ext(oa * inv.a, oa * inv.b, self.d)
        return _ext(oa, ob, self.d) * inv

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            return NotImplemented
        base: Scalar = self if exp >= 0 else self.inverse()
        result: Scalar = Fraction(1)
        exp = abs(exp)
        while exp:  # square and multiply
            if exp & 1:
                result = base * result
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __neg__(self):
        return _ext(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __abs__(self):
        if self.d < 0:
            raise ValueError("no ordering on an imaginary extension")
        # the exact sign: with a = 0 or a and b of one sign it is the sign
        # of b; otherwise the larger of a^2 and b^2 d (never equal, d being
        # a non-square) decides
        a, b = self.a, self.b
        if a == 0 or (a > 0) == (b > 0):
            positive = b > 0
        else:
            positive = (a > 0) == (a * a > b * b * self.d)
        return self if positive else -self

    # -- identity --------------------------------------------------------

    def conjugate(self) -> "QuadExt":
        return _ext(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (product with the conjugate)."""
        return self.a * self.a - self.b * self.b * self.d

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self.a != other.a:
                return False
            if self.d == other.d:
                return self.b == other.b
            n1, d1 = _signed_square(self.b, self.d)
            n2, d2 = _signed_square(other.b, other.d)
            return n1 * d2 == n2 * d1
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 always
        return NotImplemented

    def __hash__(self):
        # equal elements share a and sign(b) * b^2 * d, whatever d generates
        # the field
        return hash((self.a, Fraction(*_signed_square(self.b, self.d))))

    def __bool__(self):
        return True  # a + b*sqrt(d) with b != 0 is never zero

    def __float__(self):
        if self.d < 0:
            raise ValueError("negative discriminant has no real image")
        return float(self.a) + float(self.b) * math.sqrt(float(self.d))

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


def quadext(a, b, d) -> Fraction | QuadExt:
    """a + b*sqrt(d), demoted to Fraction when b = 0."""
    b = Fraction(b)
    if b == 0:
        return Fraction(a)
    return QuadExt(a, b, d)


def sqrt_scalar(x: Scalar) -> Scalar:
    """Exact square root, extending the field by one sqrt when needed.

    Rationals return a Fraction when x is a square, else a QuadExt over d = x.
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
        if x == 0:
            return Fraction(0)
        r = rational_sqrt(x)
        return r if r is not None else _ext(Fraction(0), Fraction(1), x)
    if isinstance(x, QuadExt):
        return _quadext_sqrt(x)
    raise TypeError(f"not a scalar: {x!r}")


def _quadext_sqrt(x: QuadExt) -> QuadExt:
    # (p + q sqrt(d))^2 = x requires p^2 = (a ± sqrt(norm))/2 rational square.
    rn = rational_sqrt(x.norm())
    if rn is None:
        raise FieldInsufficient(f"sqrt of {x!r} leaves Q(sqrt({x.d}))")
    for sign in (rn, -rn):
        p2 = (x.a + sign) / 2
        p = rational_sqrt(p2)
        if p is not None and p != 0:
            q = x.b / (2 * p)
            candidate = _ext(p, q, x.d)
            if candidate * candidate == x:
                return candidate
    raise FieldInsufficient(f"sqrt of {x!r} leaves Q(sqrt({x.d}))")


def scalar_kind(x: Scalar) -> str:
    """'exact' or 'float'; raises TypeError for non-scalars."""
    if isinstance(x, (int, Fraction, QuadExt)):
        return "exact"
    if isinstance(x, float):
        return "float"
    raise TypeError(f"not a scalar: {x!r}")

"""Incidence geometry of P^2 and the PGL(2) action on conic parameters.

Points and lines carry canonical-normalized coordinate triples, so equality
and hashing are exact for the rational and quadratic-extension backends. The
float backend compares by proportionality within FLOAT_TOL.

Every exact object is one canonical tuple, built by _normalize:

- a rational point or line is its primitive integer triple, in plain
  Python ints, with a positive lead;
- a Mobius map is its canonical matrix (the same normalization on the four
  entries), so a rational map is a primitive integer matrix;
- a parameter is its homogeneous pair (u, v): a rational p/q the ints
  (p, q) in lowest terms with q > 0, infinity (1, 0), and an extension or
  float value t the pair (t, 1).

So the incidence calculus and the Mobius action run over the integers, and
a Mobius image is its integer pair divided by one gcd.

A triple over Q(sqrt D) is three integer pairs ((a0, b0), (a1, b1), (a2, b2)),
its entries a_i + b_i sqrt(D) over the one integer radicand D of its field:
the integers of fields.QuadExt, with c = 1. Its canonical form multiplies by
the conjugate of the first nonzero entry, which makes that entry rational,
divides by the gcd of the six ints and makes the lead positive. The triple
stores those pairs, and `coords` derives its entries from them, as ints and
QuadExt. Cross and dot products with an extension triple run on the pairs.
Entries or operands over two different radicands raise MixedBackend: every
radicand the package makes is the integer discriminant of one quadratic, so
no program path mixes them.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import Mat2, is_scalar_multiple_of_identity
from .errors import (
    CoincidentLines,
    CoincidentPoints,
    DegenerateTuple,
    IdentityMap,
    MixedBackend,
    SingularMap,
)
from .fields import (
    FLOAT_TOL,
    FieldInsufficient,
    QuadExt,
    Scalar,
    _ext,
    _quotient,
    _text,
    scalar_kind,
    sqrt_scalar,
)


# the entry types of each backend, for _normalize's dispatch
_RATIONAL = frozenset((int, Fraction))
_EXACT = frozenset((int, Fraction, QuadExt))
_FLOAT = frozenset((int, float))


def _primitive(ints) -> tuple:
    """The primitive multiple of a nonzero int tuple, with a positive
    leading entry; the zero tuple raises DegenerateTuple."""
    content = math.gcd(*ints)
    if not content:
        raise DegenerateTuple("zero is not a projective coordinate tuple")
    for lead in ints:
        if lead:
            break
    if lead < 0:
        content = -content
    return tuple([i // content for i in ints])


def _normalize(coords: tuple) -> tuple:
    """Canonical representative of a projective coordinate tuple, as
    (coords, kind, D, pairs); D and pairs are None unless an entry lies in
    an extension, and then coords is None. One dispatch on the set of entry
    types decides the backend; plain ints are neutral and adopt the backend
    of the others.

    Ints and Fractions: the primitive integer tuple, in plain ints, with a
    positive leading entry (_primitive). Entries over one radicand D: the
    integer pairs of the multiple whose leading entry is a positive rational
    (_pair_canonical), or its ints if no extension entry is left. Ints and
    floats: divide by the largest magnitude and make the first significant
    entry positive.
    """
    types = set(map(type, coords))
    if types <= _RATIONAL:
        ints = coords
        if Fraction in types:
            scale = math.lcm(*(c.denominator for c in coords))
            ints = [c.numerator * (scale // c.denominator) for c in coords]
        return _primitive(ints), "exact", None, None
    if types <= _EXACT:
        radicands = {c._D for c in coords if type(c) is QuadExt}
        if len(radicands) > 1:
            listed = ", ".join(map(_text, sorted(radicands)))
            raise MixedBackend(f"entries over the radicands [{listed}]")
        canon, D, pairs = _pair_canonical(_to_pairs(coords), radicands.pop())
        return canon, "exact", D, pairs
    if types <= _FLOAT:
        coords = tuple(map(float, coords))
        if any(math.isnan(c) or math.isinf(c) for c in coords):
            raise DegenerateTuple(f"bad float coordinate triple: {coords!r}")
        top = max(abs(c) for c in coords)
        if top == 0.0:
            raise DegenerateTuple("zero is not a projective coordinate tuple")
        scaled = tuple(c / top for c in coords)
        lead = next(c for c in scaled if abs(c) > 1e-12)
        if lead < 0:
            scaled = tuple(-c for c in scaled)
        return scaled, "float", None, None
    for c in coords:
        if type(c) is bool:
            raise TypeError("bool is not a scalar")
        if type(c) not in _EXACT | _FLOAT:
            raise TypeError(f"not a scalar coordinate: {c!r}")
    raise MixedBackend("mixed coordinate backends in one tuple")


def _to_pairs(values) -> tuple:
    """Integer pairs (a, b), for a + b sqrt(D), of a multiple of exact
    scalars over one radicand D: one common denominator clears every
    entry."""
    parts = [
        (x._a, x._b, x._c) if type(x) is QuadExt else (x.numerator, 0, x.denominator)
        for x in values
    ]
    scale = math.lcm(*(c for _, _, c in parts))
    return tuple((a * (scale // c), b * (scale // c)) for a, b, c in parts)


def _pair_canonical(pairs: tuple, D: int) -> tuple:
    """(coords, D, pairs) of the canonical multiple of nonzero integer pairs
    over sqrt(D): multiply by the conjugate of the first nonzero entry,
    which makes it rational, divide by the gcd of the components, and make
    that entry positive. A multiple with an extension entry left returns
    coords as None; one with none left returns its ints, and D and pairs as
    None.

    The walks run rational chains over D = 0, where every b is 0."""
    la, lb = next(x for x in pairs if x[0] or x[1])
    flat = []
    for a, b in pairs:
        flat.append(a * la - b * lb * D)
        flat.append(b * la - a * lb)
    content = math.gcd(*flat)
    if next(x for x in flat if x) < 0:
        content = -content
    ints = [x // content for x in flat]
    if not any(ints[1::2]):
        return tuple(ints[0::2]), None, None
    return None, D, tuple(zip(ints[0::2], ints[1::2]))


def _entries(pairs: tuple, D: int) -> tuple:
    """The entries a + b sqrt(D) of integer pairs: ints, and QuadExt."""
    return tuple(_ext(a, b, 1, D) if b else a for a, b in pairs)


class _ProjTriple:
    """Shared machinery of ProjPoint and ProjLine."""

    __slots__ = ("_coords", "kind", "_D", "_pairs")

    def __init__(self, x0, x1, x2):
        self._coords, self.kind, self._D, self._pairs = _normalize((x0, x1, x2))

    @classmethod
    def _from_pairs(cls, pairs: tuple, D: int):
        """The exact triple of a nonzero multiple given by integer pairs
        over sqrt(D), canonicalized once on the integers."""
        obj = object.__new__(cls)
        obj.kind = "exact"
        obj._coords, obj._D, obj._pairs = _pair_canonical(pairs, D)
        return obj

    @classmethod
    def _from_primitive(cls, ints: tuple):
        """The exact triple of a primitive int triple with a positive lead,
        which is already its canonical form."""
        obj = object.__new__(cls)
        obj.kind = "exact"
        obj._coords, obj._D, obj._pairs = ints, None, None
        return obj

    @property
    def coords(self) -> tuple:
        """The canonical entries: ints, floats, or ints and QuadExt derived
        from the pairs of an extension triple."""
        if self._pairs is None:
            return self._coords
        return _entries(self._pairs, self._D)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "exact":
            return (self._coords == other._coords and self._pairs == other._pairs
                    and self._D == other._D)
        return _float_proportional(self._coords, other._coords)

    def __hash__(self):
        if self.kind == "float":
            raise TypeError("float-backed projective values are unhashable")
        return hash((type(self).__name__, self._coords, self._pairs))

    def __repr__(self):
        body = ":".join(map(_text, self.coords))
        return f"{type(self).__name__}({body})"


def _float_proportional(u: tuple, v: tuple) -> bool:
    # all 2x2 minors small; canonical coords have max-norm 1
    m01 = u[0] * v[1] - u[1] * v[0]
    m02 = u[0] * v[2] - u[2] * v[0]
    m12 = u[1] * v[2] - u[2] * v[1]
    return max(abs(m01), abs(m02), abs(m12)) <= FLOAT_TOL


class ProjPoint(_ProjTriple):
    """Point (x0 : x1 : x2) of P^2."""

    __slots__ = ()


class ProjLine(_ProjTriple):
    """Line (l0 : l1 : l2) of P^2; incidence is l . p = 0."""

    __slots__ = ()


def _pairs_over(t: _ProjTriple, D: int) -> tuple:
    """The integer pairs of an exact triple over sqrt(D): a rational triple
    embeds with every b = 0, and one over another radicand raises
    MixedBackend."""
    if t._pairs is None:
        x0, x1, x2 = t._coords
        return (x0, 0), (x1, 0), (x2, 0)
    if t._D != D:
        raise MixedBackend(f"triples over the radicands {_text(t._D)} and {_text(D)}")
    return t._pairs


def _pair_cross(u: tuple, v: tuple, D: int) -> tuple:
    """The cross product of two pair triples over sqrt(D)."""
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, e0), (c1, e1), (c2, e2) = v
    return (
        (a1 * c2 - a2 * c1 + (b1 * e2 - b2 * e1) * D,
         a1 * e2 + b1 * c2 - a2 * e1 - b2 * c1),
        (a2 * c0 - a0 * c2 + (b2 * e0 - b0 * e2) * D,
         a2 * e0 + b2 * c0 - a0 * e2 - b0 * c2),
        (a0 * c1 - a1 * c0 + (b0 * e1 - b1 * e0) * D,
         a0 * e1 + b0 * c1 - a1 * e0 - b1 * c0),
    )


def _pair_dot(u: tuple, v: tuple, D: int) -> tuple:
    """The dot product of two pair triples over sqrt(D), as a pair."""
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, e0), (c1, e1), (c2, e2) = v
    return (
        a0 * c0 + a1 * c1 + a2 * c2 + (b0 * e0 + b1 * e1 + b2 * e2) * D,
        a0 * e0 + b0 * c0 + a1 * e1 + b1 * c1 + a2 * e2 + b2 * c2,
    )


def _pairs_quadric_zero(t: _ProjTriple, scale: int) -> bool:
    """Whether scale * c0 * c2 = c1^2 for the entries c_i of an extension
    triple: the dot product of (scale c0, c1, 0) and (c2, -c1, 0) on its
    integer pairs."""
    (a0, b0), (a1, b1), (a2, b2) = t._pairs
    u = ((scale * a0, scale * b0), (a1, b1), (0, 0))
    return not any(_pair_dot(u, ((a2, b2), (-a1, -b1), (0, 0)), t._D))


def _cross(u: tuple, v: tuple) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u: tuple, v: tuple):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross_triple(cls, u: _ProjTriple, v: _ProjTriple):
    """The triple of type cls with the cross product of u and v, on their
    integer pairs when either lies in an extension."""
    D = u._D or v._D
    if D is None:
        return _triple(cls, _cross(u._coords, v._coords))
    pairs = _pair_cross(_pairs_over(u, D), _pairs_over(v, D), D)
    return cls._from_pairs(pairs, D)


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The line through two distinct points."""
    if p.kind != q.kind:
        raise MixedBackend("join of points from different backends")
    if p == q:
        raise CoincidentPoints(f"join of {p!r} with itself")
    return _cross_triple(ProjLine, p, q)


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    """The intersection point of two distinct lines."""
    if l.kind != m.kind:
        raise MixedBackend("meet of lines from different backends")
    if l == m:
        raise CoincidentLines(f"meet of {l!r} with itself")
    return _cross_triple(ProjPoint, l, m)


def incident(l: ProjLine, p: ProjPoint) -> bool:
    """Whether the point lies on the line (exact, or within 3 FLOAT_TOL for
    floats)."""
    if l.kind != p.kind:
        raise MixedBackend("incidence across backends")
    D = l._D or p._D
    if D is not None:
        return not any(_pair_dot(_pairs_over(l, D), _pairs_over(p, D), D))
    dot = _dot(l._coords, p._coords)
    if l.kind == "exact":
        return dot == 0
    return abs(dot) <= FLOAT_TOL * 3


def collinear(points) -> bool:
    """Whether all points lie on one line (>= 3 points)."""
    points = list(points)
    if len(points) < 3:
        raise ValueError("collinear needs at least three points")
    if len({p.kind for p in points}) != 1:
        raise MixedBackend("collinearity across backends")
    base = points[0]
    for pivot in points[1:]:
        if pivot != base:
            line = join(base, pivot)
            return all(incident(line, p) for p in points if p != base and p != pivot)
    return True  # all coincide


def concurrent(lines) -> bool:
    """Whether all lines pass through one point (>= 3 lines); dual of collinear."""
    lines = list(lines)
    if len(lines) < 3:
        raise ValueError("concurrent needs at least three lines")
    if len({l.kind for l in lines}) != 1:
        raise MixedBackend("concurrency across backends")
    base = lines[0]
    for pivot in lines[1:]:
        if pivot != base:
            pt = meet(base, pivot)
            return all(incident(l, pt) for l in lines if l != base and l != pivot)
    return True


def _triple(cls, coords: tuple):
    """The point or line cls(*coords); an int triple skips _normalize's
    dispatch and is made primitive by _primitive alone."""
    x0, x1, x2 = coords
    if type(x0) is type(x1) is type(x2) is int:
        return cls._from_primitive(_primitive(coords))
    return cls(x0, x1, x2)


def line_basis(l: ProjLine) -> tuple[ProjPoint, ProjPoint]:
    """Two independent points spanning the line, chosen deterministically."""
    candidates = []
    a, b, c = l.coords
    for v in ((0, -c, b), (c, 0, -a), (-b, a, 0)):
        if any(x != 0 for x in v):
            candidates.append(v)
    first = candidates[0]
    for other in candidates[1:]:
        if any(x != 0 for x in _cross(first, other)):
            return _triple(ProjPoint, first), _triple(ProjPoint, other)
    raise DegenerateTuple(f"no basis for {l!r}")  # unreachable for a valid line


def point_on_line(l: ProjLine, t: "ConicParam") -> ProjPoint:
    """The point p1 + t.p2 on l, where (p1, p2) = line_basis(l); t = infinity
    selects p2. Sweeping t sweeps the whole line exactly once."""
    return _points_on_line(l, (t,))[0]


def _points_on_line(l: ProjLine, params) -> list:
    """point_on_line(l, t) for each t in params, from one line_basis(l)."""
    p1, p2 = line_basis(l)
    c1, c2 = p1.coords, p2.coords
    points = []
    for t in params:
        u, v = t.pair()
        points.append(_triple(ProjPoint, tuple(v * x + u * y for x, y in zip(c1, c2))))
    return points


def _repeats(items: Sequence) -> list:
    """The values that occur more than once in items, each as its first
    occurrence, in order of first occurrence.

    Exact values are counted by hash. Float values compare within a
    tolerance, which no hash can agree with, so they are unhashable and
    compared pairwise instead."""
    try:
        counts = Counter(items)
    except TypeError:
        repeated = []
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if items[i] == items[j] and items[i] not in repeated:
                    repeated.append(items[i])
        return repeated
    return [x for x, k in counts.items() if k > 1]


class ConicParam:
    """A point of P^1 as its homogeneous pair (u, v), the value t = u/v.

    A rational p/q pairs as the ints (p, q) in lowest terms with q > 0, and
    infinity as (1, 0); an extension or float value t pairs as (t, 1).
    Equality and hashing read the pair; float values compare within
    FLOAT_TOL and are unhashable.
    """

    __slots__ = ("_pair",)

    def __init__(self, value):
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            self._pair = (value.numerator, value.denominator)
        elif isinstance(value, (QuadExt, float)):
            self._pair = (value, 1)
        else:
            raise TypeError(f"not a scalar parameter: {value!r}")

    @classmethod
    def _from_pair(cls, u, v) -> "ConicParam":
        """The parameter u/v of exact scalars or floats, not both zero:
        infinity when v = 0, and a pair of ints divided by its gcd."""
        if not v:
            return INFINITY
        if type(u) is int and type(v) is int:
            g = math.gcd(u, v)
            if v < 0:
                g = -g
            return cls._from_canonical(u // g, v // g)
        return cls(u / v)

    @classmethod
    def _from_canonical(cls, u, v) -> "ConicParam":
        """The parameter of a pair already in canonical form: a coprime int
        pair with v >= 0, or (t, 1) for an extension value t."""
        obj = object.__new__(cls)
        obj._pair = (u, v)
        return obj

    @classmethod
    def infinity(cls) -> "ConicParam":
        return cls._from_canonical(1, 0)

    @property
    def is_infinite(self) -> bool:
        return not self._pair[1]

    @property
    def value(self):
        """The scalar t: a Fraction when rational, None at infinity."""
        u, v = self._pair
        if not v:
            return None
        return Fraction(u, v) if isinstance(u, int) else u

    def pair(self) -> tuple:
        """The homogeneous pair (u, v) with t = u/v."""
        return self._pair

    def __eq__(self, other):
        if not isinstance(other, ConicParam):
            return NotImplemented
        (a, v), (b, w) = self._pair, other._pair
        floats = isinstance(a, float) + isinstance(b, float)
        if floats:
            return floats == 2 and abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))
        return a == b and v == w

    def __hash__(self):
        if isinstance(self._pair[0], float):
            # equality within a tolerance has no hash that agrees with it
            raise TypeError("float-backed conic parameters are unhashable")
        return hash(self._pair)

    def __repr__(self):
        return "ConicParam(inf)" if self.is_infinite else f"ConicParam({_text(self.value)})"


INFINITY = ConicParam.infinity()


class MobiusMap:
    """Element of PGL(2) over an exact field, acting on ConicParams.

    A map is its canonical matrix `mat`: the multiple of the given entries
    that _normalize picks for a coordinate tuple, integral for a rational
    map. Proportional matrices give one map with one `mat`, and equality
    and hashing compare it. The determinant is nonzero; the zero matrix is
    a DegenerateTuple, as every zero tuple. The float backend never
    composes maps.
    """

    __slots__ = ("mat",)

    def __init__(self, a, b, c, d):
        entries, kind, D, pairs = _normalize((a, b, c, d))
        if kind != "exact":
            raise MixedBackend("MobiusMap entries must be exact scalars")
        if pairs is not None:
            entries = _entries(pairs, D)
        mat = Mat2(*entries)
        if mat.det() == 0:
            raise SingularMap(f"singular matrix {entries!r}")
        self.mat = mat

    @classmethod
    def _from_canonical(cls, mat: Mat2) -> "MobiusMap":
        """The map of a nonsingular matrix already in canonical form."""
        obj = object.__new__(cls)
        obj.mat = mat
        return obj

    @classmethod
    def from_mat2(cls, m: Mat2) -> "MobiusMap":
        return cls(m.a, m.b, m.c, m.d)

    def is_identity_class(self) -> bool:
        return is_scalar_multiple_of_identity(self.mat)

    def __eq__(self, other):
        if not isinstance(other, MobiusMap):
            return NotImplemented
        return self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return "MobiusMap([[{}, {}], [{}, {}]])".format(*map(_text, self.mat.entries()))


def mobius_apply(g: MobiusMap, t: ConicParam) -> ConicParam:
    """(a t + b)/(c t + d), on the pair (u, v) of t: (a u + b v : c u + d v)."""
    u, v = t.pair()
    if isinstance(u, float):
        raise MixedBackend("MobiusMap acts on exact parameters only")
    m = g.mat
    return ConicParam._from_pair(m.a * u + m.b * v, m.c * u + m.d * v)


def mobius_compose(g: MobiusMap, h: MobiusMap) -> MobiusMap:
    """The map applying h first, then g (matrix product g.h)."""
    return MobiusMap.from_mat2(g.mat * h.mat)


def is_involution(g: MobiusMap) -> bool:
    """g^2 = I in PGL(2) and g is not the identity class: trace zero."""
    return not g.is_identity_class() and g.mat.trace() == 0


class ParamRoots(NamedTuple):
    """Roots of a parameter quadratic, with the discriminant that produced them.

    `params` has 0, 1 (double = True), or 2 entries; the empty case means the
    scalar field cannot express the roots.
    """

    params: tuple[ConicParam, ...]
    discriminant: Scalar
    double: bool


def _fixed_point_quadratic(g: MobiusMap) -> tuple:
    """The binary quadratic (c, d - a, -b) of g = [[a, b], [c, d]], whose
    roots c u^2 + (d - a) uv - b v^2 = 0 are the fixed parameters of g."""
    m = g.mat
    return (m.c, m.d - m.a, -m.b)


def fixed_points(g: MobiusMap) -> ParamRoots:
    """Fixed parameters of g: roots of c t^2 + (d - a) t - b = 0.

    Non-square rational discriminants are answered in Q(sqrt(disc)), the
    +sqrt root first; with c = 0 infinity is fixed and listed first.
    """
    if g.is_identity_class():
        raise IdentityMap("every parameter is fixed")
    return _quadratic_params(*_fixed_point_quadratic(g))


def _quadratic_params(a, b, c) -> ParamRoots:
    """ConicParam roots of the binary quadratic a u^2 + b uv + c v^2.

    Affine chart: a t^2 + b t + c = 0 with the root at infinity when a = 0.
    Non-square rational discriminants are answered in Q(sqrt(disc)), the
    +sqrt root first; an inexpressible discriminant yields no params.
    """
    disc = b * b - 4 * a * c
    if a == 0:
        if b == 0:
            return ParamRoots((INFINITY,), disc, True)
        return ParamRoots((INFINITY, ConicParam._from_pair(-c, b)), disc, False)
    if disc == 0:
        return ParamRoots((ConicParam._from_pair(-b, 2 * a),), disc, True)
    if type(disc) is int:
        # integer coefficients: the roots (-b +- sqrt(disc)) / 2a directly,
        # as reduced int pairs or as canonical (QuadExt, 1) pairs
        r = math.isqrt(disc) if disc > 0 else 0
        if r * r == disc:
            roots = (ConicParam._from_pair(-b + r, 2 * a), ConicParam._from_pair(-b - r, 2 * a))
        else:
            roots = tuple(ConicParam._from_canonical(_ext(-b, s, 2 * a, disc), 1) for s in (1, -1))
        return ParamRoots(roots, disc, False)
    try:
        root = sqrt_scalar(disc)
    except FieldInsufficient:
        return ParamRoots((), disc, False)
    roots = (_quotient(-b + root, 2 * a), _quotient(-b - root, 2 * a))
    return ParamRoots((ConicParam(roots[0]), ConicParam(roots[1])), disc, False)


def cross_ratio(a: ConicParam, b: ConicParam, c: ConicParam, d: ConicParam) -> Scalar:
    """((a-c)(b-d)) / ((a-d)(b-c)), computed homogeneously so infinity needs no case."""
    params = (a, b, c, d)
    kinds = {scalar_kind(t.pair()[0]) for t in params if not t.is_infinite}
    if len(kinds) > 1:
        raise MixedBackend("cross ratio of parameters from different backends")
    repeated = _repeats(params)
    if repeated:
        raise DegenerateTuple(f"repeated parameter {repeated[0]!r}")
    pa, pb, pc, pd = (t.pair() for t in params)

    def two_det(p, q):
        return p[0] * q[1] - q[0] * p[1]

    return _quotient(
        two_det(pa, pc) * two_det(pb, pd), two_det(pa, pd) * two_det(pb, pc)
    )

"""Independent arithmetic that the benchmark checks the program's outputs with.

Nothing here imports porism. Values arrive as the program hands them out
(Fractions, or objects with the public `a`, `b`, `d` slots of a quadratic
extension element) and are turned into plain integers or (a, b) pairs over
one shared d before any arithmetic:

- projective triples and pole matrices in integer arithmetic;
- Möbius walks on homogeneous integer pairs (u : v), infinity being (1 : 0);
- elements a + b*sqrt(d) of one quadratic field as pairs (a, b) of Fractions.
"""
from __future__ import annotations

import math
from fractions import Fraction

# ------------------------------------------------------------ integer triples


def int_vector(values) -> tuple[int, ...]:
    """Primitive integer vector proportional to rational `values`."""
    fracs = [Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    content = math.gcd(*ints)
    if content == 0:
        raise ValueError("zero vector")
    return tuple(i // content for i in ints)


def cross(u, v) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def det3(p, q, r):
    return dot(p, cross(q, r))


def pair(t) -> tuple[int, int]:
    """Homogeneous integer pair (u : v) of a conic parameter; None is infinity."""
    if t is None:
        return (1, 0)
    t = Fraction(t)
    return (t.numerator, t.denominator)


def chord(s, t) -> tuple:
    """Line through the conic points at homogeneous parameters s and t."""
    (u1, v1), (u2, v2) = s, t
    return (u1 * u2, -(u1 * v2 + u2 * v1), v1 * v2)


def tangent(t) -> tuple:
    u, v = t
    return (u * u, -2 * u * v, v * v)


def pole(line) -> tuple:
    l0, l1, l2 = line
    return (2 * l2, -l1, 2 * l0)


def collinear(points) -> bool:
    """Whether all integer points lie on one line (points pairwise distinct)."""
    first, second = points[0], points[1]
    return all(det3(first, second, p) == 0 for p in points[2:])


# -------------------------------------------------------------- Möbius maps


def center_matrix(center) -> tuple:
    """Involution [[c1, -c2], [c0, -c1]] of the conic with center c."""
    c0, c1, c2 = center
    return ((c1, -c2), (c0, -c1))


def pole_matrix(line) -> tuple:
    return center_matrix(pole(line))


def mat_mul(m, n) -> tuple:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def chain_product(matrices) -> tuple:
    """M_k ... M_1: the first matrix acts first."""
    product = ((1, 0), (0, 1))
    for m in matrices:
        product = mat_mul(m, product)
    return product


def trace(m):
    return m[0][0] + m[1][1]


def pole_product(lines) -> tuple:
    """Product of the pole involutions of integer lines, the first line's first."""
    return chain_product(pole_matrix(l) for l in lines)


def product_trace(lines) -> int:
    return trace(pole_product(lines))


def is_involution(m) -> bool:
    """Trace zero and not a multiple of the identity: the porism holds."""
    scalar = m[0][1] == 0 and m[1][0] == 0 and m[0][0] == m[1][1]
    return trace(m) == 0 and not scalar


def apply(m, p) -> tuple[int, int]:
    """Image of the homogeneous pair p, reduced to lowest terms, sign-fixed."""
    u = m[0][0] * p[0] + m[0][1] * p[1]
    v = m[1][0] * p[0] + m[1][1] * p[1]
    g = math.gcd(u, v)
    u, v = u // g, v // g
    if v < 0 or (v == 0 and u < 0):
        u, v = -u, -v
    return (u, v)


def walk(lines, start, steps: int) -> list[tuple[int, int]]:
    """Push a homogeneous pair through the pole involutions cyclically."""
    matrices = [pole_matrix(l) for l in lines]
    points = [apply(((1, 0), (0, 1)), start)]
    for step in range(steps):
        points.append(apply(matrices[step % len(matrices)], points[-1]))
    return points


def first_return(points) -> int | None:
    """Index of the first return to points[0], or None."""
    for i, p in enumerate(points[1:], start=1):
        if p == points[0]:
            return i
    return None


def dual_vertices(points) -> list[tuple]:
    """Polygon vertices of a dual chain: poles of consecutive chords."""
    return [pole(chord(points[i], points[i + 1])) for i in range(len(points) - 1)]


def carries_two_each(lines, vertices) -> bool:
    """Whether every line carries exactly two of the vertices ("well inscribed")."""
    return all(sum(1 for v in vertices if dot(l, v) == 0) == 2 for l in lines)


def cross_ratio(a, b, c, d) -> Fraction:
    """((a-c)(b-d)) / ((a-d)(b-c)) of four finite rationals."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    return (a - c) * (b - d) / ((a - d) * (b - c))


def fixing_matrix(t1, t2) -> tuple:
    """Involution fixing the finite rationals t1, t2: [[s, -2p], [2, -s]]."""
    t1, t2 = Fraction(t1), Fraction(t2)
    return ((t1 + t2, -2 * t1 * t2), (Fraction(2), -(t1 + t2)))


# ------------------------------------------------- one quadratic field Q(sqrt d)


def field_of(values) -> Fraction | None:
    """The d shared by the extension elements among `values`, or None if all are
    rational."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return Fraction(v.d)
    return None


def as_pair(v, d) -> tuple[Fraction, Fraction]:
    """v as (a, b) with v = a + b*sqrt(d); an element over another d' must
    differ from d by a rational square factor."""
    if isinstance(v, (int, Fraction)):
        return (Fraction(v), Fraction(0))
    a, b, vd = Fraction(v.a), Fraction(v.b), Fraction(v.d)
    if vd != d:
        ratio = vd / d
        rn, rd = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
        if ratio < 0 or rn * rn != ratio.numerator or rd * rd != ratio.denominator:
            raise ValueError(f"elements of different fields: d={d}, d={vd}")
        b *= Fraction(rn, rd)
    return (a, b)


def q_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def q_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def q_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def q_is_zero(x) -> bool:
    # a + b*sqrt(d) = 0 with d a non-square forces a = b = 0
    return x[0] == 0 and x[1] == 0


def q_cross(u, v, d) -> tuple:
    return tuple(
        q_sub(q_mul(u[i], v[j], d), q_mul(u[j], v[i], d))
        for i, j in ((1, 2), (2, 0), (0, 1))
    )


def q_dot(u, v, d):
    acc = (Fraction(0), Fraction(0))
    for x, y in zip(u, v):
        acc = q_add(acc, q_mul(x, y, d))
    return acc


def q_proportional(u, v, d) -> bool:
    return all(q_is_zero(c) for c in q_cross(u, v, d))


def q_tangent(line, d) -> bool:
    """Whether the line touches the conic x0 x2 = x1^2: l1^2 - 4 l0 l2 = 0."""
    l0, l1, l2 = line
    disc = q_sub(q_mul(l1, l1, d), q_mul((Fraction(4), Fraction(0)), q_mul(l0, l2, d), d))
    return q_is_zero(disc)


def q_float(x, d) -> float:
    """Real image of a + b*sqrt(d); d must be positive unless b = 0."""
    if x[1] == 0:
        return float(x[0])
    return float(x[0]) + float(x[1]) * math.sqrt(d)


def float_close(u, v, tol: float) -> bool:
    """Whether two real triples are proportional: all 2x2 minors of their
    max-norm-1 scalings are within tol."""
    su = max(abs(c) for c in u)
    sv = max(abs(c) for c in v)
    if su == 0 or sv == 0:
        return False
    u = [c / su for c in u]
    v = [c / sv for c in v]
    return all(
        abs(u[i] * v[j] - u[j] * v[i]) <= tol for i, j in ((0, 1), (0, 2), (1, 2))
    )


# --------------------------------------------------------------- two lines


def chebyshev_roots(n: int) -> list[float]:
    """Closure values 2cos(k pi / n), k = 1..n-1, ascending."""
    return sorted(2 * math.cos(k * math.pi / n) for k in range(1, n))


def reference_kernel() -> int:
    """Fixed integer work with no porism code, timed between ops so that a
    slow machine can be told from a slow program."""
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    return acc

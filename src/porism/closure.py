"""Line configurations and the closure porism.

A configuration of n >= 2 lines, none tangent to the conic and meeting it in
2n distinct points, either admits no inscribed-circumscribed 2n-gon or
admits one through every admissible starting point. The decision reduces to
a trace: compose the involutions centered at the poles of the lines; closure
for all starts is exactly "that product is again an involution", which
porism_holds decides by the trace of the product of the maps read off the
lines (_line_maps). The seeded generators draw and admit their lines
through sampling.py, whose admission test (_admit) also decides a rational
configuration's validity; its ValidityReport is built only on demand.
generate_closing puts its last pole where the trace of the product of its
first n - 1 maps vanishes; involution objects are built only on demand.

Chains walk the configuration cyclically, twice around: the dual chain pushes
a conic parameter through u_1, ..., u_n, u_1, ..., u_n; the primal chain
traces the polar polygon with vertices on L_1, L_2, ..., L_n, L_1, ..., L_n
and edges tangent to the conic. By La Hire a vertex on L_k sees the tangents
at t and u_k(t), so one walker (_tangent_walk) steps the primal and pencil
walks of both backends by the maps u_k read off the lines (_line_maps).
Exact walks share one loop (_walk_keys) on integers over one radicand D: a
parameter is the key (u0, u1, v) of (u0 + u1 sqrt(D))/v, which each step
takes from its pair by one conjugate step and one gcd; public values are
built from the keys. A rational step reduces by the map's determinant
first, so no gcd runs on two walk-sized operands.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .algebra import Mat2, is_scalar_multiple_of_identity
from .conic import (
    chord,
    is_tangent,
    line_conic_params,
    on_conic,
    polar,
    pole,
    tangency_discriminant,
    tangent_at,
    tangents_from,
)
from .errors import (
    DegenerateStart,
    EqualParameters,
    FieldInsufficient,
    InvalidConfiguration,
    MixedBackend,
    NotClosed,
)
from .fields import QuadExt, Scalar, _ext, _text
from .plane import (
    ConicParam,
    ProjLine,
    ProjPoint,
    _cross,
    _pair_cross,
    _pair_dot,
    _pairs_over,
    _repeats,
    incident,
    join,
    point_on_line,
)
from .sampling import _admit, _budget, _random_param, _random_point, _redraw

if TYPE_CHECKING:  # imported on use, so that construct and porism never load it
    from .involution import InvolutionChain


class ValidityReport(NamedTuple):
    """Per-line and global admissibility of a configuration."""

    valid: bool
    tangent_members: tuple[int, ...]
    repeated_params: tuple[ConicParam, ...]
    params: tuple[tuple[ConicParam, ...], ...]

    @property
    def all_params(self) -> tuple[ConicParam, ...]:
        return tuple(p for group in self.params for p in group)


class LineConfiguration:
    """An ordered tuple of n >= 2 pairwise distinct lines, of one backend and
    at most one radicand, with cached maps (_config_maps), validity and set
    of intersection parameters. Valid means: no member tangent to the
    conic, and the 2n intersection parameters pairwise distinct (in
    extension where needed)."""

    __slots__ = ("lines", "_report", "_admitted", "_maps", "_forbidden")

    def __init__(self, lines: Sequence[ProjLine]):
        lines = tuple(lines)
        if len(lines) < 2:
            raise InvalidConfiguration("need at least two lines")
        if len({l.kind for l in lines}) != 1:
            raise MixedBackend("configuration lines from different backends")
        radicands = {l._D for l in lines if l._D}
        if len(radicands) > 1:
            listed = ", ".join(map(_text, sorted(radicands)))
            raise MixedBackend(f"configuration over the radicands [{listed}]")
        repeated = _repeats(lines)
        if repeated:
            raise InvalidConfiguration(f"repeated line {repeated[0]!r}")
        self.lines = lines
        self._report: Optional[ValidityReport] = None
        self._admitted: Optional[set] = None
        self._maps: Optional[tuple] = None
        self._forbidden: dict[int, frozenset[tuple]] = {}

    @property
    def n(self) -> int:
        return len(self.lines)

    @property
    def kind(self) -> str:
        return self.lines[0].kind

    @property
    def report(self) -> ValidityReport:
        if self._report is None:
            self._report = validate(self)
        return self._report

    def as_float(self) -> "LineConfiguration":
        return LineConfiguration(
            [ProjLine(*(float(c) for c in l.coords)) for l in self.lines]
        )

    def __repr__(self):
        return f"LineConfiguration({list(self.lines)!r})"


def validate(config: LineConfiguration) -> ValidityReport:
    """Tangency and parameter-distinctness report, built on demand only
    (_require_valid decides without it). A member whose conic parameters
    leave its field raises FieldInsufficient, naming it.

    A rational configuration counts only its rational parameters for
    repeats: an irrational one has its line's quadratic as its minimal
    polynomial over Q, so only that same line, which LineConfiguration
    refuses, could repeat it."""
    tangent_members = []
    groups = []
    for i, line in enumerate(config.lines):
        try:
            roots = line_conic_params(line)
            if not roots.params and config.kind == "exact":  # no root in Q(sqrt d)
                raise FieldInsufficient(f"no square root of {roots.discriminant!r}")
        except (MixedBackend, FieldInsufficient) as exc:  # or roots over a second radicand
            raise FieldInsufficient(
                f"the conic parameters of member {i}, {line!r}, leave its field"
            ) from exc
        groups.append(tuple(roots.params))
        if roots.double:
            tangent_members.append(i)
    params = [p for group in groups for p in group]
    if config.kind == "exact" and all(l._pairs is None for l in config.lines):
        params = [p for p in params if type(p.pair()[0]) is int]
    repeated = _repeats(params)
    valid = not tangent_members and not repeated
    return ValidityReport(valid, tuple(tangent_members), tuple(repeated), tuple(groups))


def _require_valid(config: LineConfiguration):
    """InvalidConfiguration unless config is valid: by _admit on a rational
    exact configuration, which keeps the admitted keys (among them its
    rational conic parameters), else by the ValidityReport, which also
    words the error."""
    if config._admitted is not None:
        return
    if config.kind == "exact" and all(l._pairs is None for l in config.lines):
        admitted = set()
        if all(_admit(l, admitted) for l in config.lines):
            config._admitted = admitted
            return
    report = config.report
    if not report.valid:
        raise InvalidConfiguration(
            f"tangent members {report.tangent_members}, "
            f"repeated parameters {report.repeated_params}"
        )


def poles_of(config: LineConfiguration) -> tuple[ProjPoint, ...]:
    """Poles of the member lines, in order; all off the conic when valid."""
    _require_valid(config)
    return tuple(pole(l) for l in config.lines)


def pole_involutions(config: LineConfiguration) -> InvolutionChain:
    """The chain u_1, ..., u_n of involutions centered at the poles, as
    objects: the walks and verdicts read the same maps off the lines."""
    from .involution import InvolutionChain, fregier

    return InvolutionChain([fregier(p) for p in poles_of(config)])


def porism_holds(config: LineConfiguration) -> bool:
    """Whether the closure porism holds: the pole-involution product
    u_n ... u_1 is itself an involution.

    Decided by "trace == 0" on the product of the maps read off the lines
    (_config_maps), composed in ints over sqrt(D): the maps are nonsingular,
    so a trace-zero product is never scalar. A float configuration raises
    MixedBackend."""
    _require_valid(config)
    if config.kind == "float":
        raise MixedBackend("the porism is decided on exact configurations")
    D, maps = _config_maps(config)
    if not D:
        a, _, _, d = _rational_product(maps)
        return a + d == 0
    # over sqrt(D): rows and columns as pair triples padded with a zero
    (a0, a1, b0, b1, c0, c1, _), *rest = maps
    a, b, c, d = (a0, a1), (b0, b1), (c0, c1), (-a0, -a1)
    for p0, p1, q0, q1, r0, r1, _ in rest:
        top, low = ((p0, p1), (q0, q1), (0, 0)), ((r0, r1), (-p0, -p1), (0, 0))
        left, right = (a, c, (0, 0)), (b, d, (0, 0))
        a, b = _pair_dot(top, left, D), _pair_dot(top, right, D)
        c, d = _pair_dot(low, left, D), _pair_dot(low, right, D)
    return a == (-d[0], -d[1])


class PolygonChain(NamedTuple):
    """A walked polygon.

    Dual mode: params are the 2n+1 conic parameters p_0, ..., p_{2n} (last is
    the return value); vertices is empty, as the polygon's vertices are the
    poles of chords, which well_inscribed builds; closed means p_{2n} = p_0.

    Primal mode: vertices are A_1, ..., A_{2n+1} (last is the return vertex),
    params the 2n tangency parameters of the edges; closed means
    A_{2n+1} = A_1.
    """

    mode: str
    params: tuple[ConicParam, ...]
    vertices: tuple[ProjPoint, ...]
    closed: bool
    steps: int


def _key_param(key: tuple, D: int) -> ConicParam:
    """The parameter of a key over sqrt(D)."""
    u0, u1, v = key
    return ConicParam(_ext(u0, u1, v, D)) if u1 else ConicParam._from_canonical(u0, v)


def _key_of(t: ConicParam, D: int) -> Optional[tuple]:
    """The key of an exact parameter over sqrt(D), or None when it lies
    outside Q(sqrt(D)); one written over another radicand of that field is
    rewritten over D."""
    u, v = t.pair()
    if type(u) is int:
        return u, 0, v
    if u._D == D:
        return u._a, u._b, u._c
    abc = _ext(0, 1, 1, D)._split(u) if D else None
    if abc is None:
        return None
    x = _ext(*abc, D)
    return x._a, x._b, x._c


def _line_maps(line_pairs: Sequence[tuple]) -> tuple:
    """The involution at the pole (2 l2 : -l1 : 2 l0) of each line, read off
    its integer pairs over sqrt(D) as [[-l1, -2 l0], [2 l2, l1]] up to a
    scalar: the six ints (a0, a1, b0, b1, c0, c1) of [[a, b], [c, -a]]
    with a = a0 + a1 sqrt(D), b and c likewise, and a seventh, the
    determinant 4 l0 l2 - l1^2 of a rational map, or 0 for an irrational
    one."""
    return tuple(
        (-x1, -y1, -2 * x0, -2 * y0, 2 * x2, 2 * y2,
         0 if y0 or y1 or y2 else 4 * x0 * x2 - x1 * x1)
        for (x0, y0), (x1, y1), (x2, y2) in line_pairs
    )


def _rational_product(maps: Sequence[tuple]) -> tuple:
    """The entries (a, b, c, d) of the product M_k ... M_1 of rational maps
    [[p, q], [r, -p]] from _line_maps, maps[0] applied first, in plain
    ints."""
    (p, _, q, _, r, _, _), *rest = maps
    a, b, c, d = p, q, r, -p
    for p, _, q, _, r, _, _ in rest:
        a, b, c, d = p * a + q * c, p * b + q * d, r * a - p * c, r * b - p * d
    return a, b, c, d


def _config_maps(config: LineConfiguration) -> tuple:
    """(D, maps) of a configuration, read off its lines once: D is the
    lines' one radicand, or 0 when all are rational, as a rational line's
    pairs hold over any D."""
    if config._maps is None:
        D = next((l._D for l in config.lines if l._D), 0)
        config._maps = D, _line_maps([_pairs_over(l, D) for l in config.lines])
    return config._maps


def _walk_keys(maps: tuple, D: int, key: tuple, order: Sequence[int]) -> list:
    """The keys of a parameter pushed through maps[i] for each i in order,
    the start's first: the one loop that steps an exact parameter.

    A rational map M takes a rational key, the coprime (u, v), to (p, q) in
    plain ints: adj(M) (p, q) = det(M) (u, v), so gcd(p, q) divides det and
    is gcd(gcd(p, det), q), two gcds against a line-sized operand (and at
    det = 0 just gcd(p, q)). Any other step gives a pair (P : Q) over
    sqrt(D) and multiplies it by the conjugate of Q, which makes Q rational,
    and so the map's scalar, which the full gcd removes; infinity (Q = 0)
    is (1, 0, 0)."""
    keys = [key]
    u0, u1, v = key
    for i in order:
        a0, a1, b0, b1, c0, c1, det = maps[i]
        if u1 or a1 or b1 or c1:
            pa, pb = a0 * u0 + a1 * u1 * D + b0 * v, a0 * u1 + a1 * u0 + b1 * v
            qa, qb = c0 * u0 + c1 * u1 * D - a0 * v, c0 * u1 + c1 * u0 - a1 * v
            q = qa * qa - qb * qb * D
            p, p1 = (pa * qa - pb * qb * D, pb * qa - pa * qb) if q else (1, 0)
            g = math.gcd(p, p1, q)
        else:
            p, p1, q = a0 * u0 + b0 * v, 0, c0 * u0 - a0 * v
            g = math.gcd(math.gcd(p, det), q)
        if (q or p) < 0:  # v > 0, and infinity is (1, 0, 0)
            g = -g
        u0, u1, v = key = (p // g, p1 // g, q // g)
        keys.append(key)
    return keys


def dual_chain(config: LineConfiguration, start: ConicParam) -> PolygonChain:
    """Push a conic parameter through the pole involutions, twice around.

    The walk runs on integer keys (_walk_keys) over one radicand D, that of
    the configuration or else of the start. The member maps (_config_maps),
    and per D the keys of the configuration parameters, are read once per
    configuration. The walked keys are checked by set operations, and
    scanned again only to name a fault; each ConicParam is built once, at
    the end. A float start or configuration raises MixedBackend."""
    u = start.pair()[0]
    if config.kind == "float" or type(u) is float:
        raise MixedBackend("dual chains walk exact parameters of exact configurations")
    _require_valid(config)
    D, maps = _config_maps(config)
    if not D and type(u) is QuadExt:
        D = u._D
    key = _key_of(start, D)
    if key is None:
        raise MixedBackend(f"{start!r} lies outside Q(sqrt({_text(D)}))")
    forbidden = config._forbidden.get(D)
    if forbidden is None:
        if D:
            known = (_key_of(t, D) for t in config.report.all_params)
            forbidden = frozenset(k for k in known if k)
        else:  # the rational parameters among the keys _require_valid admitted
            forbidden = frozenset((k[0], 0, k[1]) for k in config._admitted if len(k) == 2)
        config._forbidden[D] = forbidden
    if key in forbidden:
        raise DegenerateStart(f"{start!r} lies on a configuration line")
    total = 2 * config.n
    keys = _walk_keys(maps, D, key, [*range(config.n)] * 2)
    # a fixed point of u_k is a parameter of L_k, so forbidden holds every
    # key an involution fixes, and no step needs a check of its own
    if not forbidden.isdisjoint(keys) or len(set(keys[:-1])) < total:
        seen = {key}
        for step, nxt in enumerate(keys[1:]):
            if nxt in forbidden:
                raise DegenerateStart(f"chain hit configuration parameter {_key_param(nxt, D)!r}")
            # a revisit before the final step retraces the walk: the start sat
            # on a fixed point of a partial word, and the 2n-gon degenerates
            if step < total - 1 and nxt in seen:
                raise DegenerateStart(f"walk revisits {_key_param(nxt, D)!r} before closing")
            seen.add(nxt)
    rational = ConicParam._from_canonical  # as _key_param, one call fewer
    params = tuple([_key_param(k, D) if k[1] else rational(k[0], k[2]) for k in keys])
    return PolygonChain("dual", params, (), keys[-1] == keys[0], total)


def _tangent_walk(
    lines: Sequence[ProjLine], start: ProjPoint, targets: Sequence[int], branch: str
) -> tuple[list[ProjPoint], list[ConicParam]]:
    """The walk behind primal_chain and concurrent_tangent_chain: from a
    start vertex on lines[0], draw the tangent that branch selects, meet it
    with lines[target] for each target in turn, and leave every vertex by its
    other tangent. Returns the start plus one vertex per target, and the
    tangency parameters of the edges between them.

    The edges are the first tangent pushed through targets[:-1] by the maps
    read off the lines (_line_maps), and each vertex is the meet of a line,
    never tangent, with the tangent (U^2 : -2UV : V^2) at (U : V). An exact
    walk steps keys over Q(sqrt D), the field of the first tangent (or of
    the start or a line, or Q as D = 0), and meets on integer pairs; a float
    walk steps t -> -(l1 t + 2 l0)/(2 l2 t + l1) on the float lines."""
    if branch not in ("first", "second"):
        raise ValueError(f"branch must be 'first' or 'second', got {branch!r}")
    if not incident(lines[0], start):
        raise DegenerateStart(f"{start!r} is not on the first line")
    if on_conic(start):
        raise DegenerateStart(f"{start!r} lies on the conic")
    for l in lines[1:]:
        if incident(l, start):
            raise DegenerateStart(f"{start!r} lies on a second line of the walk")
    roots = tangents_from(start)
    if not roots.params:
        # an exact start lacks roots only when its discriminant is a
        # non-square in Q(sqrt D): an integer discriminant always has them
        reach = ("the float backend's reach" if start.kind == "float"
                 else f"Q(sqrt({_text(start._D)}))")
        raise FieldInsufficient(
            f"tangent parameters from {start!r} need a square root outside {reach}"
        )
    t = roots.params[0 if branch == "first" else 1]
    u = t.pair()[0]
    D = u._D if type(u) is QuadExt else start._D or next((l._D for l in lines if l._D), 0)
    # a line over a second radicand raises MixedBackend here
    line_pairs = [_pairs_over(l, D) for l in lines]
    maps = _line_maps(line_pairs)
    if start.kind == "exact":
        keys = _walk_keys(maps, D, _key_of(t, D), targets[:-1])
        params = [t, *(_key_param(k, D) for k in keys[1:])]
        vertices = (
            ProjPoint._from_pairs(_pair_cross(
                ((u0 * u0 + u1 * u1 * D, 2 * u0 * u1), (-2 * u0 * v, -2 * u1 * v), (v * v, 0)),
                line_pairs[target], D,
            ), D)
            for (u0, u1, v), target in zip(keys, targets)
        )
    else:
        (x, w), ts = t.pair(), []
        for target in targets:  # the edge into each vertex, then the one out
            if not w:
                raise DegenerateStart("float walk hit the parameter at infinity")
            ts.append(x / w)
            a, _, b, _, c, _, _ = maps[target]
            x, w = a * ts[-1] + b, c * ts[-1] - a
        params = [t, *map(ConicParam, ts[1:])]
        vertices = (
            ProjPoint(*_cross((x * x, -2 * x, 1.0), lines[target].coords))
            for x, target in zip(ts, targets)
        )
    walked = [start]
    for vertex in vertices:
        if vertex == walked[-1]:
            raise DegenerateStart(f"stalled at {vertex!r}")
        if on_conic(vertex):
            raise DegenerateStart(f"vertex {vertex!r} fell on the conic")
        walked.append(vertex)
    return walked, params


def primal_chain(
    config: LineConfiguration, start: ProjPoint, branch: str = "first"
) -> PolygonChain:
    """Trace the tangent-edge polygon from a start vertex on the first line,
    through L_2, ..., L_n, L_1, ..., L_n, L_1.

    The first edge takes the deterministically ordered first tangent from the
    start ("second" selects the other); every later edge is the tangent other
    than the incoming one. Works on the exact backend (staying inside one
    quadratic extension) and on the float backend.
    """
    _require_valid(config)
    lines = config.lines
    if start.kind != config.kind:
        if start.kind == "float":
            lines = config.as_float().lines
        else:
            raise MixedBackend("exact start against a float configuration")
    n = config.n
    targets = [i % n for i in range(1, 2 * n + 1)]
    vertices, edge_params = _tangent_walk(lines, start, targets, branch)
    closed = vertices[-1] == vertices[0]
    return PolygonChain("primal", tuple(edge_params), tuple(vertices), closed, 2 * n)


def well_inscribed(chain: PolygonChain, config: LineConfiguration) -> bool:
    """Whether a closed chain is a genuine inscribed-circumscribed polygon:
    distinct vertices, every edge tangent to the conic, and each configuration
    line carrying exactly two polygon vertices."""
    if not chain.closed:
        raise NotClosed("well-inscribedness is a property of closed chains")
    if chain.mode == "dual":
        ps = chain.params
        try:
            polygon = [pole(chord(ps[i], ps[i + 1])) for i in range(len(ps) - 1)]
        except EqualParameters:
            return False
        edges = [tangent_at(p) for p in ps[1:]]
    elif chain.mode == "primal":
        polygon = list(chain.vertices[:-1])
        edges = [tangent_at(t) for t in chain.params]
    else:
        raise ValueError(f"unknown chain mode {chain.mode!r}")
    if len(polygon) != 2 * config.n or _repeats(polygon):
        return False
    if not all(is_tangent(e) for e in edges):
        return False
    lines = config.lines if config.kind == polygon[0].kind else config.as_float().lines
    for line in lines:
        if sum(1 for v in polygon if incident(line, v)) != 2:
            return False
    return True


class TangentClosure(NamedTuple):
    """Walk of an odd pencil: the vertices, the tangency parameters of the
    walked edges, and the closing line with its tangency verdict."""

    vertices: tuple[ProjPoint, ...]
    edge_params: tuple[ConicParam, ...]
    closing_line: ProjLine
    closing_tangent: bool
    discriminant: Scalar


def concurrent_tangent_chain(
    lines: Sequence[ProjLine], start: ProjPoint, branch: str = "first"
) -> TangentClosure:
    """Walk 2m tangent edges through m lines (m odd), visiting them
    cyclically. When the lines are concurrent, the line joining the last
    vertex back to the first is tangent to the conic; the walk still runs
    on a non-concurrent pencil, where the tangency verdict generically
    comes back false."""
    lines = tuple(lines)
    m = len(lines)
    if m < 3 or m % 2 == 0:
        raise InvalidConfiguration("need an odd number of lines, at least 3")
    for l in lines:
        if line_conic_params(l).double:
            raise InvalidConfiguration(f"{l!r} is tangent to the conic")
    if start.kind != lines[0].kind:
        raise MixedBackend("start and lines from different backends")
    # P_2 .. P_{2m}, visiting the pencil cyclically
    targets = [i % m for i in range(1, 2 * m)]
    vertices, edge_params = _tangent_walk(lines, start, targets, branch)
    if vertices[-1] == vertices[0]:
        raise DegenerateStart("walk returned to the start vertex early")
    closing = join(vertices[-1], vertices[0])
    if start.kind == "exact":
        tangent = is_tangent(closing)
    else:
        # a line through the start, which is off the conic, touches it only
        # as one of the start's tangents; the last vertex's incidence with
        # them carries the vertices' own rounding, where the join of two
        # near vertices magnifies it by their inverse distance
        tangent = False
        for t in tangents_from(start).params:
            line = tangent_at(t)
            if line.kind == "exact":  # a float quadratic's root at infinity
                line = ProjLine(*(float(c) for c in line.coords))
            tangent = tangent or incident(line, vertices[-1])
    return TangentClosure(
        tuple(vertices),
        tuple(edge_params),
        closing,
        tangent,
        tangency_discriminant(closing),
    )


def generate_closing(n: int, seed: int, max_tries: Optional[int] = None) -> LineConfiguration:
    """A valid n-line configuration for which the porism holds: the maps of
    n - 1 sampled lines compose to W, and trace(M_c W) = 0 puts the last
    center c on the line (w_b : w_a - w_d : -w_c), zero when W is scalar.
    _admit rejects the tangent polar of a center on the conic.

    A pole whose polar _admit rejects is redrawn alone, and a failed
    completion starts a fresh candidate; max_tries (by default a budget that
    grows with n) bounds these rejected draws, and the max_tries-th raises
    GenerationExhausted."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    lines, gathered = [], set()

    def candidate():
        nonlocal lines, gathered
        while len(lines) < n - 1:
            line = polar(_random_point(rng))
            if not _admit(line, gathered):
                return None
            lines.append(line)
        polars, admitted = lines, gathered
        # whatever the completion gives, the next draw starts a fresh
        # candidate, so that a degenerate locus cannot trap the loop
        lines, gathered = [], set()
        maps = _line_maps([_pairs_over(l, 0) for l in polars])
        a, b, c, d = _rational_product(maps)
        if not (b or c or a - d):  # every center closes a scalar product
            return None
        line = polar(point_on_line(ProjLine(b, a - d, -c), _random_param(rng)))
        if _admit(line, admitted):
            config = LineConfiguration([*polars, line])
            config._maps = 0, maps + _line_maps([_pairs_over(line, 0)])
            config._admitted = admitted
            return config

    tries = _budget(n, max_tries)
    return _redraw(candidate, tries, f"no closing configuration after {tries} tries")


def random_configuration(n: int, seed: int, max_tries: Optional[int] = None) -> LineConfiguration:
    """A valid n-line configuration with unconstrained poles; the porism
    generically fails on these. Validity keeps the poles off the conic: a
    pole on the conic is the pole of a tangent member.

    A pole whose polar _admit rejects is redrawn alone; max_tries (by
    default a budget that grows with n) bounds these rejected draws, and
    the max_tries-th raises GenerationExhausted."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    lines, gathered = [], set()

    def grow():
        while len(lines) < n:
            line = polar(_random_point(rng))
            if not _admit(line, gathered):
                return None
            lines.append(line)
        return LineConfiguration(lines)

    tries = _budget(n, max_tries)
    return _redraw(grow, tries, f"no valid configuration after {tries} tries")


class TwoLineSystem(NamedTuple):
    """The degenerate two-line porism normal form: the involution u fixing
    {1, -1} and the involution v fixing {0, 2/x}, as parameter matrices
    [[0, 1], [1, 0]] and [[1, 0], [x, -1]]."""

    x: Scalar
    mat_u: Mat2
    mat_v: Mat2

    @classmethod
    def at(cls, x) -> "TwoLineSystem":
        if isinstance(x, int):
            x = Fraction(x)
        return cls(x, Mat2(0, 1, 1, 0), Mat2(1, 0, x, -1))

    @property
    def step(self) -> Mat2:
        """One period u.v of the alternating walk."""
        return self.mat_u * self.mat_v


def two_line_closure(x, n: int) -> bool:
    """Whether the alternating two-line walk closes after exactly n periods:
    (uv)^n is scalar and no smaller positive power is."""
    if n < 2:
        raise ValueError("need n >= 2")
    system = TwoLineSystem.at(x)
    power = Mat2.identity()
    for _ in range(n - 1):
        power = system.step * power
        if is_scalar_multiple_of_identity(power):
            return False
    power = system.step * power
    return is_scalar_multiple_of_identity(power)

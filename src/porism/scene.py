"""Line-oriented text format for configurations, named points and chains.

The format is versioned, UTF-8, diff-friendly, and bit-exact: every scalar is
a rational written as "p" or "p/q" in ASCII digits, -?[0-9]+(/[0-9]+)?
(never a float), and the parameter value infinity is written "inf". One
record per line:

    poncelet-scene 1
    conic canonical
    line 0 1 0
    point A 1 0 1
    chain dual 3 1/3 -1/3 -3 3

Only dual chains are serialized: their parameters are rational whenever the
start is, while primal chains generally live in a quadratic extension.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import GeometryError, ParseError
from .plane import INFINITY, ConicParam, ProjLine, ProjPoint

if TYPE_CHECKING:  # imported on use, so that `plot` never loads closure
    from .closure import LineConfiguration

HEADER = "poncelet-scene 1"
CONIC_RECORD = "conic canonical"
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def format_rational(q: int | Fraction) -> str:
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # past the interpreter's limit on integer strings
        big = max(abs(q.numerator), q.denominator)
        digits = int((big.bit_length() - 1) * math.log10(2)) + 1  # or one more:
        digits += big >= 10**digits
        raise ParseError(
            f"cannot store a scalar of {digits} digits: the interpreter's limit "
            f"for integer string conversion is {sys.get_int_max_str_digits()} digits"
        ) from exc



def parse_rational(token: str) -> Fraction:
    if not _RATIONAL.fullmatch(token):
        raise ParseError(f"scalars must be ASCII rationals p or p/q, got {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {token!r}") from exc
    except ValueError as exc:  # more digits than the interpreter converts to an int
        raise ParseError(f"rational token of {len(token)} characters: {exc}") from exc


def format_param(t: ConicParam) -> str:
    if t.is_infinite:
        return "inf"
    if not isinstance(t.value, Fraction):
        raise ParseError(f"only rational parameters serialize, got {t!r}")
    return format_rational(t.value)


def parse_param(token: str) -> ConicParam:
    if token == "inf":
        return INFINITY
    return ConicParam(parse_rational(token))


def _format_triple(coords) -> str:
    parts = []
    for c in coords:
        if not isinstance(c, (int, Fraction)):
            raise ParseError(f"only rational coordinates serialize, got {c!r}")
        parts.append(format_rational(c))
    return " ".join(parts)


class SceneDocument(NamedTuple):
    """A parsed or to-be-serialized scene: configuration lines, optional
    named points, optional dual-chain parameter traces."""

    lines: tuple[ProjLine, ...]
    points: tuple[tuple[str, ProjPoint], ...] = ()
    chains: tuple[tuple[ConicParam, ...], ...] = ()

    def configuration(self) -> LineConfiguration:
        from .closure import LineConfiguration

        return LineConfiguration(self.lines)

    @classmethod
    def from_configuration(
        cls,
        config: LineConfiguration,
        points: Sequence[tuple[str, ProjPoint]] = (),
        chains: Sequence[Sequence[ConicParam]] = (),
    ) -> "SceneDocument":
        return cls(
            tuple(config.lines),
            tuple(points),
            tuple(tuple(chain) for chain in chains),
        )


def serialize(scene: SceneDocument) -> str:
    out = [HEADER, CONIC_RECORD]
    for l in scene.lines:
        out.append(f"line {_format_triple(l.coords)}")
    for name, p in scene.points:
        if not name or any(ch.isspace() for ch in name):
            raise ParseError(f"bad point name {name!r}")
        out.append(f"point {name} {_format_triple(p.coords)}")
    for chain in scene.chains:
        if not chain:
            raise ParseError("a chain record needs at least one parameter")
        out.append("chain dual " + " ".join(format_param(t) for t in chain))
    return "\n".join(out) + "\n"


def parse(text: str) -> SceneDocument:
    meaningful = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            meaningful.append(stripped)
    if not meaningful or meaningful[0] != HEADER:
        raise ParseError(f"missing header {HEADER!r}")
    if len(meaningful) < 2 or meaningful[1] != CONIC_RECORD:
        raise ParseError(f"missing record {CONIC_RECORD!r}")
    lines = []
    points = []
    chains = []
    for record in meaningful[2:]:
        tokens = record.split()
        keyword = tokens[0]
        if keyword == "line":
            if len(tokens) != 4:
                raise ParseError(f"line record needs 3 scalars: {record!r}")
            try:
                lines.append(ProjLine(*(parse_rational(t) for t in tokens[1:])))
            except GeometryError as exc:
                raise ParseError(str(exc)) from exc
        elif keyword == "point":
            if len(tokens) != 5:
                raise ParseError(f"point record needs a name and 3 scalars: {record!r}")
            try:
                points.append(
                    (tokens[1], ProjPoint(*(parse_rational(t) for t in tokens[2:])))
                )
            except GeometryError as exc:
                raise ParseError(str(exc)) from exc
        elif keyword == "chain":
            if len(tokens) < 3 or tokens[1] != "dual":
                raise ParseError(f"chain record must be 'chain dual ...': {record!r}")
            chains.append(tuple(parse_param(t) for t in tokens[2:]))
        else:
            raise ParseError(f"unknown record {keyword!r}")
    return SceneDocument(tuple(lines), tuple(points), tuple(chains))


def save_scene(scene: SceneDocument, path: str):
    text = serialize(scene)  # before the open, so that a failure leaves path as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_scene(path: str) -> SceneDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())

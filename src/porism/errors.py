"""Structured error types shared by the geometry modules.

Every degenerate input or impossible construction raises one of these, so
harnesses can distinguish "the theorem failed" (an assertion) from "the
instance was degenerate" (resample).

Plain ValueError is kept for errors in the arguments rather than in the
geometry: a count out of range (n < 2, fewer than three points or lines,
an empty chain, parameter lists of the wrong length, fewer than 8 samples,
no trials), a bad `branch` or chain mode, repeated centers handed to
aligned_centers_involutive, and misuse of a scalar (QuadExt() of a
rational value or over a square d, the float image of an imaginary
extension). A QuadExt is the integers (a + b sqrt(D))/c over one
integer radicand D, and a triple keeps its extension entries as pairs over
that D: entries or operands over two radicands raise MixedBackend.
Non-scalar arguments raise TypeError.
"""


class GeometryError(Exception):
    """Base class for all structured geometry failures."""


class MixedBackend(GeometryError, TypeError):
    """Exact and float scalars, incompatible extension fields, or two radicands
    of one triple or incidence, mixed in one expression."""


class FieldInsufficient(GeometryError):
    """The current scalar field cannot express a required square root."""


class CoincidentPoints(GeometryError):
    """join() of a point with itself."""


class CoincidentLines(GeometryError):
    """meet() of a line with itself."""


class DegenerateTuple(GeometryError, ValueError):
    """A zero or non-finite coordinate tuple, or a cross-ratio of a tuple
    with a repeated entry."""


class IdentityMap(GeometryError):
    """Operation undefined for the identity class of PGL(2)."""


class SingularMap(GeometryError, ValueError):
    """MobiusMap of a matrix with zero determinant."""


class PointOnConic(GeometryError):
    """tangents_from() of a point lying on the conic (the two tangents collapse)."""


class CenterOnConic(GeometryError):
    """Frégier center on the conic: the matrix degenerates (det = 0)."""


class NotIncident(GeometryError):
    """other_tangent_param() at a parameter whose tangent misses the point."""


class EqualParameters(GeometryError):
    """chord() or involution_from_fixed() with two equal parameters."""


class NotInvolution(GeometryError):
    """center_of() of a map that is not an involution."""


class SharedFixedPoint(GeometryError):
    """harmonic_product_test() on involutions with intersecting fixed-point sets."""


class DegenerateHexagon(GeometryError):
    """pascal_line() input whose chords or meets collapse."""


class DegenerateConstruction(GeometryError):
    """moebius_check() input with coincident parameters."""


class DegeneratePolygon(GeometryError):
    """dual_moebius_check() input that does not form a polygon."""


class InvalidConfiguration(GeometryError):
    """Line configuration failed validation (tangent member, repeated parameter, ...)."""


class DegenerateStart(GeometryError):
    """Chain start hits a configuration point, the conic, or a fixed point mid-chain."""


class NotClosed(GeometryError):
    """well_inscribed() of a chain that did not close."""


class GenerationExhausted(GeometryError):
    """generate_closing() gave up after its retry budget."""


class ParseError(GeometryError, ValueError):
    """Malformed scene document."""


class UnknownSuite(GeometryError, ValueError):
    """cmd_verify() with a suite name that does not exist."""

"""Exact projective geometry engine for conic closure porisms.

The package verifies, in exact arithmetic over Q and its quadratic
extensions, a family of closure statements about polygons inscribed in a
line configuration and circumscribed about the canonical conic x0*x2 = x1^2:
products of center involutions, harmonic criteria, hexagon collinearity, the
inscribed/circumscribed polygon theorems, the closure porism itself, and the
degenerate two-line polynomial criterion.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a command that needs
one module does not pay for the rest.
"""

import importlib

# each exported name, listed under the module that defines it
_EXPORTS = {
    "algebra": ("Mat2", "Polynomial", "det3", "pn_polynomial"),
    "closure": (
        "LineConfiguration", "PolygonChain", "TangentClosure", "TwoLineSystem",
        "ValidityReport", "concurrent_tangent_chain", "dual_chain",
        "generate_closing", "poles_of", "porism_holds", "primal_chain",
        "random_configuration", "two_line_closure", "validate", "well_inscribed",
    ),
    "conic": (
        "chord", "line_conic_params", "on_conic", "other_tangent_param",
        "polar", "pole", "tangent_at", "tangents_from", "veronese",
    ),
    "errors": ("GeometryError",),
    "fields": ("FLOAT_TOL", "QuadExt", "sqrt_scalar"),
    "involution": (
        "DualMoebiusReport", "FregierInvolution", "InvolutionChain",
        "MoebiusReport", "aligned_centers_involutive", "center_of",
        "closing_center_locus", "dual_moebius_check", "fregier",
        "harmonic_product_test", "involution_from_fixed", "moebius_check",
        "pascal_line",
    ),
    "plane": (
        "INFINITY", "ConicParam", "MobiusMap", "ParamRoots", "ProjLine",
        "ProjPoint", "collinear", "concurrent", "cross_ratio", "fixed_points",
        "incident", "is_involution", "join", "meet", "mobius_apply",
        "mobius_compose", "point_on_line",
    ),
    "scene": ("SceneDocument", "load_scene", "parse", "save_scene", "serialize"),
    "suites": (
        "SUITES", "ResampleTally", "Suite", "TrialFailure", "TrialReport",
        "run_suite", "run_trial", "trial_seed",
    ),
    "svg": ("render_scene",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

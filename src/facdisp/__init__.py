"""facdisp: factorized dispersion relations for two coupled Lagrangian systems.

Exact rational polynomial arithmetic, determinant expansion machinery, a small
Lagrangian language compiled to plane-wave symbol matrices, four worked
physical models, dispersion-branch tracing and the associated asymptotics.
"""

from importlib import resources

from .polyalg import (
    ComplexPoly,
    MultiPoly,
    Rational,
    format_poly,
    parse_poly,
    sqrt_exact,
)
from .matdet import (
    CoupledSystem,
    IndexSet,
    PolyMatrix,
    coupled_b_expansion,
    format_matrix,
    laplace_expand,
    markus_expansion,
    parse_matrix,
    reassemble_b_expansion,
)
from .lagrangian import (
    LagrangianBuilder,
    QuadraticLagrangian,
    SymbolMatrix,
    dispersion_poly,
    equal_up_to_signature,
    symbol_matrix,
    symmetrize,
)
from .lagparse import (
    LagrangianSyntaxError,
    ParseDiagnostic,
    parse_lagrangian,
    render_lagrangian,
    try_parse_lagrangian,
)
from . import branches, crosspoint, mechanalog, models

BUILTIN_MODELS = ("wing", "twt", "kirchhoff", "mindlin", "crosspoint", "wave")


def builtin_lagrangian_text(name: str) -> str:
    """Source text of one of the shipped .lag model files."""
    if name not in BUILTIN_MODELS:
        raise KeyError(f"unknown builtin model {name!r}; choose from {BUILTIN_MODELS}")
    return resources.files("facdisp").joinpath("lagfiles", f"{name}.lag").read_text()


__all__ = [
    "BUILTIN_MODELS",
    "ComplexPoly",
    "CoupledSystem",
    "IndexSet",
    "LagrangianBuilder",
    "LagrangianSyntaxError",
    "MultiPoly",
    "ParseDiagnostic",
    "PolyMatrix",
    "QuadraticLagrangian",
    "Rational",
    "SymbolMatrix",
    "branches",
    "builtin_lagrangian_text",
    "coupled_b_expansion",
    "crosspoint",
    "dispersion_poly",
    "equal_up_to_signature",
    "format_matrix",
    "format_poly",
    "laplace_expand",
    "markus_expansion",
    "mechanalog",
    "models",
    "parse_lagrangian",
    "parse_matrix",
    "parse_poly",
    "reassemble_b_expansion",
    "render_lagrangian",
    "sqrt_exact",
    "symbol_matrix",
    "symmetrize",
    "try_parse_lagrangian",
]

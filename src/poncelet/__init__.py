"""Poncelet maps on pencils of nested ellipses.

Rotation numbers in closed form, porism detection via Cayley determinants,
polygon orbits, and the confocal billiard correspondence.
"""

from .billiard import (
    EccPair,
    gauss_transform,
    half_rotation,
    porism_f,
    rotation_confocal,
    rotation_estimate,
)
from .cayley import (
    bicentric_check,
    bicentric_conics,
    bicentric_rho,
    bicentric_spectrum,
    cayley_condition,
    confocal_poristic_residual,
    lambda_porism,
    porism_report,
)
from .conics import SymmetricConic, confocal_ellipse, unit_circle, validate_ellipse
from .elliptic import Modulus, ellint_F, ellint_K, jacobi
from .errors import PonceletError
from .maps import (
    PolygonOrbit,
    covering,
    estimate_rotation,
    invert_rho,
    polygon,
    poncelet_step,
    rho_from_spectrum,
    rho_of_nu,
    run_composition,
    standard_map,
    symmetry_flow,
)
from .pencil import (
    Pencil,
    PencilParam,
    build_pencil,
    dual,
    f_of_nu,
    member,
    nesting_order,
    pencil_eccentricity,
)

__version__ = "0.1.0"

__all__ = [
    "EccPair",
    "Modulus",
    "Pencil",
    "PencilParam",
    "PolygonOrbit",
    "PonceletError",
    "SymmetricConic",
    "bicentric_check",
    "bicentric_conics",
    "bicentric_rho",
    "bicentric_spectrum",
    "build_pencil",
    "cayley_condition",
    "confocal_ellipse",
    "confocal_poristic_residual",
    "covering",
    "dual",
    "ellint_F",
    "ellint_K",
    "estimate_rotation",
    "f_of_nu",
    "gauss_transform",
    "half_rotation",
    "invert_rho",
    "jacobi",
    "lambda_porism",
    "member",
    "nesting_order",
    "pencil_eccentricity",
    "polygon",
    "poncelet_step",
    "porism_f",
    "porism_report",
    "rho_from_spectrum",
    "rho_of_nu",
    "rotation_confocal",
    "rotation_estimate",
    "run_composition",
    "standard_map",
    "symmetry_flow",
    "unit_circle",
    "validate_ellipse",
]

"""Exact tools for 2D dynamical triangulations, their dual trivalent
ribbon graphs, isoperimetric moduli volumes, and intersection numbers.

Every result is exact: integers, Fractions, and integer coefficient lists
over the cyclotomic field Q(zeta_q) for the polygon's deformation rank.
"""

from .catalog import (
    Catalog,
    CatalogEntry,
    InfeasibleKeyError,
    ResourceCapError,
    check_feasible,
    enumerate_triangulations,
    face_count,
    feasible_q_vectors,
)
from .intersection import GenusError, TauQuery, generating_F, intersection_number, tau
from .measure import (
    ConstraintSystem,
    SkewForm,
    constraint_system,
    incidence_matrix,
    kontsevich_check,
    kontsevich_coefficient,
    pfaffian,
    total_form,
)
from .pairing import PairingReport, duality_pairing
from .report import RunReport
from .ribbon import RibbonGraph, aut_boundary, canonical_code, dualize
from .triangulation import (
    Triangulation,
    build_triangulation,
    curvature_assignments,
    gauss_bonnet_check,
)
from .volume import LerayVolume, leray_volume

__all__ = [
    "Catalog",
    "CatalogEntry",
    "ConstraintSystem",
    "GenusError",
    "InfeasibleKeyError",
    "LerayVolume",
    "PairingReport",
    "ResourceCapError",
    "RibbonGraph",
    "RunReport",
    "SkewForm",
    "TauQuery",
    "Triangulation",
    "aut_boundary",
    "build_triangulation",
    "canonical_code",
    "check_feasible",
    "constraint_system",
    "curvature_assignments",
    "duality_pairing",
    "dualize",
    "enumerate_triangulations",
    "face_count",
    "feasible_q_vectors",
    "gauss_bonnet_check",
    "generating_F",
    "incidence_matrix",
    "intersection_number",
    "kontsevich_check",
    "kontsevich_coefficient",
    "leray_volume",
    "pfaffian",
    "tau",
    "total_form",
]

__version__ = "0.1.0"

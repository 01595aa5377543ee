"""Maximal surfaces in Lorentz-Minkowski space.

Core curves with prescribed normal fields are turned into spacelike
surface patches with vanishing mean curvature, evaluated in closed form
through a catalog of families, and cross-checked numerically: curvature
residuals, conformality, motion-group equivariance, period integrals,
and total curvature of the associated Euclidean minimal surfaces.
"""

from .bjorling import (QuadratureError, SurfacePatch, reference_normal,
                       segment_integral, solve_bjorling)
from .catalog import (CatalogSurface, DEFAULT_DOMAINS, FAMILY_INFO,
                      GeneratingCurve, bending_spacelike, bending_timelike,
                      bjorling_data_for, elliptic_catenoid,
                      enneper_second_kind, eval_surface, generating_curve_for,
                      helicoidal_spacelike_i, helicoidal_spacelike_ii,
                      helicoidal_timelike, helicoidal_timelike_constant,
                      hyperbolic_catenoid, lightlike_rotational, patch)
from .frames import (BjorlingData, CurveFamily, FrameField, NormalFieldSpec,
                     circle_lightlike, circle_spacelike, circle_timelike,
                     constant_twist, helix_spacelike_i, helix_spacelike_ii,
                     helix_timelike, linear_twist, make_bjorling_data,
                     make_curve, make_frame, make_normal_field)
from .lorentz import (CausalCharacter, ETA, causal_character, lorentz_cross,
                      lorentz_dot, lorentz_norm, vec3)
from .motions import (MotionGroup, isometry_defect, rotation_lightlike_axis,
                      rotation_spacelike_axis, rotation_timelike_axis,
                      screw_timelike_axis)
from .verify import (CheckResult, FundamentalForms, Grid, VerificationReport,
                     bjorling_recovery, conformality_residual, equivariance,
                     fundamental_forms, mean_curvature_scan, spacelike_region)
from .weierstrass import (FormTriple, Loop, WeierstrassData, dualize,
                          forms_for, gauss_map, integrate_forms, period,
                          reconstruct_forms, total_curvature,
                          weierstrass_pair)

__version__ = "0.1.0"

__all__ = [
    "BjorlingData", "CatalogSurface", "CausalCharacter",
    "CheckResult", "CurveFamily", "DEFAULT_DOMAINS", "ETA", "FAMILY_INFO",
    "FormTriple", "FrameField", "FundamentalForms",
    "GeneratingCurve", "Grid", "Loop", "MotionGroup", "NormalFieldSpec",
    "QuadratureError", "SurfacePatch", "VerificationReport",
    "WeierstrassData", "bending_spacelike", "bending_timelike",
    "bjorling_data_for", "bjorling_recovery", "causal_character",
    "circle_lightlike", "circle_spacelike", "circle_timelike",
    "conformality_residual", "constant_twist", "dualize",
    "elliptic_catenoid", "enneper_second_kind", "equivariance",
    "eval_surface", "forms_for", "fundamental_forms", "gauss_map",
    "generating_curve_for", "helicoidal_spacelike_i",
    "helicoidal_spacelike_ii", "helicoidal_timelike",
    "helicoidal_timelike_constant", "helix_spacelike_i", "helix_spacelike_ii",
    "helix_timelike", "hyperbolic_catenoid", "integrate_forms",
    "isometry_defect", "lightlike_rotational", "linear_twist",
    "lorentz_cross", "lorentz_dot", "lorentz_norm", "make_bjorling_data",
    "make_curve", "make_frame", "make_normal_field",
    "mean_curvature_scan", "patch", "period",
    "reconstruct_forms", "reference_normal", "rotation_lightlike_axis",
    "rotation_spacelike_axis", "rotation_timelike_axis",
    "screw_timelike_axis", "segment_integral", "solve_bjorling",
    "spacelike_region", "total_curvature", "vec3", "weierstrass_pair",
]

"""Weighted eigenvalues of a partially hinged rectangular plate, and bang-bang
density optimization of the torsional/longitudinal eigenvalue ratio."""

from .config import PlateConfig
from .spectrum import (HomEigenpair, HomSpectrum, Mode, build_spectrum,
                       characteristic_det, check_c0, eval_eigenfunction,
                       find_hom_eigenvalue, torsional_first_exists)
from .weights import (GridField, MembershipReport, Weight, eval_weight,
                      make_breve_p, make_doublebar_p, make_pbar_j, make_tilde_p,
                      make_uniform, threshold_for_area, validate,
                      weight_from_json, weight_to_json)
from .galerkin import (GalerkinSpectrum, WeylReport, assemble_mass,
                       merged_eigenvalues, reconstruct, solve_weighted,
                       weyl_diagnostic)
from .optimize import (OptimizationTrace, RatioReport, make_pstar,
                       maximize_nu1_fixed_point, minimize_mu_j, mu_upper_bound,
                       ratio_study, rearrange_max, rearrange_min)

__version__ = "0.1.0"

__all__ = [
    "PlateConfig",
    "Mode", "HomEigenpair", "HomSpectrum",
    "build_spectrum", "find_hom_eigenvalue", "characteristic_det",
    "torsional_first_exists", "check_c0", "eval_eigenfunction",
    "Weight", "GridField", "MembershipReport",
    "validate", "eval_weight", "threshold_for_area",
    "make_uniform", "make_pbar_j", "make_breve_p",
    "make_doublebar_p", "make_tilde_p", "make_pstar",
    "weight_to_json", "weight_from_json",
    "GalerkinSpectrum", "assemble_mass", "solve_weighted", "reconstruct",
    "merged_eigenvalues", "weyl_diagnostic", "WeylReport",
    "OptimizationTrace", "RatioReport",
    "rearrange_min", "rearrange_max", "minimize_mu_j",
    "maximize_nu1_fixed_point", "mu_upper_bound", "ratio_study",
]

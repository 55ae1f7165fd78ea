"""Numerical toolkit for the biharmonic map heat flow into the sphere.

Evaluates the fourth-order heat kernel and certifies its decay estimates,
realises the mild-solution operators and the solution/forcing space norms on
a periodic lattice, and runs the whole-trajectory Picard iteration for the
extrinsic and intrinsic flows with contraction and constraint diagnostics.
"""

__version__ = "0.1.0"

from .fields import Grid, GridField, SpaceTimeField
from .flow import (FlowConfig, FlowDiagnostics, constant_initial_data,
                   distance_experiment, equator_initial_data, picard_solve)
from .kernel import (ALPHA, BoundCertificate, KernelProfile, SampleSpec,
                     certify_bound, default_profile, eval_kernel, eval_profile,
                     kernel_mass)
from .manifold import SphereTarget, defect_q, dpi, project, rho
from .norms import (NormReport, bmo_seminorm, carleson_functional, x_norm,
                    y1_norm, y2_norm)
from .semigroup import apply_G, apply_S, operator_bound_experiment

__all__ = [
    "__version__",
    "ALPHA", "KernelProfile", "SampleSpec", "BoundCertificate",
    "default_profile", "eval_profile", "eval_kernel", "kernel_mass", "certify_bound",
    "SphereTarget", "project", "dpi", "defect_q", "rho",
    "Grid", "GridField", "SpaceTimeField",
    "NormReport", "bmo_seminorm", "carleson_functional", "x_norm", "y1_norm", "y2_norm",
    "apply_G", "apply_S", "operator_bound_experiment",
    "FlowConfig", "FlowDiagnostics", "picard_solve", "distance_experiment",
    "equator_initial_data", "constant_initial_data",
]

"""Symmetric-hyperbolic first-order systems at desk scale: symmetry and
positivity predicates, convex-entropy symmetrization, energy and
propagation diagnostics, Lax-Friedrichs integration, 1D shock-wave
admissibility, and a library of worked example systems."""

from .core import (MatrixField, SHVerdict, SystemDef, characteristic_speeds,
                   direction_matrix, is_sh, ldlt_pivots, positive_definite,
                   sample_box, symmetry_residual)
from .energy import (DampingResult, LinearSystem, SupportVerdict, c_matrix,
                     cone_slope, damping_lambda, energy, support_test)
from .entropy import (ConservationLaw, ConvergenceError, DiffusionTensor,
                      EntropyPair, conservative_symmetry_check,
                      diffusion_symmetry_check, entropy_pair_residual,
                      entropy_variables, flux_potential_check,
                      hessian_symmetrizer, legendre_dual)
from .grid import GridField, centered_diff, interior_mask, l2_norm, shifted
from .lxf import (SchemeConfig, StabilityError, Trace, lxf_step,
                  max_char_speed, run, viscous_step)
from .models import (ConstraintMonitor, PositivityCertificate, TricomiSystem,
                     advection_law, burgers_law, ck_realify,
                     euler_conservative_1d, euler_conservative_to_primitive,
                     euler_polytropic_sh, euler_primitive_to_conservative,
                     euler_sound_speed, maxwell_system, polynomial_scalar_law,
                     tricomi_certificate_matrix, tricomi_system, wave_system)
from .shocks import (AdmissibilityVerdict, ResolutionError, RiemannSolution,
                     ShockCandidate, entropy_admissible, genuine_nonlinearity,
                     rh_residual, rh_speed, riemann_scalar, shock_candidate,
                     shock_detect, shock_speed_fit, viscous_limit_compare)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

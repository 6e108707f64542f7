"""Spectral analysis toolkit for a four-zone countercurrent adsorption loop.

The model couples a liquid phase moving rightward at zone-dependent
velocities with a solid phase moving leftward at unit speed, exchanging
mass linearly.  The package computes the characteristic function of the
transport operator through overflow-safe transfer matrices, locates the
dominant eigenvalue, builds direct and adjoint eigenfunctions, derives
parameter sensitivities by the adjoint method, evaluates the closed-form
equal-velocity spectrum, and integrates the equations in time by operator
splitting.
"""

__version__ = "0.1.0"

from .errors import (MovingBedError, NumericalError,  # noqa: F401
                     ValidationError)
from .params import (ModelParams, PhysicalParams, case_study,  # noqa: F401
                     from_physical, limit_params, load_params, preset,
                     save_params, time_constant)
from .charfun import (asymptotic_envelope, delta_sign_log,  # noqa: F401
                      det_closed_form_log, return_map, zone_eigen,
                      zone_matrix)
from .spectrum import (bracket_bound, collocation_spectrum,  # noqa: F401
                       dominant_eigenvalue, imaginary_vanishing_k,
                       limit_asymptote, limit_spectrum, real_root_scan)
from .eigfun import (adjoint_eigenfunction, eigenfunction,  # noqa: F401
                     evaluate, exp_integral, inner_product,
                     projection_coefficient, steady_state)
from .sensitivity import full_report, sensitivities  # noqa: F401
from .sim import (SimConfig, SimState, advection_step, decay_rate,  # noqa: F401
                  energy, init, mass, mass_transfer_step, profile_rms,
                  run, sample_eigenfunction, sup_norm)

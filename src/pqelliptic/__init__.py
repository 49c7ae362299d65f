"""Workbench for divergence-form elliptic Dirichlet problems under
(p,q)-growth: operator families with declared structural constants,
sampled verification of the ellipticity/growth/monotonicity/coercivity
hypotheses, P1 finite elements with an epsilon-continuation solver, and
instrumentation of the a priori estimates the scheme relies on."""

from .errors import (ConfigError, DerivativeUnavailable, DimensionMismatch,
                     InconsistentExactData, InvalidExponents, MeshError,
                     NonConvergence, NonnegativityViolation, PQError,
                     QuadratureFailure, SingularJacobian)
from .estimates import (EstimateReport, alpha_is_extrapolated,
                        build_estimate_report, check_uniform_lp,
                        compute_alpha, compute_pstar, global_lp_rhs,
                        interior_constants)
from .fem import (DiscreteField, Mesh, assemble_jacobian, assemble_residual,
                  build_mesh, element_gradients, field_from_interior,
                  h2_seminorm, h2_seminorm_interior, interpolate,
                  linf_gradient_interior, linf_norm_interior,
                  lp_gradient_norm, w12_distance, zero_field)
from .mms import (ManufacturedCase, builtin_case, convergence_study,
                  make_manufactured)
from .operators import (Box, OperatorSpec, eval_dflux_dxi, eval_flux,
                        make_custom, make_family, operator_from_descriptor,
                        regularize, unit_box, validate_assumptions)
from .report import AssumptionReport, CheckEntry
from .solvers import (ContinuationStep, ContinuationTrace, EpsilonSchedule,
                      NewtonConfig, SolveStats, continuation_solve,
                      newton_solve, p2_presolve)
from .verify import (SampleConfig, check_coercivity_lower,
                     check_derivative_consistency, check_ellipticity,
                     check_growth_u, check_growth_xi, check_lemma_lower_bound,
                     check_local_conditions, check_monotonicity,
                     check_regularized_growth, reevaluate_witness,
                     run_structure_checks, theta_exponent)

__version__ = "0.1.0"

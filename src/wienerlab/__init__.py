"""Numerical laboratory for Malliavin-Sobolev membership on Wiener space.

Layers: wiener (paths, Cameron-Martin directions, Girsanov weights),
functionals (cylindrical polynomials and piecewise scalar functionals with
their derivatives and difference quotients), quadrature (verdict-producing
adaptive integration), diagnostics (seminorms, L^q quotient norms, uniform
integrability, membership reports), counterexamples (the catalog functionals
separating the membership classes), cli (evidence-emitting front end).
"""

from .counterexamples import (Thm31Params, Thm33Params, ValidationResult, build_thm31,
                              build_thm33, catalog_build, smooth_completion_G,
                              smooth_completion_g, squared_quotient_floor_integrand,
                              validate_eta_mu)
from .diagnostics import (CmCheckResult, DvpResult, EpsilonGrid, Flag, LqRow, MembershipReport,
                          SsgdResult, cameron_martin_check, dvp_uniform_integrability_test,
                          lq_diffquot_norm, membership_report, report_to_csv, report_to_markdown,
                          rows_to_csv, sgd_probability_test, sobolev_seminorm, ssgd_test)
from .functionals import (CylindricalFunctional, Function1D, Polynomial,
                          ScalarFunctional, difference_quotient_1d,
                          eval_cylindrical, linear_functional,
                          malliavin_derivative_cylindrical, mc_difference_quotient,
                          pairing_with_h)
from .quadrature import (Family, IntegralVerdict, Verdict, bertrand_family,
                         gaussian_expectation, integrate_adaptive, integrate_pieces,
                         integrate_semi_infinite, integrate_singular_origin)
from .wiener import (BrownianPath, CameronMartinDirection, TimeGrid, cm_inner, cm_norm,
                     girsanov_log_weight, girsanov_weight, merged_grid, sample_increments,
                     sample_path, shift_path, wiener_integral, wiener_integral_batch)

__version__ = "0.1.0"

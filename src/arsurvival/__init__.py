"""Barrier survival probabilities for AR(p) processes.

Compute, simulate, classify and empirically verify p_N(x), the probability
that an AR(p) process stays at or below a constant barrier through time N.
"""

from .coeffs import (ARParams, Branch, CoeffLimit, CoeffOverflowError,
                     CoeffSolution, LimitKind, ar2_closed_form, ar2_coeffs,
                     ar_params, coeff_limit_class, coeff_recursion)
from .regions import Region, classify_ar2
from .innovations import (InnovationSpec, Kind, exponential_centered, gaussian,
                          rademacher, spec_from_json, two_point, uniform)
from .mc import (ReductionKind, ReductionReport, SurvivalCurve, estimate_survival,
                 pair_survival_frequency, pathwise_reduction_check)
from .oracle import (BudgetExceededError, enumerate_survival,
                     gaussian_pair_probability, pair_orthant_probability)
from .asymptotics import (DecayClass, DecayFit, HypothesisReport, Prediction,
                          fit_decay, predict)
from .bounds import (BoundMethod, DegenerateBoundError, LowerBoundResult,
                     PreconditionError, e1_rate_bound, e3_sign_change_index,
                     exp_lower_bound, integrate_params)

__version__ = "0.1.0"

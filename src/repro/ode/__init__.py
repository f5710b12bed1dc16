"""Validated ODE simulation substrate (DynIBEX substitute)."""

from .dual import Dual
from .events import crossing_steps, first_possible_crossing, refine_crossing_time
from .integrator import AnalyticFlow, TaylorIntegrator
from .meanvalue import MeanValueIntegrator
from .ivp import (
    EnclosureError,
    FlowPipe,
    FlowPipeBatch,
    IntegratorSettings,
    ODESystem,
    ValidatedStep,
)
from .jet import Jet
from .ops import gcos, gsin, gsq, gsqrt
from .picard import a_priori_enclosure, picard_operator
from .taylor import ode_taylor_coefficients, taylor_step_bounds
from .variational import (
    jacobian_enclosure,
    rhs_jacobian,
    variational_taylor_coefficients,
)

__all__ = [
    "AnalyticFlow",
    "Dual",
    "EnclosureError",
    "FlowPipe",
    "FlowPipeBatch",
    "IntegratorSettings",
    "Jet",
    "MeanValueIntegrator",
    "ODESystem",
    "TaylorIntegrator",
    "ValidatedStep",
    "a_priori_enclosure",
    "crossing_steps",
    "first_possible_crossing",
    "gcos",
    "gsin",
    "gsq",
    "gsqrt",
    "jacobian_enclosure",
    "ode_taylor_coefficients",
    "picard_operator",
    "refine_crossing_time",
    "rhs_jacobian",
    "taylor_step_bounds",
    "variational_taylor_coefficients",
]

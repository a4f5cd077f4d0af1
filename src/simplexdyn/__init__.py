"""Attractive mean-field share dynamics on the probability simplex.

A population of n components splits a conserved unit of resource.  Each
component is attracted to the average share of the others, scaled by its
own favorability constant; the induced discrete-time map has analytically
computable fixed points, an eigenvalue stability theory, transcritical
bifurcations in the favorability parameters, and an oscillatory
delayed-feedback extension.
"""

from .core import (
    ActiveSet,
    DimensionError,
    DomainViolationError,
    Favorability,
    MeanField,
    SimplexState,
    l2_sq,
    mean_field,
    weighted_interaction,
)
from .dynamics import IterationConfig, Trajectory, iterate, step, step_uniform
from .equilibrium import (
    FixedPointReport,
    find_fixed_point,
    fixed_point_for_support,
    fixed_point_n2,
    fixed_point_n3,
    lambda_threshold,
    limit_coordinate,
    uniform_limit,
)
from .stability import (
    StabilityReport,
    classify,
    derivative_n2,
    jacobian,
    jacobian_uniform,
    normal_eigenvalue,
    spectrum,
)
from .bifurcation import (
    CriticalValue,
    RegionLabel,
    ScanResult1D,
    ScanResult2D,
    classify_codim2,
    classify_codimk,
    critical_value,
    scan_1d,
    scan_2d,
)
from .delay import (
    BetaSample,
    DelayConfig,
    RegimeReport,
    beta_sweep,
    classify_regime,
    simulate_delayed,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "BetaSample",
    "CriticalValue",
    "DelayConfig",
    "DimensionError",
    "DomainViolationError",
    "Favorability",
    "FixedPointReport",
    "IterationConfig",
    "MeanField",
    "RegimeReport",
    "RegionLabel",
    "ScanResult1D",
    "ScanResult2D",
    "SimplexState",
    "StabilityReport",
    "Trajectory",
    "beta_sweep",
    "classify",
    "classify_codim2",
    "classify_codimk",
    "classify_regime",
    "critical_value",
    "derivative_n2",
    "find_fixed_point",
    "fixed_point_for_support",
    "fixed_point_n2",
    "fixed_point_n3",
    "iterate",
    "jacobian",
    "jacobian_uniform",
    "l2_sq",
    "lambda_threshold",
    "limit_coordinate",
    "mean_field",
    "normal_eigenvalue",
    "scan_1d",
    "scan_2d",
    "simulate_delayed",
    "spectrum",
    "step",
    "step_uniform",
    "uniform_limit",
    "weighted_interaction",
]

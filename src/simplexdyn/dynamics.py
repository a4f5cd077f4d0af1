"""One-step maps and trajectory iteration with convergence detection.

The heterogeneous map sends p to p' with

    p'_i = p_i * (n - 1 + c_i (1 - p_i)) / (n - 1 + L_c),
    L_c  = sum_i c_i p_i (1 - p_i),

which multiplies each share by its attraction toward the mean field and
renormalizes.  With all c_i equal to 1 this reduces (identically, not
approximately) to the uniform map p'_i = p_i (n - p_i)/(n - L) with
L = sum p_i^2; `step_uniform` therefore evaluates the same kernel at c = 1
so the reduction holds bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DimensionError,
    Favorability,
    SimplexState,
    SNAP_TOL,
    _as_float_array,
    _factors,
    _interaction,
    _shares,
)


def apply_map(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Raw map kernel on plain arrays, no validation.

    Uses the analytic normalizer n - 1 + L_c, so the function is defined
    (and differentiable) in a neighborhood of the simplex; the Jacobian
    formulas in the stability module are its exact derivatives.
    """
    return p * _factors(p, c) / ((p.size - 1.0) + _interaction(p, c))


def step(state: SimplexState, fav: Favorability, snap: bool = False) -> SimplexState:
    """One application of the heterogeneous map.

    Zero coordinates stay zero exactly; the output is a valid state (the
    normalizer enforces the unit sum up to roundoff).  ``snap`` zeroes
    coordinates that fell below the snap threshold, on request only.
    """
    if fav.n != state.n:
        raise DimensionError(f"dimension mismatch: state n={state.n}, favorability n={fav.n}")
    out = apply_map(state.p, fav.c)
    if snap:
        out[out < SNAP_TOL] = 0.0
    return SimplexState(out)


def step_uniform(state: SimplexState, snap: bool = False) -> SimplexState:
    """One application of the uniform map (all favorabilities equal).

    Same kernel as `step` evaluated at c = 1, which equals
    p_i (n - p_i)/(n - L) on the simplex.
    """
    return step(state, Favorability(np.ones(state.n)), snap)


@dataclass(frozen=True)
class IterationConfig:
    """Iteration budget and stopping rule.

    Stops when the per-step displacement max_i |p'_i - p_i| drops below
    ``tol`` (the displacement bounds the fixed-point residual near an
    equilibrium) or when ``max_steps`` is exhausted.  ``record_every``
    defaults to every step for n <= 10 and every 10th step otherwise; the
    final state is always recorded.
    """

    max_steps: int = 100_000
    tol: float = 1e-12
    record_every: Optional[int] = None
    snap_zeros: bool = False

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    def stride_for(self, n: int) -> int:
        if self.record_every is not None:
            return self.record_every
        return 1 if n <= 10 else 10


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one run, with convergence metadata.

    ``states`` is a read-only (T, n) array, one state per row, checked
    once by the SimplexState rule; ``times`` holds their T step numbers.
    ``states[0]`` is the initial condition and the final state is always
    present; intermediate states are kept at the configured stride only
    (the full path is re-derivable deterministically).  ``converged`` is
    an empirical statement that the displacement tolerance was reached,
    never an assumption.
    """

    states: np.ndarray
    times: np.ndarray
    steps_taken: int
    converged: bool
    final_residual: float

    def __post_init__(self):
        states = _as_float_array(self.states, "states", ndim=2)
        times = np.array(self.times)
        if not times.size or times.shape != states.shape[:1] or times.dtype.kind not in "iu":
            raise DimensionError(f"need >= 1 state and one integer time per state, got "
                                 f"{times.dtype} times of shape {times.shape} for {len(states)}")
        times.flags.writeable = False
        object.__setattr__(self, "states", _shares(states))
        object.__setattr__(self, "times", times)

    @property
    def final(self) -> SimplexState:
        return SimplexState(self.states[-1])

    def as_array(self) -> np.ndarray:
        return self.states


def iterate(
    p0: SimplexState,
    fav: Optional[Favorability] = None,
    config: Optional[IterationConfig] = None,
) -> Trajectory:
    """Iterate the map from ``p0`` until the tolerance or the step budget.

    ``fav=None`` selects the uniform map.  Internally each step divides by
    the weight sum itself (the map's own normalizer evaluated exactly), so
    the unit-sum invariant cannot drift over long runs.
    """
    cfg = config or IterationConfig()
    n = p0.n
    if fav is None:
        c = np.ones(n)
    else:
        if fav.n != n:
            raise DimensionError(f"dimension mismatch: state n={n}, favorability n={fav.n}")
        c = fav.c
    stride = cfg.stride_for(n)

    # Every step makes new arrays: recorded states are never written again.
    p = p0.p
    recorded = [p]
    converged = False
    for steps in range(1, cfg.max_steps + 1):
        weights = p * _factors(p, c)
        new = weights / weights.sum()
        if cfg.snap_zeros:
            new[new < SNAP_TOL] = 0.0
            new /= new.sum()
        residual = float(np.max(np.abs(new - p)))
        p = new
        if steps % stride == 0:
            recorded.append(p)
        if residual < cfg.tol:
            converged = True
            break
    times = np.arange(0, steps + 1, stride)
    if steps % stride:
        recorded.append(p)
        times = np.append(times, steps)

    return Trajectory(
        states=np.array(recorded),
        times=times,
        steps_taken=steps,
        converged=converged,
        final_residual=residual,
    )

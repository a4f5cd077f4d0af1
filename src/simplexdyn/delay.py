"""Time-delayed negative feedback on the favorability constants.

The static constants become history-dependent:

    c_i(t) = baseline_i - beta * p_i(t - tau),

so a component that held a large share tau steps ago sees its attraction
reduced now.  Small beta leaves the static fixed point intact; larger
values destabilize it into sustained oscillation (invariant circles,
near-resonant cycles) and eventually irregular aperiodic motion.

The baseline has two readings: ``per_component`` takes the supplied vector
entry, ``global_max`` replaces every baseline with the largest supplied
constant.  global_max is the default: it is the reading that reproduces
the reference oscillation regimes for the four-component benchmark
(per_component turns the strong-feedback case aperiodic).  The regime
acceptance test exercises both and reports which one reproduces them.

One engine runs the map: a batch of feedback strengths advanced together
in one vectorised loop, each row with the arithmetic of a lone run.
simulate_delayed is a batch of one; beta_sweep runs all its betas as one
batch in this process and keeps only each row's classification window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DimensionError, DomainViolationError, Favorability, SimplexState
from .dynamics import Trajectory

PER_COMPONENT = "per_component"
GLOBAL_MAX = "global_max"

REGIME_FIXED_POINT = "fixed_point"
REGIME_PERIODIC = "periodic"
REGIME_QUASI_PERIODIC = "quasi_periodic"
REGIME_APERIODIC = "aperiodic"

# Fraction of the tail diameter at which a recurrence counts as periodic.
# An orbit that closes to within 2 percent of its own extent is a cycle at
# phase-portrait resolution; exact recurrence below tol_fp is still
# accepted for analytically locked orbits.
PERIOD_RTOL = 0.02
# Rows compared before the full-window recurrence test of each period.
_PERIOD_SCREEN = 64

# Defaults tuned for the four-component benchmark configuration.
DEFAULT_TOL_FP = 1e-8
DEFAULT_WINDOW = 2000
DEFAULT_TRANSIENT = 10_000
DEFAULT_STEPS = 30_000


@dataclass(frozen=True)
class DelayConfig:
    """Feedback strength, lag and baseline interpretation."""

    c_base: Favorability
    beta: float
    tau: int
    baseline_mode: str = GLOBAL_MAX

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.baseline_mode not in (PER_COMPONENT, GLOBAL_MAX):
            raise ValueError(f"unknown baseline mode {self.baseline_mode!r}")

    def baseline(self) -> np.ndarray:
        if self.baseline_mode == PER_COMPONENT:
            return self.c_base.c
        return np.full(self.c_base.n, float(np.max(self.c_base.c)))


def _check_domain(p: np.ndarray, factors: np.ndarray, denom: float, t: int) -> None:
    bad = np.flatnonzero((p > 0.0) & (factors <= 0.0))
    if bad.size:
        raise DomainViolationError(
            f"nonpositive multiplier for component {int(bad[0]) + 1} at step {t} "
            f"(factor {factors[bad[0]]!r}); the feedback pushed the map off the simplex"
        )
    if denom <= 0.0:
        raise DomainViolationError(f"nonpositive normalizer {denom!r} at step {t}")


def _validate_run(p0: SimplexState, cfg: DelayConfig, steps: int, transient: int) -> None:
    if not steps > transient >= 0:
        raise ValueError(f"need steps > transient >= 0, got steps={steps}, transient={transient}")
    if cfg.c_base.n != p0.n:
        raise DimensionError(f"dimension mismatch: state n={p0.n}, baseline n={cfg.c_base.n}")


def _run_delayed(
    p0: np.ndarray,
    base: np.ndarray,
    betas: np.ndarray,
    tau: int,
    steps: int,
    keep: int,
) -> tuple[np.ndarray, list[Optional[str]], np.ndarray]:
    """Run the delayed map for every feedback strength in ``betas`` at once.

    Row b is the run at ``betas[b]`` from p0, with the prehistory constant
    at p0 on [-tau, 0] (the standard warm start, which keeps a beta=0 run
    identical to dynamics.iterate).  The ring holds the tau+1 most
    recent states, shape (tau+1, B, n); its oldest slot is p(t - tau).
    Every row goes through the arithmetic of a lone run, so its states do
    not depend on the other rows.  Each step divides by the weight sum
    itself: with strongly negative effective favorability the normalizer
    drops below n-1 and any drift in the coordinate sum would otherwise be
    amplified geometrically.

    Returns the states at steps-keep+1 .. steps, shape (keep, B, n); the
    domain error of each row (None when it ran through); and each row's
    last displacement max|p(steps) - p(steps-1)|.  A row that leaves the
    simplex is frozen at its last valid state (weights become its shares,
    normalizer 1) and carries no feedback from then on, so it raises no
    further checks; the other rows go on.  The run stops once every row
    has failed, leaving the unwritten part of the tail undefined.
    """
    rows, n = betas.size, p0.size
    beta = betas.reshape(rows, 1).copy()
    ring = np.tile(p0, (tau + 1, rows, 1))
    p = ring[0]
    tail = np.empty((keep, rows, n))
    first = steps - keep + 1
    if first == 0:
        tail[0] = p
    c_eff = np.empty((rows, n))
    weights = np.empty((rows, n))
    # Factors and normalizers share one buffer so that a single min()
    # screens both for the domain check.
    screen = np.empty(rows * (n + 1))
    factors, total = screen[: rows * n].reshape(rows, n), screen[rows * n :]
    errors: list[Optional[str]] = [None] * rows
    frozen = np.zeros(rows, dtype=bool)
    any_frozen = False
    last_disp = np.zeros(rows)
    oldest = 0
    for t in range(1, steps + 1):
        delayed = ring[oldest]
        np.subtract(base, np.multiply(beta, delayed, out=c_eff), out=c_eff)
        np.multiply(c_eff, np.subtract(1.0, p, out=factors), out=factors)
        np.add(n - 1.0, factors, out=factors)
        np.multiply(p, factors, out=weights)
        np.add.reduce(weights, axis=1, out=total)
        if screen.min() <= 0.0:
            suspects = np.flatnonzero((total <= 0.0) | np.any(factors <= 0.0, axis=1))
            for b in suspects:
                try:
                    _check_domain(p[b], factors[b], float(total[b]), t)
                except DomainViolationError as exc:
                    errors[b] = str(exc)
                    frozen[b] = any_frozen = True
                    # A positive baseline keeps a feedback-free row's
                    # factors positive, out of the suspects above.
                    beta[b] = 0.0
            if frozen.all():
                break
        if any_frozen:
            weights[frozen] = p[frozen]
            total[frozen] = 1.0
        if t == steps:
            last_disp = np.max(np.abs(weights / total[:, None] - p), axis=1)
        # The oldest slot has been read; it takes the new state.
        p = np.divide(weights, total[:, None], out=delayed)
        oldest = (oldest + 1) % (tau + 1)
        if t >= first:
            tail[t - first] = p
    return tail, errors, last_disp


def simulate_delayed(
    p0: SimplexState,
    cfg: DelayConfig,
    steps: int = DEFAULT_STEPS,
    transient: int = DEFAULT_TRANSIENT,
) -> Trajectory:
    """Run the delayed map and record the post-transient states.

    Prehistory is constant at p0 on [-tau, 0].  A step that would leave
    the simplex raises DomainViolationError naming the step.
    """
    _validate_run(p0, cfg, steps, transient)
    tail, errors, disp = _run_delayed(p0.p, cfg.baseline(), np.array([float(cfg.beta)]),
                                      cfg.tau, steps, steps - transient + 1)
    if errors[0] is not None:
        raise DomainViolationError(errors[0])
    return Trajectory(
        states=tuple(SimplexState(q) for q in tail[:, 0]),
        times=tuple(range(transient, steps + 1)),
        steps_taken=steps,
        converged=bool(disp[0] < 1e-12),
        final_residual=float(disp[0]),
    )


@dataclass(frozen=True)
class RegimeReport:
    """Attractor label for a post-transient trajectory tail."""

    regime: str
    period: Optional[int]
    tail_extrema: np.ndarray

    def __post_init__(self):
        if (self.regime == REGIME_PERIODIC) != (self.period is not None):
            raise ValueError("period must be present exactly for periodic regimes")
        if self.period is not None and self.period < 2:
            raise ValueError(f"period must be >= 2, got {self.period}")


def local_extrema(x: np.ndarray) -> np.ndarray:
    """Values of strict local maxima and minima, in time order."""
    if x.size < 3:
        return np.empty(0)
    mid = x[1:-1]
    is_max = (mid > x[:-2]) & (mid > x[2:])
    is_min = (mid < x[:-2]) & (mid < x[2:])
    return mid[is_max | is_min]


def _dominant_pair_power(x: np.ndarray) -> float:
    """Fraction of oscillatory power carried by the two dominant
    frequencies (Hann-windowed periodogram, each peak aggregated with its
    immediate leakage neighbors)."""
    y = (x - x.mean()) * np.hanning(x.size)
    power = np.abs(np.fft.rfft(y)) ** 2
    power[0] = 0.0
    total = power.sum()
    if total <= 0.0:
        return 0.0
    captured = 0.0
    work = power.copy()
    for _ in range(2):
        k = int(np.argmax(work))
        lo, hi = max(k - 1, 0), min(k + 2, work.size)
        captured += work[lo:hi].sum()
        work[lo:hi] = 0.0
    return float(captured / total)


def _classify_tail(
    tail: np.ndarray, tol_fp: float, coordinate: int, period_rtol: float
) -> RegimeReport:
    """The regime of a tail array of shape (window, n); see classify_regime."""
    window = tail.shape[0]
    extrema = local_extrema(tail[:, coordinate])

    diameter = float(np.max(tail.max(axis=0) - tail.min(axis=0)))
    if diameter < tol_fp:
        return RegimeReport(REGIME_FIXED_POINT, None, np.array([tail[-1, coordinate]]))

    tol_period = max(tol_fp, period_rtol * diameter)
    for q in range(2, window // 2 + 1):
        # A prefix mismatch bounds the full one from below: screen first.
        head = min(_PERIOD_SCREEN, window - q)
        if float(np.max(np.abs(tail[q:q + head] - tail[:head]))) >= tol_period:
            continue
        if float(np.max(np.abs(tail[q:] - tail[:-q]))) < tol_period:
            return RegimeReport(REGIME_PERIODIC, q, extrema)

    if _dominant_pair_power(tail[:, coordinate]) > 0.9:
        return RegimeReport(REGIME_QUASI_PERIODIC, None, extrema)
    return RegimeReport(REGIME_APERIODIC, None, extrema)


def classify_regime(
    traj: Trajectory,
    tol_fp: float = DEFAULT_TOL_FP,
    window: int = DEFAULT_WINDOW,
    coordinate: int = 0,
    period_rtol: float = PERIOD_RTOL,
) -> RegimeReport:
    """Label the attractor seen in the trajectory tail.

    fixed_point: tail diameter below tol_fp.  periodic: some minimal
    q in [2, window/2] recurs across the whole window, at tolerance
    max(tol_fp, period_rtol * diameter) (recurrence sharper than the
    attractor's own scale is what a finite transient can deliver).
    quasi_periodic: no period, but two dominant frequencies carry over 90
    percent of the oscillatory power.  aperiodic: everything else.
    """
    if len(traj.states) < window:
        raise ValueError(f"trajectory tail has {len(traj.states)} states, need >= {window}")
    return _classify_tail(traj.as_array()[-window:], tol_fp, coordinate, period_rtol)


@dataclass(frozen=True)
class BetaSample:
    """One feedback strength of a sweep: extrema cloud plus regime label.

    ``error`` records a domain violation for that beta; the sweep itself
    continues past failed samples.
    """

    beta: float
    extrema: np.ndarray
    regime: str
    period: Optional[int] = None
    error: Optional[str] = None


def beta_sweep(
    p0: SimplexState,
    cfg_template: DelayConfig,
    betas: Sequence[float],
    steps: int = DEFAULT_STEPS,
    transient: int = DEFAULT_TRANSIENT,
    coordinate: int = 0,
    tol_fp: float = DEFAULT_TOL_FP,
    window: int = DEFAULT_WINDOW,
) -> list[BetaSample]:
    """Bifurcation-diagram sweep: per beta, the post-transient extrema of
    one coordinate plus the regime label, in input order.

    All betas run as one batch of the delayed map, keeping only the last
    ``window`` states of each (fewer when the post-transient run is
    shorter).  Every sample equals a lone simulate_delayed run classified
    by classify_regime; a domain violation at one beta becomes that
    sample's ``error`` and the others are unaffected.
    """
    betas = np.array([float(b) for b in betas])
    if betas.size == 0:
        return []
    if not np.all(betas >= 0.0):
        raise ValueError(f"beta must be >= 0, got {betas[~(betas >= 0.0)][0]}")
    _validate_run(p0, cfg_template, steps, transient)
    window = min(window, steps - transient + 1)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    tail, errors, _ = _run_delayed(p0.p, cfg_template.baseline(), betas,
                                   cfg_template.tau, steps, window)
    samples = []
    for b, beta in enumerate(betas):
        if errors[b] is not None:
            samples.append(BetaSample(float(beta), np.empty(0), "error", error=errors[b]))
            continue
        # Laid out as a lone run's tail: every reduction sees the same order.
        # Each state is divided by its own sum, so it sums to 1 well inside
        # the 1e-15 within which SimplexState stores a state unchanged.
        row = np.ascontiguousarray(tail[:, b])
        report = _classify_tail(row, tol_fp, coordinate, PERIOD_RTOL)
        samples.append(BetaSample(float(beta), report.tail_extrema, report.regime,
                                  report.period))
    return samples

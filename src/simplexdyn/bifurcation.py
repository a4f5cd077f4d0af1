"""Transcritical thresholds, parameter-region classification and scans.

A component's limit share switches between zero and positive exactly when
its favorability crosses the survival threshold of the remaining set; in
parameter space these crossings are transcritical bifurcation hypersurfaces.
This module provides the codimension-one critical value, the four-region
codimension-two classifier, the general classifier backed by the
water-filling kernel, and 1-D/2-D scans that label all their points in one
array pass, with bisection refinement of detected 1-D thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, Favorability, SimplexState
from .equilibrium import _report, _water_fill, find_fixed_point
from .stability import classify

# Points within this relative distance of a region boundary are labeled
# with the zero side plus a "critical" flag, mirroring the strict-inequality
# convention of the equilibrium module.
BOUNDARY_GUARD = 1e-12

# Bisection tolerance for refined critical parameter values.
REFINE_TOL = 1e-10

# Grid cells per water-filling call, which bounds the kernel's temporaries.
_SCAN_CHUNK = 1 << 15


@dataclass(frozen=True)
class RegionLabel:
    """Which components vanish in the limit for a parameter point.

    ``zero_set`` can never be all indices: the unit sum is conserved, so
    at most n-1 components can collapse simultaneously.
    """

    zero_set: tuple[int, ...]
    description: str
    critical: bool = False

    def __post_init__(self):
        object.__setattr__(self, "zero_set", tuple(sorted(set(self.zero_set))))


@dataclass(frozen=True)
class CriticalValue:
    """A codimension-one threshold plus a precondition check.

    ``precondition_ok`` reports whether the fixed components satisfy the
    sub-simplex stability condition; the formula value is returned either
    way (with the flag as the warning).
    """

    value: float
    precondition_ok: bool


def critical_value(i: int, c_others: np.ndarray) -> CriticalValue:
    """Threshold for component i given the other favorabilities.

    Below (n-2)/sum_j 1/c_j the component's limit share is zero; above it
    the share is positive.  The value equals the survival threshold of the
    complementary set, so at the threshold Lambda({others}) = c_crit.
    """
    others = np.asarray(c_others, dtype=float)
    n = others.size + 1
    if n < 3:
        raise DimensionError(f"critical value needs n >= 3, got n={n}")
    if np.any(others <= 0.0) or not np.all(np.isfinite(others)):
        raise ValueError(f"other favorabilities must be positive finite, got {others}")
    inv = 1.0 / others
    value = (n - 2) / float(inv.sum())

    # The formula describes a clean exchange of stability only when the
    # complementary subsystem keeps every share positive at the boundary,
    # i.e. when all the other constants clear the subsystem threshold
    # (which equals the value itself).
    ok = bool(np.all(others > value))
    return CriticalValue(value=value, precondition_ok=ok)


def _near(a: np.ndarray, b: float) -> np.ndarray:
    return np.abs(a - b) <= BOUNDARY_GUARD * np.maximum(np.maximum(np.abs(a), abs(b)), 1.0)


_CODIM2_REGIONS = (((), "all components persist"), ((0,), "component 1 collapses"),
                   ((1,), "component 2 collapses"), ((0, 1), "components 1 and 2 collapse"))


def _codim2_regions(c1: np.ndarray, c2: np.ndarray, s: float, n: int):
    """Array form of classify_codim2: an index into _CODIM2_REGIONS and a
    critical flag for every (c1, c2) pair, given S = sum of 1/c_rest."""
    g1, g2 = c1 * (1.0 / c2 + s), c2 * (1.0 / c1 + s)  # vs n-2: Gamma1, Gamma2
    t1, t2 = c1 * s, c2 * s                            # vs n-3
    on_g1, on_g2 = _near(g1, n - 2.0), _near(g2, n - 2.0)
    on_t1, on_t2 = _near(t1, n - 3.0), _near(t2, n - 3.0)
    both = ((t1 <= n - 3.0) | on_t1) & ((t2 <= n - 3.0) | on_t2)
    region = np.where(both, 3, np.where((g1 < n - 2.0) | on_g1, 1,
                                        np.where((g2 < n - 2.0) | on_g2, 2, 0)))
    return region, on_g1 | on_g2 | on_t1 | on_t2


def classify_codim2(c1: float, c2: float, c_rest: np.ndarray) -> RegionLabel:
    """Four-region classification in the (c1, c2) parameter plane.

    With the remaining favorabilities fixed, the plane splits along the
    curves
        Gamma1: c1 (1/c2 + S) = n - 2,   Gamma2: c2 (1/c1 + S) = n - 2,
    S = sum over the rest of 1/c_k, into: both components surviving,
    component 1 collapsed, component 2 collapsed, and both collapsed
    (the latter exactly when both c's sit at or below (n-3)/S).  Points on
    a boundary curve get the adjacent zero-side label with ``critical``.

    The regions assume that every fixed component survives, which the
    sub-simplex condition checked here does not guarantee: at
    c = (1.5, 1.5, 1.0461, 0.5609) this says "all persist" while the limit
    state (and classify_codimk) has p_4 = 0.  Only the two varied
    components are classified.
    """
    rest = np.asarray(c_rest, dtype=float)
    n = rest.size + 2
    if n < 4:
        raise DimensionError(f"codimension-two classification needs n >= 4, got n={n}")
    if c1 <= 0 or c2 <= 0 or np.any(rest <= 0.0):
        raise ValueError("favorabilities must be positive")
    s = float(np.sum(1.0 / rest))
    for k in range(rest.size):
        if not rest[k] > (n - 3) / s:
            raise ValueError(
                f"fixed components must satisfy the sub-simplex condition; "
                f"c_rest[{k}]={rest[k]} <= {(n - 3) / s}"
            )
    region, critical = _codim2_regions(np.array([c1], dtype=float), np.array([c2], dtype=float), s, n)
    return RegionLabel(*_CODIM2_REGIONS[int(region[0])], bool(critical[0]))


def _codimk_labels(c: np.ndarray) -> list[RegionLabel]:
    """classify_codimk for every row of the (B, n) array ``c``."""
    alive, lam, critical = _water_fill(c)
    wrong = ~alive & (c > lam[:, None]) & ~critical
    if wrong.any():
        r, i = np.argwhere(wrong)[0]
        raise AssertionError(f"inconsistent classification: c[{i}]={c[r, i]} > threshold {lam[r]}")
    keys, inverse = np.unique(np.column_stack([alive, critical.any(axis=1)]), axis=0,
                              return_inverse=True)
    labels = []
    for key in keys:
        zero = tuple(np.flatnonzero(~key[:-1]).tolist())
        desc = ("components " + ",".join(str(i + 1) for i in zero) + " collapse"
                if zero else "all components persist")
        labels.append(RegionLabel(zero, desc, bool(key[-1])))
    return [labels[k] for k in inverse.ravel().tolist()]


def classify_codimk(fav: Favorability) -> RegionLabel:
    """General region label: the collapsed set from an interior start.

    Water-fills the constants and checks the self-consistency inequalities
    of the resulting split (c_i at or below the threshold of the surviving
    set for every collapsed i that is not critical).
    """
    return _codimk_labels(fav.c[None, :])[0]


@dataclass(frozen=True)
class ScanSample:
    """One point of a 1-D parameter scan."""

    c_value: float
    p_inf: np.ndarray
    zero_set: tuple[int, ...]
    verdict: str


@dataclass(frozen=True)
class ScanResult1D:
    """Samples of the limit state along one favorability axis.

    ``critical_values`` holds the bisection-refined parameter values where
    the collapsed set changes between adjacent samples.
    """

    parameter_index: int
    samples: tuple[ScanSample, ...]
    critical_values: tuple[float, ...]


@dataclass(frozen=True)
class ScanResult2D:
    """Region labels over a rectangular favorability grid.

    ``gamma1``/``gamma2`` sample the analytic bifurcation curves inside
    the scanned window as (c_i, c_j) polylines.
    """

    index_i: int
    index_j: int
    values_i: np.ndarray
    values_j: np.ndarray
    labels: tuple[tuple[RegionLabel, ...], ...]
    gamma1: np.ndarray
    gamma2: np.ndarray


def _zero_set_at(c_base: np.ndarray, i: int, value: float) -> tuple[int, ...]:
    c = np.array(c_base, dtype=float)
    c[i] = value
    return find_fixed_point(SimplexState.uniform(c.size), Favorability(c)).zero_set()


def _refine_crossing(c_base: np.ndarray, i: int, lo: float, hi: float) -> float:
    """Bisect a zero-set change to REFINE_TOL on the analytic fixed point."""
    zs_lo = _zero_set_at(c_base, i, lo)
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if _zero_set_at(c_base, i, mid) == zs_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_1d(
    i: int,
    lo: float,
    hi: float,
    steps: int,
    c_base: np.ndarray,
) -> ScanResult1D:
    """Sweep favorability i over [lo, hi] and track the limit state.

    All samples are solved in one water-filling pass (simulation near a
    threshold is pathologically slow, the analytic point is exact);
    detected changes of the collapsed set are refined by bisection.
    """
    if not (lo < hi):
        raise ValueError(f"invalid range: lo={lo} must be < hi={hi}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if lo <= 0:
        raise ValueError(f"favorability range must be positive, got lo={lo}")
    base = np.asarray(c_base, dtype=float)
    if not (0 <= i < base.size):
        raise DimensionError(f"index {i} out of range for n={base.size}")

    values = np.linspace(lo, hi, steps)
    c = np.tile(base, (steps, 1))
    c[:, i] = values
    Favorability(c[0])  # validates the fixed components
    alive, lam, critical = _water_fill(c)
    shares = np.where(alive, 1.0 - lam[:, None] / c, 0.0)
    samples = []
    for k, v in enumerate(values):
        fav = Favorability(c[k])
        report = _report(fav, shares[k], float(lam[k]), critical[k])
        samples.append(ScanSample(
            c_value=float(v),
            p_inf=report.p_inf.p,
            zero_set=report.zero_set(),
            verdict=classify(report, fav).verdict,
        ))

    criticals = []
    for a, b in zip(samples, samples[1:]):
        if a.zero_set != b.zero_set:
            criticals.append(_refine_crossing(base, i, a.c_value, b.c_value))

    return ScanResult1D(
        parameter_index=i,
        samples=tuple(samples),
        critical_values=tuple(criticals),
    )


def _gamma_curve(values: np.ndarray, s: float, n: int, lo: float, hi: float) -> np.ndarray:
    """Points of c_a (1/c_b + S) = n-2 sampled along the c_b axis."""
    ca = (n - 2.0) / (1.0 / values + s)
    inside = (lo <= ca) & (ca <= hi)
    return np.column_stack([ca[inside], values[inside]])


def scan_2d(
    i: int,
    j: int,
    lo: float,
    hi: float,
    steps: int,
    c_base: np.ndarray,
) -> ScanResult2D:
    """Label a (c_i, c_j) grid by which components collapse.

    Uses the four-region codimension-two rule when its preconditions hold
    (n >= 4 with admissible fixed components) and the general classifier
    otherwise.  Either way the grid is labelled in array passes that share
    a few RegionLabel objects instead of building one per cell.  The
    four-region rule takes the fixed components to survive, which can fail
    (see classify_codim2): there it labels only the varied pair.
    """
    if i == j:
        raise ValueError("scan indices must differ")
    if not (lo < hi) or lo <= 0:
        raise ValueError(f"invalid grid range [{lo}, {hi}]")
    if steps < 2:
        raise ValueError(f"need at least 2 grid steps, got {steps}")
    base = np.asarray(c_base, dtype=float)
    n = base.size
    if not (0 <= i < n and 0 <= j < n):
        raise DimensionError(f"indices ({i}, {j}) out of range for n={n}")

    values = np.linspace(lo, hi, steps)
    vi, vj = np.repeat(values, steps), np.tile(values, steps)  # row-major cells
    rest = np.delete(base, [i, j])
    Favorability(np.append(rest, [lo, lo]))  # validates the fixed components
    s = float(np.sum(1.0 / rest))
    if n >= 4 and np.all(rest > (n - 3) / s):
        region, critical = _codim2_regions(vi, vj, s, n)
        table = [RegionLabel(tuple(sorted((i, j)[k] for k in zero)), desc, flag)
                 for flag in (False, True) for zero, desc in _CODIM2_REGIONS]
        flat = [table[k] for k in (region + 4 * critical).tolist()]
    else:
        flat = []
        for start in range(0, vi.size, _SCAN_CHUNK):
            c = np.tile(base, (vi[start:start + _SCAN_CHUNK].size, 1))
            c[:, i], c[:, j] = vi[start:start + _SCAN_CHUNK], vj[start:start + _SCAN_CHUNK]
            flat += _codimk_labels(c)
    curve = _gamma_curve(values, s, n, lo, hi)  # (c_i, c_j) pairs on Gamma1
    return ScanResult2D(
        index_i=i,
        index_j=j,
        values_i=values,
        values_j=values,
        labels=tuple(tuple(flat[a:a + steps]) for a in range(0, steps * steps, steps)),
        gamma1=curve,
        gamma2=curve[:, ::-1].copy(),
    )

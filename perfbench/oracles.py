"""Independent reference computations for the output checks.

Written from the model's formulas, not from the package's code: the
static and delayed maps as plain numpy loops, the n = 3 pairwise
survival condition, the n = 4 Gamma-curve inequalities, and the
sort-based (water-filling) survivor count for any n.
"""

from __future__ import annotations

import numpy as np


class DomainStop(Exception):
    """The delayed map left the simplex at ``step``."""

    def __init__(self, step: int):
        super().__init__(f"domain violation at step {step}")
        self.step = step


def static_run(p0, c, steps: int) -> np.ndarray:
    """States p(0..steps) of p'_i = p_i (n-1+c_i(1-p_i)) / (n-1+L_c)."""
    c = np.asarray(c, dtype=float)
    p = np.asarray(p0, dtype=float)
    n = p.size
    out = np.empty((steps + 1, n))
    out[0] = p
    for t in range(1, steps + 1):
        lc = np.dot(c, p * (1.0 - p))
        p = p * ((n - 1.0) + c * (1.0 - p)) / ((n - 1.0) + lc)
        out[t] = p
    return out


def delayed_run(p0, baseline, beta: float, tau: int, steps: int) -> np.ndarray:
    """States p(0..steps) of the delayed map with constant prehistory p0.

    c_i(t) = b - beta p_i(t - tau) maps p(t) to p(t+1), where b is the
    largest baseline constant (the CLI's default global_max reading); the
    step renormalises by the weight sum.  Raises DomainStop at the first
    step whose multiplier or normaliser is nonpositive.
    """
    p0 = np.asarray(p0, dtype=float)
    n = p0.size
    b = float(np.max(baseline))
    hist = np.empty((steps + tau + 1, n))
    hist[: tau + 1] = p0
    for t in range(1, steps + 1):
        p = hist[tau + t - 1]
        factors = (n - 1.0) + (b - beta * hist[t - 1]) * (1.0 - p)
        weights = p * factors
        total = weights.sum()
        if total <= 0.0 or np.any((p > 0.0) & (factors <= 0.0)):
            raise DomainStop(t)
        hist[tau + t] = weights / total
    return hist[tau:]


def strict_extrema(x: np.ndarray) -> np.ndarray:
    """Values of strict local maxima and minima, in time order."""
    mid = x[1:-1]
    keep = ((mid > x[:-2]) & (mid > x[2:])) | ((mid < x[:-2]) & (mid < x[2:]))
    return mid[keep]


def survivors(c) -> tuple[tuple[int, ...], float, float]:
    """Surviving set and threshold Lambda from an interior start, with the
    smallest relative margin of the survival test (near zero on a
    transcritical boundary).

    Sorted by descending c, the survivors are the longest prefix g with
    c_(g) * sum_{k<=g} 1/c_(k) > g - 1; Lambda = (g-1)/sum_{k<=g} 1/c_(k).
    """
    c = np.asarray(c, dtype=float)
    order = np.argsort(-c, kind="stable")
    inv = np.cumsum(1.0 / c[order])
    g = np.arange(1, c.size + 1)
    score = c[order] * inv
    gamma = int(np.sum(score > g - 1))
    lam = (gamma - 1) / inv[gamma - 1]
    margin = float(np.min(np.abs(score[1:] - (g[1:] - 1)) / (g[1:] - 1)))
    return tuple(sorted(int(k) for k in order[:gamma])), float(lam), margin


def limit_shares(c) -> np.ndarray:
    """Limit state from an interior start: 1 - Lambda/c_i on the survivors."""
    c = np.asarray(c, dtype=float)
    alive, lam, _ = survivors(c)
    p = np.zeros(c.size)
    p[list(alive)] = 1.0 - lam / c[list(alive)]
    return p


def zero_set_n3(c) -> tuple[tuple[int, ...], float]:
    """Collapsed set for n = 3 from the pairwise condition, with the
    smallest relative margin of that condition (near zero on a boundary).

    All three survive when every c_i exceeds c_j c_k / (c_j + c_k); when
    one does not, it is the smallest constant and the only one to die.
    """
    margins = []
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        h = c[j] * c[k] / (c[j] + c[k])
        margins.append((c[i] - h) / max(c[i], h))
    dead = tuple(i for i in range(3) if margins[i] <= 0.0)
    return dead, min(abs(m) for m in margins)


def zero_set_n4(c1: float, c2: float, rest) -> tuple[tuple[int, ...], float]:
    """Collapsed subset of {0, 1} for n = 4 from the Gamma-curve
    inequalities, with the smallest relative margin of the four tests.

    With S = sum of 1/c over the fixed components: both collapse when
    c1 S <= n-3 and c2 S <= n-3; otherwise component 1 collapses when
    c1 (1/c2 + S) < n-2 (curve Gamma1), component 2 when
    c2 (1/c1 + S) < n-2 (curve Gamma2); else all persist.
    """
    n = 4
    s = float(np.sum(1.0 / np.asarray(rest, dtype=float)))
    g1, g2 = c1 * (1.0 / c2 + s), c2 * (1.0 / c1 + s)
    t1, t2 = c1 * s, c2 * s
    margin = min(abs(g1 - (n - 2)) / (n - 2), abs(g2 - (n - 2)) / (n - 2),
                 abs(t1 - (n - 3)) / (n - 3), abs(t2 - (n - 3)) / (n - 3))
    if t1 <= n - 3 and t2 <= n - 3:
        return (0, 1), margin
    if g1 < n - 2:
        return (0,), margin
    if g2 < n - 2:
        return (1,), margin
    return (), margin


def tangential_moduli(p, c, h: float = 1e-6) -> np.ndarray:
    """Eigenvalue moduli, descending, of the static map's Jacobian on the
    sum-zero directions of the face that holds p, by central differences.

    Basis v_k = e_a(k) - e_a(0) over the positive coordinates a; the map
    keeps the face and the coordinate sum, so the image of v_k is again a
    combination of the v's, with coefficients read off at a(1..).
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    active = np.flatnonzero(p > 0.0)
    if active.size < 2:
        return np.empty(0)

    def f(q):
        n = q.size
        return q * ((n - 1.0) + c * (1.0 - q)) / ((n - 1.0) + np.dot(c, q * (1.0 - q)))

    m = np.empty((active.size - 1, active.size - 1))
    for j, a in enumerate(active[1:]):
        v = np.zeros(p.size)
        v[a], v[active[0]] = 1.0, -1.0
        m[:, j] = ((f(p + h * v) - f(p - h * v)) / (2.0 * h))[active[1:]]
    return np.sort(np.abs(np.linalg.eigvals(m)))[::-1]


def transversal_value(p, c, j: int) -> float:
    """Growth rate (n-1+c_j)/(n-1+L_c) of mass injected at a zero p_j."""
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    n = p.size
    return ((n - 1.0) + c[j]) / ((n - 1.0) + float(np.dot(c, p * (1.0 - p))))

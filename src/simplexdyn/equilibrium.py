"""Analytic fixed points by water-filling.

Every limit state is p_i = 1 - Lambda/c_i on the surviving set M* and 0
elsewhere, with the survival threshold Lambda = (gamma - 1)/sum_{k in M*}
1/c_k and gamma = |M*|: a component keeps a positive share exactly when
its favorability exceeds the threshold of the survivors.  With the
constants sorted in descending order, the survivors are the longest
prefix that passes c_(g) * sum_{k<=g} 1/c_(k) > g - 1, the sort-and-prefix
rule of Euclidean projection onto the simplex.  One private kernel applies
it to a whole stack of favorability vectors at once; the single-point
solvers are batches of one.  Closed forms for the uniform map, n=2 and
n=3 agree with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ActiveSet, DimensionError, Favorability, MeanField, SimplexState, mean_field
from .dynamics import apply_map

# Indices whose favorability sits within this relative distance of the
# threshold are flagged "critical" in the report instead of being silently
# classified: exactly-at-threshold is the bifurcation point under study.
CRITICAL_GUARD = 1e-12


@dataclass(frozen=True)
class FixedPointReport:
    """Limit state together with its active-set description.

    For i in the active set, p_i = 1 - lambda_value/c_i > 0; all other
    coordinates are exactly zero.  ``residual`` is the sup-norm of one map
    application minus the point itself.  ``critical_indices`` lists
    components whose favorability is within the relative guard of the
    threshold (transcritical borderline), classification notwithstanding.
    """

    p_inf: SimplexState
    r_inf: MeanField
    active_set: ActiveSet
    lambda_value: float
    residual: float
    critical_indices: tuple[int, ...] = field(default=())

    @property
    def n(self) -> int:
        return self.p_inf.n

    def zero_set(self) -> tuple[int, ...]:
        return self.active_set.complement(self.n)


def lambda_threshold(members: ActiveSet, fav: Favorability) -> float:
    """Survival threshold Lambda(M) = (gamma(M) - 1)/sum_{k in M} 1/c_k.

    Zero for singleton sets (a lone survivor takes the whole share).
    """
    if members.gamma == 0:
        raise ValueError("threshold of an empty set is undefined")
    if any(i >= fav.n for i in members.indices):
        raise DimensionError(f"active-set indices {members.indices} out of range for n={fav.n}")
    if members.gamma == 1:
        return 0.0
    inv = 1.0 / fav.c[list(members.indices)]
    return (members.gamma - 1) / float(inv.sum())


def limit_coordinate(fav: Favorability, members: ActiveSet, i: int) -> float:
    """Limit share of an active component, 1 - Lambda(M)/c_i."""
    if i not in members.indices:
        raise ValueError(f"index {i} is not in the active set {members.indices}")
    lam = lambda_threshold(members, fav)
    if fav.c[i] <= lam:
        raise ValueError(f"component {i} is not active: c={fav.c[i]} <= threshold {lam}")
    return 1.0 - lam / float(fav.c[i])


def _water_fill(c: np.ndarray, support: np.ndarray | None = None):
    """Survivors, threshold and critical flags of every row of ``c``.

    ``c`` has shape (B, n); ``support`` (bool, same shape, all True when
    omitted) marks the components that start positive, and every row
    needs one.  Returns the alive mask, Lambda per row (summed over the
    survivors in index order, as lambda_threshold does, so it is
    bit-identical) and the mask of support indices whose favorability
    sits within the relative CRITICAL_GUARD of Lambda.
    """
    b, n = c.shape
    if support is None:
        support = np.ones(c.shape, dtype=bool)
    # Descending; components outside the support sort last as -inf and
    # never pass.
    c_desc = -np.sort(np.where(support, -c, np.inf), axis=1)
    # The relative margin of 4 n eps exceeds the rounding of both sums, so
    # every survivor (ties of the last one included, as under c_k > Lambda)
    # clears the index-order Lambda below and gets a positive share.  While
    # 4 n eps < CRITICAL_GUARD (n up to ~1,100) only critical constants feel it.
    bar = np.arange(n) * (1.0 + 4 * n * 2.0**-52)
    passing = c_desc * np.cumsum(1.0 / c_desc, axis=1) > bar
    gamma = np.logical_and.accumulate(passing, axis=1).sum(axis=1)
    alive = support & (c >= c_desc[np.arange(b), gamma - 1][:, None])
    gamma = alive.sum(axis=1)
    inv = 1.0 / c
    lam = np.zeros(b)
    for g in np.flatnonzero(np.bincount(gamma)[2:]) + 2:
        rows = gamma == g
        lam[rows] = (g - 1) / inv[rows][alive[rows]].reshape(-1, g).sum(axis=1)
    scale = np.maximum(np.maximum(np.abs(c), np.abs(lam)[:, None]), 1.0)
    critical = support & (np.abs(c - lam[:, None]) <= CRITICAL_GUARD * scale)
    return alive, lam, critical


def _report(fav: Favorability, p: np.ndarray, lam: float, critical=()) -> FixedPointReport:
    """Report of the limit state ``p``, active exactly where positive;
    ``critical`` is a mask over the components."""
    state = SimplexState(p)
    residual = float(np.max(np.abs(apply_map(state.p, fav.c) - state.p)))
    return FixedPointReport(state, mean_field(state), ActiveSet(state.support()), lam, residual,
                            tuple(np.flatnonzero(critical).tolist()))


def fixed_point_for_support(fav: Favorability, support: tuple[int, ...]) -> FixedPointReport:
    """Equilibrium reached from initial conditions supported on ``support``:
    water-filling restricted to the given indices."""
    if len(support) == 0:
        raise ValueError("support must be nonempty")
    idx = sorted(set(int(i) for i in support))
    if idx[0] < 0 or idx[-1] >= fav.n:
        raise DimensionError(f"support {tuple(idx)} out of range for n={fav.n}")
    mask = np.zeros((1, fav.n), dtype=bool)
    mask[0, idx] = True
    alive, lam, critical = _water_fill(fav.c[None, :], mask)
    return _report(fav, np.where(alive[0], 1.0 - lam[0] / fav.c, 0.0), float(lam[0]), critical[0])


def find_fixed_point(p0: SimplexState, fav: Favorability) -> FixedPointReport:
    """Analytic limit state for an initial condition and favorability set.

    Components starting at zero never participate (zero coordinates are
    invariant), so the water-filling runs over the support of p0.
    """
    if fav.n != p0.n:
        raise DimensionError(f"dimension mismatch: state n={p0.n}, favorability n={fav.n}")
    return fixed_point_for_support(fav, p0.support())


def uniform_limit(p0: SimplexState) -> FixedPointReport:
    """Limit state of the uniform map: equal shares on the support of p0.

    With m zero coordinates the survivors each end at 1/(n - m); the mean
    field splits into 1/(n-1) on the zero set and (n-m-1)/((n-1)(n-m)) on
    the support.  Equivalent to the threshold route at c = 1.
    """
    return fixed_point_for_support(Favorability(np.ones(p0.n)), p0.support())


def fixed_point_n2(fav: Favorability) -> FixedPointReport:
    """Closed-form n=2 equilibrium, p = (c1, c2)/(c1 + c2)."""
    if fav.n != 2:
        raise DimensionError(f"closed form requires n=2, got n={fav.n}")
    c1, c2 = float(fav.c[0]), float(fav.c[1])
    p = np.array([c1 / (c1 + c2), c2 / (c1 + c2)])
    return _report(fav, p, lambda_threshold(ActiveSet((0, 1)), fav))


def pairwise_condition_n3(fav: Favorability) -> bool:
    """True when every c_i exceeds c_j c_k/(c_j + c_k) for the other two."""
    c = fav.c
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        if not c[i] > c[j] * c[k] / (c[j] + c[k]):
            return False
    return True


def fixed_point_n3(fav: Favorability) -> FixedPointReport:
    """Closed-form n=3 equilibrium.

    If each favorability beats the harmonic combination of the other two,
    all three shares survive and

        p_i = (c_i c_j + c_i c_k - c_j c_k)/(c1 c2 + c1 c3 + c2 c3).

    Otherwise the violating component dies out and the water-filling
    solver supplies the boundary equilibrium.
    """
    if fav.n != 3:
        raise DimensionError(f"closed form requires n=3, got n={fav.n}")
    if not pairwise_condition_n3(fav):
        return find_fixed_point(SimplexState.uniform(3), fav)
    c1, c2, c3 = (float(x) for x in fav.c)
    den = c1 * c2 + c1 * c3 + c2 * c3
    p = np.array([
        (c1 * c2 + c1 * c3 - c2 * c3) / den,
        (c1 * c2 - c1 * c3 + c2 * c3) / den,
        (c1 * c3 - c1 * c2 + c2 * c3) / den,
    ])
    return _report(fav, p, lambda_threshold(ActiveSet((0, 1, 2)), fav))

"""Shared samplers and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from simplexdyn import (
    ActiveSet,
    Favorability,
    FixedPointReport,
    SimplexState,
    lambda_threshold,
    mean_field,
)
from simplexdyn.dynamics import apply_map
from simplexdyn.equilibrium import CRITICAL_GUARD


def random_simplex(rng: np.random.Generator, n: int, zeros: int = 0) -> np.ndarray:
    """A random stochastic vector, optionally with exact zeros."""
    p = rng.dirichlet(np.ones(n - zeros))
    if zeros == 0:
        return p
    full = np.zeros(n)
    keep = rng.choice(n, size=n - zeros, replace=False)
    full[np.sort(keep)] = p
    return full


def random_interior(rng: np.random.Generator, n: int, floor: float = 1e-3) -> np.ndarray:
    """Interior point with every coordinate at least ``floor``."""
    while True:
        p = rng.dirichlet(np.ones(n))
        if p.min() >= floor:
            return p


def refined_fixed_point(fav: Favorability, support: tuple[int, ...]) -> FixedPointReport:
    """Active-set refinement oracle for fixed_point_for_support.

    Starts from the whole support and drops every component at or below
    the threshold of the current set until the set stops changing (at
    most n passes, the set only shrinks).
    """
    candidate = tuple(sorted(set(int(i) for i in support)))
    while True:
        lam = lambda_threshold(ActiveSet(candidate), fav)
        kept = tuple(k for k in candidate if fav.c[k] > lam)
        if kept == candidate:
            break
        candidate = kept
    critical = tuple(
        k for k in sorted(set(int(i) for i in support))
        if abs(fav.c[k] - lam) <= CRITICAL_GUARD * max(abs(fav.c[k]), abs(lam), 1.0)
    )
    p = np.zeros(fav.n)
    p[list(candidate)] = 1.0 - lam / fav.c[list(candidate)]
    state = SimplexState(p)
    residual = float(np.max(np.abs(apply_map(state.p, fav.c) - state.p)))
    return FixedPointReport(state, mean_field(state), ActiveSet(candidate), lam, residual, critical)


def near_critical_favorability(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random constants with ties and, half the time, one component put
    on (or within 1e-13 or one ulp of) the threshold of the others."""
    c = rng.uniform(0.05, 1.5, n)
    if rng.random() < 0.4:
        c[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = c[0]
    if n > 2 and rng.random() < 0.5:
        j = int(rng.integers(n))
        others = tuple(k for k in range(n) if k != j)
        lam = refined_fixed_point(Favorability(c), others).lambda_value
        if lam > 0.0:
            c[j] = lam * (1.0 + rng.choice([-1e-13, -3e-16, 0.0, 3e-16, 1e-13]))
    return c


@st.composite
def simplex_arrays(draw, min_n: int = 2, max_n: int = 8, allow_zero: bool = False):
    n = draw(st.integers(min_n, max_n))
    low = 0.0 if allow_zero else 1e-6
    raw = draw(
        st.lists(st.floats(low, 1.0, allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n)
    )
    arr = np.asarray(raw)
    total = arr.sum()
    if total <= 0:
        arr = np.ones(n)
        total = float(n)
    return arr / total


@st.composite
def simplex_states(draw, min_n: int = 2, max_n: int = 8, allow_zero: bool = False):
    return SimplexState(draw(simplex_arrays(min_n, max_n, allow_zero)))


@st.composite
def favorability_arrays(draw, n: int, low: float = 0.05, high: float = 1.0):
    raw = draw(
        st.lists(st.floats(low, high, allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n)
    )
    return np.asarray(raw)


@st.composite
def state_with_favorability(draw, min_n: int = 2, max_n: int = 8, allow_zero: bool = False):
    state = draw(simplex_states(min_n, max_n, allow_zero))
    fav = Favorability(draw(favorability_arrays(state.n)))
    return state, fav

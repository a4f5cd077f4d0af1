"""Domain types and elementary quantities of the share-dynamics model.

The system state is a stochastic vector ``p`` on the standard simplex.
Every component sees the average share of all the others (its mean field),
and a per-component favorability constant scales how strongly that average
attracts it.  This module holds the value types and the scalar quantities
(mean field, squared norm, weighted interaction) that the dynamics,
equilibrium and stability modules consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

# Sum-validation tolerance for simplex membership.
SUM_TOL = 1e-12
# Inputs whose sum deviates by at most this much are renormalized on
# construction; anything worse is rejected as genuinely bad input.
RENORM_TOL = 1e-9
# Deviations at or below this are left untouched (no gratuitous rescaling).
_KEEP_TOL = 1e-15

# Coordinates strictly below this may be snapped to zero, but only when a
# step is asked to do so explicitly.  Never applied silently: exact zeros
# are structural (they are invariant under the map), and fabricating them
# would fake that structure.
SNAP_TOL = 1e-15


class DimensionError(ValueError):
    """Raised when vector dimensions are invalid or inconsistent."""


class DomainViolationError(RuntimeError):
    """Raised when a map evaluation would leave the simplex.

    Only reachable through the delayed-feedback extension, where effective
    favorabilities may become negative enough to make a multiplier factor
    or the normalizing denominator nonpositive.
    """


def _as_float_array(values: Iterable[float], name: str, ndim: int = 1) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def _shares(arr: np.ndarray) -> np.ndarray:
    """Read-only copy of a finite array whose vectors along the last axis
    obey the SimplexState rule.  A row sum of a 2-d array equals that row's
    own sum, so every row is checked and renormalized as it would be alone.
    """
    if arr.shape[-1] < 2:
        raise DimensionError(f"state needs n >= 2 components, got {arr.shape[-1]}")
    if (arr < 0.0).any():
        raise ValueError(f"negative coordinate in state: {arr[np.any(arr < 0.0, axis=-1)][0]}")
    total = arr.sum(axis=-1)
    dev = np.abs(total - 1.0)
    worst = dev.max()
    if worst > RENORM_TOL:
        raise ValueError(f"coordinates sum to {float(total[dev > RENORM_TOL][0])!r}, "
                         "outside renormalization range")
    if worst > _KEEP_TOL:
        arr = np.where((dev > _KEEP_TOL)[..., None], arr / total[..., None], arr)
    else:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SimplexState:
    """A stochastic vector: n nonnegative shares summing to one.

    Construction validates the invariants.  Sums within ``RENORM_TOL`` of 1
    are renormalized (keeps long iterations from drifting); worse sums are
    rejected.  Exact zeros are preserved by renormalization.
    """

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _shares(_as_float_array(self.p, "p")))

    @property
    def n(self) -> int:
        return self.p.size

    def zero_indices(self) -> tuple[int, ...]:
        """Indices of exactly-zero coordinates (the invariant set M)."""
        return tuple(int(i) for i in np.flatnonzero(self.p == 0.0))

    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.p > 0.0))

    @classmethod
    def uniform(cls, n: int) -> "SimplexState":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class MeanField:
    """The average-share vector r with r_i = (1 - p_i)/(n - 1).

    Also a stochastic vector; only the sum is validated here since the
    defining relation needs the source state.
    """

    r: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.r, "r")
        if abs(float(arr.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"mean field sums to {arr.sum()!r}, expected 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "r", arr)

    @property
    def n(self) -> int:
        return self.r.size


@dataclass(frozen=True, eq=False)
class Favorability:
    """Per-component attraction constants c.

    ``strict=True`` enforces the static model's stated range 0 < c_i <= 1.
    The default is permissive (any positive c): the bifurcation scans sweep
    c well above 1 and the dynamics are well defined for any positive
    constants.  The delayed-feedback module works on raw effective vectors
    and never constructs this type, so negative effective values do not
    pass through here.
    """

    c: np.ndarray
    strict: bool = False

    def __post_init__(self):
        arr = _as_float_array(self.c, "c")
        if arr.size < 2:
            raise DimensionError(f"favorability needs n >= 2 components, got {arr.size}")
        if np.any(arr <= 0.0):
            raise ValueError(f"favorability must be positive, got {arr}")
        if self.strict and np.any(arr > 1.0):
            raise ValueError(f"strict mode requires c_i <= 1, got {arr}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "c", arr)

    @property
    def n(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class ActiveSet:
    """A sorted set of component indices (0-based internally).

    User-facing serialization converts to the 1-based convention; that
    conversion lives in the CLI layer.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        if any(i < 0 for i in idx):
            raise ValueError(f"negative index in active set: {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def gamma(self) -> int:
        """Cardinality of the set."""
        return len(self.indices)

    def complement(self, n: int) -> tuple[int, ...]:
        inside = set(self.indices)
        return tuple(i for i in range(n) if i not in inside)


def mean_field(state: SimplexState) -> MeanField:
    """Mean field of a state: r_i = (1 - p_i)/(n - 1).

    The result is itself a stochastic vector (the defining relation forces
    the sum to 1 whenever the input sums to 1).
    """
    return MeanField((1.0 - state.p) / (state.n - 1))


def l2_sq(state: SimplexState) -> float:
    """Squared Euclidean norm of the shares, sum p_i^2.

    Ranges over [1/(n - m), 1] where m counts zero coordinates, with the
    minimum attained exactly at the uniform distribution on the support.
    """
    return float(np.dot(state.p, state.p))


def weighted_interaction(state: SimplexState, fav: Favorability) -> float:
    """Favorability-weighted interaction term, sum c_i p_i (1 - p_i).

    Zero exactly when the state is a vertex (every p_i (1 - p_i) vanishes).
    Nonnegative for positive favorabilities.
    """
    if fav.n != state.n:
        raise DimensionError(f"dimension mismatch: state has n={state.n}, favorability n={fav.n}")
    return _interaction(state.p, fav.c)


def _factors(p: np.ndarray, c: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Multipliers F_i = (n - 1) + c_i (1 - p_i) of the share map
    p'_i = p_i F_i / (n - 1 + L_c), over the last axis of ``p`` and ``c``
    (leading batch dimensions allowed), written into ``out`` if given."""
    out = np.subtract(1.0, p, out=out)
    np.multiply(c, out, out=out)
    return np.add(p.shape[-1] - 1.0, out, out=out)


def _interaction(p: np.ndarray, c: np.ndarray) -> float:
    """L_c = sum_i c_i p_i (1 - p_i) of one state (by np.dot; .sum() rounds differently)."""
    return float(np.dot(c, p * (1.0 - p)))

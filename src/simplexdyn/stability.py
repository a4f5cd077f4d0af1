"""Jacobians, spectra and the tangential/transversal stability verdict.

Perturbations of a fixed point split into two kinds: those inside the
simplex face spanned by the active components (tangential) and those that
reactivate a zero coordinate (transversal).  A point is stable only when
both kinds decay: the tangential spectral radius and every transversal
eigenvalue must lie below one.

The full active-subspace Jacobian always carries one extra eigenvalue
whose eigenvector points out of the simplex (along the all-ones
direction); it is an artifact of embedding the sum-constrained dynamics in
R^n and is discarded before taking the spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .core import DimensionError, Favorability, SimplexState, _factors, _interaction
from .equilibrium import FixedPointReport

# |lambda| within this of 1 marks a marginal (borderline-transcritical)
# classification; the verdict is still computed but flagged.
MARGINAL_TOL = 1e-9

VERDICT_STABLE = "stable"
VERDICT_TANGENTIAL = "tangentially_unstable"
VERDICT_TRANSVERSAL = "transversally_unstable"
VERDICT_BOTH = "both_unstable"


def jacobian_raw(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Jacobian of the heterogeneous map kernel at an arbitrary point.

    Derivatives of f_i(p) = p_i (n-1+c_i(1-p_i)) / (n-1+L_c) with
    L_c = sum c_k p_k (1-p_k):

        J_ii = N_i/D + p_i (-c_i D - c_i (1-2p_i) N_i) / D^2
        J_ik = -p_i N_i c_k (1-2p_k) / D^2          (i != k)

    where N_i = n-1+c_i(1-p_i) and D = n-1+L_c.
    """
    d = (p.size - 1.0) + _interaction(p, c)
    numer = _factors(p, c)
    jac = -np.outer(p * numer, c * (1.0 - 2.0 * p)) / d**2
    diag = numer / d + p * (-c * d - c * (1.0 - 2.0 * p) * numer) / d**2
    np.fill_diagonal(jac, diag)
    return jac


def jacobian(state: SimplexState, fav: Favorability) -> np.ndarray:
    """Jacobian of the heterogeneous map at a state."""
    if fav.n != state.n:
        raise DimensionError(f"dimension mismatch: state n={state.n}, favorability n={fav.n}")
    return jacobian_raw(state.p, fav.c)


def jacobian_uniform(state: SimplexState) -> np.ndarray:
    """Jacobian of the uniform map p_i (n - p_i)/(n - L), L = sum p_k^2.

    This is a different parametrization of the same on-simplex dynamics as
    `jacobian` with c = 1: the two matrices differ off the simplex, but
    their action on sum-zero (tangential) vectors coincides, as do the
    diagonal entries on zero coordinates.
    """
    p = state.p
    n = p.size
    d = n - float(np.dot(p, p))
    jac = np.outer(p * (n - p), 2.0 * p) / d**2
    np.fill_diagonal(jac, (n - 2.0 * p) / d + 2.0 * p**2 * (n - p) / d**2)
    return jac


def spectrum(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by descending modulus.

    Backed by LAPACK's Hessenberg-plus-shifted-QR routine via numpy.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"spectrum needs a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    eig = np.linalg.eigvals(m)
    return eig[np.argsort(-np.abs(eig), kind="stable")]


def normal_eigenvalue(state: SimplexState, fav: Favorability, i: int) -> float:
    """Growth rate of a perturbation reactivating zero coordinate i.

    Equals the diagonal Jacobian entry at p_i = 0:
    (n - 1 + c_i)/(n - 1 + L_c).  Above one, mass injected into the
    component grows and the boundary point repels.
    """
    if fav.n != state.n:
        raise DimensionError(f"dimension mismatch: state n={state.n}, favorability n={fav.n}")
    if state.p[i] != 0.0:
        raise ValueError(f"coordinate {i} is {state.p[i]!r}, not zero")
    n = state.n
    return ((n - 1.0) + float(fav.c[i])) / ((n - 1.0) + _interaction(state.p, fav.c))


def derivative_n2(fav: Favorability) -> float:
    """Derivative of the one-dimensional n=2 map at its interior fixed point.

    Equals 1/(1 + L_c at the fixed point) = (c1+c2)/(c1+c2+c1 c2), always
    inside (0, 1): the interior two-component equilibrium is always stable.
    """
    if fav.n != 2:
        raise DimensionError(f"derivative_n2 requires n=2, got n={fav.n}")
    c1, c2 = float(fav.c[0]), float(fav.c[1])
    return (c1 + c2) / (c1 + c2 + c1 * c2)


@dataclass(frozen=True)
class StabilityReport:
    """Spectral classification of a fixed point.

    ``tangential_spectrum`` holds the active-subspace eigenvalues after
    removing the single off-simplex mode; ``transversal_values`` maps each
    zero coordinate to its normal eigenvalue.  ``marginal`` flags any
    eigenvalue within MARGINAL_TOL of unit modulus (points sitting on a
    bifurcation hypersurface are reported, not forced into a bin).
    """

    tangential_spectrum: Tuple[complex, ...]
    spectral_radius: float
    transversal_values: Dict[int, float]
    verdict: str
    marginal: bool


def _sum_zero_basis(k: int) -> np.ndarray:
    """Orthonormal basis of the sum-zero subspace of R^k (Helmert rows)."""
    basis = np.zeros((k, k - 1))
    for r in range(1, k):
        basis[:r, r - 1] = 1.0
        basis[r, r - 1] = -float(r)
        basis[:, r - 1] /= np.sqrt(r * (r + 1.0))
    return basis


def tangential_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Spectrum of a (sub)Jacobian with the off-simplex mode removed.

    Because the map conserves the coordinate sum, the sum-zero subspace is
    exactly invariant under the Jacobian at any simplex point; projecting
    onto an orthonormal sum-zero basis and taking the spectrum of the
    projected block yields the tangential eigenvalues directly.  (Picking
    eigenvalues of the full matrix by eigenvector angle breaks down when
    the normal and a tangential eigenvalue collide, which makes the matrix
    defective and the eigenvectors meaningless.)
    """
    m = np.asarray(matrix, dtype=float)
    k = m.shape[0]
    if k == 1:
        return np.empty(0, dtype=complex)
    basis = _sum_zero_basis(k)
    tang = np.linalg.eigvals(basis.T @ m @ basis)
    return tang[np.argsort(-np.abs(tang), kind="stable")]


def classify(report: FixedPointReport, fav: Favorability) -> StabilityReport:
    """Tangential/transversal verdict for an equilibrium.

    Builds the Jacobian restricted to the active components, strips the
    off-simplex mode, takes the spectral radius, computes the normal
    eigenvalue of every zero coordinate, and combines: stable only when
    the radius and every normal value lie below one.
    """
    if fav.n != report.n:
        raise DimensionError(f"dimension mismatch: report n={report.n}, favorability n={fav.n}")
    if not report.residual < 1e-8:
        raise ValueError(f"not a fixed point: one-step residual {report.residual!r} >= 1e-8")

    active = list(report.active_set.indices)
    full = jacobian_raw(report.p_inf.p, fav.c)
    sub = full[np.ix_(active, active)]
    tang = tangential_spectrum(sub)
    radius = float(np.max(np.abs(tang))) if tang.size else 0.0

    transversal = {
        j: normal_eigenvalue(report.p_inf, fav, j) for j in report.zero_set()
    }

    tang_bad = radius >= 1.0
    trans_bad = any(v >= 1.0 for v in transversal.values())
    if tang_bad and trans_bad:
        verdict = VERDICT_BOTH
    elif trans_bad:
        verdict = VERDICT_TRANSVERSAL
    elif tang_bad:
        verdict = VERDICT_TANGENTIAL
    else:
        verdict = VERDICT_STABLE

    moduli = [abs(z) for z in tang] + [abs(v) for v in transversal.values()]
    marginal = any(abs(m - 1.0) <= MARGINAL_TOL for m in moduli)

    return StabilityReport(
        tangential_spectrum=tuple(complex(z) for z in tang),
        spectral_radius=radius,
        transversal_values=transversal,
        verdict=verdict,
        marginal=marginal,
    )

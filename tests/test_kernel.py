"""The one map kernel against the formulas it replaced, bit for bit.

The oracles below are the expressions each caller used to write out on
its own; every comparison is exact (``tobytes``), not a tolerance.
"""

import numpy as np
import pytest

from simplexdyn import Favorability, SimplexState, normal_eigenvalue, weighted_interaction
from simplexdyn.core import _factors, _interaction
from simplexdyn.dynamics import apply_map
from simplexdyn.stability import jacobian_raw

from conftest import random_simplex


def oracle_factors(p, c):
    n = p.size
    return (n - 1.0) + c * (1.0 - p)


def oracle_interaction(p, c):
    return float(np.dot(c, p * (1.0 - p)))


def oracle_apply_map(p, c):
    n = p.size
    weights = p * ((n - 1.0) + c * (1.0 - p))
    return weights / ((n - 1.0) + float(np.dot(c, p * (1.0 - p))))


def oracle_jacobian(p, c):
    n = p.size
    lc = float(np.dot(c, p * (1.0 - p)))
    d = (n - 1.0) + lc
    numer = (n - 1.0) + c * (1.0 - p)
    jac = -np.outer(p * numer, c * (1.0 - 2.0 * p)) / d**2
    diag = numer / d + p * (-c * d - c * (1.0 - 2.0 * p) * numer) / d**2
    np.fill_diagonal(jac, diag)
    return jac


def oracle_normal_eigenvalue(p, c, i):
    n = p.size
    lc = float(np.dot(c, p * (1.0 - p)))
    return ((n - 1.0) + float(c[i])) / ((n - 1.0) + lc)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_cases(seed, count):
    """States with n in [2, 12]: interior points, faces with exact zeros
    and vertices, with constants from 0.05 to 3 (negative too, as the
    delayed map's effective favorability can be)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 13))
        kind = k % 3
        if kind == 0:
            p = random_simplex(rng, n)
        elif kind == 1:
            p = random_simplex(rng, n, zeros=int(rng.integers(1, n)))
        else:
            p = np.zeros(n)
            p[rng.integers(n)] = 1.0
        c = rng.uniform(0.05, 3.0, n)
        if k % 5 == 0:
            c -= rng.uniform(0.0, 1.5, n)
        yield p, c


class TestKernelBitIdentity:
    def test_factors_and_interaction(self):
        for p, c in random_cases(0, 2000):
            assert same_bits(_factors(p, c), oracle_factors(p, c))
            out = np.empty_like(p)
            assert _factors(p, c, out=out) is out
            assert same_bits(out, oracle_factors(p, c))
            lc = _interaction(p, c)
            assert type(lc) is float
            assert same_bits(lc, oracle_interaction(p, c))

    def test_map_and_jacobian(self):
        for p, c in random_cases(1, 2000):
            assert same_bits(apply_map(p, c), oracle_apply_map(p, c))
            assert same_bits(jacobian_raw(p, c), oracle_jacobian(p, c))

    def test_normal_eigenvalue_and_weighted_interaction(self):
        checked = 0
        for p, c in random_cases(2, 2000):
            c = np.abs(c) + 0.05
            state, fav = SimplexState(p), Favorability(c)
            assert same_bits(weighted_interaction(state, fav), oracle_interaction(state.p, c))
            for i in np.flatnonzero(state.p == 0.0):
                value = normal_eigenvalue(state, fav, int(i))
                assert same_bits(value, oracle_normal_eigenvalue(state.p, c, int(i)))
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 12])
    def test_batched_factors_rows_equal_single_calls(self, n):
        rng = np.random.default_rng(n)
        p = np.stack([random_simplex(rng, n, zeros=int(z)) for z in rng.integers(0, n, 64)])
        p[::9] = np.eye(n)[rng.integers(0, n, len(p[::9]))]
        c = rng.uniform(-1.0, 3.0, (64, n))
        batch = _factors(p, c)
        out = np.empty((64, n))
        _factors(p, c, out=out)
        assert same_bits(out, batch)
        for row in range(64):
            assert same_bits(batch[row], _factors(p[row], c[row]))

import numpy as np
import pytest
from hypothesis import given

from simplexdyn import (
    DimensionError,
    Favorability,
    IterationConfig,
    SimplexState,
    Trajectory,
    iterate,
    l2_sq,
    step,
    step_uniform,
)

from conftest import random_simplex, simplex_states, state_with_favorability


class TestStepUniform:
    def test_uniform_point_is_fixed(self):
        s = SimplexState.uniform(3)
        np.testing.assert_array_equal(step_uniform(s).p, s.p)

    def test_boundary_equal_shares_fixed(self):
        s = SimplexState(np.array([0.5, 0.5, 0.0]))
        np.testing.assert_array_equal(step_uniform(s).p, s.p)

    def test_hand_evaluation_n2(self):
        # L = 0.52, multipliers 1.4/1.48 and 1.6/1.48
        out = step_uniform(SimplexState(np.array([0.6, 0.4])))
        np.testing.assert_allclose(out.p, [0.84 / 1.48, 0.64 / 1.48], atol=1e-15)
        np.testing.assert_allclose(out.p, [0.5675676, 0.4324324], atol=1e-7)

    @given(simplex_states(allow_zero=True))
    def test_reduction_from_heterogeneous_is_exact(self, state):
        # all-equal favorability is literally the same kernel, bit for bit
        ones = Favorability(np.ones(state.n))
        np.testing.assert_array_equal(step(state, ones).p, step_uniform(state).p)


class TestStepHeterogeneous:
    def test_hand_evaluation_n3(self):
        s = SimplexState.uniform(3)
        c = Favorability(np.array([0.8, 0.1, 0.9]))
        out = step(s, c)
        np.testing.assert_allclose(out.p, [19 / 54, 31 / 108, 13 / 36], atol=1e-15)
        np.testing.assert_allclose(out.p, [0.3518519, 0.2870370, 0.3611111], atol=1e-7)

    def test_vertices_fixed_for_any_constants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(n))
            p = np.zeros(n)
            p[k] = 1.0
            c = Favorability(rng.uniform(0.05, 1.0, n))
            np.testing.assert_array_equal(step(SimplexState(p), c).p, p)

    @given(state_with_favorability(allow_zero=True))
    def test_simplex_conservation(self, case):
        state, fav = case
        out = step(state, fav)
        assert abs(out.p.sum() - 1.0) < 1e-12
        assert np.all(out.p >= 0)

    @given(state_with_favorability(allow_zero=True))
    def test_zero_invariance_exact(self, case):
        state, fav = case
        out = step(state, fav)
        for i in state.zero_indices():
            assert out.p[i] == 0.0

    @given(simplex_states())
    def test_order_preserved_uniform(self, state):
        out = step_uniform(state).p
        p = state.p
        for i in range(state.n):
            for j in range(state.n):
                if p[i] >= p[j]:
                    assert out[i] >= out[j] - 1e-15

    def test_order_preserved_under_equal_constants(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            c = rng.uniform(0.05, 1.0, n)
            i, j = rng.choice(n, size=2, replace=False)
            c[j] = c[i]
            p = random_simplex(rng, n)
            if p[i] == p[j]:
                continue
            lo, hi = (i, j) if p[i] < p[j] else (j, i)
            out = step(SimplexState(p), Favorability(c)).p
            assert out[lo] < out[hi]

    def test_snap_zeroes_tiny_coordinates_on_request_only(self):
        p = np.array([1e-16, 0.5, 0.5 - 1e-16])
        state = SimplexState(p)
        c = Favorability(np.array([0.5, 0.5, 0.5]))
        kept = step(state, c)
        assert kept.p[0] > 0.0
        snapped = step(state, c, snap=True)
        assert snapped.p[0] == 0.0


class TestUniformTrajectoryMonotonicity:
    def test_l2_decreases_and_stays_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            zeros = int(rng.integers(0, n - 1))
            state = SimplexState(random_simplex(rng, n, zeros))
            m = len(state.zero_indices())
            prev = l2_sq(state)
            for _ in range(30):
                state = step_uniform(state)
                cur = l2_sq(state)
                assert cur <= prev + 1e-15
                assert 1 / (n - m) - 1e-12 <= cur <= 1 + 1e-12
                prev = cur

    def test_extremal_coordinates_squeeze(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p = random_simplex(rng, n, zeros=int(rng.integers(0, n - 1)))
            state = SimplexState(p)
            for _ in range(30):
                nxt = step_uniform(state)
                pos_now = state.p[state.p > 0]
                pos_next = nxt.p[nxt.p > 0]
                assert pos_next.min() >= pos_now.min() - 1e-15
                assert pos_next.max() <= pos_now.max() + 1e-15
                state = nxt


class TestIterationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(max_steps=0)
        with pytest.raises(ValueError):
            IterationConfig(tol=0.0)
        with pytest.raises(ValueError):
            IterationConfig(record_every=0)

    def test_default_stride_switches_at_ten(self):
        cfg = IterationConfig()
        assert cfg.stride_for(10) == 1
        assert cfg.stride_for(11) == 10


class TestIterate:
    def test_uniform_map_reaches_consensus(self):
        rng = np.random.default_rng(1)
        p0 = SimplexState(random_simplex(rng, 3))
        traj = iterate(p0, None, IterationConfig(tol=1e-10, record_every=50))
        assert traj.converged
        np.testing.assert_allclose(traj.final.p, 1 / 3, atol=1e-8)

    def test_reference_interior_limit(self):
        c = Favorability(np.array([0.3, 0.4, 0.25]))
        traj = iterate(SimplexState(np.array([0.2, 0.3, 0.5])), c,
                       IterationConfig(record_every=100))
        assert traj.converged
        np.testing.assert_allclose(traj.final.p, [0.322, 0.4915, 0.1865], atol=1e-3)

    def test_reference_boundary_limit(self):
        c = Favorability(np.array([0.8, 0.1, 0.9]))
        traj = iterate(SimplexState(np.array([0.2, 0.3, 0.5])), c,
                       IterationConfig(record_every=100))
        assert traj.converged
        np.testing.assert_allclose(traj.final.p, [0.4706, 0.0, 0.5294], atol=1e-3)

    def test_records_initial_strided_and_final(self):
        p0 = SimplexState(np.array([0.6, 0.4]))
        traj = iterate(p0, None, IterationConfig(max_steps=10, tol=1e-30, record_every=4))
        assert not traj.converged
        assert traj.steps_taken == 10
        assert traj.times.tolist() == [0, 4, 8, 10]
        np.testing.assert_array_equal(traj.states[0], p0.p)

    def test_budget_exhaustion_reports_not_converged(self):
        p0 = SimplexState(np.array([0.6, 0.4]))
        traj = iterate(p0, None, IterationConfig(max_steps=3, tol=1e-30))
        assert not traj.converged
        assert traj.final_residual > 0

    def test_every_recorded_state_is_valid(self):
        rng = np.random.default_rng(2)
        c = Favorability(rng.uniform(0.1, 1.0, 5))
        traj = iterate(SimplexState(random_simplex(rng, 5)), c,
                       IterationConfig(record_every=10))
        for s in traj.states:
            assert abs(s.sum() - 1.0) < 1e-12
            assert np.all(s >= 0)

    def test_fixed_initial_condition_stops_immediately(self):
        traj = iterate(SimplexState.uniform(4), None)
        assert traj.converged
        assert traj.steps_taken == 1


def make_trajectory(states, times=None):
    states = np.asarray(states, dtype=float)
    if times is None:
        times = np.arange(len(states))
    return Trajectory(states=states, times=times, steps_taken=len(states) - 1,
                      converged=False, final_residual=1.0)


class TestTrajectory:
    def test_rejects_bad_rows(self):
        good = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        for value, error in ((np.nan, ValueError), (np.inf, ValueError), (-0.1, ValueError)):
            bad = good.copy()
            bad[1, 0] = value
            with pytest.raises(error):
                make_trajectory(bad)
        off_sum = good.copy()
        off_sum[2] = [0.9, 0.2]
        with pytest.raises(ValueError, match="outside renormalization range"):
            make_trajectory(off_sum)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            make_trajectory([0.5, 0.5], times=[0])
        with pytest.raises(DimensionError):
            make_trajectory(np.full((3, 2, 2), 0.5), times=[0, 1, 2])
        with pytest.raises(DimensionError):
            make_trajectory(np.ones((3, 1)))
        with pytest.raises(DimensionError):
            make_trajectory(np.empty((0, 3)), times=np.empty(0, dtype=int))
        with pytest.raises(DimensionError):
            make_trajectory(np.full((3, 2), 0.5), times=[0, 1])
        with pytest.raises(DimensionError):
            make_trajectory(np.full((3, 2), 0.5), times=[0.0, 1.0, 2.0])

    def test_arrays_are_read_only_copies(self):
        states = np.full((3, 2), 0.5)
        times = np.arange(3)
        traj = make_trajectory(states, times)
        assert traj.states.shape == (3, 2) and traj.states.dtype == float
        assert traj.times.shape == (3,) and traj.times.dtype.kind == "i"
        for arr in (traj.states, traj.times, traj.as_array()):
            with pytest.raises(ValueError):
                arr[0] = 0
        states[0] = [1.0, 0.0]
        times[0] = 7
        assert traj.states[0].tolist() == [0.5, 0.5]
        assert traj.times[0] == 0

    def test_rows_renormalized_like_simplex_state(self):
        # The state rule written out for one vector: divide by the sum when
        # it is off by more than 1e-15, keep the vector bit for bit otherwise.
        def by_hand(row):
            total = float(row.sum())
            return row / total if abs(total - 1.0) > 1e-15 else row

        rng = np.random.default_rng(5)
        renormalized = 0
        for n in (2, 3, 5, 10, 12):
            rows = np.stack([random_simplex(rng, n, zeros=k % n) for k in range(40)])
            rows *= 1.0 + rng.uniform(-1e-10, 1e-10, (40, 1))
            rows[::4] = np.stack([random_simplex(rng, n) for _ in range(10)])
            traj = make_trajectory(rows)
            for row, kept in zip(rows, traj.states):
                assert kept.tobytes() == by_hand(row).tobytes()
                assert kept.tobytes() == SimplexState(row).p.tobytes()
                renormalized += kept.tobytes() != row.tobytes()
            assert traj.final.p.tobytes() == traj.states[-1].tobytes()
        assert renormalized > 100

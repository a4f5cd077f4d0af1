import numpy as np
import pytest

import simplexdyn.delay
from simplexdyn import (
    DelayConfig,
    DimensionError,
    DomainViolationError,
    Favorability,
    IterationConfig,
    SimplexState,
    Trajectory,
    beta_sweep,
    classify_regime,
    find_fixed_point,
    iterate,
    simulate_delayed,
    step,
)
from simplexdyn.delay import GLOBAL_MAX, PER_COMPONENT, local_extrema

BENCH_C = np.array([0.9, 0.85, 0.95, 0.8])
BENCH_P0 = np.array([0.25, 0.26, 0.24, 0.25])


def bench_config(beta, mode=PER_COMPONENT, tau=30):
    return DelayConfig(c_base=Favorability(BENCH_C), beta=beta, tau=tau,
                       baseline_mode=mode)


def traj_from_first_coordinate(x):
    x = np.asarray(x, dtype=float)
    return Trajectory(states=np.column_stack([x, 1 - x]), times=np.arange(x.size),
                      steps_taken=x.size - 1, converged=False, final_residual=1.0)


class TestDelayConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            bench_config(-0.1)
        with pytest.raises(ValueError):
            DelayConfig(Favorability(BENCH_C), beta=1.0, tau=-1)
        with pytest.raises(ValueError):
            DelayConfig(Favorability(BENCH_C), beta=1.0, tau=3, baseline_mode="median")

    def test_baseline_modes(self):
        np.testing.assert_array_equal(bench_config(1.0).baseline(), BENCH_C)
        np.testing.assert_array_equal(
            bench_config(1.0, mode=GLOBAL_MAX).baseline(), np.full(4, 0.95))


def delayed_step_by_hand(p, c, beta, delayed):
    """One step of the delayed map: weights p_i ((n-1) + (c_i - beta q_i)(1 - p_i))."""
    w = p * (len(p) - 1.0 + (c - beta * delayed) * (1.0 - p))
    return w / w.sum()


class TestHistoryBuffer:
    """The delay ring of simulate_delayed: prehistory held at p(0), then p(t - tau)."""

    def test_warm_start_and_rotation(self):
        # tau=2: steps from t=0, 1, 2 read p(-2), p(-1), p(0), all the
        # prehistory p(0); the step from t=3 reads p(1), once it rolled off.
        c = np.array([0.9, 0.9])
        p0 = np.array([0.7, 0.3])
        cfg = DelayConfig(Favorability(c), beta=1.0, tau=2, baseline_mode=PER_COMPONENT)
        traj = simulate_delayed(SimplexState(p0), cfg, steps=4, transient=0)
        hand = [p0]
        for t in range(4):
            hand.append(delayed_step_by_hand(hand[t], c, 1.0, hand[max(t - 2, 0)]))
        np.testing.assert_allclose(traj.as_array(), hand, rtol=0, atol=1e-15)
        stale = delayed_step_by_hand(hand[3], c, 1.0, p0)
        assert abs(stale[0] - hand[4][0]) > 1e-3

    def test_tau_zero_is_instantaneous(self):
        c = np.array([0.9, 0.9])
        p0 = np.array([0.7, 0.3])
        cfg = DelayConfig(Favorability(c), beta=1.0, tau=0, baseline_mode=PER_COMPONENT)
        traj = simulate_delayed(SimplexState(p0), cfg, steps=3, transient=0)
        hand = [p0]
        for t in range(3):
            hand.append(delayed_step_by_hand(hand[t], c, 1.0, hand[t]))
        np.testing.assert_allclose(traj.as_array(), hand, rtol=0, atol=1e-15)


class TestEffectiveC:
    """c_eff = baseline - beta * p(t - tau), as simulate_delayed applies it."""

    def test_feedback_off_returns_baseline(self):
        cfg = bench_config(0.0, tau=5)
        traj = simulate_delayed(SimplexState(BENCH_P0), cfg, steps=20, transient=0)
        static = iterate(SimplexState(BENCH_P0), Favorability(BENCH_C),
                         IterationConfig(max_steps=20, tol=1e-300, record_every=1))
        np.testing.assert_array_equal(traj.as_array(), static.as_array())

    def test_hand_value_per_component(self):
        # From the uniform start c_eff = c - 1.2 * 0.25 = (0.6, 0.55, 0.65, 0.5).
        traj = simulate_delayed(SimplexState(np.full(4, 0.25)), bench_config(1.2, tau=3),
                                steps=1, transient=0)
        weights = 0.25 * (3.0 + np.array([0.6, 0.55, 0.65, 0.5]) * 0.75)
        np.testing.assert_allclose(traj.states[1], weights / weights.sum(),
                                   rtol=0, atol=1e-15)

    def test_uses_delayed_share_not_current(self):
        # tau=1: the step from t=1 feels p(0) = (0.7, 0.3), not p(1).
        c = np.array([0.9, 0.9])
        p0 = np.array([0.7, 0.3])
        cfg = DelayConfig(Favorability(c), beta=1.0, tau=1, baseline_mode=PER_COMPONENT)
        traj = simulate_delayed(SimplexState(p0), cfg, steps=2, transient=0)
        p1 = delayed_step_by_hand(p0, c, 1.0, p0)
        p2 = delayed_step_by_hand(p1, c, 1.0, p0)
        np.testing.assert_allclose(traj.as_array(), [p0, p1, p2], rtol=0, atol=1e-15)
        assert abs(delayed_step_by_hand(p1, c, 1.0, p1)[0] - p2[0]) > 1e-3

    def test_values_may_go_negative(self):
        # c_eff = 0.5 - 2 * (0.9, 0.1) = (-1.3, 0.3): the map takes the
        # negative value as it is, the factor 1 - 1.3 * 0.1 stays positive.
        p0 = np.array([0.9, 0.1])
        cfg = DelayConfig(Favorability(np.array([0.5, 0.5])), beta=2.0, tau=0,
                          baseline_mode=PER_COMPONENT)
        out = simulate_delayed(SimplexState(p0), cfg, steps=1, transient=0).final.p
        weights = p0 * (1.0 + np.array([-1.3, 0.3]) * (1.0 - p0))
        np.testing.assert_allclose(out, weights / weights.sum(), rtol=0, atol=1e-15)
        assert weights[0] < p0[0]


class TestStepDelayed:
    """One step of the delayed map, run as simulate_delayed(steps=1)."""

    def test_beta_zero_is_exactly_the_static_step(self):
        # Same kernel as iterate (normalized by the weight sum) step for step;
        # dynamics.step normalizes analytically, equal up to roundoff.
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p = SimplexState(rng.dirichlet(np.ones(n)))
            c = Favorability(rng.uniform(0.05, 1.0, n))
            cfg = DelayConfig(c, beta=0.0, tau=int(rng.integers(0, 5)),
                              baseline_mode=PER_COMPONENT)
            delayed = simulate_delayed(p, cfg, steps=5, transient=0)
            static = iterate(p, c, IterationConfig(max_steps=5, tol=1e-300, record_every=1))
            np.testing.assert_array_equal(delayed.as_array(), static.as_array())
            np.testing.assert_allclose(delayed.states[1], step(p, c).p, rtol=0, atol=1e-15)

    def test_vertex_stays_put(self):
        vertex = SimplexState(np.array([0.0, 1.0, 0.0, 0.0]))
        traj = simulate_delayed(vertex, bench_config(1.2, tau=4), steps=50, transient=0)
        np.testing.assert_array_equal(traj.as_array(), np.tile(vertex.p, (51, 1)))

    def test_simplex_conservation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = SimplexState(rng.dirichlet(np.ones(4)))
            cfg = bench_config(rng.uniform(0, 3), tau=2)
            out = simulate_delayed(p, cfg, steps=1, transient=0).final
            assert abs(out.p.sum() - 1.0) < 1e-12
            assert np.all(out.p >= 0)

    def test_domain_violation_names_component(self):
        # 3 + (0.9 - 50*0.5) * 0.5 is well below zero
        skew = SimplexState(np.array([0.5, 0.3, 0.1, 0.1]))
        with pytest.raises(DomainViolationError,
                           match=r"^nonpositive multiplier for component 1 at step 1 "):
            simulate_delayed(skew, bench_config(50.0, tau=2), steps=10, transient=0)


class TestSimulateDelayed:
    def test_beta_zero_reduces_to_static_fixed_point(self):
        cfg = bench_config(0.0)
        traj = simulate_delayed(SimplexState(BENCH_P0), cfg, steps=5000, transient=4000)
        static = find_fixed_point(SimplexState(BENCH_P0), Favorability(BENCH_C))
        np.testing.assert_allclose(traj.final.p, static.p_inf.p, atol=1e-8)

    def test_deterministic_reruns_are_identical(self):
        cfg = bench_config(1.5)
        one = simulate_delayed(SimplexState(BENCH_P0), cfg, steps=3000, transient=1000)
        two = simulate_delayed(SimplexState(BENCH_P0), cfg, steps=3000, transient=1000)
        np.testing.assert_array_equal(one.as_array(), two.as_array())

    def test_records_post_transient_only(self):
        cfg = bench_config(1.5)
        traj = simulate_delayed(SimplexState(BENCH_P0), cfg, steps=500, transient=200)
        assert traj.times[0] == 200
        assert traj.times[-1] == 500
        assert len(traj.states) == 301

    def test_every_recorded_state_on_the_simplex(self):
        cfg = bench_config(3.0, mode=GLOBAL_MAX)
        traj = simulate_delayed(SimplexState(BENCH_P0), cfg, steps=3000, transient=0)
        arr = traj.as_array()
        assert np.all(arr >= 0)
        np.testing.assert_allclose(arr.sum(axis=1), 1.0, atol=1e-12)

    def test_domain_violation_reports_step_index(self):
        cfg = bench_config(60.0)
        with pytest.raises(DomainViolationError, match="at step"):
            simulate_delayed(SimplexState(BENCH_P0), cfg, steps=2000, transient=0)

    def test_validates_budget(self):
        with pytest.raises(ValueError):
            simulate_delayed(SimplexState(BENCH_P0), bench_config(1.0),
                             steps=100, transient=100)


class TestClassifyRegime:
    def test_constant_tail(self):
        report = classify_regime(traj_from_first_coordinate(np.full(3000, 0.37)))
        assert report.regime == "fixed_point"
        np.testing.assert_allclose(report.tail_extrema, [0.37])

    def test_exact_two_cycle(self):
        report = classify_regime(traj_from_first_coordinate(np.tile([0.4, 0.6], 1500)))
        assert report.regime == "periodic"
        assert report.period == 2

    def test_two_incommensurate_tones(self):
        t = np.arange(3000)
        x = 0.5 + 0.15 * np.sin(0.31 * t) + 0.1 * np.sin(0.31 * np.sqrt(2) * t)
        report = classify_regime(traj_from_first_coordinate(x))
        assert report.regime == "quasi_periodic"

    def test_broadband_signal_is_aperiodic(self):
        y = np.empty(3000)
        y[0] = 0.4
        for k in range(2999):
            y[k + 1] = 3.9 * y[k] * (1 - y[k])
        report = classify_regime(traj_from_first_coordinate(0.3 + 0.4 * y))
        assert report.regime == "aperiodic"

    def test_insufficient_tail_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(traj_from_first_coordinate(np.full(100, 0.5)), window=2000)

    def test_period_matches_unscreened_search(self):
        # the prefix screen skips only periods that the full window rejects,
        # also for windows shorter than the screen and kinks past it
        rng = np.random.default_rng(3)
        for window in (8, 40, 130, 600):
            for _ in range(25):
                q0 = int(rng.integers(2, window // 2 + 1))
                x = np.tile(rng.uniform(0.2, 0.8, q0), window // q0 + 1)[:window]
                x[int(rng.integers(window))] += rng.choice([0.0, 1e-3, 0.2])
                report = classify_regime(traj_from_first_coordinate(x), window=window)
                tail = np.column_stack([x, 1 - x])
                tol = max(1e-8, 0.02 * float(np.max(tail.max(axis=0) - tail.min(axis=0))))
                periods = [q for q in range(2, window // 2 + 1)
                           if np.max(np.abs(tail[q:] - tail[:-q])) < tol]
                assert report.period == (periods[0] if periods else None)

    def test_benchmark_weak_feedback_reaches_fixed_point(self):
        traj = simulate_delayed(SimplexState(BENCH_P0), bench_config(1.2),
                                steps=20_000, transient=18_000)
        assert classify_regime(traj, window=2000).regime == "fixed_point"


class TestLocalExtrema:
    def test_alternating_peaks_and_troughs(self):
        x = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(local_extrema(x), [1.0, -1.0, 1.0])

    def test_monotone_has_none(self):
        assert local_extrema(np.linspace(0, 1, 50)).size == 0


class TestBetaSweep:
    def test_ordered_and_deterministic(self):
        betas = [0.0, 0.5, 1.0]
        cfg = bench_config(0.0)
        p0 = SimplexState(BENCH_P0)
        one = beta_sweep(p0, cfg, betas, steps=4000, transient=3000)
        two = beta_sweep(p0, cfg, betas, steps=4000, transient=3000)
        assert [s.beta for s in one] == betas
        for a, b in zip(one, two):
            assert a.regime == b.regime
            np.testing.assert_array_equal(a.extrema, b.extrema)

    def test_weak_feedback_band_is_all_fixed_points(self):
        betas = np.linspace(0.0, 1.0, 6)
        samples = beta_sweep(SimplexState(BENCH_P0), bench_config(0.0, mode=GLOBAL_MAX),
                             betas, steps=15_000, transient=13_000)
        assert all(s.regime == "fixed_point" for s in samples)
        assert all(s.extrema.size == 1 for s in samples)

    def test_domain_violation_becomes_error_sample(self):
        samples = beta_sweep(SimplexState(BENCH_P0), bench_config(0.0),
                             [0.5, 60.0, 1.0], steps=4000, transient=3000)
        assert samples[0].regime == "fixed_point"
        assert samples[1].regime == "error"
        assert samples[1].error is not None
        assert samples[2].regime == "fixed_point"

    @staticmethod
    def single(p0, cfg, beta, steps, transient, window=2000):
        """A lone run classified the way the sweep classifies it."""
        run = DelayConfig(cfg.c_base, beta, cfg.tau, cfg.baseline_mode)
        try:
            traj = simulate_delayed(p0, run, steps=steps, transient=transient)
        except DomainViolationError as exc:
            return None, str(exc)
        return classify_regime(traj, window=min(window, len(traj.states))), None

    def assert_sample_is_single_run(self, sample, p0, cfg, steps, transient, window=2000):
        report, error = self.single(p0, cfg, sample.beta, steps, transient, window)
        assert sample.error == error
        if error is None:
            assert (sample.regime, sample.period) == (report.regime, report.period)
            np.testing.assert_array_equal(sample.extrema, report.tail_extrema)
        else:
            assert sample.regime == "error" and sample.extrema.size == 0

    def test_batched_rows_equal_single_runs(self):
        rng = np.random.default_rng(7)
        for tau in (0, 1, 30):
            for n in (2, 4, 7):
                p0 = SimplexState(rng.dirichlet(np.ones(n)))
                cfg = DelayConfig(Favorability(rng.uniform(0.5, 1.0, n)), beta=0.0, tau=tau,
                                  baseline_mode=PER_COMPONENT)
                betas = [0.0, *rng.uniform(0.0, 2.5, 4)]
                samples = beta_sweep(p0, cfg, betas, steps=800, transient=500, window=300)
                assert [s.beta for s in samples] == betas
                for s in samples:
                    self.assert_sample_is_single_run(s, p0, cfg, 800, 500, window=300)

    def test_failed_row_leaves_its_neighbours_alone(self):
        p0 = SimplexState(BENCH_P0)
        cfg = bench_config(0.0, mode=GLOBAL_MAX)
        steady = [1.2, 1.6, 3.0]
        with np.errstate(all="raise"):
            mixed = beta_sweep(p0, cfg, [1.2, 1.6, 4.5, 3.0], steps=3000, transient=2000)
        alone = beta_sweep(p0, cfg, steady, steps=3000, transient=2000)
        failed = mixed.pop(2)
        assert failed.regime == "error"
        assert 1 < int(failed.error.split("at step ")[1].split()[0]) < 3000
        self.assert_sample_is_single_run(failed, p0, cfg, 3000, 2000)
        for a, b in zip(mixed, alone):
            assert (a.beta, a.regime, a.period) == (b.beta, b.regime, b.period)
            np.testing.assert_array_equal(a.extrema, b.extrema)
            self.assert_sample_is_single_run(a, p0, cfg, 3000, 2000)

    def test_empty_beta_list(self):
        assert beta_sweep(SimplexState(BENCH_P0), bench_config(0.0), []) == []

    def test_bad_arguments_raise_before_stepping(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the delayed map ran")

        monkeypatch.setattr(simplexdyn.delay, "_run_delayed", no_run)
        p0 = SimplexState(BENCH_P0)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            beta_sweep(p0, bench_config(0.0), [0.5, -0.1], steps=100, transient=50)
        with pytest.raises(DimensionError):
            beta_sweep(SimplexState(np.full(3, 1 / 3)), bench_config(0.0), [0.5],
                       steps=100, transient=50)
        with pytest.raises(ValueError, match="window must be >= 1"):
            beta_sweep(p0, bench_config(0.0), [0.5], steps=100, transient=50, window=0)

    def test_window_clamped_to_the_post_transient_run(self):
        p0 = SimplexState(BENCH_P0)
        cfg = bench_config(0.0, mode=GLOBAL_MAX)
        samples = beta_sweep(p0, cfg, [1.2, 1.8], steps=3000, transient=2900, window=2000)
        for s in samples:
            self.assert_sample_is_single_run(s, p0, cfg, 3000, 2900, window=101)

import numpy as np
import pytest

from simplexdyn import (
    ActiveSet,
    DimensionError,
    Favorability,
    IterationConfig,
    SimplexState,
    find_fixed_point,
    fixed_point_for_support,
    fixed_point_n2,
    fixed_point_n3,
    iterate,
    lambda_threshold,
    limit_coordinate,
    step,
    uniform_limit,
)

from simplexdyn.equilibrium import _water_fill

from conftest import (
    near_critical_favorability,
    random_interior,
    random_simplex,
    refined_fixed_point,
)

FIG2A_C = np.array([0.3, 0.4, 0.25])
FIG2B_C = np.array([0.8, 0.1, 0.9])


def sample_noncritical_favorability(rng, n, low=0.1, high=1.0, margin=5e-3):
    """Random constants that stay clear of the survival threshold.

    Exactly-at-threshold configurations converge infinitely slowly, so the
    iteration oracle cannot certify them in finite time.
    """
    while True:
        c = rng.uniform(low, high, n)
        report = find_fixed_point(SimplexState.uniform(n), Favorability(c))
        if np.min(np.abs(c - report.lambda_value)) > margin:
            return Favorability(c)


class TestLambdaThreshold:
    def test_singleton_is_zero(self):
        assert lambda_threshold(ActiveSet((0,)), Favorability(FIG2B_C)) == 0.0

    def test_reference_three_component_value(self):
        lam = lambda_threshold(ActiveSet((0, 1, 2)), Favorability(FIG2A_C))
        assert lam == pytest.approx(12 / 59, abs=1e-15)  # 2/(10/3 + 5/2 + 4)

    def test_uniform_constants(self):
        for n in range(2, 7):
            c0 = 0.4
            lam = lambda_threshold(ActiveSet(tuple(range(n))), Favorability(np.full(n, c0)))
            assert lam == pytest.approx(c0 * (n - 1) / n, abs=1e-15)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            lambda_threshold(ActiveSet(()), Favorability(FIG2A_C))


class TestLimitCoordinate:
    def test_uniform_constants_give_equal_shares(self):
        n = 5
        fav = Favorability(np.full(n, 0.7))
        members = ActiveSet(tuple(range(n)))
        for i in range(n):
            assert limit_coordinate(fav, members, i) == pytest.approx(1 / n, abs=1e-15)

    def test_reference_coordinate(self):
        value = limit_coordinate(Favorability(FIG2A_C), ActiveSet((0, 1, 2)), 1)
        assert value == pytest.approx(0.4915254, abs=1e-7)

    def test_sole_survivor_takes_everything(self):
        assert limit_coordinate(Favorability(FIG2B_C), ActiveSet((1,)), 1) == 1.0

    def test_inactive_coordinate_rejected(self):
        fav = Favorability(FIG2B_C)
        with pytest.raises(ValueError):
            limit_coordinate(fav, ActiveSet((0, 1, 2)), 1)  # c_2 = 0.1 below threshold
        with pytest.raises(ValueError):
            limit_coordinate(fav, ActiveSet((0, 2)), 1)  # not a member


class TestUniformLimit:
    def test_interior_start(self):
        report = uniform_limit(SimplexState(np.array([0.2, 0.3, 0.5])))
        np.testing.assert_allclose(report.p_inf.p, 1 / 3, atol=1e-15)
        np.testing.assert_allclose(report.r_inf.r, 1 / 3, atol=1e-15)

    def test_one_zero_coordinate(self):
        report = uniform_limit(SimplexState(np.array([0.7, 0.3, 0.0])))
        np.testing.assert_allclose(report.p_inf.p, [0.5, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(report.r_inf.r, [0.25, 0.25, 0.5], atol=1e-15)
        assert report.active_set.indices == (0, 1)

    def test_vertex(self):
        report = uniform_limit(SimplexState(np.array([0.0, 1.0])))
        np.testing.assert_array_equal(report.p_inf.p, [0.0, 1.0])
        assert report.lambda_value == 0.0

    def test_mean_field_split_with_zero_shares(self):
        # with m zeros: r = 1/(n-1) on the zero set, (n-m-1)/((n-1)(n-m)) elsewhere
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, n - 1))
            state = SimplexState(random_simplex(rng, n, zeros=m))
            report = uniform_limit(state)
            for j in state.zero_indices():
                assert report.r_inf.r[j] == pytest.approx(1 / (n - 1), abs=1e-12)
            for i in state.support():
                assert report.r_inf.r[i] == pytest.approx(
                    (n - m - 1) / ((n - 1) * (n - m)), abs=1e-12)

    def test_agrees_with_iteration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            state = SimplexState(random_simplex(rng, n, zeros=int(rng.integers(0, n - 1))))
            report = uniform_limit(state)
            traj = iterate(state, None, IterationConfig(record_every=1000))
            np.testing.assert_allclose(traj.final.p, report.p_inf.p, atol=1e-8)


class TestFixedPointN2:
    def test_symmetric(self):
        report = fixed_point_n2(Favorability(np.array([0.5, 0.5])))
        np.testing.assert_allclose(report.p_inf.p, [0.5, 0.5], atol=1e-15)

    def test_ratio_form(self):
        report = fixed_point_n2(Favorability(np.array([0.3, 0.6])))
        np.testing.assert_allclose(report.p_inf.p, [1 / 3, 2 / 3], atol=1e-15)

    def test_surviving_pair_of_reference_case(self):
        report = fixed_point_n2(Favorability(np.array([0.8, 0.9])))
        np.testing.assert_allclose(report.p_inf.p, [8 / 17, 9 / 17], atol=1e-15)
        np.testing.assert_allclose(report.p_inf.p, [0.47059, 0.52941], atol=1e-5)

    def test_iteration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = Favorability(rng.uniform(0.05, 1.0, 2))
            report = fixed_point_n2(c)
            traj = iterate(SimplexState(random_interior(rng, 2)), c,
                           IterationConfig(record_every=1000))
            np.testing.assert_allclose(traj.final.p, report.p_inf.p, atol=1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            fixed_point_n2(Favorability(FIG2A_C))


class TestFixedPointN3:
    def test_reference_interior_case(self):
        report = fixed_point_n3(Favorability(FIG2A_C))
        np.testing.assert_allclose(report.p_inf.p, [19 / 59, 29 / 59, 11 / 59], atol=1e-15)
        np.testing.assert_allclose(report.p_inf.p, [0.322, 0.4915, 0.1865], atol=1e-4)

    def test_reference_boundary_case_delegates(self):
        report = fixed_point_n3(Favorability(FIG2B_C))
        assert report.active_set.indices == (0, 2)
        np.testing.assert_allclose(report.p_inf.p, [8 / 17, 0.0, 9 / 17], atol=1e-15)

    def test_equal_constants(self):
        report = fixed_point_n3(Favorability(np.array([0.6, 0.6, 0.6])))
        np.testing.assert_allclose(report.p_inf.p, 1 / 3, atol=1e-15)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            fixed_point_n3(Favorability(np.array([0.5, 0.5])))

    def test_matches_general_route(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            fav = Favorability(rng.uniform(0.05, 1.0, 3))
            closed = fixed_point_n3(fav)
            general = find_fixed_point(SimplexState.uniform(3), fav)
            assert closed.active_set.indices == general.active_set.indices
            np.testing.assert_allclose(closed.p_inf.p, general.p_inf.p, atol=2e-15)


class TestFindFixedPoint:
    def test_reference_boundary_case(self):
        report = find_fixed_point(SimplexState.uniform(3), Favorability(FIG2B_C))
        assert report.active_set.indices == (0, 2)
        assert report.lambda_value == pytest.approx(36 / 85, abs=1e-15)
        np.testing.assert_allclose(report.p_inf.p, [0.47059, 0.0, 0.52941], atol=1e-5)

    def test_four_component_refinement(self):
        # first pass threshold 0.22161 ejects the 0.1 component, second pass
        # settles at 2/(1/0.8 + 1/0.9 + 1/0.85)
        fav = Favorability(np.array([0.8, 0.1, 0.9, 0.85]))
        report = find_fixed_point(SimplexState.uniform(4), fav)
        assert report.active_set.indices == (0, 2, 3)
        lam_expected = 2 / (1 / 0.8 + 1 / 0.9 + 1 / 0.85)
        assert report.lambda_value == pytest.approx(lam_expected, abs=1e-15)
        np.testing.assert_allclose(
            report.p_inf.p, [0.29329, 0.0, 0.37182, 0.33488], atol=2e-5)
        traj = iterate(SimplexState.uniform(4), fav, IterationConfig(record_every=1000))
        np.testing.assert_allclose(traj.final.p, report.p_inf.p, atol=1e-6)

    def test_zero_initial_coordinate_is_excluded(self):
        # the strongest constant cannot enter if its share starts at zero
        report = find_fixed_point(
            SimplexState(np.array([0.0, 0.5, 0.5])),
            Favorability(np.array([0.9, 0.3, 0.3])),
        )
        assert report.active_set.indices == (1, 2)
        np.testing.assert_allclose(report.p_inf.p, [0.0, 0.5, 0.5], atol=1e-15)

    def test_residual_is_tiny(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            fav = Favorability(rng.uniform(0.05, 1.0, n))
            report = find_fixed_point(SimplexState.uniform(n), fav)
            assert report.residual < 1e-12

    def test_self_consistency_of_active_set(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            fav = Favorability(rng.uniform(0.05, 1.0, n))
            report = find_fixed_point(SimplexState.uniform(n), fav)
            lam = report.lambda_value
            for k in report.active_set.indices:
                assert fav.c[k] > lam
            for j in report.zero_set():
                assert fav.c[j] <= lam + 1e-15

    def test_normalization_forced_by_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            fav = Favorability(rng.uniform(0.05, 1.0, n))
            report = find_fixed_point(SimplexState.uniform(n), fav)
            assert abs(report.p_inf.p.sum() - 1.0) < 1e-12

    def test_iteration_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            fav = sample_noncritical_favorability(rng, n)
            report = find_fixed_point(SimplexState.uniform(n), fav)
            traj = iterate(SimplexState(random_interior(rng, n)), fav,
                           IterationConfig(max_steps=400_000, record_every=10_000))
            assert traj.converged
            np.testing.assert_allclose(traj.final.p, report.p_inf.p, atol=1e-6)

    def test_monotone_in_own_constant(self):
        rng = np.random.default_rng(8)
        tested = 0
        while tested < 200:
            n = int(rng.integers(2, 7))
            c = rng.uniform(0.4, 1.0, n)
            i = int(rng.integers(n))
            base = find_fixed_point(SimplexState.uniform(n), Favorability(c))
            if base.active_set.gamma != n:
                continue  # property holds for all-interior equilibria
            bumped_c = c.copy()
            bumped_c[i] += 0.05
            bumped = find_fixed_point(SimplexState.uniform(n), Favorability(bumped_c))
            assert bumped.p_inf.p[i] > base.p_inf.p[i]
            tested += 1

    def test_share_order_follows_constant_order(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            c = rng.uniform(0.4, 1.0, n)
            report = find_fixed_point(SimplexState.uniform(n), Favorability(c))
            p = report.p_inf.p
            interior = report.active_set.gamma == n
            for i in range(n):
                for j in range(n):
                    if c[i] >= c[j]:
                        assert p[i] >= p[j] - 1e-14
                    if interior and c[i] > c[j]:
                        # strict both ways on all-interior equilibria
                        assert p[i] > p[j]

    def test_mean_field_consistency(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            fav = Favorability(rng.uniform(0.05, 1.0, n))
            report = find_fixed_point(SimplexState.uniform(n), fav)
            np.testing.assert_allclose(
                report.r_inf.r, (1 - report.p_inf.p) / (n - 1), atol=1e-15)

    def test_n2_reduction_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            fav = Favorability(rng.uniform(0.05, 1.0, 2))
            closed = fixed_point_n2(fav)
            general = find_fixed_point(SimplexState.uniform(2), fav)
            np.testing.assert_allclose(closed.p_inf.p, general.p_inf.p, atol=2e-15)

    def test_exactly_critical_constant_is_flagged_and_inactive(self):
        # c = (0.5, 0.5, 0.25): the threshold of any surviving set equals
        # 0.25 exactly, so the third component sits on the bifurcation point
        fav = Favorability(np.array([0.5, 0.5, 0.25]))
        report = find_fixed_point(SimplexState.uniform(3), fav)
        assert report.active_set.indices == (0, 1)
        assert report.lambda_value == 0.25
        assert report.critical_indices == (2,)
        np.testing.assert_allclose(report.p_inf.p, [0.5, 0.5, 0.0], atol=1e-15)

    def test_residual_uses_one_map_application(self):
        fav = Favorability(FIG2B_C)
        report = find_fixed_point(SimplexState.uniform(3), fav)
        expected = float(np.max(np.abs(step(report.p_inf, fav).p - report.p_inf.p)))
        assert report.residual == pytest.approx(expected, abs=1e-16)


class TestFixedPointForSupport:
    def test_restricts_to_support(self):
        fav = Favorability(np.array([0.9, 0.8, 0.7, 0.6]))
        report = fixed_point_for_support(fav, (0, 2))
        assert report.active_set.indices == (0, 2)
        assert report.p_inf.p[1] == 0.0 and report.p_inf.p[3] == 0.0

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_for_support(Favorability(FIG2A_C), ())


def _random_support(rng, n):
    if rng.random() < 0.3:
        return tuple(sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()))
    return tuple(range(n))


class TestWaterFilling:
    def test_matches_refinement_oracle(self):
        # ties, thresholds hit exactly or within 1e-13, restricted supports
        rng = np.random.default_rng(12)
        for _ in range(3000):
            n = int(rng.integers(2, 13))
            fav = Favorability(near_critical_favorability(rng, n))
            support = _random_support(rng, n)
            got = fixed_point_for_support(fav, support)
            want = refined_fixed_point(fav, support)
            assert got.critical_indices == want.critical_indices
            same = got.active_set == want.active_set
            # the two may split a critical component differently, nothing else
            assert same or want.critical_indices
            diff = set(got.active_set.indices) ^ set(want.active_set.indices)
            assert diff <= set(want.critical_indices)
            if same:
                assert got.lambda_value == want.lambda_value
                np.testing.assert_array_equal(got.p_inf.p, want.p_inf.p)
                np.testing.assert_array_equal(got.r_inf.r, want.r_inf.r)
                assert got.residual == want.residual
            else:
                # a component at the threshold leaves Lambda unchanged up to rounding
                assert got.lambda_value == pytest.approx(want.lambda_value, rel=1e-14)
            assert np.all(got.p_inf.p[list(got.active_set.indices)] > 0.0)

    def test_batch_rows_equal_single_solves(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5, 9, 12):
            c = np.array([near_critical_favorability(rng, n) for _ in range(200)])
            support = np.array([np.isin(np.arange(n), _random_support(rng, n)) for _ in range(200)])
            alive, lam, critical = _water_fill(c, support)
            for b in range(200):
                one = fixed_point_for_support(Favorability(c[b]), tuple(np.flatnonzero(support[b])))
                assert one.active_set.indices == tuple(np.flatnonzero(alive[b]))
                assert one.lambda_value == lam[b]
                assert one.critical_indices == tuple(np.flatnonzero(critical[b]))

    def test_survivors_clear_the_threshold(self):
        rng = np.random.default_rng(14)
        c = np.array([near_critical_favorability(rng, 8) for _ in range(2000)])
        alive, lam, critical = _water_fill(c)
        assert np.all(c[alive] > np.broadcast_to(lam[:, None], c.shape)[alive])
        dead = ~alive & ~critical
        assert np.all(c[dead] <= np.broadcast_to(lam[:, None], c.shape)[dead])
        assert np.all(alive.any(axis=1))

    def test_negative_support_index_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_for_support(Favorability(FIG2A_C), (-1, 0))

import numpy as np
import pytest

from simplexdyn import (
    ActiveSet,
    Favorability,
    SimplexState,
    classify,
    classify_codim2,
    classify_codimk,
    critical_value,
    find_fixed_point,
    fixed_point_for_support,
    lambda_threshold,
    scan_1d,
    scan_2d,
)
from simplexdyn import bifurcation

C2_CRIT = 1 / (1 / 0.8 + 1 / 0.9)  # threshold for the middle slot of (0.8, _, 0.9)


class TestCriticalValue:
    def test_reference_three_component_value(self):
        result = critical_value(1, np.array([0.8, 0.9]))
        assert result.value == pytest.approx(C2_CRIT, abs=1e-15)
        assert result.value == pytest.approx(0.4235294, abs=1e-7)
        assert result.precondition_ok

    def test_four_components_unit_rest(self):
        result = critical_value(0, np.array([1.0, 1.0, 1.0]))
        assert result.value == pytest.approx(2 / 3, abs=1e-15)

    def test_threshold_equals_lambda_of_the_others(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            others = rng.uniform(0.05, 1.0, n - 1)
            result = critical_value(0, others)
            lam = lambda_threshold(
                ActiveSet(tuple(range(n - 1))), Favorability(others))
            assert result.value == lam

    def test_precondition_flag_on_lopsided_rest(self):
        # the 0.05 component cannot hold a positive share in the boundary
        # subsystem, so the clean stability exchange is not guaranteed;
        # the formula value is returned anyway
        result = critical_value(0, np.array([1.0, 1.0, 0.05]))
        assert not result.precondition_ok
        assert result.value == pytest.approx(2 / 22, abs=1e-15)

    def test_precondition_always_holds_for_two_others(self):
        # a two-component subsystem always keeps both shares positive
        rng = np.random.default_rng(9)
        for _ in range(100):
            assert critical_value(0, rng.uniform(0.01, 2.0, 2)).precondition_ok

    def test_needs_three_components(self):
        with pytest.raises(Exception):
            critical_value(0, np.array([0.5]))


class TestClassifyCodim2:
    def test_all_persist(self):
        label = classify_codim2(0.9, 0.9, np.array([1.0, 1.0]))
        assert label.zero_set == ()
        assert not label.critical

    def test_first_collapses(self):
        label = classify_codim2(0.2, 0.9, np.array([1.0, 1.0]))
        assert label.zero_set == (0,)

    def test_second_collapses(self):
        label = classify_codim2(0.9, 0.2, np.array([1.0, 1.0]))
        assert label.zero_set == (1,)

    def test_both_collapse(self):
        label = classify_codim2(0.3, 0.3, np.array([1.0, 1.0]))
        assert label.zero_set == (0, 1)

    def test_boundary_point_gets_critical_flag_and_zero_side(self):
        # c1 = 2/3 sits exactly on the first bifurcation curve when c2 = 1
        label = classify_codim2(2 / 3, 1.0, np.array([1.0, 1.0]))
        assert label.critical
        assert label.zero_set == (0,)

    def test_rejects_bad_rest(self):
        # a five-component system whose weakest fixed constant falls below
        # the rest-subsystem threshold 2/(1/1 + 1/1 + 1/0.05)
        with pytest.raises(ValueError):
            classify_codim2(0.5, 0.5, np.array([1.0, 1.0, 0.05]))

    def test_agrees_with_general_classifier(self):
        rng = np.random.default_rng(1)
        rest = np.array([1.0, 1.0])
        for _ in range(1000):
            c1, c2 = rng.uniform(0.05, 1.5, 2)
            label = classify_codim2(c1, c2, rest)
            general = classify_codimk(Favorability(np.array([c1, c2, *rest])))
            assert label.zero_set == general.zero_set


class TestClassifyCodimk:
    def test_reference_boundary_case(self):
        assert classify_codimk(Favorability(np.array([0.8, 0.1, 0.9]))).zero_set == (1,)

    def test_uniform_constants_all_persist(self):
        assert classify_codimk(Favorability(np.full(5, 0.6))).zero_set == ()

    def test_four_component_case(self):
        assert classify_codimk(Favorability(np.array([0.8, 0.1, 0.9, 0.85]))).zero_set == (1,)

    def test_never_all_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            c = rng.uniform(1e-3, 1.0, n) ** 2  # spread over decades
            label = classify_codimk(Favorability(c))
            assert len(label.zero_set) < n

    def test_inconsistent_split_is_an_assertion_error(self, monkeypatch):
        # a kernel that let the strongest component die is caught
        real = bifurcation._water_fill

        def bad_kernel(c, support=None):
            alive, lam, critical = real(c, support)
            return alive & (c < c.max(axis=1, keepdims=True)), lam, critical

        monkeypatch.setattr(bifurcation, "_water_fill", bad_kernel)
        with pytest.raises(AssertionError):
            classify_codimk(Favorability(np.array([0.8, 0.1, 0.9])))

    def test_self_consistency_inequalities(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(3, 8))
            c = rng.uniform(0.05, 1.0, n)
            label = classify_codimk(Favorability(c))
            survivors = [i for i in range(n) if i not in label.zero_set]
            lam = lambda_threshold(ActiveSet(tuple(survivors)), Favorability(c))
            for i in label.zero_set:
                assert c[i] <= lam + 1e-15
            for j in survivors:
                assert c[j] > lam


class TestScan1D:
    def test_reference_threshold_detection(self):
        result = scan_1d(1, 0.05, 1.0, 200, np.array([0.8, 1.0, 0.9]))
        assert len(result.critical_values) == 1
        assert result.critical_values[0] == pytest.approx(C2_CRIT, abs=1e-8)

    def test_share_zero_below_increasing_above(self):
        result = scan_1d(1, 0.05, 1.0, 200, np.array([0.8, 1.0, 0.9]))
        below = [s for s in result.samples if s.c_value < C2_CRIT - 1e-9]
        above = [s for s in result.samples if s.c_value > C2_CRIT + 1e-9]
        assert all(s.p_inf[1] == 0.0 for s in below)
        shares = [s.p_inf[1] for s in above]
        assert all(v > 0.0 for v in shares)
        assert all(b > a for a, b in zip(shares, shares[1:]))

    def test_near_unit_eigenvalue_at_refined_threshold(self):
        result = scan_1d(1, 0.05, 1.0, 200, np.array([0.8, 1.0, 0.9]))
        c2 = result.critical_values[0]
        fav = Favorability(np.array([0.8, c2, 0.9]))
        report = find_fixed_point(SimplexState.uniform(3), fav)
        stability = classify(report, fav)
        values = [abs(z) for z in stability.tangential_spectrum]
        values += list(stability.transversal_values.values())
        assert min(abs(v - 1.0) for v in values) < 1e-6
        assert stability.marginal

    def test_threshold_continuity_from_above(self):
        # p = 1 - Lambda/c is differentiable in c, so the share vanishes
        # linearly at the threshold
        base = np.array([0.8, 1.0, 0.9])
        eps = 1e-6
        report = find_fixed_point(SimplexState.uniform(3),
                                  Favorability(np.array([0.8, C2_CRIT + eps, 0.9])))
        assert 0.0 < report.p_inf.p[1] < 1e-5

    def test_monotone_everywhere_when_others_are_weak(self):
        # with weak competitors the varied component stays interior over the
        # whole range, where its limit share is strictly increasing
        result = scan_1d(0, 0.05, 1.0, 100, np.array([1.0, 0.02, 0.02]),
                         classify_samples=False)
        shares = [s.p_inf[0] for s in result.samples]
        assert all(v > 0 for v in shares)
        assert all(b > a for a, b in zip(shares, shares[1:]))

    def test_membership_flip_matches_critical_value_formula(self):
        # the operative threshold for component i is the survival threshold
        # of the equilibrium active set of the others, so refine the others
        # before applying the formula
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            c = rng.uniform(0.3, 1.0, n)
            i = int(rng.integers(n))
            rest = fixed_point_for_support(
                Favorability(c), tuple(k for k in range(n) if k != i))
            crit = rest.lambda_value
            lo = np.array(c)
            lo[i] = crit * (1 - 1e-6)
            hi = np.array(c)
            hi[i] = crit * (1 + 1e-6)
            below = classify_codimk(Favorability(lo))
            above = classify_codimk(Favorability(hi))
            assert i in below.zero_set
            assert i not in above.zero_set

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            scan_1d(0, 1.0, 0.5, 10, np.array([0.8, 1.0, 0.9]))

    def test_samples_equal_single_solves(self):
        base = np.array([0.8, 1.0, 0.9, 0.7])
        result = scan_1d(1, 0.05, 1.2, 120, base)
        for s in result.samples:
            c = base.copy()
            c[1] = s.c_value
            fav = Favorability(c)
            report = find_fixed_point(SimplexState.uniform(4), fav)
            np.testing.assert_array_equal(s.p_inf, report.p_inf.p)
            assert s.zero_set == report.zero_set()
            assert s.verdict == classify(report, fav).verdict


class TestScan2D:
    def test_reference_region_map(self):
        result = scan_2d(0, 1, 0.05, 1.5, 40, np.array([1.0, 1.0, 1.0, 1.0]))
        seen = {label.zero_set for row in result.labels for label in row}
        assert seen == {(), (0,), (1,), (0, 1)}

    def test_boundaries_track_analytic_curves(self):
        steps = 40
        result = scan_2d(0, 1, 0.05, 1.5, steps, np.array([1.0, 1.0, 1.0, 1.0]))
        cell = (1.5 - 0.05) / (steps - 1)
        s = 2.0  # 1/c3 + 1/c4
        for a, vi in enumerate(result.values_i):
            for b in range(len(result.values_j) - 1):
                has0 = 0 in result.labels[a][b].zero_set
                has0_next = 0 in result.labels[a][b + 1].zero_set
                if has0 != has0_next:
                    # crossing the first curve: c_i (1/c_j + s) = 2
                    cj_star = 1.0 / (2.0 / vi - s) if 2.0 / vi > s else np.inf
                    assert result.values_j[b] - 1e-12 <= cj_star <= result.values_j[b + 1] + 1e-12, \
                        f"curve crossing {cj_star} outside cell at c_i={vi}"
                    assert cj_star - result.values_j[b] <= cell + 1e-12

    def test_symmetry_under_axis_swap(self):
        result = scan_2d(0, 1, 0.05, 1.5, 21, np.array([1.0, 1.0, 1.0, 1.0]))
        swap = {(): (), (0,): (1,), (1,): (0,), (0, 1): (0, 1)}
        for a in range(21):
            for b in range(21):
                assert result.labels[a][b].zero_set == swap[result.labels[b][a].zero_set]

    def test_gamma_polylines_inside_window(self):
        result = scan_2d(0, 1, 0.05, 1.5, 30, np.array([1.0, 1.0, 1.0, 1.0]))
        assert result.gamma1.size and result.gamma2.size
        for curve in (result.gamma1, result.gamma2):
            assert np.all(curve >= 0.05 - 1e-12) and np.all(curve <= 1.5 + 1e-12)
        # points satisfy their defining relations
        s = 2.0
        for ci, cj in result.gamma1:
            assert ci * (1 / cj + s) == pytest.approx(2.0, abs=1e-12)
        for ci, cj in result.gamma2:
            assert cj * (1 / ci + s) == pytest.approx(2.0, abs=1e-12)

    def test_translated_indices(self):
        # varying the last two slots of a 4-vector relabels the zero sets
        result = scan_2d(2, 3, 0.2, 1.2, 11, np.array([1.0, 1.0, 1.0, 1.0]))
        seen = {label.zero_set for row in result.labels for label in row}
        assert seen <= {(), (2,), (3,), (2, 3)}

    def test_grid_cells_match_general_classifier(self):
        rng = np.random.default_rng(5)
        result = scan_2d(0, 1, 0.05, 1.5, 15, np.array([1.0, 1.0, 1.0, 1.0]))
        for _ in range(200):
            a = int(rng.integers(15))
            b = int(rng.integers(15))
            c = np.array([result.values_i[a], result.values_j[b], 1.0, 1.0])
            assert result.labels[a][b].zero_set == classify_codimk(Favorability(c)).zero_set

    def test_four_region_grids_match_per_cell_classifier(self):
        # both grids hold cells on a boundary curve (63 and 21 of them)
        for i, j, lo, hi, steps, flagged in ((0, 1, 0.05, 1.5, 30, 63), (2, 3, 0.2, 1.2, 11, 21)):
            base = np.ones(4)
            result = scan_2d(i, j, lo, hi, steps, base)
            assert sum(l.critical for row in result.labels for l in row) == flagged
            for a, vi in enumerate(result.values_i):
                for b, vj in enumerate(result.values_j):
                    raw = classify_codim2(float(vi), float(vj), np.ones(2))
                    label = result.labels[a][b]
                    assert label.zero_set == tuple(sorted((i, j)[k] for k in raw.zero_set))
                    assert (label.description, label.critical) == (raw.description, raw.critical)

    def test_general_grids_match_per_cell_classifier(self):
        # n = 3, and n = 10 with a fixed component too weak for the
        # four-region rule; three of the grids hold critical cells
        cases = (
            (0, 1, 0.25, 1.25, 41, np.array([1.0, 1.0, 0.5]), 7),
            (0, 2, 0.05, 1.5, 25, np.array([1.0, 0.5, 1.0]), 0),
            (0, 1, 0.25, 1.25, 41, np.array([1, 1, *[0.5] * 7, 0.05]), 3),
            (1, 6, 0.05, 1.5, 21, np.array([0.9, 1, 0.8, 0.7, 1.1, 0.6, 1, 0.95, 0.5, 1.0]), 0),
        )
        for i, j, lo, hi, steps, base, flagged in cases:
            result = scan_2d(i, j, lo, hi, steps, base)
            assert sum(l.critical for row in result.labels for l in row) == flagged
            for a, vi in enumerate(result.values_i):
                for b, vj in enumerate(result.values_j):
                    c = np.array(base, dtype=float)
                    c[i], c[j] = vi, vj
                    assert result.labels[a][b] == classify_codimk(Favorability(c))

    def test_chunked_grid_equals_one_pass(self, monkeypatch):
        base = np.array([1.0, 1.0, 0.5])
        whole = scan_2d(0, 1, 0.25, 1.25, 41, base)
        monkeypatch.setattr(bifurcation, "_SCAN_CHUNK", 7)
        assert scan_2d(0, 1, 0.25, 1.25, 41, base).labels == whole.labels

    def test_one_label_object_per_distinct_label(self):
        result = scan_2d(0, 1, 0.05, 1.5, 30, np.ones(4))
        cells = [l for row in result.labels for l in row]
        assert len({id(l) for l in cells}) == len(set(cells)) == 7

    def test_bad_fixed_component_rejected(self):
        with pytest.raises(ValueError):
            scan_2d(0, 1, 0.05, 1.5, 5, np.array([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            scan_2d(0, 1, 0.05, 1.5, 5, np.array([1.0, 1.0, 1.0, np.nan]))

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from treedet import (
    InfeasibleThreshold,
    InvalidParams,
    NotUniform,
    TreeFamily,
    chernoff_bound_report,
    exponent_lower_bound,
    feasible_threshold_interval,
    fenchel_legendre,
    log_mgf,
    rate_table,
    recipe_threshold,
    uniformize,
)
from treedet.rates import BoundRow

D75 = 0.5493061443340549
RATE_AT_ZERO = 0.14384103622589028


class TestLogMgf:
    def test_zero_lambda(self, pair75):
        assert log_mgf(pair75, 0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert log_mgf(pair75, 1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_unit_lambda_swaps_hypotheses(self, pair75):
        # E0[(p1/p0)] = 1 exactly
        assert log_mgf(pair75, 0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_convexity(self, pair75):
        lams = np.linspace(-2.0, 2.0, 9)
        vals = [log_mgf(pair75, 0, l) for l in lams]
        mids = [log_mgf(pair75, 0, 0.5 * (a + b)) for a, b in zip(lams, lams[2:])]
        for lo, mid, hi in zip(vals, mids, vals[2:]):
            assert mid <= 0.5 * (lo + hi) + 1e-12

    def test_bad_hypothesis(self, pair75):
        with pytest.raises(InvalidParams):
            log_mgf(pair75, 2, 0.0)


class TestFenchelLegendre:
    def test_quadratic(self):
        # conjugate of lam^2/2 is t^2/2 with maximizer t
        for t in (-1.3, 0.0, 0.7):
            val, lam = fenchel_legendre(lambda l: 0.5 * l * l, t, (-5.0, 5.0))
            assert val == pytest.approx(0.5 * t * t, abs=1e-9)
            assert lam == pytest.approx(t, abs=1e-6)

    def test_level_one_rate(self, pair75):
        val, _ = fenchel_legendre(
            lambda l: log_mgf(pair75, 0, l), 0.0, (0.0, 1.0)
        )
        assert_allclose(val, RATE_AT_ZERO, rtol=1e-10)

    def test_degenerate_domain(self):
        with pytest.raises(InvalidParams):
            fenchel_legendre(lambda l: l * l, 0.0, (1.0, 1.0))


class TestFeasibleInterval:
    def test_level_one(self, pair75, ident):
        lo, hi = feasible_threshold_interval(pair75, ident)
        assert_allclose(lo, -D75, rtol=1e-14)
        assert_allclose(hi, D75, rtol=1e-14)

    def test_next_level_shrinks(self, pair75, ident):
        table = rate_table(pair75, ident, (0.0,))
        lo, hi = feasible_threshold_interval(pair75, ident, partial=table)
        assert_allclose((lo, hi), (-RATE_AT_ZERO, RATE_AT_ZERO), rtol=1e-10)


class TestRateTable:
    def test_two_levels_at_zero(self, pair75, ident):
        table = rate_table(pair75, ident, (0.0, 0.0))
        assert_allclose(table.level0(1), RATE_AT_ZERO, rtol=1e-10)
        assert_allclose(table.level1(1), RATE_AT_ZERO, rtol=1e-10)
        assert_allclose(table.level0(2), RATE_AT_ZERO / 2.0, rtol=1e-10)
        assert_allclose(table.level1(2), RATE_AT_ZERO / 2.0, rtol=1e-10)

    def test_conjugate_identity_random_thresholds(self, pair75, ident):
        # r1_k = r0_k - t_k holds at every level for llr thresholding
        rng = np.random.default_rng(42)
        for _ in range(25):
            h = int(rng.integers(1, 5))
            ts = []
            table = None
            for _level in range(h):
                lo, hi = feasible_threshold_interval(pair75, ident, partial=table)
                span = hi - lo
                ts.append(float(lo + span * rng.uniform(0.1, 0.9)))
                table = rate_table(pair75, ident, ts)
            for k in range(1, h + 1):
                assert abs(table.level1(k) - (table.level0(k) - ts[k - 1])) <= 1e-10

    def test_infeasible_first_level(self, pair75, ident):
        with pytest.raises(InfeasibleThreshold):
            rate_table(pair75, ident, (-0.6,))

    def test_infeasible_deep_level(self, pair75, ident):
        with pytest.raises(InfeasibleThreshold):
            rate_table(pair75, ident, (0.0, 0.5))

    def test_needs_thresholds(self, pair75, ident):
        with pytest.raises(InvalidParams):
            rate_table(pair75, ident, ())


class TestChernoffBounds:
    def test_two_relay_root_bound(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(100)
        table = rate_table(pair75, ident, (0.0, 0.0))
        report = chernoff_bound_report(tree, table, n_floor=100)
        roots = {r.kind: r for r in report.root_rows()}
        assert set(roots) == {"root_type1", "root_type0"}
        assert_allclose(roots["root_type1"].value, -0.051920518112945134, rtol=1e-9)
        assert_allclose(
            exponent_lower_bound(table, 100), -0.051920518112945134, rtol=1e-9
        )

    def test_fringe_rows_match_rates(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(50)
        table = rate_table(pair75, ident, (0.0, 0.0))
        report = chernoff_bound_report(tree, table, n_floor=50)
        fringe_rows = [r for r in report.rows if r.level == 1 and r.kind == "type1"]
        # fringe nodes have p(v) = l(v), so the bound collapses to -rate
        for row in fringe_rows:
            assert_allclose(row.value, -table.level1(1), rtol=1e-12)

    def test_root_rows_need_large_fringe(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(100)
        table = rate_table(pair75, ident, (0.0, 0.0))
        report = chernoff_bound_report(tree, table, n_floor=101)
        assert report.root_rows() == ()

    def test_rows_match_node_by_node_loop(self, pair75, ident, make_rugged_tree):
        rng = np.random.default_rng(17)
        for _ in range(20):
            tree = uniformize(make_rugged_tree(rng, int(rng.integers(1, 5)))).tree
            table = rate_table(pair75, ident, (-0.2,) * tree.height)
            rows = []
            for v in np.flatnonzero(~tree.is_leaf):
                k = int(tree.level[v])
                ratio = tree.subtree_node_count[v] / tree.subtree_leaf_count[v]
                for kind, rate in (("type1", table.level1(k)), ("type0", table.level0(k))):
                    value = float(-rate + ratio - 1.0)
                    lv, pv = int(tree.subtree_leaf_count[v]), int(tree.subtree_node_count[v])
                    rows.append(BoundRow(int(v), k, lv, pv, kind, value))
            report = chernoff_bound_report(tree, table, n_floor=10**9)
            assert report.rows == tuple(rows)
            assert all(type(r.value) is float for r in report.rows)

    def test_rejects_non_uniform(self, pair75, ident):
        tree = TreeFamily("chain_plus_leaves", {"h": 2}).generate(6)
        table = rate_table(pair75, ident, (0.0, 0.0))
        with pytest.raises(NotUniform):
            chernoff_bound_report(tree, table, n_floor=1)


class TestRecipeThreshold:
    def test_value(self, pair75, ident):
        t = recipe_threshold(pair75, ident, 0.2)
        assert_allclose(t, -D75 + 0.1, rtol=1e-13)

    def test_stays_feasible_at_depth(self, pair75, ident):
        t = recipe_threshold(pair75, ident, 0.1)
        table = rate_table(pair75, ident, (t,) * 4)
        assert all(r > 0 for r in table.rate0)
        assert all(r > 0 for r in table.rate1)

    def test_epsilon_bounds(self, pair75, ident):
        with pytest.raises(InvalidParams):
            recipe_threshold(pair75, ident, 0.0)
        with pytest.raises(InvalidParams):
            recipe_threshold(pair75, ident, 2.0 * D75)

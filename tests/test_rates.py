import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from treedet import (
    BINARY,
    Alphabet,
    DistributionPair,
    InfeasibleThreshold,
    InvalidParams,
    NotUniform,
    TransmissionFunction,
    TreeFamily,
    chernoff_bound_report,
    feasible_threshold_interval,
    fenchel_legendre,
    identity_map,
    log_mgf,
    rate_table,
    recipe_threshold,
    uniformize,
)
from conftest import subtree_counts_by_passes
from treedet import rates
from treedet.rates import BoundRow, _envelope_conjugate

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

    def test_uninformative_leaf_map(self, pair75):
        constant = TransmissionFunction(0, (BINARY,), BINARY, {(0,): 0, (1,): 0})
        with pytest.raises(InfeasibleThreshold) as exc:
            rate_table(pair75, constant, (0.0,))
        assert exc.value.level == 1
        assert str(exc.value) == "level 1: leaf map is uninformative: empty threshold interval"

    def test_infeasible_deep_level(self, pair75, ident):
        with pytest.raises(InfeasibleThreshold):
            rate_table(pair75, ident, (0.0, 0.5))

    def test_needs_thresholds(self, pair75, ident):
        with pytest.raises(InvalidParams):
            rate_table(pair75, ident, ())

    @pytest.mark.parametrize(
        "thresholds", [(math.nan,), (0.0, math.nan), (math.inf,), (0.0, -math.inf)]
    )
    def test_thresholds_must_be_finite(self, pair75, ident, thresholds):
        # invalid input, not an infeasible one, whatever the level
        with pytest.raises(InvalidParams, match="^thresholds must be finite$"):
            rate_table(pair75, ident, thresholds)


def _oracle_rates(p0, p1, t):
    """Level-1 (rate0, rate1) at threshold t, in 50-digit arithmetic.

    The tilt s solves E_s[llr] = t under p0^(1-s) p1^s by plain bisection;
    the rates are the conjugates s t - L0(s) and (s - 1) t - L1(s - 1).
    """
    with mpmath.workdps(50):
        q0 = [mpmath.mpf(float(x)) for x in p0]
        q1 = [mpmath.mpf(float(x)) for x in p1]
        llr = [mpmath.log(b) - mpmath.log(a) for a, b in zip(q0, q1)]
        t = mpmath.mpf(float(t))

        def log_mgf_mp(q, lam):
            return mpmath.log(mpmath.fsum(m * mpmath.exp(lam * x) for m, x in zip(q, llr)))

        def tilted_mean(s):
            w = [m * mpmath.exp(s * x) for m, x in zip(q0, llr)]
            return mpmath.fsum(wi * x for wi, x in zip(w, llr)) / mpmath.fsum(w)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(180):
            mid = (lo + hi) / 2
            if tilted_mean(mid) < t:
                lo = mid
            else:
                hi = mid
        s = (lo + hi) / 2
        return s * t - log_mgf_mp(q0, s), (s - 1) * t - log_mgf_mp(q1, s - 1)


# weights spanning nine decades, so normalized masses reach about 1e-9
WEIGHTS = st.one_of(st.floats(1e-9, 1e-6), st.floats(1e-3, 1.0))


@st.composite
def small_pairs(draw):
    k = draw(st.integers(2, 6))
    w0 = np.array(draw(st.lists(WEIGHTS, min_size=k, max_size=k)))
    w1 = np.array(draw(st.lists(WEIGHTS, min_size=k, max_size=k)))
    return DistributionPair(Alphabet(tuple(range(k))), w0 / w0.sum(), w1 / w1.sum())


class TestLevelOneOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        small_pairs(),
        st.sampled_from(("low", "inside", "high")),
        st.floats(1e-9, 1e-6),
        st.floats(0.01, 0.99),
    )
    def test_matches_mpmath_conjugate(self, pair, where, delta, frac):
        ident = identity_map(pair.alphabet)
        lo, hi = feasible_threshold_interval(pair, ident)
        assume(lo < -1e-3 and hi > 1e-3)
        t = {"low": lo + delta, "inside": lo + frac * (hi - lo), "high": hi - delta}[where]
        table = rate_table(pair, ident, (t,))
        want0, want1 = _oracle_rates(pair.p0, pair.p1, t)
        # near an end of the interval one rate is about delta**2, far below
        # the rounding of s t and L(s); errors are relative to the larger rate
        scale = float(max(want0, want1))
        assert abs(table.rate0[0] - float(want0)) <= 1e-13 * scale
        assert abs(table.rate1[0] - float(want1)) <= 1e-13 * scale


class TestEnvelopeConjugate:
    def test_matches_ternary_search(self):
        # thresholds reach past both ends of (-r1, r0), where the sup sits
        # at an end of the domain rather than at the kink
        rng = np.random.default_rng(11)
        for _ in range(400):
            r0, r1 = rng.uniform(1e-3, 0.5, size=2)
            t = float(rng.uniform(-r1 - 0.25, r0 + 0.25))
            j = int(rng.integers(0, 2))
            envelope = lambda lam: max(-r1 * (j + lam), r0 * (j - 1 + lam))
            want, _ = fenchel_legendre(envelope, t, (-j, 1 - j))
            assert abs(_envelope_conjugate(r0, r1, j, t) - want) <= 1e-10

    def test_equals_closed_form_inside_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            r0, r1 = rng.uniform(1e-3, 2.0, size=2)
            t = float(rng.uniform(-r1, r0))
            new0, new1 = rates._closed_step(r0, r1, t)
            assert abs(_envelope_conjugate(r0, r1, 0, t) - new0) <= 1e-14
            assert abs(_envelope_conjugate(r0, r1, 1, t) - new1) <= 1e-14

    def test_cross_check_catches_wrong_closed_form(self, pair75, ident, monkeypatch):
        closed = rates._closed_step

        def off(r0, r1, t):
            new0, new1 = closed(r0, r1, t)
            return new0, new1 + 1e-6

        monkeypatch.setattr(rates, "_closed_step", off)
        rate_table(pair75, ident, (0.0,))
        with pytest.raises(AssertionError, match="level 2"):
            rate_table(pair75, ident, (0.0, 0.0))


class TestChernoffBounds:
    def test_two_relay_root_bound(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(100)
        table = rate_table(pair75, ident, (0.0, 0.0))
        report = chernoff_bound_report(tree, table, n_floor=100)
        roots = {r.kind: r for r in report.roots}
        assert set(roots) == {"root_type1", "root_type0"}
        assert_allclose(roots["root_type1"].value, -0.051920518112945134, rtol=1e-9)

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
        assert report.roots == ()

    @pytest.mark.parametrize("n_floor", [100, 101])
    def test_root_rows_are_the_rows_of_root_kind(self, pair75, ident, n_floor):
        tree = TreeFamily("two_relay").generate(100)
        table = rate_table(pair75, ident, (0.0, 0.0))
        report = chernoff_bound_report(tree, table, n_floor=n_floor)
        expected = tuple(r for r in report.rows if r.kind.startswith("root_"))
        assert report.roots == expected
        assert len(expected) == (2 if n_floor == 100 else 0)

    @pytest.mark.parametrize("n_floor", [2.5, True, "3"])
    def test_n_floor_must_be_an_integer(self, pair75, ident, n_floor):
        tree = TreeFamily("two_relay").generate(3)
        table = rate_table(pair75, ident, (0.0, 0.0))
        with pytest.raises(InvalidParams, match="n_floor is"):
            chernoff_bound_report(tree, table, n_floor)

    @pytest.mark.parametrize("n_floor", [0, -3])
    def test_n_floor_must_be_positive(self, pair75, ident, n_floor):
        tree = TreeFamily("two_relay").generate(4)
        table = rate_table(pair75, ident, (0.0, 0.0))
        with pytest.raises(InvalidParams, match="^n_floor must be >= 1$"):
            chernoff_bound_report(tree, table, n_floor)

    def test_rows_match_node_by_node_loop(self, pair75, ident, make_rugged_tree):
        rng = np.random.default_rng(17)
        for _ in range(20):
            tree = uniformize(make_rugged_tree(rng, int(rng.integers(1, 5)))).tree
            table = rate_table(pair75, ident, (-0.2,) * tree.height)
            # counts from per-depth passes, not from the shape table
            _, leaves, nodes = subtree_counts_by_passes(tree)
            rows = []
            for v in np.flatnonzero(~tree.is_leaf):
                k = int(tree.height - tree.depth[v])
                ratio = nodes[v] / leaves[v]
                for kind, rate in (("type1", table.level1(k)), ("type0", table.level0(k))):
                    value = float(-rate + ratio - 1.0)
                    rows.append(BoundRow(int(v), k, int(leaves[v]), int(nodes[v]), kind, value))
            report = chernoff_bound_report(tree, table, n_floor=10**9)
            assert report.rows == tuple(rows)
            assert all(type(r.value) is float for r in report.rows)

    def test_table_height_must_match_the_tree(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(3)
        table = rate_table(pair75, ident, (0.0,))
        with pytest.raises(InvalidParams, match="^rate table has 1 levels, tree height is 2$"):
            chernoff_bound_report(tree, table, 1)

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


class TestDeadSymbol:
    def test_dead_symbol_changes_no_bit(self):
        # a symbol dead under both hypotheses carries no evidence
        with_dead = DistributionPair(
            Alphabet(("a", "x", "b", "c")),
            np.array([0.5, 0.0, 0.3, 0.2]),
            np.array([0.2, 0.0, 0.3, 0.5]),
        )
        live = DistributionPair(
            Alphabet(("a", "b", "c")), np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
        )
        results = []
        for pair in (with_dead, live):
            ident = identity_map(pair.alphabet)
            lo, hi = feasible_threshold_interval(pair, ident)
            t = recipe_threshold(pair, ident, 0.1)
            table = rate_table(pair, ident, (t,) * 3)
            values = (lo, hi, t, *table.rate0, *table.rate1)
            results.append([v.hex() for v in values])
        assert results[0] == results[1]

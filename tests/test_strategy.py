import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from treedet import (
    BINARY,
    Alphabet,
    EpsilonTooLarge,
    InfeasibleThreshold,
    InvalidParams,
    NotUniform,
    Strategy,
    TransmissionFunction,
    Tree,
    TreeFamily,
    and_gate,
    build_relay_strategy,
    exact_error_probs,
    np_calibrate_root,
    or_gate,
    root_sum_law,
    simple_strategy,
)

LOG3 = math.log(3.0)
D75 = 0.5493061443340549


class TestStrategyValidation:
    def test_threshold_count_must_match_height(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(3)
        with pytest.raises(InvalidParams):
            build_relay_strategy(tree, ident, (0.0,))

    def test_rejects_non_uniform_tree(self, pair75, ident):
        tree = TreeFamily("chain_plus_leaves", {"h": 2}).generate(6)
        with pytest.raises(NotUniform):
            build_relay_strategy(tree, ident, (0.0, 0.0))

    @pytest.mark.parametrize(
        "tree, thresholds, message",
        [
            (Tree([None]), (), "^tree must have at least one level$"),
            (TreeFamily("two_relay").generate(3), (), "^need 2 thresholds for a height-2 tree, got 0$"),
        ],
        ids=["one_node", "no_thresholds"],
    )
    def test_refusals_come_from_the_strategy_checks(self, ident, tree, thresholds, message):
        # an empty threshold list has no last entry to make the root threshold
        with pytest.raises(InvalidParams, match=message):
            build_relay_strategy(tree, ident, thresholds)

    def test_leaf_map_must_be_arity_zero(self):
        tree = TreeFamily("two_relay").generate(2)
        with pytest.raises(InvalidParams):
            Strategy(tree, or_gate(), (0.0, 0.0), 0.0)

    def test_gate_arity_must_match_fringe(self, ident):
        tree = TreeFamily("two_relay").generate(3)
        with pytest.raises(InvalidParams):
            build_relay_strategy(tree, ident, (0.0, 0.0), level1_gate=or_gate())

    def test_gate_arity_checked_on_every_fringe_shape(self, ident):
        # two fringe shapes, of degrees 2 and 3, under a two-input gate
        tree = Tree([-1, 0, 0, 1, 1, 2, 2, 2])
        with pytest.raises(InvalidParams, match="^gate arity 2 does not match every fringe degree$"):
            build_relay_strategy(tree, ident, (0.0, 0.0), level1_gate=or_gate())
        tree = Tree([-1, 0, 0, 1, 1, 2, 2])
        assert build_relay_strategy(tree, ident, (0.0, 0.0), level1_gate=or_gate()).tree is tree

    def test_gate_inputs_must_match_the_leaf_messages(self, pair75):
        # the leaf map sends "lo" and "hi"; an or gate reads 0 and 1
        table = {(0,): "lo", (1,): "hi"}
        gamma = TransmissionFunction(0, (BINARY,), Alphabet(("lo", "hi")), table)
        tree = TreeFamily("two_relay").generate(2)
        with pytest.raises(InvalidParams, match="^gate inputs must match the leaf message alphabet$"):
            build_relay_strategy(tree, gamma, (0.0, 0.0), level1_gate=or_gate())

    def test_gate_needs_two_levels(self, ident):
        tree = TreeFamily("parallel").generate(3)
        with pytest.raises(InvalidParams):
            build_relay_strategy(tree, ident, (0.0,), level1_gate=or_gate())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_thresholds_must_be_finite(self, ident, bad):
        tree = TreeFamily("two_relay").generate(2)
        with pytest.raises(InvalidParams, match="must be finite"):
            build_relay_strategy(tree, ident, (0.0, bad))
        # a gate ignores the first threshold, which must still be a number
        with pytest.raises(InvalidParams, match="must be finite"):
            build_relay_strategy(tree, ident, (bad, 0.0), level1_gate=or_gate())
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        with pytest.raises(InvalidParams, match="must be finite"):
            replace(s, root_threshold=bad)

    def test_feasibility_checked_with_pair(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(3)
        with pytest.raises(InfeasibleThreshold):
            build_relay_strategy(tree, ident, (0.0, 0.5), pair=pair75)
        # without the pair the same thresholds are accepted as-is
        s = build_relay_strategy(tree, ident, (0.0, 0.5))
        assert s.root_threshold == 0.5

    def test_threshold_lookup(self, ident):
        tree = TreeFamily("two_relay").generate(2)
        s = build_relay_strategy(tree, ident, (0.1, -0.2))
        assert s.threshold_at_level(1) == pytest.approx(0.1)
        assert s.threshold_at_level(2) == pytest.approx(-0.2)
        assert s.root_threshold == pytest.approx(-0.2)

    def test_to_json(self, ident):
        tree = TreeFamily("two_relay").generate(2)
        s = build_relay_strategy(tree, ident, (0.0, 0.0), level1_gate=and_gate())
        doc = json.loads(s.to_json())
        assert doc["thresholds"] == [0.0, 0.0]
        assert doc["root_threshold"] == 0.0
        assert "level1_gate" in doc


class TestSimpleStrategy:
    def test_recipe_threshold_everywhere(self, pair75, leaf_family):
        tree = TreeFamily("two_relay").generate(5)
        res = simple_strategy(tree, pair75, leaf_family, 0.2)
        s = res.strategy
        assert_allclose(s.thresholds[0], -D75 + 0.1, rtol=1e-13)
        assert s.thresholds == (s.thresholds[0],) * 2
        assert_allclose(res.parallel_exponent, -D75, rtol=1e-13)
        assert s.gamma(0) == 0 and s.gamma(1) == 1

    def test_uniformizes_rugged_input(self, pair75, leaf_family):
        tree = TreeFamily("chain_plus_leaves", {"h": 2}).generate(7)
        res = simple_strategy(tree, pair75, leaf_family, 0.2)
        assert res.strategy.tree.is_uniform
        assert int(res.strategy.tree.subtree_leaf_count[res.strategy.tree.root]) == int(
            tree.subtree_leaf_count[tree.root]
        )
        assert np.array_equal(res.strategy.tree.is_leaf[: tree.n], tree.is_leaf)

    def test_epsilon_too_large(self, pair75, leaf_family):
        tree = TreeFamily("two_relay").generate(3)
        with pytest.raises(EpsilonTooLarge):
            simple_strategy(tree, pair75, leaf_family, 0.6)

    def test_one_node_tree_is_refused(self, pair75, leaf_family):
        with pytest.raises(InvalidParams, match="^tree must have at least one level$"):
            simple_strategy(Tree([None]), pair75, leaf_family, 0.1)

    @pytest.mark.parametrize("epsilon", [-0.1, math.nan])
    def test_epsilon_must_be_positive(self, pair75, leaf_family, epsilon):
        tree = TreeFamily("two_relay").generate(3)
        with pytest.raises(InvalidParams, match="epsilon must be positive"):
            simple_strategy(tree, pair75, leaf_family, epsilon)


def first_admissible_by_scan(strategy, pair, alpha):
    """Reference calibration: scan the root atoms upward, one at a time."""
    values, logp0, _ = root_sum_law(strategy, pair)
    l_f = int(strategy.tree.subtree_leaf_count[strategy.tree.root])
    above = np.full(values.size, -np.inf)
    if values.size > 1:
        above[:-1] = np.logaddexp.accumulate(logp0[::-1])[::-1][1:]
    for i, s in enumerate(values):
        if np.exp(above[i]) <= alpha:
            return float(s) / l_f
    raise AssertionError("no admissible atom")


class TestCalibration:
    @pytest.mark.parametrize(
        "kind, params, size",
        [
            ("wide_uniform", {"m": 20}, 300),
            ("wide_uniform", {"m": 3}, 40),
            ("increasing_leaves", {}, 9),
            ("increasing_leaves", {}, 14),
        ],
    )
    def test_threshold_matches_atom_scan(self, pair75, leaf_family, kind, params, size):
        tree = TreeFamily(kind, params).generate(size)
        s = simple_strategy(tree, pair75, leaf_family, 0.1).strategy
        # alphas equal to an atom's null tail mass sit exactly on the boundary
        _, logp0, _ = root_sum_law(s, pair75)
        tails = np.exp(np.logaddexp.accumulate(logp0[::-1])[::-1][1:])
        on_atoms = tails[(tails > 0.0) & (tails < 1.0)]
        on_atoms = on_atoms[:: max(1, on_atoms.size // 20)].tolist()
        for alpha in [1e-9, 1e-4, 0.01, 0.05, 0.25, 0.5, 0.9, 0.999] + on_atoms:
            cal = np_calibrate_root(s, pair75, alpha)
            assert cal.root_threshold == first_admissible_by_scan(s, pair75, alpha)

    def test_two_leaf_star(self, pair75, ident):
        tree = TreeFamily("parallel").generate(3)
        s = build_relay_strategy(tree, ident, (0.0,))
        cal = np_calibrate_root(s, pair75, 0.1)
        assert cal.root_threshold == pytest.approx(0.0, abs=1e-15)
        est = exact_error_probs(cal, pair75)
        assert est.type_i == pytest.approx(0.0625, abs=1e-15)
        assert est.type_ii == pytest.approx(0.4375, abs=1e-15)

    def test_two_leaf_star_looser_alpha(self, pair75, ident):
        tree = TreeFamily("parallel").generate(3)
        s = build_relay_strategy(tree, ident, (0.0,))
        cal = np_calibrate_root(s, pair75, 0.5)
        assert cal.root_threshold == pytest.approx(-LOG3, rel=1e-14)
        est = exact_error_probs(cal, pair75)
        assert est.type_i == pytest.approx(0.4375, abs=1e-15)
        assert est.type_ii == pytest.approx(0.0625, abs=1e-15)

    def test_calibrated_type_i_never_exceeds_alpha(self, pair75, leaf_family):
        rng = np.random.default_rng(42)
        for _ in range(15):
            m = int(rng.integers(2, 9))
            tree = TreeFamily("two_relay").generate(m)
            eps = float(rng.uniform(0.05, 0.45))
            alpha = float(rng.uniform(0.05, 0.5))
            s = simple_strategy(tree, pair75, leaf_family, eps).strategy
            cal = np_calibrate_root(s, pair75, alpha)
            est = exact_error_probs(cal, pair75)
            assert est.type_i <= alpha + 1e-12

    def test_calibration_is_tight(self, pair75, ident):
        # raising the threshold to the next lower atom must break alpha
        tree = TreeFamily("parallel").generate(6)
        s = build_relay_strategy(tree, ident, (0.0,))
        alpha = 0.25
        cal = np_calibrate_root(s, pair75, alpha)
        from treedet import root_sum_law

        values, logp0, _ = root_sum_law(s, pair75)
        l_f = 5
        atoms = values / l_f
        below = atoms[atoms < cal.root_threshold - 1e-12]
        if below.size:
            import dataclasses

            worse = dataclasses.replace(cal, root_threshold=float(below[-1]))
            assert exact_error_probs(worse, pair75).type_i > alpha

    @pytest.mark.parametrize("alpha", [1e-300, 5e-324])
    def test_tiny_alpha_takes_the_top_atom(self, pair75, ident, alpha):
        # no null mass lies above the top atom, so it is admissible at any alpha
        tree = TreeFamily("parallel").generate(5)
        s = build_relay_strategy(tree, ident, (0.0,))
        cal = np_calibrate_root(s, pair75, alpha)
        assert cal.root_threshold == pytest.approx(LOG3, rel=1e-14)
        assert exact_error_probs(cal, pair75).type_i == 0.0

    def test_alpha_range(self, pair75, ident):
        tree = TreeFamily("parallel").generate(3)
        s = build_relay_strategy(tree, ident, (0.0,))
        with pytest.raises(InvalidParams):
            np_calibrate_root(s, pair75, 0.0)
        with pytest.raises(InvalidParams):
            np_calibrate_root(s, pair75, 1.0)

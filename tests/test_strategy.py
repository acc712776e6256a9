import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import llr_law
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
import treedet.evaluate as ev

LOG3 = math.log(3.0)
D75 = 0.5493061443340549


class TestStrategyValidation:
    def test_threshold_count_must_match_height(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(3)
        with pytest.raises(InvalidParams):
            build_relay_strategy(tree, ident, (0.0,))

    def test_rejects_non_uniform_tree(self, pair75, ident, leaf_family):
        # the builder uniformizes, as the recipe does; Strategy itself refuses
        tree = TreeFamily("chain_plus_leaves", {"h": 2}).generate(6)
        built = build_relay_strategy(tree, ident, (0.0, 0.0)).tree
        recipe = simple_strategy(tree, pair75, leaf_family, 0.2).strategy.tree
        assert built.is_uniform
        assert built.parents.tolist() == recipe.parents.tolist()
        with pytest.raises(NotUniform):
            Strategy(tree=tree, gamma=ident, thresholds=(0.0, 0.0), root_threshold=0.0)

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
        assert s.thresholds[0] == pytest.approx(0.1)
        assert s.thresholds[1] == pytest.approx(-0.2)
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


# the trees of the calibration scans: a binomial root, a small one, and
# increasing_leaves roots of 2^9 and 2^14 atoms
SCAN_TREES = [
    ("wide_uniform", {"m": 20}, 300),
    ("wide_uniform", {"m": 3}, 40),
    ("increasing_leaves", {}, 9),
    ("increasing_leaves", {}, 14),
]


def reported_type_i(strategy, pair, threshold):
    """The type I exact_error_probs reports at a root threshold, on the
    strategy's laws."""
    probe = replace(strategy, root_threshold=threshold)
    probe._laws.update(strategy._laws)
    return exact_error_probs(probe, pair).type_i


@pytest.fixture(scope="module", params=SCAN_TREES, ids=lambda c: f"{c[0]}-{c[2]}")
def atom_scan(request, pair75, leaf_family):
    """(strategy, root atom thresholds, reported type I at each), the type I
    taken once per split index: the count of atoms the threshold sends low."""
    kind, params, size = request.param
    s = simple_strategy(TreeFamily(kind, params).generate(size), pair75, leaf_family, 0.1).strategy
    l_f = int(s.tree.shape_counts.leaf_count[-1])
    thresholds = root_sum_law(s, pair75)[0] / l_f
    split = np.searchsorted(thresholds, thresholds, side="right")
    # exact_error_probs reads the null mass sent high through _root_tails, as
    # this does, so a scan of 2^14 atoms needs no strategy per atom; a spread
    # of atoms pins that
    ctx = ev._context_for(s, pair75)
    at = dict(zip(split.tolist(), thresholds.tolist()))
    by_split = {k: float(np.exp(min(ev._root_tails(ctx, l_f, t)[1], 0.0))) for k, t in at.items()}
    type_i = np.array([by_split[k] for k in split.tolist()])
    for i in np.linspace(0, thresholds.size - 1, 25).astype(int).tolist():
        assert type_i[i] == reported_type_i(s, pair75, float(thresholds[i]))
    return s, thresholds, type_i


def first_admissible_by_scan(thresholds, type_i, alpha):
    """Reference calibration: scan the root atoms upward, one at a time, for
    the first whose reported type I is within alpha."""
    for t, p in zip(thresholds.tolist(), type_i.tolist()):
        if p <= alpha:
            return t
    raise AssertionError("no admissible atom")


class TestCalibration:
    def test_threshold_matches_atom_scan(self, pair75, atom_scan):
        s, thresholds, type_i = atom_scan
        # alphas equal to an atom's reported type I sit exactly on the boundary
        on_atoms = type_i[(type_i > 0.0) & (type_i < 1.0)]
        on_atoms = on_atoms[:: max(1, on_atoms.size // 20)].tolist()
        for alpha in [1e-9, 1e-4, 0.01, 0.05, 0.25, 0.5, 0.9, 0.999] + on_atoms:
            cal = np_calibrate_root(s, pair75, alpha)
            assert cal.root_threshold == first_admissible_by_scan(thresholds, type_i, alpha)

    def test_reported_type_i_settles_every_tail(self, pair75, atom_scan):
        # alpha on each root tail and one ulp either side: the calibrated
        # threshold's reported type I is within alpha, with no slack, and the
        # next lower atom's is not.  Every 64th tail of the 2^14-atom root
        s, thresholds, type_i = atom_scan
        tails = type_i[(type_i > 0.0) & (type_i < 1.0)][:: 1 if thresholds.size < 2**12 else 64]
        alphas = np.concatenate([tails, np.nextafter(tails, 0.0), np.nextafter(tails, 1.0)])
        for alpha in alphas.tolist():
            cal = np_calibrate_root(s, pair75, alpha)
            assert exact_error_probs(cal, pair75).type_i <= alpha
            i = int(np.searchsorted(thresholds, cal.root_threshold, side="left"))
            assert thresholds[i] == cal.root_threshold
            assert i == 0 or type_i[i - 1] > alpha

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
            assert est.type_i <= alpha

    def test_runs_of_massless_atoms_keep_the_contract(self, pair75, ident):
        # root laws with long runs of atoms of no null mass, set in place of the
        # strategy's: along a run the reported type I is flat or off by ulps,
        # and at alpha on a tail, or an ulp off, each calibration still lands
        # on an atom within alpha whose next lower atom is not
        rng = np.random.default_rng(5)
        s = build_relay_strategy(TreeFamily("parallel").generate(4), ident, (0.0,))
        for _ in range(20):
            n = int(rng.integers(2, 3000))
            p0 = rng.dirichlet(np.full(n, rng.choice([0.05, 1.0])))
            a, b = np.sort(rng.integers(0, n, 2))
            p0[a:b] = 0.0
            with np.errstate(divide="ignore"):
                law = llr_law(np.arange(n) * 0.37, np.log(p0 / p0.sum()))
            s._laws[pair75] = ev._LawContext([None], [None], (ev._ZERO, law))
            thresholds = law.values / int(s.tree.shape_counts.leaf_count[-1])
            tails = [reported_type_i(s, pair75, t) for t in rng.choice(thresholds, 5).tolist()]
            alphas = np.array([t for t in tails if 0.0 < t < 1.0])
            near = [alphas, np.nextafter(alphas, 0.0), np.nextafter(alphas, 1.0)]
            for alpha in np.concatenate(near).tolist():
                cal = np_calibrate_root(s, pair75, alpha)
                i = int(np.searchsorted(thresholds, cal.root_threshold))
                assert reported_type_i(s, pair75, cal.root_threshold) <= alpha
                assert i == 0 or reported_type_i(s, pair75, float(thresholds[i - 1])) > alpha

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

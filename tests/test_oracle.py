"""Brute-force oracle for exact and Monte Carlo evaluation.

The oracle enumerates every joint leaf observation of a small height-uniform
tree and pushes each one through the strategy node by node.  A relay's
message value is the log-likelihood ratio of the message it sent, read off
the enumerated masses of its own messages, so no law is convolved or merged
on the way.  Both error probabilities are then plain sums of observation
masses.  Relay thresholds that some enumerated sum lies within ``TIE_GAP``
of are discarded, and root thresholds are placed at least ``TIE_GAP`` from
every root sum, so the oracle's summation order never decides a tie; ties
are covered by ``TestMonteCarlo::test_matches_exact``.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import count_gate
from treedet import (
    BINARY,
    Alphabet,
    DistributionPair,
    Tree,
    and_gate,
    build_relay_strategy,
    exact_error_probs,
    forward_first_gate,
    identity_map,
    monte_carlo_error,
    or_gate,
    xor_gate,
)

# leaf log-likelihood ratios -a, 0 and a, so sums coincide and laws merge atoms
COMMENSURATE = DistributionPair(
    Alphabet(("a", "b", "c")), np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
)
# the count gate's three-atom law takes Monte Carlo's CDF-search draw
GATES = {
    "or": or_gate(),
    "and": and_gate(),
    "xor": xor_gate(),
    "forward": forward_first_gate(),
    "count": count_gate(),
}
LEAF_CAP = {2: 16, 3: 10}
TIE_GAP = 1e-9
MC_TRIALS = 20_000
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def _message_llr(message, mass0, mass1):
    """Per observation, the log-likelihood ratio of the message it produced."""
    _, inverse = np.unique(message, return_inverse=True)
    p0 = np.bincount(inverse, weights=mass0)
    p1 = np.bincount(inverse, weights=mass1)
    return (np.log(p1) - np.log(p0))[inverse]


def oracle(tree, pair, thresholds, gate=None):
    """Root sums of every joint observation, their masses under both
    hypotheses, and how close any relay's normalized sum came to its
    threshold."""
    h = tree.height
    leaves = tree.leaves
    k = len(pair.alphabet)
    obs = np.indices((k,) * leaves.size).reshape(leaves.size, -1)
    mass0 = np.prod(pair.p0[obs], axis=0)
    mass1 = np.prod(pair.p1[obs], axis=0)
    llr = np.log(pair.p1) - np.log(pair.p0)
    symbol = dict(zip(leaves.tolist(), obs))
    value = {v: llr[s] for v, s in symbol.items()}
    if gate is not None:
        lut = np.array([[gate(a, b) for b in BINARY] for a in BINARY])
    closest = math.inf
    for d in range(h - 1, -1, -1):
        level = h - d
        for v in tree.nodes_at_depth(d).tolist():
            kids = tree.children(v).tolist()
            if level == 1 and gate is not None:
                out = lut[symbol[kids[0]], symbol[kids[1]]]
                value[v] = _message_llr(out, mass0, mass1)
                continue
            total = sum(value[c] for c in kids)
            if d == 0:
                return total, mass0, mass1, closest
            normalized = total / int(tree.subtree_leaf_count[v])
            t = thresholds[level - 1]
            closest = min(closest, float(np.abs(normalized - t).min()))
            value[v] = _message_llr(normalized <= t, mass0, mass1)


@st.composite
def uniform_trees(draw, leaf_cap, fringe_degree=None):
    """Height-uniform trees of at most ``leaf_cap`` leaves; a fixed
    ``fringe_degree`` fits a gate of that arity."""
    h = draw(st.integers(2 if fringe_degree else 1, 3))
    degrees = {1: [(2, leaf_cap)], 2: [(1, 4), (1, 4)], 3: [(1, 2), (1, 2), (1, 4)]}[h]
    parents, frontier = [-1], [0]
    for d in range(h):
        nxt = []
        for v in frontier:
            if fringe_degree and d == h - 1:
                k = fringe_degree
            else:
                k = draw(st.integers(*degrees[d]))
            nxt += range(len(parents), len(parents) + k)
            parents += [v] * k
        frontier = nxt
    assume(len(frontier) <= leaf_cap)
    return Tree(parents)


@st.composite
def random_pairs(draw, k):
    weights = st.floats(0.05, 1.0)
    p0 = np.array([draw(weights) for _ in range(k)])
    p1 = np.array([draw(weights) for _ in range(k)])
    alphabet = BINARY if k == 2 else COMMENSURATE.alphabet
    return DistributionPair(alphabet, p0 / p0.sum(), p1 / p1.sum())


PAIRS = st.one_of(st.just(COMMENSURATE), random_pairs(2), random_pairs(3))
THRESHOLDS = st.floats(-3.0, 3.0)


def _check_against_oracle(data, strategy, pair, oracle_out):
    root_sums, mass0, mass1, closest = oracle_out
    assume(closest >= TIE_GAP)
    l_f = int(strategy.tree.subtree_leaf_count[strategy.tree.root])
    atoms = np.unique(root_sums / l_f)
    wide = np.diff(atoms) > 2.0 * TIE_GAP
    candidates = np.concatenate(
        ([atoms[0] - 1.0], ((atoms[:-1] + atoms[1:]) / 2.0)[wide], [atoms[-1] + 1.0])
    )
    picks = data.draw(
        st.lists(st.sampled_from(candidates.tolist()), min_size=1, max_size=3, unique=True)
    )
    seed = data.draw(st.integers(0, 2**63 - 1))
    for i, t in enumerate(picks):
        at_t = replace(strategy, root_threshold=t)
        alt = root_sums / l_f > t
        # a sum of all the masses can overshoot 1 by an ulp
        type_i = min(float(mass0[alt].sum()), 1.0)
        type_ii = min(float(mass1[~alt].sum()), 1.0)
        est = exact_error_probs(at_t, pair)
        assert math.isclose(est.type_i, type_i, rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(est.type_ii, type_ii, rel_tol=1e-12, abs_tol=0.0)
        if i == 0:
            mc = monte_carlo_error(at_t, pair, trials=MC_TRIALS, seed=seed)
            for p, q in ((type_i, mc.type_i), (type_ii, mc.type_ii)):
                se = math.sqrt(p * (1.0 - p) / MC_TRIALS)
                assert abs(p - q) <= 4.5 * se


@SETTINGS
@given(st.data(), PAIRS)
def test_threshold_relays_match_oracle(data, pair):
    tree = data.draw(uniform_trees(LEAF_CAP[len(pair.alphabet)]))
    h = tree.height
    thresholds = [data.draw(THRESHOLDS) for _ in range(h - 1)] + [0.0]
    strategy = build_relay_strategy(tree, identity_map(pair.alphabet), thresholds)
    _check_against_oracle(data, strategy, pair, oracle(tree, pair, thresholds))


@SETTINGS
@given(st.data(), random_pairs(2), st.sampled_from(sorted(GATES)))
def test_gated_fringes_match_oracle(data, pair, gate_name):
    gate = GATES[gate_name]
    tree = data.draw(uniform_trees(LEAF_CAP[2], fringe_degree=gate.arity))
    h = tree.height
    # the level-1 threshold is ignored under a gate
    thresholds = [0.0] + [data.draw(THRESHOLDS) for _ in range(h - 2)] + [0.0]
    strategy = build_relay_strategy(
        tree, identity_map(pair.alphabet), thresholds, level1_gate=gate
    )
    _check_against_oracle(data, strategy, pair, oracle(tree, pair, thresholds, gate))

import numpy as np
import pytest

from treedet import (
    BINARY,
    Alphabet,
    MessageLaw,
    Tree,
    TransmissionFunction,
    all_binary_leaf_family,
    bernoulli_pair,
    identity_map,
)


@pytest.fixture(scope="session")
def pair75():
    return bernoulli_pair(0.75)


@pytest.fixture(scope="session")
def ident(pair75):
    return identity_map(pair75.alphabet)


@pytest.fixture(scope="session")
def leaf_family(pair75):
    return all_binary_leaf_family(pair75.alphabet)


def llr_law(values, logp0):
    """The law of null log masses ``logp0`` on ``values`` less the constant that
    makes each atom the log-likelihood ratio of its masses, so that the
    alternative's masses p0 e^v total one; the gaps between atoms stay."""
    values = np.asarray(values, dtype=float)
    return MessageLaw(values - np.logaddexp.reduce(logp0 + values), logp0)


def count_gate():
    """Two-input gate that sends its count of ones: a three-atom gate law."""
    table = {(a, b): a + b for a in BINARY for b in BINARY}
    return TransmissionFunction(2, (BINARY, BINARY), Alphabet((0, 1, 2)), table, name="count")


def build_uniform_tree(rng, height, lo=2, hi=6):
    """Random height-uniform tree; every node gets lo..hi-1 children."""
    parents = [-1]
    frontier = [0]
    for _ in range(height):
        nxt = []
        for v in frontier:
            for _ in range(int(rng.integers(lo, hi))):
                parents.append(v)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return Tree(parents)


def build_regular_tree(rng, height, leaf_cap):
    """Random tree with one child count per depth, product of counts capped.

    Same-level nodes share a subtree shape, so exact message laws stay
    polynomially sized even when levels are wide.
    """
    degrees = []
    budget = leaf_cap
    for d in range(height):
        rest = 2 ** (height - d - 1)
        c = int(rng.integers(2, max(3, budget // rest + 1)))
        degrees.append(c)
        budget //= c
    parents = [-1]
    frontier = [0]
    for c in degrees:
        nxt = []
        for v in frontier:
            for _ in range(c):
                parents.append(v)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return Tree(parents)


def build_rugged_tree(rng, max_height):
    """Random tree with leaves at mixed depths.

    The root keeps at least two children and one branch always reaches
    max_height, so the result is connected and genuinely non-uniform
    whenever any other branch stops early.
    """
    parents = [-1]
    frontier = [0]
    for d in range(max_height):
        nxt = []
        for i, v in enumerate(frontier):
            forced = 1 if (d == 0 or i == 0) else 0
            k = max(forced, int(rng.integers(0, 4)))
            if d == 0:
                k = max(k, 2)
            for _ in range(k):
                parents.append(v)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return Tree(parents)


def subtree_counts_by_passes(tree):
    """Reference per-node subtree height, leaf count and proper-descendant
    count: one pass per depth from the bottom, each node adding to its parent.
    Reads no shape table."""
    level = np.zeros(tree.n, dtype=np.int64)
    leaves = tree.is_leaf.astype(np.int64)
    nodes = np.zeros(tree.n, dtype=np.int64)
    for d in range(tree.height, 0, -1):
        at_d = tree.nodes_at_depth(d)
        up = tree.parents[at_d]
        np.maximum.at(level, up, level[at_d] + 1)
        np.add.at(leaves, up, leaves[at_d])
        np.add.at(nodes, up, nodes[at_d] + 1)
    return level, leaves, nodes


@pytest.fixture
def make_uniform_tree():
    return build_uniform_tree


@pytest.fixture
def make_rugged_tree():
    return build_rugged_tree

from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subtree_counts_by_passes
from treedet import (
    InputError,
    InvalidParams,
    Tree,
    TreeFamily,
    analyze_tree,
    estimate_z,
    uniformize,
)
from treedet.topology import _TableTree

BAD_PARENTS = {
    "no_root": [1, 0],
    "two_roots": [-1, -1, 0],
    "out_of_range": [-1, 5],
    "cycle": [-1, 2, 1],
}

# parents[0] is the root; each list holds a cycle, some with a tail hanging
# off it, that never reaches the root
DETACHED_CYCLES = {
    "self_loop": [-1, 1],
    "two_cycle_with_tail": [-1, 2, 1, 1, 3],
    "three_cycle": [-1, 2, 3, 1],
    "four_cycle": [-1, 2, 3, 4, 1],
    "eight_cycle_with_long_tail": [-1, *range(2, 9), 1, 8, *range(9, 200)],
    "beside_a_chain": [-1, *range(0, 99), 101, 100],
}


def depth_by_passes(parents, root):
    """Reference depths: one pass over all nodes per resolved depth."""
    parents = np.asarray(parents)
    depth = np.full(parents.size, -1, dtype=np.int64)
    depth[root] = 0
    safe_parents = np.where(parents >= 0, parents, root)
    while True:
        ready = (depth < 0) & (depth[safe_parents] >= 0)
        if not ready.any():
            return depth
        depth[ready] = depth[safe_parents[ready]] + 1


def per_node_by_bincount(tree):
    """Reference child counts, leaf mask, leaf parents and fringe, from
    ``parents`` alone: a ``bincount`` of children and one of leaf children."""
    parents = tree.parents
    n_children = np.bincount(parents[parents >= 0], minlength=tree.n)
    is_leaf = (n_children == 0) & (np.arange(tree.n) != tree.root)
    leaf_children = np.bincount(parents[is_leaf], minlength=tree.n)
    fringe = np.flatnonzero((n_children > 0) & (leaf_children == n_children))
    return n_children, is_leaf, np.flatnonzero(leaf_children), fringe


def unchecked_tree(parents):
    """A Tree that skips the constructor's checks, to read its depth."""
    t = Tree.__new__(Tree)
    t._parents = np.asarray(parents, dtype=np.int64)
    t._root = 0
    return t


class TestTreeValidation:
    def test_needs_exactly_one_root(self):
        with pytest.raises(InputError):
            Tree([1, 0])
        with pytest.raises(InputError):
            Tree([-1, -1, 0])

    def test_parent_out_of_range(self):
        with pytest.raises(InputError):
            Tree([-1, 5])

    def test_detached_cycle(self):
        with pytest.raises(InputError):
            Tree([-1, 2, 1])

    @pytest.mark.parametrize("parents", DETACHED_CYCLES.values(), ids=DETACHED_CYCLES)
    def test_detached_cycles_raise(self, parents):
        with pytest.raises(InputError, match="disconnected or contains a cycle"):
            Tree(parents)
        depth = unchecked_tree(parents).depth
        assert np.array_equal(depth, depth_by_passes(parents, 0))
        assert (depth < 0).any()

    @pytest.mark.parametrize("parents", [5, []], ids=["scalar", "empty"])
    def test_parents_must_be_a_non_empty_sequence(self, parents):
        with pytest.raises(InputError, match="^parents must be a non-empty 1-d sequence$"):
            Tree(parents)

    def test_declared_root_must_match(self):
        with pytest.raises(InputError):
            Tree([-1, 0], root=1)
        with pytest.raises(InputError):
            Tree(np.array([-1, 0]), root=1)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("parents", BAD_PARENTS.values(), ids=BAD_PARENTS)
    def test_ndarray_rejects_what_lists_reject(self, parents, dtype):
        with pytest.raises(InputError):
            Tree(parents)
        with pytest.raises(InputError):
            Tree(np.array(parents, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_ndarray_input_is_copied(self, dtype):
        parents = np.array([-1, 0, 0, 1], dtype=dtype)
        t = Tree(parents)
        parents[3] = 2
        assert t.parents.tolist() == [-1, 0, 0, 1]
        assert t.parents.dtype == np.int64
        assert not np.shares_memory(t.parents, parents)
        assert np.array_equal(t.parents, Tree([None, 0, 0, 1]).parents)


class TestTreeStructure:
    def test_two_relay_layout(self):
        t = TreeFamily("two_relay").generate(3)
        assert t.n == 9
        assert t.height == 2
        assert t.root == 0
        assert list(t.children(0)) == [1, 2]
        assert int(t.subtree_leaf_count[t.root]) == 6
        assert int(t.subtree_node_count[t.root]) == 8
        assert list(t.fringe) == [1, 2]
        assert t.is_uniform
        # the two relays are structurally identical
        assert t.shape_ids[1] == t.shape_ids[2]

    def test_nodes_at_depth_are_sorted(self, make_uniform_tree):
        rng = np.random.default_rng(42)
        for _ in range(10):
            t = make_uniform_tree(rng, int(rng.integers(1, 4)))
            for d in range(t.height + 1):
                ids = t.nodes_at_depth(d)
                assert np.all(np.diff(ids) > 0)
                assert np.all(t.depth[ids] == d)

    def test_leaf_bookkeeping(self, make_rugged_tree):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = make_rugged_tree(rng, 3)
            n_children, is_leaf, _, _ = per_node_by_bincount(t)
            assert np.array_equal(t.n_children, n_children)
            assert np.array_equal(t.is_leaf, is_leaf)
            assert np.array_equal(t.leaves, np.flatnonzero(is_leaf))
            assert int(t.is_leaf.sum()) == len(t.leaves)
            # every leaf has a parent in leaf_parents
            assert set(t.parents[t.leaves]) == set(t.leaf_parents)

    def test_leaf_parents_and_fringe_match_sorting(self, make_rugged_tree):
        rng = np.random.default_rng(19)
        for _ in range(40):
            t = make_rugged_tree(rng, int(rng.integers(1, 6)))
            n_children, is_leaf, _, _ = per_node_by_bincount(t)
            expected = np.unique(t.parents[is_leaf])
            assert t.leaf_parents.dtype == expected.dtype
            assert np.array_equal(t.leaf_parents, expected)
            fringe = [v for v in range(t.n) if n_children[v] and is_leaf[t.children(v)].all()]
            assert np.array_equal(t.fringe, fringe)
        single = Tree([None])
        assert single.leaf_parents.size == 0 and single.fringe.size == 0

    def test_depth_matches_one_pass_per_level(self, make_rugged_tree):
        rng = np.random.default_rng(23)
        for _ in range(40):
            t = make_rugged_tree(rng, int(rng.integers(1, 6)))
            assert np.array_equal(t.depth, depth_by_passes(t.parents, t.root))
        chain = TreeFamily("chain_plus_leaves", {"h": 8000}).generate(8010)
        assert chain.n == 8010 and chain.height == 8000
        assert np.array_equal(chain.depth, depth_by_passes(chain.parents, chain.root))
        assert Tree([None]).depth.tolist() == [0]

    def test_json_round_trip(self):
        t = TreeFamily("increasing_leaves").generate(4)
        u = Tree.from_json(t.to_json())
        assert u.n == t.n
        assert np.array_equal(u.parents, t.parents)

    def test_from_json_rejects_bad_docs(self):
        for doc in (
            '{"n": 3, "parents": [null, 0]}',
            '{"n": 2, "parents": [null, "a"]}',
            '{"n": 2, "parents": 5}',
            '{"n": 3, "parents": [null, 0.5, 0.9]}',
            '{"n": 2, "parents": [null, true]}',
            '{"n": "2", "parents": [null, 0]}',
            '{"n": 2, "parents": [null, 0], "root": 0.5}',
            '{"n": 2, "parents": [null, 0], "root": "0"}',
        ):
            with pytest.raises(InputError):
                Tree.from_json(doc)


def shape_ids_by_node(tree):
    """Reference AHU interning: one node at a time, depth by depth from the
    bottom, in node-id order within a depth.  Returns the ids and the
    interned child keys in id order, led by the leaf's (), each key as
    (child id, count) runs in ascending child id."""
    shape = np.zeros(tree.n, dtype=np.int64)
    interned = {}
    for d in range(tree.height - 1, -1, -1):
        for v in tree.nodes_at_depth(d):
            kids = tree.children(v)
            if kids.size == 0:
                continue
            key = tuple(sorted(Counter(shape[kids].tolist()).items()))
            shape[v] = interned.setdefault(key, len(interned) + 1)
    return shape, ((),) + tuple(interned)


def assert_shapes_match_reference(tree):
    shape, table = shape_ids_by_node(tree)
    assert np.array_equal(tree.shape_ids, shape)
    assert tree.shape_children == table


# parents[i] < i, so every list drawn here is a valid tree
recursive_trees = st.lists(st.integers(0, 10**6), max_size=80).map(
    lambda xs: Tree([-1] + [x % (i + 1) for i, x in enumerate(xs)])
)


class TestShapeIds:
    def test_rugged_trees(self, make_rugged_tree):
        rng = np.random.default_rng(5)
        for _ in range(40):
            t = make_rugged_tree(rng, int(rng.integers(1, 6)))
            assert_shapes_match_reference(t)

    @pytest.mark.parametrize("n", range(1, 22))
    def test_increasing_leaves(self, n):
        t = TreeFamily("increasing_leaves").generate(n)
        assert_shapes_match_reference(t)

    @pytest.mark.parametrize("m, relays", [(1, 1), (1, 7), (3, 5), (20, 300)])
    def test_wide_uniform(self, m, relays):
        t = TreeFamily("wide_uniform", {"m": m}).generate(relays)
        assert_shapes_match_reference(t)

    @pytest.mark.parametrize("size", [1, 2, 9])
    def test_two_relay(self, size):
        assert_shapes_match_reference(TreeFamily("two_relay").generate(size))

    @pytest.mark.parametrize("size", [2, 3, 9])
    def test_parallel(self, size):
        assert_shapes_match_reference(TreeFamily("parallel").generate(size))

    def test_root_with_mixed_degree_children(self):
        # root children 1..6 of degrees 3, 1, 0, 2, 1, 3; children 2 and 5
        # are both two-edge chains, children 1 and 6 differ one level down
        t = Tree(
            [-1, 0, 0, 0, 0, 0, 0]
            + [1, 1, 1, 2, 4, 4, 5, 6, 6, 6]
            + [7, 7, 10, 13]
        )
        assert_shapes_match_reference(t)
        assert t.shape_ids[2] == t.shape_ids[5]
        assert t.shape_ids[1] != t.shape_ids[6]

    @settings(max_examples=200, deadline=None)
    @given(recursive_trees)
    def test_random_recursive_trees(self, t):
        assert_shapes_match_reference(t)
        assert_counts_match_passes(t)

    def test_table_holds_each_shapes_children_as_runs(self):
        # root children: a relay over two leaves, a relay over one, a leaf
        t = Tree([-1, 0, 0, 0, 1, 1, 2])
        assert t.shape_children == ((), ((0, 2),), ((0, 1),), ((0, 1), (1, 1), (2, 1)))

    def test_table_size_does_not_depend_on_the_relay_count(self):
        t = TreeFamily("wide_uniform", {"m": 20}).generate(10**5)
        assert t.shape_children == ((), ((0, 20),), ((1, 100000),))


    def test_from_json_names_the_parse_error(self):
        with pytest.raises(
            InputError,
            match="^malformed tree document: Expecting property name enclosed in double quotes",
        ):
            Tree.from_json("{")


class TestGenerators:
    def test_parallel_counts_nodes(self):
        t = TreeFamily("parallel").generate(5)
        assert t.n == 5
        assert len(t.leaves) == 4
        assert t.height == 1

    def test_wide_uniform_by_relays(self):
        t = TreeFamily("wide_uniform", {"m": 4}).generate(16)
        assert t.height == 2
        assert len(t.fringe) == 16
        assert int(t.subtree_leaf_count[t.root]) == 64

    def test_wide_uniform_by_m(self):
        t = TreeFamily("wide_uniform", {"m": 5}).generate(3)
        assert len(t.fringe) == 3
        assert int(t.subtree_leaf_count[t.root]) == 15

    def test_wide_uniform_needs_m_and_reads_nothing_else(self):
        with pytest.raises(InvalidParams) as exc:
            TreeFamily("wide_uniform", {"n_relays": 3})
        assert str(exc.value).endswith("does not read ['n_relays']; it accepts ['m']")
        with pytest.raises(InvalidParams, match="missing parameter 'm'"):
            TreeFamily("wide_uniform").generate(3)

    def test_increasing_leaves_sizes(self):
        m = 6
        t = TreeFamily("increasing_leaves").generate(m)
        lcount = t.subtree_leaf_count
        relays = sorted(int(v) for v in t.fringe)
        assert [int(lcount[v]) for v in relays] == [i + 1 for i in range(1, m + 1)]
        assert int(lcount[t.root]) == m * (m + 3) // 2

    def test_chain_plus_leaves_is_rugged(self):
        t = TreeFamily("chain_plus_leaves", {"h": 3}).generate(9)
        assert t.height == 3
        assert not t.is_uniform

    @pytest.mark.parametrize("size", [2.7, True, "5"])
    def test_size_must_be_an_integer(self, size):
        with pytest.raises(InvalidParams, match="size is"):
            TreeFamily("wide_uniform", {"m": 2}).generate(size)

    @pytest.mark.parametrize(
        "kind, params, size, message",
        [
            ("parallel", {}, 1, "parallel tree needs at least 2 nodes"),
            ("chain_plus_leaves", {"h": 0}, 5, "height must be >= 1"),
            ("chain_plus_leaves", {"h": 3}, 4, "need at least 5 nodes for height 3"),
            ("two_relay", {}, 0, "need at least one leaf per relay"),
            ("wide_uniform", {"m": 0}, 3, "leaves per relay and relay count must be >= 1"),
            ("increasing_leaves", {}, 0, "need at least one relay"),
        ],
        ids=["parallel", "chain_height", "chain_size", "two_relay", "wide_uniform",
             "increasing_leaves"],
    )
    def test_size_and_parameter_refusals(self, kind, params, size, message):
        with pytest.raises(InvalidParams, match=f"^{message}$"):
            TreeFamily(kind, params).generate(size)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            TreeFamily("mystery").generate(3)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("wide_uniform", {"m": 3, "n_relay": 1}, "['n_relay']; it accepts ['m']"),
            ("two_relay", {"m": 3}, "['m']; it accepts no parameters"),
            ("parallel", {"n": 3}, "['n']; it accepts no parameters"),
            ("increasing_leaves", {"m": 3}, "['m']; it accepts no parameters"),
            ("chain_plus_leaves", {"h": 2, "height": 2}, "['height']; it accepts ['h']"),
        ],
    )
    def test_rejects_parameters_its_kind_does_not_read(self, kind, params, message):
        with pytest.raises(InvalidParams) as exc:
            TreeFamily(kind, params)
        assert str(exc.value) == f"family {kind!r} does not read {message}"


# every family over a size grid that starts at its smallest tree
FAMILY_GRID = [
    *(("parallel", {}, size) for size in (2, 3, 9)),
    *(("two_relay", {}, size) for size in (1, 2, 6)),
    *(("wide_uniform", {"m": m}, size) for m in (1, 3) for size in (1, 2, 7)),
    *(("increasing_leaves", {}, size) for size in (1, 2, 3, 12)),
    *(("chain_plus_leaves", {"h": 2}, size) for size in (4, 9)),
]


def assert_matches_the_tree_its_parents_derive(t):
    ref = Tree(t.parents.copy())
    assert t.root == ref.root and t.height == ref.height
    for d in range(ref.height + 1):
        assert np.array_equal(t.nodes_at_depth(d), ref.nodes_at_depth(d))
    for name in (
        "depth",
        "n_children",
        "is_leaf",
        "leaves",
        "leaf_parents",
        "fringe",
        "is_uniform",
        "shape_ids",
        "subtree_leaf_count",
        "subtree_node_count",
    ):
        assert np.array_equal(getattr(t, name), getattr(ref, name)), name
    assert t.shape_children == ref.shape_children


class TestFamilyLayout:
    @pytest.mark.parametrize("kind, params, size", FAMILY_GRID)
    def test_matches_the_tree_its_parents_derive(self, kind, params, size):
        assert_matches_the_tree_its_parents_derive(TreeFamily(kind, params).generate(size))

    def test_a_leaf_above_the_last_depth_is_not_uniform(self):
        # the root's runs: a leaf, then a relay over one leaf (shape 1)
        t = _TableTree(((), ((0, 1),), ((0, 1), (1, 1))))
        assert t.parents.tolist() == [-1, 0, 0, 2]
        assert not t.is_uniform
        assert_matches_the_tree_its_parents_derive(t)

    @pytest.mark.parametrize(
        "kind, params",
        [("parallel", {}), ("two_relay", {}), ("wide_uniform", {"m": 3}), ("increasing_leaves", {})],
    )
    def test_depth_ordered_families_arrive_as_their_table(self, kind, params):
        t = TreeFamily(kind, params).generate(5)
        assert set(t.__dict__) == {"_root", "shape_children"}
        expanded = [t.parents, t.depth, t.n_children, t.shape_ids]
        expanded += [t.nodes_at_depth(d) for d in range(t.height + 1)]
        assert not any(a.flags.writeable for a in expanded)

    @pytest.mark.parametrize(
        "kind, params, size", [("wide_uniform", {"m": 20}, 10**4), ("increasing_leaves", {}, 140)]
    )
    def test_per_node_reads_expand_only_shape_ids(self, kind, params, size):
        # each is its shape's entry, so none needs parents, depth or the CSR
        t = TreeFamily(kind, params).generate(size)
        for name in ("is_leaf", "leaves", "fringe", "leaf_parents", "n_children"):
            assert not getattr(t, name).flags.writeable
        assert {"_parents", "depth", "_children_csr"}.isdisjoint(t.__dict__)


def assert_table_reads_match_per_node(tree):
    depth = depth_by_passes(tree.parents, tree.root)
    n_children, is_leaf, leaf_parents, fringe = per_node_by_bincount(tree)
    assert tree.height == depth.max()
    assert tree.is_uniform == bool(np.all(depth[is_leaf] == depth.max()))
    degrees = n_children[fringe]
    for cap in (1, 2, 5):
        small = degrees[degrees <= cap]
        n_leaves = int(is_leaf.sum())
        assert astuple(analyze_tree(tree, cap)) == (
            tree.height, tree.n, n_leaves, len(leaf_parents), len(degrees), len(small),
            int(small.sum()) / n_leaves if n_leaves else 0.0, n_leaves / tree.n,
        )


class TestTableReads:
    """Height, uniformity and the structural counts, read off the shape table,
    equal what the per-node arrays say."""

    def test_rugged_and_uniform_trees(self, make_rugged_tree, make_uniform_tree):
        rng = np.random.default_rng(37)
        for _ in range(40):
            assert_table_reads_match_per_node(make_rugged_tree(rng, int(rng.integers(1, 6))))
            assert_table_reads_match_per_node(make_uniform_tree(rng, int(rng.integers(1, 4))))

    @settings(max_examples=200, deadline=None)
    @given(recursive_trees)
    def test_random_recursive_trees(self, t):
        assert_table_reads_match_per_node(t)


def assert_counts_match_passes(tree):
    level, leaves, nodes = subtree_counts_by_passes(tree)
    assert np.array_equal(tree.shape_counts.level[tree.shape_ids], level)
    assert np.array_equal(tree.subtree_leaf_count, leaves)
    assert np.array_equal(tree.subtree_node_count, nodes)
    shapes = len(tree.shape_children)
    assert np.array_equal(tree.shape_multiplicity, np.bincount(tree.shape_ids, minlength=shapes))
    assert not tree.shape_multiplicity.flags.writeable
    assert not tree.subtree_leaf_count.flags.writeable
    assert not tree.subtree_node_count.flags.writeable


class TestSubtreeCounts:
    def test_rugged_trees(self, make_rugged_tree):
        rng = np.random.default_rng(29)
        for _ in range(40):
            assert_counts_match_passes(make_rugged_tree(rng, int(rng.integers(1, 6))))

    @pytest.mark.parametrize("kind, params, size", FAMILY_GRID)
    def test_families(self, kind, params, size):
        assert_counts_match_passes(TreeFamily(kind, params).generate(size))

    def test_one_node_tree(self):
        # the lone root is not a leaf
        t = Tree([None])
        assert_counts_match_passes(t)
        assert t.subtree_leaf_count.tolist() == t.shape_counts.leaf_count.tolist() == [0]
        assert_table_reads_match_per_node(t)
        assert t.subtree_node_count.tolist() == [0]

    def test_chain(self):
        t = Tree([None, 0, 1, 2])
        assert_counts_match_passes(t)
        assert t.subtree_leaf_count.tolist() == [1, 1, 1, 1]
        assert t.subtree_node_count.tolist() == [3, 2, 1, 0]
        assert t.shape_counts.level.tolist() == [0, 1, 2, 3]

    def test_level_is_height_minus_depth_on_uniform_trees(self, make_uniform_tree):
        rng = np.random.default_rng(31)
        for _ in range(10):
            t = make_uniform_tree(rng, int(rng.integers(1, 4)))
            assert np.array_equal(t.shape_counts.level[t.shape_ids], t.height - t.depth)


class TestAnalysis:
    @pytest.mark.parametrize("cap", [2.5, True, "3"])
    def test_small_cap_must_be_an_integer(self, cap):
        with pytest.raises(InvalidParams, match="small_cap is"):
            analyze_tree(TreeFamily("two_relay").generate(3), cap)

    def test_small_cap_must_be_positive(self):
        with pytest.raises(InvalidParams, match="^small_cap must be positive$"):
            analyze_tree(TreeFamily("two_relay").generate(3), 0)

    def test_two_relay_stats(self):
        t = TreeFamily("two_relay").generate(3)
        stats = analyze_tree(t, small_cap=2)
        assert stats.n_nodes == 9
        assert stats.n_leaves == 6
        assert stats.n_fringe == 2
        assert stats.n_small_fringe == 0
        assert stats.small_leaf_fraction == 0.0

    def test_small_fringe_detection(self):
        t = TreeFamily("two_relay").generate(3)
        stats = analyze_tree(t, small_cap=3)
        assert stats.n_small_fringe == 2
        assert stats.small_leaf_fraction == 1.0

    @pytest.mark.parametrize(
        "sizes, caps, message",
        [
            ((2.7, 5), (2,), "size is 2.7"),
            ((2, 5), (2.5,), "small cap is 2.5"),
            ((True, 5), (2,), "size is True"),
        ],
    )
    def test_estimate_z_refuses_non_integers(self, sizes, caps, message):
        with pytest.raises(InvalidParams, match=message):
            estimate_z(TreeFamily("increasing_leaves"), sizes, caps)

    @pytest.mark.parametrize("sizes", [(), (5, 5), (10, 5)], ids=["empty", "repeat", "falling"])
    def test_estimate_z_needs_an_increasing_grid(self, sizes):
        with pytest.raises(InvalidParams, match="^size grid must be non-empty and increasing$"):
            estimate_z(TreeFamily("increasing_leaves"), sizes)

    def test_estimate_z_on_increasing_leaves(self):
        growth = estimate_z(TreeFamily("increasing_leaves"), (25, 50, 100, 200))
        for cap in (2, 5, 10):
            curve = growth.small_fraction_curves[cap]
            assert all(b < a for a, b in zip(curve, curve[1:]))
            assert curve[-1] < 0.02
        assert growth.consistent


def uniformize_by_node(tree):
    """Reference re-hanging, one leaf parent at a time in id order: a chain
    of h - 1 - depth(v) fresh ids hangs from v, each id from the one before,
    and v's leaf children move to the chain's last id."""
    depth = depth_by_passes(tree.parents, tree.root)
    _, is_leaf, leaf_parents, _ = per_node_by_bincount(tree)
    parents = tree.parents.tolist()
    for v in leaf_parents.tolist():
        chain_top = v
        for _ in range(int(depth.max()) - 1 - int(depth[v])):
            parents.append(chain_top)
            chain_top = len(parents) - 1
        kids = tree.children(v)
        for c in kids[is_leaf[kids]].tolist():
            parents[c] = chain_top
    return parents


class TestUniformize:
    def test_ids_match_one_leaf_parent_at_a_time(self, make_rugged_tree):
        rng = np.random.default_rng(13)
        trees = [make_rugged_tree(rng, h) for h in range(1, 6) for _ in range(8)]
        trees += [TreeFamily("chain_plus_leaves", {"h": h}).generate(h + 5) for h in range(1, 5)]
        trees.append(Tree([-1] + [int(rng.integers(0, i + 1)) for i in range(3000)]))
        for t in trees:
            assert uniformize(t).tree.parents.tolist() == uniformize_by_node(t)

    def test_preserves_leaves_and_levels_them(self, make_rugged_tree):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = make_rugged_tree(rng, int(rng.integers(2, 5)))
            res = uniformize(t)
            u = res.tree
            assert u.is_uniform
            assert u.height == t.height
            assert int(u.subtree_leaf_count[u.root]) == int(
                t.subtree_leaf_count[t.root]
            )

    def test_original_ids_keep_leaf_status(self):
        t = TreeFamily("chain_plus_leaves", {"h": 2}).generate(6)
        u = uniformize(t).tree
        assert u.n > t.n
        assert np.array_equal(u.is_leaf[: t.n], t.is_leaf)
        # chain nodes take the fresh ids at the end, and none is a leaf
        assert not u.is_leaf[t.n :].any()

    def test_already_uniform_is_fixpoint(self):
        t = TreeFamily("two_relay").generate(4)
        res = uniformize(t)
        assert res.tree.n == t.n
        assert np.array_equal(res.tree.parents, t.parents)


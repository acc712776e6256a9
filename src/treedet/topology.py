"""Rooted in-trees, per-node metrics, and tree-sequence statistics.

Edges point toward the root (the fusion center).  Node ids are dense
integers, and trees are treated as immutable after construction.  A tree's
one derived structure is its shape table: each AHU-interned subtree shape's
children once, as (child shape, count) runs, with its level and subtree
counts, so its size follows shapes, not nodes.  A per-node array that
depends only on a node's subtree gathers its shape's entry by ``shape_ids``.
A depth-ordered family is its table alone until a per-node array is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Mapping, Sequence
from itertools import repeat
from operator import eq
from typing import NamedTuple

import numpy as np

from .errors import InputError, InvalidParams


def _is_integer_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _integer(value: object, what: str) -> int:
    """``value`` as an int; floats, strings and bools are refused, not cast."""
    if not _is_integer_type(type(value)):
        raise InvalidParams(f"{what} is {value!r}, not an integer")
    return int(value)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class ShapeCounts(NamedTuple):
    """Columns of ``Tree.shape_counts``, indexed by shape id."""

    level: np.ndarray  # the subtree's height
    leaf_count: np.ndarray
    node_count: np.ndarray  # proper descendants

    @property
    def fringe_degrees(self) -> np.ndarray:
        """Each fringe shape's degree: its leaf count, its level being 1."""
        return self.leaf_count[self.level == 1]


class Tree:
    """Rooted directed in-tree over dense integer node ids.

    The root's parent is ``None`` or negative; an integer ndarray is copied whole.
    ``Tree(parents)`` checks every entry and derives depth, children and
    shapes on demand.  Height, uniformity and every per-node array that
    depends only on a node's subtree read the shape table, so on a
    depth-ordered family's ``_TableTree`` they expand ``shape_ids`` alone.
    """

    def __init__(self, parents: Sequence[int | None] | np.ndarray, root: int | None = None):
        if not (isinstance(parents, np.ndarray) and parents.dtype.kind in "iu"):
            if not isinstance(parents, (Sequence, np.ndarray)):
                raise InputError("parents must be a non-empty 1-d sequence")
            parents = [-1 if p is None else p for p in parents]
            # one check per entry type, not per entry
            for kind in set(map(type, parents)):
                if not _is_integer_type(kind):
                    i = next(i for i, p in enumerate(parents) if type(p) is kind)
                    raise InputError(f"parent entry {i} is {parents[i]!r}, not an integer")
        arr = np.array(parents, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("parents must be a non-empty 1-d sequence")
        roots = np.flatnonzero(arr < 0)
        if roots.size != 1:
            raise InputError(f"expected exactly one parentless node, found {roots.size}")
        self._parents = arr
        self._root = int(roots[0])
        if root is not None and _integer(root, "declared root") != self._root:
            raise InputError(
                f"declared root {root} but the parentless node is {self._root}"
            )
        if np.any(arr >= arr.size):
            raise InputError("parent id out of range")
        arr.setflags(write=False)
        if np.any(self.depth < 0):
            raise InputError("tree is disconnected or contains a cycle")

    @property
    def n(self) -> int:
        return int(self._parents.size)

    @property
    def root(self) -> int:
        return self._root

    @property
    def parents(self) -> np.ndarray:
        return self._parents

    @cached_property
    def _children_csr(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        offsets = np.zeros(n + 1, dtype=np.int64)
        counts = np.bincount(self._parents[self._parents >= 0], minlength=n)
        np.cumsum(counts, out=offsets[1:])
        order = np.argsort(self._parents, kind="stable")
        # argsort puts the root (parent -1) first; drop it
        return offsets, order[1:].copy()

    def children(self, v: int) -> np.ndarray:
        offsets, flat = self._children_csr
        return flat[offsets[v] : offsets[v + 1]]

    @cached_property
    def n_children(self) -> np.ndarray:
        """Each node's child count: its shape's degree, the sum of its run counts."""
        degree = np.array([sum(c for _, c in runs) for runs in self.shape_children], dtype=np.int64)
        return _frozen(degree[self.shape_ids])

    @cached_property
    def depth(self) -> np.ndarray:
        """Path length to the root; -1 marks unreachable nodes."""
        # pointer doubling: after k rounds each node points 2^k steps up (the
        # root stops the jump) and knows how far it went
        root = self._root
        up = np.where(self._parents >= 0, self._parents, root)
        dist = (self._parents >= 0).astype(np.int64)
        for _ in range(self.n.bit_length()):
            nxt = up[up]
            if np.array_equal(nxt, up):
                break
            dist += dist[up]
            up = nxt
        return _frozen(np.where(up == root, dist, -1))

    @cached_property
    def height(self) -> int:
        return int(self.shape_counts.level[-1])

    @cached_property
    def is_leaf(self) -> np.ndarray:
        leaf = self.n_children == 0
        leaf[self._root] = False  # a one-node tree's root is no leaf
        return _frozen(leaf)

    @cached_property
    def leaves(self) -> np.ndarray:
        return _frozen(np.flatnonzero(self.is_leaf))

    @cached_property
    def _by_depth(self) -> list[np.ndarray]:
        order = _frozen(np.argsort(self.depth, kind="stable"))
        return np.split(order, np.flatnonzero(np.diff(self.depth[order])) + 1)

    def nodes_at_depth(self, d: int) -> np.ndarray:
        return self._by_depth[d]

    @cached_property
    def subtree_leaf_count(self) -> np.ndarray:
        """l(v): leaves in the subtree rooted at v (1 for a leaf itself), read
        off the shape table; a one-node tree's root is no leaf and scores 0."""
        return _frozen(self.shape_counts.leaf_count[self.shape_ids])

    @cached_property
    def subtree_node_count(self) -> np.ndarray:
        """p(v): proper descendants of v, read off the shape table, so the
        root scores n - 1."""
        return _frozen(self.shape_counts.node_count[self.shape_ids])

    @cached_property
    def _leaf_parent_shapes(self) -> np.ndarray:
        """Per shape: whether it has a leaf child, its lowest run being of leaves."""
        return np.array([bool(runs) and runs[0][0] == 0 for runs in self.shape_children])

    @cached_property
    def leaf_parents(self) -> np.ndarray:
        """Nodes with at least one leaf child."""
        return _frozen(np.flatnonzero(self._leaf_parent_shapes[self.shape_ids]))

    @cached_property
    def fringe(self) -> np.ndarray:
        """Non-leaf nodes all of whose children are leaves: those whose shape has level 1."""
        return _frozen(np.flatnonzero(self.shape_counts.level[self.shape_ids] == 1))

    @cached_property
    def is_uniform(self) -> bool:
        """True when every leaf sits at the full height: each run is one level below its shape."""
        level = self.shape_counts.level.tolist()
        return all(level[k] == lv - 1 for lv, runs in zip(level, self.shape_children) for k, _ in runs)

    @property
    def shape_ids(self) -> np.ndarray:
        """Interned structural fingerprints: equal ids iff isomorphic subtrees.

        AHU labelling depth by depth, keys grouped by degree; each distinct
        key is interned at its first node in id order, as a per-node scan would.
        Ids are dense from 0 (a leaf), and every shape's id exceeds its
        children's, so ascending id order is bottom-up and the root's is last.
        """
        return self._shapes[0]

    @cached_property
    def shape_children(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each shape's children as (child shape id, count) runs in ascending
        child id, indexed by shape id; entry 0 is the leaf's ``()``."""
        return self._shapes[1]

    @cached_property
    def shape_counts(self) -> ShapeCounts:
        """Each shape's level (its height), leaf count and proper-descendant
        count, indexed by shape id, so the root's are last; a lone root is no
        leaf, so its leaf count is 0."""
        level, leaves, nodes = [0], [int(len(self.shape_children) > 1)], [0]
        # ascending id order is bottom-up
        for runs in self.shape_children[1:]:
            level.append(1 + max(level[k] for k, _ in runs))
            leaves.append(sum(c * leaves[k] for k, c in runs))
            nodes.append(sum(c * (1 + nodes[k]) for k, c in runs))
        return ShapeCounts(*(_frozen(np.array(c, dtype=np.int64)) for c in (level, leaves, nodes)))

    @cached_property
    def shape_multiplicity(self) -> np.ndarray:
        """How many nodes have each shape, indexed by shape id: the root is
        one, and a run (k, c) of a shape of n nodes holds c * n of shape k."""
        count = [0] * len(self.shape_children)
        count[-1] = 1
        # descending id order is top-down
        for sid in range(len(count) - 1, 0, -1):
            for k, c in self.shape_children[sid]:
                count[k] += c * count[sid]
        return _frozen(np.array(count, dtype=np.int64))

    @cached_property
    def _shapes(self) -> tuple[np.ndarray, tuple[tuple[tuple[int, int], ...], ...]]:
        shape = np.zeros(self.n, dtype=np.int64)
        offsets, flat = self._children_csr
        degree = np.diff(offsets)
        interned: dict[tuple[tuple[int, int], ...], int] = {}
        for d in range(len(self._by_depth) - 2, -1, -1):
            nodes = self.nodes_at_depth(d)
            nodes = nodes[degree[nodes] > 0]
            degrees = degree[nodes]
            keys, firsts = [], []
            labels = np.empty(nodes.size, dtype=np.int64)
            for k in np.unique(degrees):
                at = np.flatnonzero(degrees == k)
                rows = shape[flat[offsets[nodes[at]][:, None] + np.arange(k)]]
                rows.sort(axis=1)
                # stable, so each run of equal rows starts at its first node
                order = np.lexsort(rows.T[::-1]) if at.size > 1 else np.zeros(1, np.intp)
                ranked = rows[order]
                new = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
                labels[at[order]] = len(keys) + np.cumsum(new) - 1
                ids = ranked[new].ravel()
                # runs start at each row's start and where its ids change; the end closes the last
                edge = np.ones(ids.size + 1, dtype=bool)
                edge[1:-1] = ids[1:] != ids[:-1]
                edge[::k] = True
                starts = np.flatnonzero(edge)
                runs = list(zip(ids[starts[:-1]].tolist(), np.diff(starts).tolist()))
                cuts = np.searchsorted(starts, np.arange(0, ids.size + 1, k)).tolist()
                keys += [tuple(runs[a:b]) for a, b in zip(cuts, cuts[1:])]
                firsts += at[order[new]].tolist()
            sids = np.empty(len(keys), dtype=np.int64)
            for j in np.argsort(firsts).tolist():
                sids[j] = interned.setdefault(keys[j], len(interned) + 1)
            shape[nodes] = sids[labels]
        # a dict keeps insertion order, which is id order
        return _frozen(shape), ((),) + tuple(interned)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "root": self._root,
                "parents": [None if p < 0 else int(p) for p in self._parents],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Tree":
        try:
            doc = json.loads(text)
            parents = doc["parents"]
            n = _integer(doc["n"], "declared n")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InputError(f"malformed tree document: {exc}") from None
        if not isinstance(parents, list):
            raise InputError("malformed tree document: 'parents' must be a list")
        if len(parents) != n:
            raise InputError(f"declared n={n} but {len(parents)} parent entries")
        return cls(parents, root=doc.get("root"))


@dataclass(frozen=True)
class TreeStats:
    """Summary counters for one tree at one smallness cap."""

    height: int
    n_nodes: int
    n_leaves: int
    n_leaf_parents: int
    n_fringe: int
    n_small_fringe: int
    small_leaf_fraction: float
    leaf_fraction: float


def analyze_tree(tree: Tree, small_cap: int) -> TreeStats:
    """Counts leaves living under fringe nodes with at most ``small_cap`` leaves.

    Each count sums over shapes; the fraction is 0 when no fringe node is that small.
    """
    if _integer(small_cap, "small_cap") <= 0:
        raise InvalidParams("small_cap must be positive")
    counts, count = tree.shape_counts, tree.shape_multiplicity
    n_nodes, total_leaves = int(counts.node_count[-1]) + 1, int(counts.leaf_count[-1])
    # a fringe shape's children are all leaves
    fringe = counts.level == 1
    small = fringe & (counts.leaf_count <= small_cap)
    covered = int((count * counts.leaf_count)[small].sum())
    q = covered / total_leaves if total_leaves else 0.0
    return TreeStats(
        height=tree.height,
        n_nodes=n_nodes,
        n_leaves=total_leaves,
        n_leaf_parents=int(count[tree._leaf_parent_shapes].sum()),
        n_fringe=int(count[fringe].sum()),
        n_small_fringe=int(count[small].sum()),
        small_leaf_fraction=q,
        leaf_fraction=total_leaves / n_nodes,
    )


_TREND_FLOOR = 0.02
_TREND_SHRINK = 0.5


def _trending_to_zero(seq: Sequence[float]) -> bool:
    return seq[-1] < _TREND_FLOOR or seq[-1] <= _TREND_SHRINK * seq[0]


@dataclass(frozen=True)
class GrowthReport:
    """Leaf-dominance diagnostics along a growing size grid, one entry per
    size in the order given."""

    leaf_counts: tuple[int, ...]
    leaf_fractions: tuple[float, ...]
    z_estimate: float
    small_fraction_curves: dict[int, tuple[float, ...]]
    consistent: bool


def estimate_z(
    family: "TreeFamily",
    size_grid: Sequence[int],
    small_caps: Sequence[int] = (2, 5, 10),
) -> GrowthReport:
    """Tracks the leaf fraction and the small-fringe leaf fractions on a grid.

    The consistency flag records whether the two diagnostics agree: the leaf
    fraction trends to one exactly when every small-fringe curve trends to
    zero.  Trends over a finite grid are judged by the final value.
    """
    sizes = [_integer(s, "size") for s in size_grid]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidParams("size grid must be non-empty and increasing")
    leaf_counts: list[int] = []
    fractions: list[float] = []
    curves: dict[int, list[float]] = {_integer(c, "small cap"): [] for c in small_caps}
    for size in sizes:
        tree = family.generate(size)
        lf = int(tree.shape_counts.leaf_count[-1])
        leaf_counts.append(lf)
        fractions.append(lf / (int(tree.shape_counts.node_count[-1]) + 1))
        for cap in curves:
            curves[cap].append(analyze_tree(tree, cap).small_leaf_fraction)
    z_to_one = _trending_to_zero([1.0 - f for f in fractions])
    qs_to_zero = all(_trending_to_zero(c) for c in curves.values())
    return GrowthReport(
        leaf_counts=tuple(leaf_counts),
        leaf_fractions=tuple(fractions),
        z_estimate=fractions[-1],
        small_fraction_curves={c: tuple(v) for c, v in curves.items()},
        consistent=z_to_one == qs_to_zero,
    )


@dataclass(frozen=True)
class UniformizeResult:
    tree: Tree


def uniformize(tree: Tree) -> UniformizeResult:
    """Re-attaches shallow leaves through relay chains so every leaf sits at
    the full height h.

    Each leaf parent v above depth h - 1 gets a new chain of h - 1 - depth(v)
    relays, and all of v's leaf children move to its end.  Existing ids are
    kept; chain nodes take fresh ids from n on, chain by chain in ascending
    v, each chain's ids rising from v's new child down to its end.
    """
    if tree.is_uniform:
        return UniformizeResult(tree)
    v = tree.leaf_parents
    deficit = tree.height - 1 - tree.depth[v]
    v, deficit = v[deficit > 0], deficit[deficit > 0]
    last = tree.n - 1 + np.cumsum(deficit)
    # each chain node hangs from the id before it, a chain's first from its v
    chains = np.arange(tree.n - 1, last[-1])
    chains[last - deficit + 1 - tree.n] = v
    hang = np.arange(tree.n)
    hang[v] = last
    parents = tree.parents.copy()
    parents[tree.leaves] = hang[parents[tree.leaves]]
    return UniformizeResult(Tree(np.concatenate((parents, chains))))


class _TableTree(Tree):
    """A tree held as its shape table alone, numbered breadth first: node 0
    is the root, and a node's children are the next ids a depth down, in the
    order of its runs.  ``shape_ids`` and ``parents`` expand on first read,
    and depth and the children derive from ``parents``.  The ids must be those
    AHU interning gives this layout, so the tree reads as ``Tree(parents)``."""

    def __init__(self, table: tuple[tuple[tuple[int, int], ...], ...]):
        # the table is the cached value of ``Tree.shape_children``
        self._root, self.shape_children = 0, table

    @property
    def n(self) -> int:
        return int(self.shape_multiplicity.sum())

    @cached_property
    def _parents(self) -> np.ndarray:
        return _frozen(np.append(-1, np.repeat(np.arange(self.n), self.n_children)))

    @cached_property
    def _shapes(self) -> tuple[np.ndarray, tuple[tuple[tuple[int, int], ...], ...]]:
        table = self.shape_children
        kid, count = np.array([run for runs in table for run in runs], dtype=np.int64).reshape(-1, 2).T
        n_runs = np.array([len(runs) for runs in table])
        first = np.cumsum(n_runs) - n_runs
        levels = [np.array([len(table) - 1])]
        # only the leaf's shape, 0, has no runs
        while levels[-1].any():
            r = n_runs[levels[-1]]
            # each node's runs, in node order
            at = np.arange(r.sum()) + np.repeat(first[levels[-1]] - np.cumsum(r) + r, r)
            levels.append(np.repeat(kid[at], count[at]))
        return _frozen(np.concatenate(levels)), table


class _NodeRows(Sequence):
    """Per-shape columns read as ``row``s of the internal nodes in id order,
    skipping shapes not ``kept``, then the rows of ``tail``: a node's row is
    its id, then its shape's entry of each column; r entries per shape give
    r rows.  The length comes from the shape table; rows are built on first
    read and kept.  Equal, row by row, to any sequence of the same rows."""

    def __init__(self, tree: Tree, row: type, cols: Sequence, kept=None, tail: tuple = ()):
        self._tree, self._row, self._cols, self._tail = tree, row, cols, tail
        self._r = len(cols[0]) // len(tree.shape_children)
        # every shape but the leaf's is internal, and the root's, even a one-node tree's
        internal = np.arange(len(tree.shape_children)) > 0
        internal[-1] = True
        self._kept = internal if kept is None else internal & kept
        self._len = int(tree.shape_multiplicity[self._kept].sum()) * self._r + len(tail)

    @cached_property
    def _rows(self) -> tuple:
        sids, r = self._tree.shape_ids, self._r
        nodes = np.flatnonzero(self._kept[sids])
        at = (sids[nodes, None] * r + np.arange(r)).ravel()
        cols = (np.repeat(nodes, r), *(c[at] for c in self._cols))
        # tuple.__new__ builds each row in C, skipping the row type's Python __new__
        rows = map(tuple.__new__, repeat(self._row), zip(*(c.tolist() for c in cols)))
        return (*rows, *self._tail)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    __hash__ = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and len(self) == len(other) and all(map(eq, self, other))


def _gen_parallel(params: Mapping[str, object], size: int) -> Tree:
    if size < 2:
        raise InvalidParams("parallel tree needs at least 2 nodes")
    return _TableTree(((), ((0, size - 1),)))


def _gen_chain_plus_leaves(params: Mapping[str, object], size: int) -> Tree:
    h = _integer(params["h"], "parameter 'h'")
    if h < 1:
        raise InvalidParams("height must be >= 1")
    if size < h + 2:
        raise InvalidParams(f"need at least {h + 2} nodes for height {h}")
    # a chain down to the single deep leaf, then the root's own leaves
    return Tree([-1, *range(h)] + [0] * (size - h - 1))


def _gen_two_relay(params: Mapping[str, object], size: int) -> Tree:
    if size < 1:
        raise InvalidParams("need at least one leaf per relay")
    return _TableTree(((), ((0, size),), ((1, 2),)))


def _gen_wide_uniform(params: Mapping[str, object], size: int) -> Tree:
    m = _integer(params["m"], "parameter 'm'")
    if m < 1 or size < 1:
        raise InvalidParams("leaves per relay and relay count must be >= 1")
    return _TableTree(((), ((0, m),), ((1, size),)))


def _gen_increasing_leaves(params: Mapping[str, object], size: int) -> Tree:
    if size < 1:
        raise InvalidParams("need at least one relay")
    # relay i has i + 1 leaves and is shape i; the root is the last shape
    relays = range(1, size + 1)
    return _TableTree(((), *(((0, i + 1),) for i in relays), tuple((i, 1) for i in relays)))


# each kind's generator and the parameters it reads
_GENERATORS = {
    "parallel": (_gen_parallel, ()),
    "chain_plus_leaves": (_gen_chain_plus_leaves, ("h",)),
    "two_relay": (_gen_two_relay, ()),
    "wide_uniform": (_gen_wide_uniform, ("m",)),
    "increasing_leaves": (_gen_increasing_leaves, ()),
}


@dataclass(frozen=True)
class TreeFamily:
    """Parametric generator of trees indexed by one growing size argument.

    The size argument's meaning is per kind: total nodes for ``parallel`` and
    ``chain_plus_leaves``, leaves per relay for ``two_relay``, and the relay
    count for ``wide_uniform`` (``m`` leaves per relay) and
    ``increasing_leaves``.  A fixed tree is a ``Tree``, not a family.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _GENERATORS:
            raise InvalidParams(
                f"unknown family {self.kind!r}; known: {sorted(_GENERATORS)}"
            )
        object.__setattr__(self, "params", dict(self.params))
        accepted = _GENERATORS[self.kind][1]
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise InvalidParams(
                f"family {self.kind!r} does not read {unknown}; "
                f"it accepts {list(accepted) if accepted else 'no parameters'}"
            )

    def generate(self, size: int) -> Tree:
        try:
            return _GENERATORS[self.kind][0](self.params, _integer(size, "size"))
        except KeyError as exc:
            raise InvalidParams(f"family {self.kind!r} missing parameter {exc}") from None

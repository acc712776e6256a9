"""Exact and Monte Carlo error evaluation of strategies on uniform trees.

Exact evaluation propagates the discrete law of each node's outgoing
message bottom-up, in the log domain throughout: tail masses reach e^-1000
scales on wide trees, far below what linear doubles can hold.  Sums of
identical child laws use closed binomial forms, whose atoms come sorted;
distinct laws are summed by one left-to-right convolution chain with atom
merging.  A law stores its atoms and null log masses only: each atom v is a
log-likelihood ratio, so the alternative's are log p0 + v.  Each step lays
its outer sum out as one sorted run of the larger law per atom of the
smaller, so the stable sort of its atoms only merges runs.  One grid holds
each outer sum in turn while it is gathered, then the gaps, and each
partial-sum column is freed as soon as its outer sum has read it: a whole
chain peaks at four result-sized columns, six if a gap needs the per-atom
tolerance check.  A law over `STATE_SPACE_CAP` atoms is refused, naming the
level, shape and operand sizes.  Laws are computed once per structurally
distinct subtree, so trees with millions of isomorphic branches cost no more
than their distinct shapes, and a tree level at a time, in batches of shapes
of at most `_BATCH_ATOMS` planned atoms (`_planned_atoms`; a larger law goes
alone): one `_sum_laws` call with one closed form for all its binomial runs,
one split of its relays' sum laws (`_splits`) and one check of its bit laws,
each law's numbers those it would have built alone (each side is summed by
`_logsumexp` on its own slice, from the maxima of all sides taken in one
pass).  A relay's sum law is read once, by the split, and dropped: what is
kept per shape is its outgoing law and its split, and of the sum laws only the
root's, as two halves of its runs split by planned counts, each summed alone,
which its readers cut pair by pair (Horowitz & Sahni, *J. ACM* 21(2), 1974);
only `_splits` and `_root_cut` turn a threshold into a count.  These are
memoized on the strategy, one set per pair: calibrating the root threshold
hands them to the calibrated copy, and they are freed with the strategy.

Monte Carlo reads the tree only through the shape table: each shape's node
count, then its (child shape, count) runs bottom-up.  Trials run in blocks,
each on its own SFC64 substream per hypothesis, seeded by the spawn key
(block, hypothesis) of the seed's ``SeedSequence``, so a seed reproduces its
run; no stream is ever jumped, so a counter-based generator buys nothing.  A
block is sized by the rows it holds: one per relay node, whose decision
waits for its parent, or c per node of a run of c fringe siblings drawn node
by node.  An ungated height-2 tree holds one row, so 10^5 trials on 10^6
relays run in one substream.  A relay's rule sends a prefix of its
sorted sum atoms low, so a simulated sum is decided by one comparison with
its split's cut, the midpoint between the last atom sent low and the first
sent high; ties fall as in the exact split, with no tolerance, and no sum
law is read.  Each run draws its own numbers when the walk reaches it: a run
of fringe siblings one uniform per trial, against the end atoms of its
outgoing bit or two-atom gate law.  A lone node compares it with P(send
low); c >= 2 siblings send i.i.d. bits and look their count of high bits up
in a Bin(c, P(high)) table.  A gate law wider than two atoms is looked up in
its CDF node by node.  A lookup in a table of at most ``_COUNTED_EDGES``
edges below 1.0 (a count table of c siblings has at most c) counts the edges
at or below each uniform, one comparison per edge; a wider table goes
through a guide table.  A run of relays counts the high decisions of as many
nodes of its shape.  Monte Carlo thus takes the fringe level's law from the
exact engine; `tests/test_oracle.py` checks that level by enumeration.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .channels import fused_pair, induced_pair
from .errors import InvalidParams, StateSpaceTooLarge
from .hypotheses import DistributionPair, _exp, _logsumexp, second_moment_null
from .strategy import Strategy
from .topology import Tree, TreeFamily, _integer, _NodeRows

STATE_SPACE_CAP = 10**7

_MERGE_ATOL = 1e-12
_MERGE_RTOL = 1e-12
_MASS_TOL = 1e-7
# a tree level's laws are built in batches of shapes whose sum laws total at most this many atoms
# (a larger law goes alone): enough to spread numpy's per-call cost over many small laws, few
# enough that a batch's columns stay small beside the largest law
_BATCH_ATOMS = 1 << 14
_MC_BLOCK_FLOATS = 1 << 22
# a CDF with at most this many edges below 1.0 is read edge by edge, into a
# uint8 count: keep it below 256
_COUNTED_EDGES = 64


def _merged(  # sorted columns in; ``gaps``, if given, is scratch for v.size - 1 floats
    v: np.ndarray, logp0: np.ndarray, gaps: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    if v.size <= 1:
        return v, logp0
    gaps = np.subtract(v[1:], v[:-1], out=gaps)
    # the tolerance grows with |v|, largest at an end of the sorted atoms, so
    # gaps all wider than that tolerance need no check atom by atom
    if gaps.min() > _MERGE_ATOL + _MERGE_RTOL * max(-v[0], v[-1]):
        return v, logp0
    new_group = gaps > (_MERGE_ATOL + _MERGE_RTOL * np.abs(v[1:]))
    starts = np.flatnonzero(np.concatenate(([True], new_group)))
    return v[starts], np.logaddexp.reduceat(logp0, starts)


def _check_laws(v: np.ndarray, logp0: np.ndarray, starts: np.ndarray) -> None:
    """The one check of every law, on laws laid end to end from ``starts``: atoms finite and
    strictly increasing, both masses totalling one within ``_MASS_TOL``, summed by
    ``np.add.reduceat`` (not ``np.sum``'s order of additions, which only the tolerance sees)."""
    # a sum is finite iff every atom is, unless finite atoms overflow it: then scan them
    if not math.isfinite(np.add.reduce(v)) and not np.isfinite(v).all():
        raise InvalidParams("law atoms must be finite")
    rises = v[1:] > v[:-1]
    rises[starts[1:] - 1] = True  # from one law's last atom to the next law's first
    if not rises.all():
        raise InvalidParams("law atoms must be strictly increasing")
    del rises
    scratch = np.empty_like(logp0)  # one buffer serves both totals
    for shift in (None, v):  # the null totals, then the alternative's, sums of p0 e^v
        logs = logp0 if shift is None else np.add(logp0, shift, out=scratch)
        for total in np.add.reduceat(_exp(logs, out=scratch), starts).tolist():
            if not abs(total - 1.0) <= _MASS_TOL:  # written so that a NaN fails too
                raise InvalidParams(f"law mass {total} is not 1")


@dataclass(frozen=True, eq=False)
class MessageLaw:
    """Discrete law of a log-likelihood ratio under both hypotheses.

    Each atom v is the log-likelihood ratio of its masses, dP1/dP0 = e^v, so
    only null log masses are stored and ``logp1`` is ``logp0 + values``.
    Atoms are sorted and deduplicated; both laws' masses must total one, so
    atoms off their masses' ratio are refused.  Every law passes
    ``_check_laws``: the constructor checks one, the engine a batch at once
    (``_checked_laws``).  Rounding grows with the copies of a binomial power
    and the length of a convolution chain, hence the loose tolerance; unit
    tests pin 1e-12 on short chains.
    """

    values: np.ndarray
    logp0: np.ndarray

    def __post_init__(self) -> None:
        for name in ("values", "logp0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.size != self.logp0.size:
            raise InvalidParams("law arrays must share a length")
        if self.values.size == 0:
            raise InvalidParams("law must have at least one atom")
        _check_laws(self.values, self.logp0, np.zeros(1, np.intp))

    @property
    def n_atoms(self) -> int:
        return int(self.values.size)

    @property
    def p0(self) -> np.ndarray:
        return _exp(self.logp0)

    @property
    def logp1(self) -> np.ndarray:
        return self.logp0 + self.values

    @property
    def p1(self) -> np.ndarray:
        return _exp(self.logp1)


def _checked_laws(v: np.ndarray, logp0: np.ndarray, starts: Sequence[int]) -> list[MessageLaw]:
    """Laws laid end to end, checked at once by ``_check_laws`` and returned as read-only
    views: with the constructor, the only way a law is made."""
    _check_laws(v, logp0, np.array(starts, np.intp))
    v.setflags(write=False)
    logp0.setflags(write=False)
    laws = [object.__new__(MessageLaw) for _ in starts]
    for law, a, b in zip(laws, starts, [*starts[1:], v.size]):
        law.__dict__.update(values=v[a:b], logp0=logp0[a:b])  # past the frozen setter
    return laws


_ZERO = MessageLaw(np.zeros(1), np.zeros(1))  # the law of 0, beside which a root of one run is read


def law_from_pair(pair: DistributionPair) -> MessageLaw:
    """Law of the log-likelihood ratio of one observation of ``pair``, each hypothesis's masses scaled
    to total one: a pair's may miss one by its sum tolerance, a miss m copies' power takes m-fold."""
    logp0, logp1 = (logs - math.log(p.sum()) for logs, p in zip(pair._live_logs, (pair.p0, pair.p1)))
    order = np.argsort(logp1 - logp0, kind="stable")
    return MessageLaw(*_merged(logp1[order] - logp0[order], logp0[order]))


def _sum_law(laws: Sequence[MessageLaw]) -> MessageLaw:
    """Law of the sum of independent laws, convolved left to right; each partial
    sum is checked, then held as bare columns freed as their outer sums read them.
    The atoms stay log-likelihood ratios, so a step sums atoms and null masses only."""
    total = laws[0]
    for law in laws[1:]:
        if total.n_atoms * law.n_atoms > STATE_SPACE_CAP:
            raise StateSpaceTooLarge(
                f"convolving laws of {total.n_atoms} and {law.n_atoms} atoms would create "
                f"{total.n_atoms * law.n_atoms}, over the cap of {STATE_SPACE_CAP}"
            )
        # smaller law first: each row of the outer sum is then a sorted run of
        # the larger law, which the stable sort merges instead of sorting
        law_first = law.n_atoms < total.n_atoms
        spent, total = [total.values, total.logp0], None
        grid = order = None
        cols = []
        for i, col in enumerate((law.values, law.logp0)):
            grid = np.add.outer(*((col, spent[i]) if law_first else (spent[i], col)), out=grid)
            spent[i] = None
            if order is None:
                order = np.argsort(grid.ravel(), kind="stable")
            cols.append(grid.ravel()[order])  # a copy: the grid is free for the next sum
        del order
        total = MessageLaw(*_merged(*cols, gaps=grid.ravel()[:-1]))
    return total


# stirlerr(n) = log n! - log(sqrt(2 pi n) (n / e)^n) below 16, from mpmath; n = 0 is unread
_STIRLERR = np.array([math.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


def _log_combs(ms: Sequence[int]) -> np.ndarray:
    """log C(m, k), k = 0..m, for each m >= 1 of ``ms`` laid end to end, to a few ulps, in Loader's
    Stirling-error form ("Fast and accurate computation of binomial probabilities", 2000), built
    for k <= m/2 and mirrored; one Stirling table serves all m, and each row is its own, bit for bit."""
    n = np.arange(1.0, max(ms) + 1)
    nn = n * n
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    stirlerr[:15] = _STIRLERR[1 : n.size + 1]  # stirlerr[n - 1]: the table below 16, the series above
    h = [m // 2 for m in ms]  # k = 1..h, j = m - k
    k, m = np.concatenate([n[:x] for x in h]), np.array(ms, float).repeat(h)
    del n, nn
    j = m - k
    a = (k * np.log(m / k) - j * np.log1p(-k / m) + stirlerr.take([y - 1 for y in ms]).repeat(h)
         - np.concatenate([stirlerr[:x] for x in h])
         - np.concatenate([stirlerr[y - 1 - x : y - 1][::-1] for x, y in zip(h, ms)])
         - 0.5 * np.log(2.0 * math.pi * k * j / m))
    ends, nought = [0, *accumulate(h)], np.zeros(1)  # log C(m, 0) = log C(m, m) = 0
    return np.concatenate([piece for x, y, lo, hi in zip(h, ms, ends, ends[1:])
                           for piece in (nought, a[lo:hi], a[lo : hi - 1 + y % 2][::-1], nought)])


def _binomial_powers(runs: Sequence[tuple[MessageLaw, int]]) -> list[MessageLaw]:
    """m-fold sums of two-atom laws, each (law, m >= 2) of ``runs`` within the cap, in closed form
    in one pass and checked as one batch.  Atom (m - k) v0 + k v1 rounds by at most 3 m u max|v|,
    so ``_merged`` can join two only if v1 - v0 is within twice its tolerance: then it merges
    each law alone.  Every two-atom law the engine powers (leaf, gate, bit) is far wider."""
    if not runs:
        return []
    ms = [m for _, m in runs]
    ends = [(*law.values.tolist(), *law.logp0.tolist()) for law, _ in runs]  # v0, v1, logp0 of each
    size = [m + 1 for m in ms]
    # each run's ends, over its atoms; a batch of one broadcasts them, with no column to fill
    v0, v1, lp0, lp1 = (col[:1] if len(runs) == 1 else col.repeat(size) for col in np.array(ends).T)
    logp0 = _log_combs(ms)  # first: it peaks alone
    ks = np.arange(float(max(size)))
    values = np.concatenate([ks[m::-1] for m in ms])  # m - k, until multiplied by v0
    k = np.concatenate([ks[: m + 1] for m in ms])
    del ks
    # log C(m, k) + (m - k) logp0[0] + k logp0[1], and (m - k) v0 + k v1, in that order
    logp0 += lp0 * values
    logp0 += lp1 * k
    values *= v0
    values += np.multiply(k, v1, out=k)
    del k
    if not all(b - a > 2 * (_MERGE_ATOL + _MERGE_RTOL * m * max(abs(a), abs(b)))
               for m, (a, b, *_) in zip(ms, ends)):
        bounds = [0, *accumulate(size)]
        cols = [_merged(values[a:b], logp0[a:b]) for a, b in zip(bounds, bounds[1:])]
        values, logp0 = (np.concatenate(c) for c in zip(*cols))
        size = [c.size for c, _ in cols]
    return _checked_laws(values, logp0, [0, *accumulate(size[:-1])])


def _conv_power(law: MessageLaw, m: int) -> MessageLaw:
    if m == 1:
        return law
    if law.n_atoms == 1:
        return MessageLaw(law.values * m, law.logp0 * m)
    if law.n_atoms == 2:
        if m + 1 > STATE_SPACE_CAP:
            raise StateSpaceTooLarge(f"{m} copies of a two-atom law would create {m + 1} atoms, "
                                     f"over the cap of {STATE_SPACE_CAP}")
        return _binomial_powers([(law, m)])[0]
    # square-and-multiply keeps the chain logarithmic in m
    result: MessageLaw | None = None
    base = law
    remaining = m
    while remaining:
        if remaining & 1:
            result = base if result is None else _sum_law([result, base])
        remaining >>= 1
        if remaining:
            base = _sum_law([base, base])
    assert result is not None
    return result


def _sends_low(sums: np.ndarray | float, leaf_count: int, threshold: float) -> np.ndarray | bool:
    """The relay rule: a node sends low iff its incoming sum over its leaf
    count is at most the threshold, so ties go low.  The root declares the
    alternative on the complement."""
    return sums / leaf_count <= threshold


def _splits(laws: Sequence[MessageLaw], leaf_counts: Sequence[int], threshold: float) -> list[tuple]:
    """The relay rule on sum laws at their leaf counts, the one place below the root where a
    threshold becomes a count: per law (k, cut, low0, low1, high0, high1).  The rule is monotone,
    so it sends the first k atoms low, found by bisection, and a sum goes high iff it is above
    ``cut``, the midpoint of the last atom sent low and the first sent high (±inf past an end).
    The laws are laid end to end (a law alone is not copied) and the maxima of all their sides
    taken in one pass; each side is then summed by ``_logsumexp`` from its maximum, in place on
    its own slice of one scratch column."""
    v, logp0 = (getattr(laws[0], f) if len(laws) == 1
                else np.concatenate([getattr(law, f) for law in laws]) for f in ("values", "logp0"))
    splits, starts, cuts, a = [], [], [], 0
    for law, count in zip(laws, leaf_counts):
        w, n = law.values, law.n_atoms
        k = bisect_left(w, True, key=lambda s: not _sends_low(s, count, threshold))
        cut = ((w.item(k - 1) if k else -math.inf) + (w.item(k) if k < n else math.inf)) / 2
        splits.append([k, cut, *([0.0] * 2 + [-math.inf] * 2 if k else [-math.inf] * 2 + [0.0] * 2)])
        if 0 < k < n:  # (its splits entry, the index of its low side's start, its three bounds)
            cuts.append((splits[-1], len(starts), a, a + k, a + n))
        starts += [a, a + k] if 0 < k < n else [a]
        a += n
    buf = np.empty(v.size)
    for h in (0, 1):  # the null log masses, then the alternative's, logp0 + v
        src = np.add(logp0, v, out=buf) if h else logp0
        tops = np.maximum.reduceat(src, starts).tolist()
        for split, j, *bounds in cuts:
            for i, (a, b) in enumerate(zip(bounds, bounds[1:])):  # its low side, then its high side
                split[2 + 2 * i + h] = _logsumexp(src[a:b], out=buf[a:b], top=tops[j + i])
    return [tuple(split) for split in splits]


def _bit_laws(splits: Sequence[tuple]) -> list[MessageLaw]:
    """One-bit output law of each relay's split, checked as one batch: atoms the (low, high)
    output values, or ``_ZERO`` when a side has no null mass, and so no alternative mass."""
    dead = [s[2] == -math.inf or s[4] == -math.inf for s in splits]
    live = [s for s, d in zip(splits, dead) if not d]
    values = np.array([(s[3] - s[2], s[5] - s[4]) for s in live]).reshape(-1)
    logp0 = np.array([(s[2], s[4]) for s in live]).reshape(-1)
    laws = iter(_checked_laws(values, logp0, list(range(0, values.size, 2))))
    return [_ZERO if d else next(laws) for d in dead]


def _planned_atoms(out: list, runs: Sequence) -> list[int]:
    """Per (child shape, count) run of c copies of an n-atom law, C(c + n - 1, c): its atoms if every
    sum were distinct, never fewer than built and as many if c = 1, n = 1 or n = 2 with no merge."""
    return [math.comb(c + out[k].n_atoms - 1, c) for k, c in runs]


def _batches(out: list, table: Sequence, sids: list) -> Iterator[list]:
    """``sids`` in order, in batches whose sum laws total at most ``_BATCH_ATOMS`` planned atoms
    (``_planned_atoms``); a larger law goes alone."""
    batch, atoms = [], 0
    for sid in sids:
        size = math.prod(_planned_atoms(out, table[sid]))
        if batch and atoms + size > _BATCH_ATOMS:
            yield batch
            batch, atoms = [], 0
        batch.append(sid)
        atoms += size
    if batch:
        yield batch


def _sum_laws(out: list, level: list, parts: Sequence[tuple[int, Sequence]]) -> list[MessageLaw]:
    """The sum law of each (shape id, runs) part, in order.  Every run of several copies of a
    two-atom law within the cap takes its closed form in one ``_binomial_powers`` pass, the rest
    ``_conv_power``; the parts are summed in order, so a refusal names the first shape that fails."""
    def closed(law: MessageLaw, c: int) -> bool:
        return law.n_atoms == 2 and 1 < c < STATE_SPACE_CAP

    powers = iter(_binomial_powers([(out[k], c) for _, r in parts for k, c in r if closed(out[k], c)]))
    laws = []
    try:
        for sid, runs in parts:  # runs ascend by child id, which fixes the convolution order
            laws.append(_sum_law([next(powers) if closed(out[k], c) else _conv_power(out[k], c)
                                  for k, c in runs]))
    except StateSpaceTooLarge as exc:
        raise StateSpaceTooLarge(f"level {level[sid]}, shape {sid}: {exc}") from None
    return laws


@dataclass(frozen=True, eq=False)
class _LawContext:
    """Exact laws indexed by shape id, beside the tree's ``shape_counts``.

    ``out`` is each shape's outgoing law, None for the root.  ``split`` is
    each relay's ``_splits`` entry at its level's threshold, the only use of
    the relay rule below the root; it is None for the leaf, gated fringes and
    the root.  The laws are built a level at a time, one ``_sum_laws`` call per
    batch (``_batches``), and a relay's sum law is dropped once split; the root's
    is kept as two ``halves`` of its runs split by ``_planned_atoms``, each built
    by its own call, smaller first; one run sits beside ``_ZERO``.
    """

    out: list
    split: list
    halves: tuple

    @cached_property
    def root_sum(self) -> MessageLaw:
        return _sum_law(self.halves)

    @cached_property
    def padded(self) -> np.ndarray:
        # B between -inf and inf: at low count j, entries j and j + 1 are the last low and first high
        return np.concatenate(([-np.inf], self.halves[1].values, [np.inf]))

    @cached_property
    def larger(self) -> tuple[np.ndarray, np.ndarray]:
        # by low count j: B's null log mass from atom j up, its alternative's below atom j
        b = self.halves[1]
        above0 = np.append(np.logaddexp.accumulate(b.logp0[::-1])[::-1], -np.inf)
        return above0, np.concatenate(([-np.inf], np.logaddexp.accumulate(b.logp1)))


def _build_context(strategy: Strategy, pair: DistributionPair) -> _LawContext:
    table = strategy.tree.shape_children
    level, leaf_count = (c.tolist() for c in strategy.tree.shape_counts[:2])
    root = len(table) - 1
    out: list = [law_from_pair(induced_pair(pair, strategy.gamma))] + [None] * root
    split: list = [None] * (root + 1)
    # ascending id order is bottom-up, and the root is the last id, alone on its level
    shapes = [[s for s in range(1, root) if level[s] == lv] for lv in range(level[root])]
    gate = strategy.level1_gate
    if gate is not None:  # every gated fringe shape sends the gate's law
        gate_law = law_from_pair(fused_pair(pair, [strategy.gamma] * gate.arity, gate))
        for sid in shapes[1]:
            out[sid] = gate_law
    for lv in range(1 + (gate is not None), level[root]):  # relay levels, bottom-up
        for batch in _batches(out, table, shapes[lv]):  # each sum law is read once, by its split
            splits = _splits(_sum_laws(out, level, [(sid, table[sid]) for sid in batch]),
                             [leaf_count[s] for s in batch], strategy.thresholds[lv - 1])
            for sid, s, law in zip(batch, splits, _bit_laws(splits)):
                split[sid], out[sid] = s, law
    # the root's halves: its runs split where planned atom-count products are closest, each summed alone
    runs = table[root]
    logs = np.cumsum([0.0] + [math.log(n) for n in _planned_atoms(out, runs)])
    i = int(np.argmin(np.maximum(logs[:-1], logs[-1] - logs[:-1])))
    halves = [_sum_laws(out, level, [(root, part)])[0] if part else _ZERO
              for part in (runs[:i], runs[i:])]
    return _LawContext(out, split, tuple(sorted(halves, key=lambda h: h.n_atoms)))


def _context_for(strategy: Strategy, pair: DistributionPair) -> _LawContext:
    # memoized on the strategy, so the laws are freed with it; a race on one
    # shared strategy at worst builds the same law twice
    ctx = strategy._laws.get(pair)
    if ctx is None:
        ctx = strategy._laws[pair] = _build_context(strategy, pair)
    return ctx


def root_sum_law(
    strategy: Strategy, pair: DistributionPair
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw-sum atoms of the root's incoming log-likelihood mass and their
    log masses under both hypotheses, built on first read from its halves."""
    ctx = _context_for(strategy, pair)
    try:
        law = ctx.root_sum
    except StateSpaceTooLarge as exc:
        name = f"level {strategy.tree.height}, shape {len(ctx.out) - 1}"
        raise StateSpaceTooLarge(f"{name}: {exc}") from None
    return law.values, law.logp0, law.logp1


def _root_cut(ctx: _LawContext, leaf_count: int, threshold: float, merge: bool = True) -> tuple:
    """``_splits``' cut on the root's halves: (j, cut), j(a) the count of atoms b of the larger
    half that the rule on fl(a + b) sends low beside atom a of the smaller.  Unless ``merge`` is
    off, a sum the built root merges into one sent low (``_merged``'s tolerance) goes low with it."""
    a, b = ctx.halves[0].values, ctx.padded
    j = np.searchsorted(ctx.halves[1].values, threshold * leaf_count - a, side="right")
    while True:
        below, above = a + b.take(j), a + b.take(j + 1)
        up, down = _sends_low(above, leaf_count, threshold), ~_sends_low(below, leaf_count, threshold)
        top, bottom = float(below.max()), float(above.min())
        if up.any() or down.any():
            j = j + up - down
        elif merge and bottom < np.inf and bottom - top <= _MERGE_ATOL + _MERGE_RTOL * abs(bottom):
            threshold = bottom / leaf_count
        else:
            return j, (top + bottom) / 2.0


def _root_tail(ctx: _LawContext, j: np.ndarray, hypothesis: int) -> float:
    """The root's error log mass when ``_root_cut`` sends j low: log sum_a p0(a) P0(B >= j(a)),
    or log sum_a p1(a) P1(B < j(a)).  A one-atom half is the law of 0 (``_ZERO``): B's side is
    then summed as ``_splits`` sums it, bit for bit."""
    a, b = ctx.halves
    pairs = a.n_atoms * b.n_atoms
    side = int(j.sum()) if hypothesis else pairs - int(j.sum())
    if side in (0, pairs):  # a side of every pair has mass one
        return 0.0 if side else -np.inf
    if a.n_atoms > 1:
        logs = np.add(a.logp1 if hypothesis else a.logp0, ctx.larger[hypothesis][j])
    else:  # beside ``_ZERO``, B's side alone: j[0] atoms low
        logs = np.add(b.logp0[: j[0]], b.values[: j[0]]) if hypothesis else b.logp0[j[0] :].copy()
    return _logsumexp(logs, out=logs)


def _root_tails(ctx: _LawContext, leaf_count: int, threshold: float) -> tuple[float, float]:
    """(low1, high0), the miss and false-alarm log masses: the two tails any reader reports."""
    j = _root_cut(ctx, leaf_count, threshold)[0]
    return _root_tail(ctx, j, 1), _root_tail(ctx, j, 0)


def _type_i(high0: float) -> float:  # high0 can sum an ulp above 0 on long convolution chains
    return float(np.exp(min(high0, 0.0)))


def np_calibrate_root(strategy: Strategy, pair: DistributionPair, alpha: float) -> Strategy:
    """A root threshold whose type I, as ``exact_error_probs`` reports it, is
    within alpha while the next lower atom's is not.

    Candidate thresholds are the root's normalized sum atoms, so the result
    is the most powerful root-threshold variant among deterministic tests, up
    to ulp wobble of that type I across atoms of almost no mass.  They are
    bisected as the halves' pair sums, each pivot the median of the rows'
    middle candidates weighted by their counts, so that a quarter leave per
    step (Johnson & Mizoguchi, *SIAM J. Comput.* 7(2), 1978), and checked by
    ``_root_tail``; the least sum of a merge group is the built root's atom.
    A root of one run first tries the crossing that a linear cumulative sum
    of null masses locates, off by rounding of up to about n·u relative (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 4).  The
    copy shares the strategy's laws.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidParams("alpha must lie in (0, 1)")
    ctx = _context_for(strategy, pair)
    l_f = int(strategy.tree.shape_counts.leaf_count[-1])

    def within(t: float) -> tuple[np.ndarray, bool]:  # the low counts at t, and type I <= alpha
        j = _root_cut(ctx, l_f, t)[0]
        return j, _type_i(_root_tail(ctx, j, 0)) <= alpha

    a, b = (half.values for half in ctx.halves)
    lo, hi, threshold = np.zeros(a.size, np.intp), np.full(a.size, b.size), math.inf
    if a.size == 1:  # tail[n-2-i] is the null mass strictly above atom i
        buf = _exp(ctx.halves[1].logp0)
        tail = np.cumsum(buf[::-1], out=buf[::-1])
        i = b.size - 1 - int(np.count_nonzero(tail[:-1] <= alpha))
        if within(b[i] / l_f)[1] and not (i and within(b[i - 1] / l_f)[1]):
            lo, threshold = hi, float(b[i]) / l_f
    while (rows := np.flatnonzero(hi > lo)).size:
        n = (hi - lo)[rows]
        mids = (a[rows] + b[lo[rows] + (n - 1) // 2]) / l_f
        order = np.argsort(mids)
        weight = np.cumsum(n[order])
        pivot = float(mids[order[np.searchsorted(weight, weight[-1] / 2)]])
        j, ok = within(pivot)
        if ok:  # the pivot and every candidate above it leave
            threshold, hi = pivot, _root_cut(ctx, l_f, np.nextafter(pivot, -np.inf), merge=False)[0]
        else:
            lo = j
    calibrated = replace(strategy, root_threshold=threshold)
    calibrated._laws.update(strategy._laws)
    return calibrated


@dataclass(frozen=True)
class ErrorEstimate:
    """Both error probabilities, with exact log values.

    Linear fields underflow to 0.0 far below 1e-308; the log fields stay
    exact and drive all exponent arithmetic.
    """

    type_i: float
    type_ii: float
    log_type_i: float
    log_type_ii: float
    method: str
    trials: int | None = None
    std_error_i: float | None = None
    std_error_ii: float | None = None


def exact_error_probs(strategy: Strategy, pair: DistributionPair) -> ErrorEstimate:
    """False-alarm and miss probabilities of the strategy, exactly."""
    l_f = int(strategy.tree.shape_counts.leaf_count[-1])
    low1, high0 = _root_tails(_context_for(strategy, pair), l_f, strategy.root_threshold)
    low1 = min(low1, 0.0)
    return ErrorEstimate(
        type_i=_type_i(high0),
        type_ii=float(np.exp(low1)),
        log_type_i=min(high0, 0.0),
        log_type_ii=low1,
        method="exact",
    )


class TailRow(NamedTuple):
    node: int
    level: int
    leaf_count: int
    pred_count: int
    log_miss_per_leaf: float
    log_fa_per_leaf: float


def tail_report(strategy: Strategy, pair: DistributionPair) -> Sequence[TailRow]:
    """Per-node normalized log tail masses at that node's threshold.

    The miss column is (1/l) log P1(normalized sum <= t); the false-alarm
    column is (1/l) log P0(normalized sum > t).  The root row uses the
    level-h threshold, not the calibrated root threshold.  Tails are
    computed once per shape; the rows, one per internal node in id order,
    are a lazy sequence whose length the shape table gives, built on read.
    """
    ctx = _context_for(strategy, pair)
    level, lcount, pcount = strategy.tree.shape_counts
    # one (miss, fa) pair per shape, the split's (low1, high0), expanded per
    # node; a gate level has no split, and its tails are not threshold tails
    kept = np.array([s is not None for s in ctx.split[:-1]] + [True])
    root = _root_tails(ctx, int(lcount[-1]), strategy.thresholds[-1])
    tails = np.array([*(s[3:5] if s else (0.0, 0.0) for s in ctx.split[:-1]), root]) / lcount[:, None]
    return _NodeRows(strategy.tree, TailRow, (level, lcount, pcount, *tails.T), kept)


def fringe_message_laws(
    strategy: Strategy, pair: DistributionPair
) -> list[tuple[MessageLaw, int]]:
    """Distinct outgoing-message laws of fringe nodes with multiplicities."""
    level = strategy.tree.shape_counts.level
    if level[-1] < 2:
        raise InvalidParams("the fringe of a height-1 tree is the root, which sends no message")
    ctx = _context_for(strategy, pair)
    # a fringe node's children are all leaves: its shape is of level 1
    counts = strategy.tree.shape_multiplicity.tolist()
    return [(ctx.out[s], counts[s]) for s in np.flatnonzero(level == 1).tolist()]


def _count_table(c: int, logp: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, CDF) of Bin(c, P(high)) for bits of finite log masses ``logp``, on c·P(high) ±
    ⌈√(30c)⌉, past which Hoeffding's bound leaves under 2e^-60.  Built by the pmf's ratio
    recurrence, not from the exact engine's binomial powers, which Monte Carlo is there to check."""
    if logp.size == 1:  # a relay that sends one side has a one-atom bit law: a constant sum
        return c, np.ones(1)
    mean, w = c * math.exp(min(logp[1], 0.0)), math.ceil(math.sqrt(30 * c))
    j = np.arange(max(math.floor(mean) - w, 0), min(math.ceil(mean) + w, c), dtype=float)
    # log pmf(j + 1) - log pmf(j) = log((c - j) / (j + 1)) + log P(high) - log P(low)
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log((c - j) / (j + 1)) + (logp[1] - logp[0]))))
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    return int(j[0]), cdf / cdf[-1]  # x / x is exactly 1, as a gate CDF's


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` as ``np.intp``, for u in [0, 1) and a CDF
    ending at 1.0.  Up to ``_COUNTED_EDGES`` edges below 1.0 (no u reaches an edge of 1.0),
    each lane counts the edges at or below it, one comparison per edge, at 0.02-0.025 ms
    per edge per 10^5 lanes.  Past that, a guide table of ``cdf.size`` buckets and one step
    (Devroye, *Non-Uniform Random Variate Generation*, 1986, §III.2.4), with lanes still
    outside their atom's cell searched in full, takes 0.8-3.6 ms per 10^5 lanes whatever
    the size, as its buckets crowd: timed on Bin(c, p) tables, the two meet between about
    35 and 110 edges."""
    top = int(np.searchsorted(cdf, 1.0))
    if top <= _COUNTED_EDGES:
        k = np.zeros(u.shape, np.uint8)
        hit = np.empty(u.shape, bool)
        for edge in cdf[:top].tolist():
            k += np.greater_equal(u, edge, out=hit).view(np.uint8)
        return k.astype(np.intp)
    m = cdf.size
    k = np.searchsorted(cdf, np.arange(m) / m, side="right").take((u * m).astype(np.intp))
    k += cdf.take(k) <= u
    miss = (np.concatenate(([-np.inf], cdf[:-1])).take(k) > u) | (cdf.take(k) <= u)
    k[miss] = np.searchsorted(cdf, u[miss], side="right")
    return k


def _simulate_error_count(
    ctx: _LawContext, strategy: Strategy, hypothesis: int, root: tuple, trials: int, seed: int
) -> int:
    runs, level = strategy.tree.shape_children, strategy.tree.shape_counts.level.tolist()
    count = strategy.tree.shape_multiplicity.tolist()
    splits = [*ctx.split[:-1], root]  # a relay's sum is sent high iff it is above its cut
    # per shape, its outgoing law's end atoms, log masses under this hypothesis and P(send
    # low), clamped: a log mass can top 0; the root sends no message, and its cut decides
    ends = [law.values[[0, -1]].tolist() for law in ctx.out[:-1]]
    logp = [law.logp1 if hypothesis else law.logp0 for law in ctx.out[:-1]]
    plow = [math.exp(min(lp[0], 0.0)) for lp in logp]
    wide, fringe = None, level.index(1)  # under a gate, every fringe shape sends the gate law
    if strategy.level1_gate is not None and ctx.out[fringe].n_atoms > 2:  # drawn by CDF search
        cdf = np.cumsum(_exp(logp[fringe]))
        wide = ctx.out[fringe].values, cdf / cdf[-1]  # x / x is 1: no u < 1 passes the last atom
    # a node's children share one level, so a relay's runs are all fringe runs
    # or all runs of relays; ascending id order is bottom-up, the root last
    relays = [s for s in range(len(runs)) if level[s] > 1]
    if not relays:  # a height-1 root is the one fringe node: its split gives P(send low)
        plow.append(math.exp(min(root[2 + hypothesis], 0.0)))
    # the count table of each run of c >= 2 fringe siblings under a law of at most two atoms
    counts = {(k, c): _count_table(c, logp[k])
              for s in relays for k, c in runs[s] if not wide and level[k] == 1 and c > 1}
    # a block keeps one decision per relay node until its parent reads it, and
    # draws c rows per node of a wide-gated fringe run; a height-1 root holds one
    rows = max(1, sum(count[s] for s in relays),
               *(count[s] * c for s in relays for k, c in runs[s] if wide and level[k] == 1))
    block = max(1, min(trials, _MC_BLOCK_FLOATS // rows))
    errors = 0
    for b in range((trials + block - 1) // block):
        nb = min(block, trials - b * block)
        stream = np.random.SeedSequence(seed, spawn_key=(b, hypothesis))
        rng = np.random.Generator(np.random.SFC64(stream))
        # the decisions of each relay shape not yet summed by a parent
        bits = {} if relays else {len(runs) - 1: rng.random(nb) >= plow[-1]}
        for s in relays:
            n, total = count[s], 0.0
            for k, c in runs[s]:
                if level[k] > 1:  # the next n * c decisions of shape k
                    high_bits = bits[k][: n * c].reshape(n, c, nb).sum(1)
                    bits[k] = bits[k][n * c :]
                elif wide is not None:  # each node's atom by CDF search
                    picks = _inverse_cdf(wide[1], rng.random((n * c, nb)))
                    total += wide[0][picks].reshape(n, c, nb).sum(1)
                    continue
                elif c == 1:  # a lone fringe node: one uniform against P(send low)
                    high_bits = rng.random((n, nb)) >= plow[k]
                else:  # same-shape fringe siblings send i.i.d. bits: their count by inversion
                    lo, cdf = counts[k, c]
                    high_bits = lo + _inverse_cdf(cdf, rng.random((n, nb)))
                # c low messages, raised by the count of high bits
                low, high = ends[k]
                total += c * low + high_bits * (high - low)
            bits[s] = total > splits[s][1]
        errors += int(np.count_nonzero(bits[len(runs) - 1] != bool(hypothesis)))
    return errors


def monte_carlo_error(
    strategy: Strategy, pair: DistributionPair, trials: int, seed: int
) -> ErrorEstimate:
    """Simulates both hypotheses on deterministic substreams of the seed.

    A block of trials is sized so that its trials times its rows stay
    within ``_MC_BLOCK_FLOATS``, both for the decisions it keeps, one row
    per relay node, and for the numbers any one run of siblings draws.  It
    runs on one SFC64 substream per hypothesis, seeded by
    ``SeedSequence(seed, spawn_key=(block, hypothesis))``, and each run of
    siblings draws its own numbers where the walk reads them, one uniform per
    trial, or per node under a gate law wider than two atoms.  Strategy, pair,
    trials, seed and ``_MC_BLOCK_FLOATS`` fix the estimate, whatever the
    call order; the block size sets which trials share a substream, so it
    changes the counts.  ``seed`` must lie in [0, 2**63).
    """
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    # the seed range the API and the CLI promise; SeedSequence itself would
    # take any int >= 0
    if not 0 <= seed < 2**63:
        raise InvalidParams("seed must lie in [0, 2**63)")
    ctx, l_f = _context_for(strategy, pair), int(strategy.tree.shape_counts.leaf_count[-1])
    # one root cut at the calibrated threshold serves both hypotheses; only a
    # height-1 root, the one fringe node of one run, draws against its low masses too
    root = (_splits([ctx.halves[1]], [l_f], strategy.root_threshold)[0] if strategy.tree.height == 1
            else _root_cut(ctx, l_f, strategy.root_threshold))
    p_i, p_ii = (_simulate_error_count(ctx, strategy, h, root, trials, seed) / trials for h in (0, 1))
    return ErrorEstimate(
        type_i=p_i,
        type_ii=p_ii,
        log_type_i=math.log(p_i) if p_i > 0 else -math.inf,
        log_type_ii=math.log(p_ii) if p_ii > 0 else -math.inf,
        method="monte_carlo",
        trials=trials,
        std_error_i=math.sqrt(p_i * (1.0 - p_i) / trials),
        std_error_ii=math.sqrt(p_ii * (1.0 - p_ii) / trials),
    )


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares decay fit of exact miss probabilities along a grid,
    one entry per size in the order given."""

    node_counts: tuple[int, ...]
    leaf_counts: tuple[int, ...]
    type_i: tuple[float, ...]
    log_type_ii: tuple[float, ...]
    per_leaf: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float


def empirical_exponent(
    family: TreeFamily,
    pair: DistributionPair,
    sizes: Sequence[int],
    strategy_factory: Callable[[Tree], Strategy],
    *,
    alpha: float = 0.25,
    regress_on: str = "leaves",
) -> ExponentFit:
    """Calibrates at each size, evaluates exactly, and fits log miss
    probability against leaf count (or node count).

    The factory receives each generated tree and returns the strategy to
    calibrate; its tree may be a uniformized copy, which preserves the leaf
    count.
    """
    if regress_on not in ("leaves", "nodes"):
        raise InvalidParams("regress_on must be 'leaves' or 'nodes'")

    sizes = [_integer(s, "size") for s in sizes]
    node_counts, leaf_counts, t1s, logb = [], [], [], []
    for size in sizes:
        strat = strategy_factory(family.generate(size))
        calibrated = np_calibrate_root(strat, pair, alpha)
        est = exact_error_probs(calibrated, pair)
        stree = calibrated.tree
        node_counts.append(stree.n)
        leaf_counts.append(int(stree.shape_counts.leaf_count[-1]))
        t1s.append(est.type_i)
        logb.append(est.log_type_ii)
    xs = [
        float(l if regress_on == "leaves" else n)
        for n, l in zip(node_counts, leaf_counts)
    ]
    x = np.asarray(xs)
    y = np.asarray(logb)
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    if denom == 0.0:
        raise InvalidParams("regressor is constant across the grid")
    slope = float(np.dot(xm, y) / denom)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    return ExponentFit(
        node_counts=tuple(node_counts),
        leaf_counts=tuple(leaf_counts),
        type_i=tuple(t1s),
        log_type_ii=tuple(logb),
        per_leaf=tuple(b / l for b, l in zip(logb, leaf_counts)),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
    )


@dataclass(frozen=True)
class ChebyshevReport:
    mean_per_leaf: float
    exceed_probability: float
    bound: float
    holds: bool


def chebyshev_variance_check(
    strategy: Strategy,
    pair: DistributionPair,
    small_cap: int,
    eta: float,
) -> ChebyshevReport:
    """Exact concentration of the root's normalized sum against the
    second-moment bound a(1+N)/(eta^2 l(f)), where a is the null second
    moment of the raw log-likelihood ratio plus two.

    Stated for height-2 trees whose fringe nodes all hold at most
    ``small_cap`` leaves.
    """
    if not eta > 0.0:  # a NaN eta fails too
        raise InvalidParams("eta must be positive")
    tree = strategy.tree
    if tree.height != 2:
        raise InvalidParams("the concentration check applies to height-2 trees")
    if np.any(tree.shape_counts.fringe_degrees > _integer(small_cap, "small_cap")):
        raise InvalidParams("every fringe node must hold at most small_cap leaves")
    values, logp0, _ = root_sum_law(strategy, pair)
    l_f = int(tree.shape_counts.leaf_count[-1])
    mean = float(np.dot(_exp(logp0), values)) / l_f
    far = np.abs(values / l_f - mean) > eta
    prob = math.exp(_logsumexp(logp0[far]))
    bound = (second_moment_null(pair) + 2.0) * (1.0 + small_cap) / (eta * eta * l_f)
    return ChebyshevReport(
        mean_per_leaf=mean,
        exceed_probability=prob,
        bound=bound,
        holds=prob <= bound + 1e-12,
    )

import gc
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import chdtrc

from conftest import count_gate, llr_law, subtree_counts_by_passes
from treedet import (
    Alphabet,
    DistributionPair,
    InvalidParams,
    MessageLaw,
    StateSpaceTooLarge,
    Tree,
    TreeFamily,
    all_binary_leaf_family,
    analyze_tree,
    bernoulli_pair,
    build_relay_strategy,
    chebyshev_variance_check,
    chernoff_bound_report,
    empirical_exponent,
    estimate_z,
    exact_error_probs,
    fringe_message_laws,
    identity_map,
    law_from_pair,
    monte_carlo_error,
    np_calibrate_root,
    or_gate,
    parallel_exponent,
    rate_table,
    root_sum_law,
    second_moment_null,
    simple_strategy,
    tail_report,
)
from treedet import evaluate as ev
from treedet.hypotheses import _logsumexp

LOG3 = math.log(3.0)
# leaf log-likelihood ratios -a, 0 and a
TERNARY = DistributionPair(
    Alphabet(("a", "b", "c")), np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
)


# bern75's leaf law: atoms -log 3 and log 3, the log-likelihood ratios of
# null masses 0.75 and 0.25
BERN75 = (np.array([-LOG3, LOG3]), np.log([0.75, 0.25]))
# log-likelihood ratios of alternative masses (0.2, 0.3, 0.5) against a
# uniform null
UNIFORM3 = np.log([0.6, 0.9, 1.5]).tolist()


def _two_atom_law(v0, v1):
    """The law on atoms v0 < 0 < v1 whose masses have them as log-likelihood
    ratios: p0 e^v0 + (1 - p0) e^v1 = 1."""
    low = math.expm1(v1) / (math.expm1(v1) - math.expm1(v0))
    return MessageLaw(np.array([v0, v1]), np.log([low, 1.0 - low]))


def reference_split(law, leaf_count, threshold):
    """The relay rule on one law built alone, as the engine's batched split must give it bit for
    bit: the low count by bisection on ``_sends_low``, the cut between the last atom sent low and
    the first sent high, and each side's log masses by ``_logsumexp`` (0.0 on every atom, -inf on none)."""
    v = law.values
    k = bisect_left(v, True, key=lambda s: not ev._sends_low(s, leaf_count, threshold))
    cut = float(((v[k - 1] if k else -np.inf) + (v[k] if k < v.size else np.inf)) / 2.0)

    def side(logs):
        return _logsumexp(logs) if 0 < logs.size < v.size else (0.0 if logs.size else -math.inf)

    logp1 = law.logp0 + v
    return k, cut, side(law.logp0[:k]), side(logp1[:k]), side(law.logp0[k:]), side(logp1[k:])


class TestMessageLaw:
    def test_from_pair(self, pair75):
        law = law_from_pair(pair75)
        assert law.n_atoms == 2
        assert_allclose(law.values, [-LOG3, LOG3], rtol=1e-14)
        assert_allclose(law.p0, [0.75, 0.25], rtol=1e-14)
        assert_allclose(law.p1, [0.25, 0.75], rtol=1e-14)

    def test_a_pair_short_of_one_is_scaled_to_one(self):
        # masses 1e-13 short of one, within the pair's sum tolerance; a fringe power of 10^6 copies
        # would raise the shortfall past the law check's, unless the leaf law totals one
        p0, p1 = np.array([0.7499999999999, 0.25]), np.array([0.25, 0.7499999999999])
        tree, binary = TreeFamily("wide_uniform", {"m": 1_000_000}).generate(2), Alphabet((0, 1))
        s = build_relay_strategy(tree, identity_map(binary), (0.0, 0.0))
        short, full = (exact_error_probs(s, DistributionPair(binary, *pair)).log_type_ii
                       for pair in ((p0, p1), (p0 / p0.sum(), p1 / p1.sum())))
        assert_allclose(short, full, rtol=1e-12)

    def test_atoms_must_increase(self):
        values, logp0 = BERN75
        with pytest.raises(InvalidParams):
            MessageLaw(values[::-1], logp0[::-1])

    def test_mass_must_be_one(self):
        # the alternative's masses (0.5, 0.5) total one, the null's 0.9
        with pytest.raises(InvalidParams):
            MessageLaw(np.array([0.0, math.log(1.25)]), np.log([0.5, 0.4]))

    def test_zero_mass_atom_is_accepted(self):
        # an atom of no null mass has no alternative mass either
        law = MessageLaw(
            np.array([math.log(0.5), 0.0, math.log(1.5)]),
            np.array([math.log(0.5), -np.inf, math.log(0.5)]),
        )
        assert law.n_atoms == 3
        assert law.p0[1] == 0.0 and law.p1[1] == 0.0
        assert_allclose(law.p1, [0.25, 0.0, 0.75], rtol=1e-15)

    def test_nan_mass_is_rejected(self):
        with pytest.raises(InvalidParams):
            MessageLaw(BERN75[0], np.array([np.nan, math.log(0.25)]))

    @pytest.mark.parametrize("logp", [(np.nan, 0.0), (np.inf, -np.inf), (-np.inf, -np.inf)])
    def test_mass_faults_are_named(self, logp):
        # a null total of NaN, +inf or 0 is not 1
        with pytest.raises(InvalidParams, match=r"^law mass (nan|inf|0\.0) is not 1$"):
            MessageLaw(BERN75[0], np.array(logp))

    @pytest.mark.parametrize("shift", [-0.1, 0.1])
    def test_atoms_off_their_log_likelihood_ratio_are_refused(self, shift):
        # the null masses total one; the alternative's, p0 e^v, total e^shift
        values, logp0 = BERN75
        with pytest.raises(InvalidParams, match=r"^law mass \S+ is not 1$") as info:
            MessageLaw(values + shift, logp0)
        assert float(str(info.value).split()[2]) == pytest.approx(math.exp(shift), rel=1e-15)

    # each of these is strictly increasing, so only finiteness rejects it
    @pytest.mark.parametrize("values", [(-LOG3, np.nan), (-LOG3, np.inf), (-np.inf, LOG3)])
    def test_atoms_must_be_finite(self, values):
        with pytest.raises(InvalidParams):
            MessageLaw(np.array(values), BERN75[1])

    @pytest.mark.parametrize(
        "values, message",
        [
            ((UNIFORM3[0], np.nan, UNIFORM3[2]), "finite"),
            ((np.nan,), "finite"),
            ((UNIFORM3[0], UNIFORM3[1], np.inf), "finite"),
            ((-np.inf, UNIFORM3[1], UNIFORM3[2]), "finite"),
            ((UNIFORM3[0], UNIFORM3[1], UNIFORM3[1]), "strictly increasing"),
            ((UNIFORM3[0], UNIFORM3[2], UNIFORM3[1]), "strictly increasing"),
        ],
    )
    def test_atom_faults_are_named(self, values, message):
        uniform = np.full(len(values), -math.log(len(values)))
        with pytest.raises(InvalidParams, match=f"^law atoms must be {message}$"):
            MessageLaw(np.array(values), uniform)

    def test_lengths_must_agree(self):
        with pytest.raises(InvalidParams):
            MessageLaw(np.array([0.0]), np.log([0.5, 0.5]))
        # so a root law, and np_calibrate_root's candidate set, is never empty
        with pytest.raises(InvalidParams, match="at least one atom"):
            MessageLaw(np.array([]), np.array([]))


def _random_law(rng, n):
    # random masses under both hypotheses, on atoms at their log-likelihood ratios
    logp0, logp1 = (np.log(rng.dirichlet(np.ones(n))) for _ in range(2))
    order = np.argsort(logp1 - logp0)
    return MessageLaw((logp1 - logp0)[order], logp0[order])


def _reference_conv(a, b):
    """Outer sum in Python, sorted by value, adjacent atoms within the merge
    tolerance joined into the smallest one with summed masses.  The null's and
    the alternative's log masses are summed each on its own, so they check
    the engine's derived alternative masses."""
    atoms = sorted(
        (x + y, p + q, r + s)
        for x, p, r in zip(a.values, a.logp0, a.logp1)
        for y, q, s in zip(b.values, b.logp0, b.logp1)
    )
    groups = [[atoms[0]]]
    for prev, atom in zip(atoms, atoms[1:]):
        if atom[0] - prev[0] > ev._MERGE_ATOL + ev._MERGE_RTOL * abs(atom[0]):
            groups.append([])
        groups[-1].append(atom)
    return [
        (g[0][0], np.logaddexp.reduce([t[1] for t in g]), np.logaddexp.reduce([t[2] for t in g]))
        for g in groups
    ]


def _pairwise_conv(a, b):
    """One step of the pairwise convolution whose left fold ``_sum_law`` must
    reproduce bit for bit: the smaller law's atoms index the outer sum's rows."""
    if b.n_atoms < a.n_atoms:
        a, b = b, a
    sums = [np.add.outer(x, y).ravel() for x, y in zip((a.values, a.logp0), (b.values, b.logp0))]
    order = np.argsort(sums[0], kind="stable")
    return MessageLaw(*ev._merged(*(c[order] for c in sums)))


class TestConvolution:
    def _cases(self):
        rng = np.random.default_rng(11)
        for na, nb in [(1, 4), (2, 9), (3, 7), (5, 5), (16, 2)]:
            yield _random_law(rng, na), _random_law(rng, nb), False
        # a commensurate ternary pair: distinct sums of one real value land
        # within the tolerance of each other and are merged
        leaf = law_from_pair(TERNARY)
        yield ev._conv_power(leaf, 4), ev._conv_power(leaf, 7), True
        yield ev._conv_power(leaf, 3), leaf, True
        # -0.2 + 0.5 and 0.4 - 0.1 are distinct floats one ulp apart, and no
        # two sums are equal
        yield _two_atom_law(-0.2, 0.4), _two_atom_law(-0.1, 0.5), True
        # 4097 atoms on the ternary leaf's lattice: the merge reads its gap
        # column out of a scratch grid of 12,291 sums
        ends = _two_atom_law(*leaf.values[::2])
        yield ev._conv_power(ends, 4096), leaf, True

    def test_operand_order_is_bit_identical(self):
        for a, b, _ in self._cases():
            ab, ba = ev._sum_law([a, b]), ev._sum_law([b, a])
            for f in ("values", "logp0"):
                assert getattr(ab, f).tobytes() == getattr(ba, f).tobytes()

    def test_chain_is_the_pairwise_fold_bit_for_bit(self):
        def same(got, want):
            return all(getattr(got, f).tobytes() == getattr(want, f).tobytes()
                       for f in ("values", "logp0"))

        pool = []
        for a, b, _ in self._cases():
            assert same(ev._sum_law([a, b]), _pairwise_conv(a, b))
            pool += [a, b]
        rng = np.random.default_rng(23)
        leaf = law_from_pair(TERNARY)
        pool += [_random_law(rng, n) for n in range(1, 8)]
        pool += [ev._conv_power(leaf, m) for m in range(1, 6)]
        chains = 0
        while chains < 60:
            laws = [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(2, 7)))]
            if math.prod(law.n_atoms for law in laws) <= 50_000:
                assert same(ev._sum_law(laws), reduce(_pairwise_conv, laws))
                chains += 1
        # square-and-multiply through the chain, merges included
        for m in range(2, 14):
            result, base, k = None, leaf, m
            while k:
                if k & 1:
                    result = base if result is None else _pairwise_conv(result, base)
                k >>= 1
                base = _pairwise_conv(base, base) if k else base
            assert same(ev._conv_power(leaf, m), result)

    def test_matches_brute_force_merge(self):
        for a, b, merges in self._cases():
            got = ev._sum_law([a, b])
            want = np.array(_reference_conv(a, b))
            assert (got.n_atoms < a.n_atoms * b.n_atoms) == merges
            assert_array_equal(got.values, want[:, 0])
            assert_allclose(got.logp0, want[:, 1], rtol=1e-13, atol=1e-13)
            assert_allclose(got.logp1, want[:, 2], rtol=1e-13, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(-30.0, -1e-300), st.floats(1e-300, 30.0), st.integers(1, 2**16))
def test_binomial_power_atoms_are_the_closed_form_in_order(v0, v1, m):
    # a two-atom law whose atoms straddle 0 rounds each closed-form atom by
    # far less than their spacing v1 - v0, so they come out strictly
    # increasing, unsorted and unmerged, for any m below about 2^50.  The gap
    # clears the merge tolerance, which grows with |atom|, twice over; atoms
    # off 0 by 1e-300 or more keep both masses above 0
    assume(v1 - v0 > 2 * ev._MERGE_ATOL)
    scale = math.expm1(v1) - math.expm1(v0)  # p0 e^v0 + p1 e^v1 = 1 with p0 + p1 = 1
    law = MessageLaw(np.array([v0, v1]), np.log([math.expm1(v1) / scale, -math.expm1(v0) / scale]))
    k = np.arange(m + 1, dtype=float)
    values = ev._conv_power(law, m).values
    assert values.size == m + 1 and np.all(values[1:] > values[:-1])
    assert_array_equal(values, (m - k) * v0 + k * v1)


class TestLawMemory:
    """Peak traced memory of one law build, in float columns of its atom count,
    with 1 MB allowed for everything else."""

    @staticmethod
    def _traced(build, atoms):
        """``build()`` and its peak, in float columns of ``atoms``."""
        tracemalloc.start()
        try:
            result = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, (peak - 2**20) / (8 * atoms)

    @classmethod
    def _peak_columns(cls, build, atoms):
        law, columns = cls._traced(build, atoms)
        assert law.n_atoms == atoms
        return columns

    @staticmethod
    def _clears_gap_check(a, b):
        # whether every gap of the sorted sums is wider than the largest
        # tolerance, so the per-atom scan never runs
        v = np.sort(np.add.outer(a.values, b.values), axis=None)
        return np.diff(v).min() > ev._MERGE_ATOL + ev._MERGE_RTOL * max(-v[0], v[-1])

    def test_convolution_holds_four_columns(self):
        # grid, sort order and two sorted columns; the gaps reuse the grid
        rng = np.random.default_rng(3)
        a = _two_atom_law(-0.25, 0.25)
        b = llr_law(np.arange(2.0**18), np.log(rng.dirichlet(np.ones(2**18))))
        assert self._clears_gap_check(a, b)
        assert self._peak_columns(lambda: ev._sum_law([a, b]), 2**19) <= 4

    def test_convolution_scanning_atom_by_atom_holds_six_columns(self):
        # b's two atoms nearest the middle sit 3e-12 apart, so its sums there
        # fail the global gap check, whose tolerance reads the largest |sum|,
        # yet pass the per-atom scan, which merges none: the grid, kept, and
        # the two sorted columns, plus group starts and two reduced columns
        rng = np.random.default_rng(3)
        u = np.sort(rng.normal(size=2**18))
        u[2**17] = u[2**17 - 1] + 3e-12
        a, b = _two_atom_law(-0.25, 0.25), llr_law(u, np.log(rng.dirichlet(np.ones(2**18))))
        assert not self._clears_gap_check(a, b)
        assert self._peak_columns(lambda: ev._sum_law([a, b]), 2**19) <= 6

    def test_chain_holds_four_columns(self):
        # each spent partial sum is freed once its outer sum is read, so a
        # doubling chain peaks at its last step's four columns; keeping the
        # half-size partial sum through that step would add one
        laws = [llr_law([0.0, 2.0**i], np.log([0.3, 0.7])) for i in range(18)]
        assert self._peak_columns(lambda: ev._sum_law(laws), 2**18) <= 4

    def test_binomial_power_holds_six_columns(self):
        # k, log C(m, k), the two columns and the temporaries of their closed
        # forms, or the gap column
        law = llr_law([-0.4, 0.9], np.log([0.7, 0.3]))
        assert self._peak_columns(lambda: ev._conv_power(law, 2**18), 2**18 + 1) <= 6

    def test_split_holds_one_column(self):
        # a split of all but the top atom low: the alternative side's temporary
        # is shifted in place, so each side's sum holds one side-sized column
        # (and the exp's dead-lane mask); a shifted copy of it would hold two
        rng = np.random.default_rng(3)
        law = llr_law(np.arange(2.0**18), np.log(rng.dirichlet(np.ones(2**18))))
        (split,), columns = self._traced(lambda: ev._splits([law], [1], law.values[-2]), 2**18)
        assert split[0] == 2**18 - 1
        assert columns <= 1


@st.composite
def relay_chains(draw):
    """A binary or ternary leaf law and a short chain of relay-engine steps."""
    k = draw(st.sampled_from((2, 3)))
    w = np.array(draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=k,
                               max_size=k)), float)
    leaf = law_from_pair(DistributionPair(
        Alphabet(tuple(range(k))), w[:, 0] / w[:, 0].sum(), w[:, 1] / w[:, 1].sum()
    ))
    steps = draw(st.lists(st.tuples(st.sampled_from(("conv", "self", "power", "relay")),
                                    st.integers(2, 20), st.floats(-2.5, 2.5)),
                          min_size=1, max_size=8))
    return leaf, steps


class TestSplitInvariants:
    @staticmethod
    def _check_law(law):
        assert np.all(law.values[1:] > law.values[:-1])
        for logp in (law.logp0, law.logp1):
            assert abs(math.expm1(float(np.logaddexp.reduce(logp)))) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(relay_chains())
    def test_chained_relays_keep_their_mass(self, chain):
        # internal laws may skip re-validation only while these hold
        leaf, steps = chain
        law, leaves = leaf, 1
        for op, m, t in steps:
            if op == "conv" or (op == "self" and law.n_atoms > 40):
                law, leaves = ev._sum_law([law, leaf]), leaves + 1
            elif op == "self":
                law, leaves = ev._sum_law([law, law]), 2 * leaves
            elif op == "power" and law.n_atoms == 2:
                law, leaves = ev._conv_power(law, m), m * leaves
            elif op == "relay":
                split = ev._splits([law], [leaves], t)[0]
                k, cut, low0, low1, high0, high1 = split
                v = law.values
                assert np.all(v[:k] / leaves <= t)
                assert np.all(v[k:] / leaves > t)
                assert (v[k - 1] < cut if k else cut == -np.inf)
                assert (cut < v[k] if k < v.size else cut == np.inf)
                for low, high, logp in ((low0, high0, law.logp0), (low1, high1, law.logp1)):
                    total = float(np.logaddexp.reduce(logp))
                    assert abs(np.logaddexp(low, high) - total) <= 1e-12
                law, leaves = ev._bit_laws([split])[0], 1
            self._check_law(law)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12), st.integers(0, 6),
           st.integers(1, 1000))
    @example([2.7], 1, 9)  # 2.7 and the next float tie once divided by 9
    def test_cut_counts_the_atoms_the_rule_sends_low(self, atoms, ulps, leaves):
        # each atom with up to ``ulps`` next floats above it, so that
        # neighbours' quotients can tie; thresholds at every quotient and one
        # ulp either side, past both ends too.  The count reads only the atoms,
        # and no law's masses fit atoms an ulp apart
        v = np.unique([x for a in atoms for x in np.nextafter.accumulate([a] + [np.inf] * ulps)])
        law = SimpleNamespace(values=v, logp0=np.zeros(v.size), n_atoms=v.size)
        q = v / leaves
        for t in np.concatenate((q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf))).tolist():
            k = ev._splits([law], [leaves], t)[0][0]
            assert k == np.count_nonzero(ev._sends_low(v, leaves, t))


def log_comb_alone(m):
    """log C(m, k), k = 0..m, for one m: Loader's form as built one m at a time, the reference
    the batched ``_log_combs`` must match bit for bit."""
    n = np.arange(1.0, m + 1)
    nn = n * n
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    stirlerr[:15] = ev._STIRLERR[1 : m + 1]
    h = m // 2
    k, j = n[:h], m - n[:h]
    half = (k * np.log(m / k) - j * np.log1p(-k / m) + stirlerr[m - 1] - stirlerr[:h]
            - stirlerr[m - 1 - h : m - 1][::-1] - 0.5 * np.log(2.0 * math.pi * k * j / m))
    return np.concatenate(([0.0], half, half[: m - 1 - h][::-1], [0.0]))


class TestLogComb:
    """``_log_combs`` against 40-digit binomial coefficients, and batched against one m alone."""

    @staticmethod
    def _check(m, ks):
        got = ev._log_combs([m])
        assert got.size == m + 1
        assert_array_equal(got, got[::-1])
        assert got[0] == got[m] == 0.0
        with mpmath.workdps(40):
            for k in ks:
                if 0 < k < m:
                    want = mpmath.log(mpmath.binomial(m, k))
                    assert abs((mpmath.mpf(float(got[k])) - want) / want) <= 1e-15, (m, k)

    def test_every_k_up_to_64(self):
        for m in range(1, 65):
            self._check(m, range(m + 1))

    @pytest.mark.parametrize("m", [10**2, 10**4, 25_000, 10**6, 10**7])
    def test_large_m(self, m):
        fixed = [1, 2, 3, m // 3, m // 2, m - 2, m - 1]
        self._check(m, fixed + np.random.default_rng(m).integers(1, m, size=20).tolist())

    def test_batch_matches_each_m_alone_bit_for_bit(self):
        # each m's row is its own, whatever shares the batch: alone, with all m up to 64, and
        # beside the largest, in a shuffled order
        ms = [*range(1, 65), 1_000, 25_000]
        alone = {m: log_comb_alone(m) for m in ms}
        order = np.random.default_rng(5).permutation(ms).tolist()
        for batch in ([[m] for m in ms], [ms], [order], [[25_000, 1, 64, 2]]):
            for group in batch:
                got = ev._log_combs(group)
                want = np.concatenate([alone[m] for m in group])
                assert got.tobytes() == want.tobytes(), group


def _hexes(xs):
    return [float(x).hex() for x in xs]


@st.composite
def level_trees(draw):
    """A binary pair, gated or not, or the commensurate ternary pair, whose sums merge; a
    uniform tree of height 2 or 3 whose relays hold 1..40 leaves (2 under the or gate), so that
    level-2 relays mix one run and several; and a threshold per level."""
    pair = draw(st.sampled_from((bernoulli_pair(0.75), bernoulli_pair(0.6), TERNARY)))
    gated = pair is not TERNARY and draw(st.booleans())
    leaves = st.just(2) if gated else st.integers(1, 40)
    height = draw(st.integers(2, 3))
    if height == 2:
        groups = [draw(st.lists(leaves, min_size=1, max_size=6))]
    else:
        groups = draw(st.lists(st.lists(leaves, min_size=1, max_size=4), min_size=1, max_size=4))
    parents = [-1]
    for group in groups:  # under the root, or under a level-2 relay of its own
        above = 0 if height == 2 else len(parents)
        parents += [] if height == 2 else [0]
        for count in group:
            parents += [above] + [len(parents)] * count
    tree = Tree(parents)
    thresholds = draw(st.lists(st.floats(-1.5, 1.5), min_size=tree.height, max_size=tree.height))
    return pair, gated, tree, tuple(thresholds)


class TestLevelPass:
    """Each relay level is built in one array pass over its shapes; every shape's split and bit
    law must be those of its sum law built alone, split one law at a time, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(level_trees())
    def test_splits_and_bit_laws_match_each_law_alone(self, case):
        pair, gated, tree, thresholds = case
        gate = or_gate() if gated else None
        s = build_relay_strategy(tree, identity_map(pair.alphabet), thresholds, level1_gate=gate)
        ctx = ev._context_for(s, pair)
        level, leaves = (c.tolist() for c in tree.shape_counts[:2])
        relays = [sid for sid, split in enumerate(ctx.split) if split is not None]
        assert len(relays) == sum(1 for lv in level[1:-1] if lv > (gate is not None))
        for sid in relays:
            runs = tree.shape_children[sid]
            law = ev._sum_law([ev._conv_power(ctx.out[k], c) for k, c in runs])
            k, cut, *masses = reference_split(law, leaves[sid], thresholds[level[sid] - 1])
            got = ctx.split[sid]
            assert got[0] == k and _hexes(got[1:]) == _hexes([cut, *masses]), sid
            low0, low1, high0, high1 = masses
            bit = ctx.out[sid]
            if low0 == -math.inf or high0 == -math.inf:
                assert bit is ev._ZERO
            else:
                assert _hexes(bit.values) == _hexes([low1 - low0, high1 - high0])
                assert _hexes(bit.logp0) == _hexes([low0, high0])
            assert math.prod(ev._planned_atoms(ctx.out, runs)) >= law.n_atoms
        # the root's planned counts, which split its halves, are those its runs are built with
        runs = tree.shape_children[-1]
        assert ev._planned_atoms(ctx.out, runs) == [ev._conv_power(ctx.out[k], c).n_atoms for k, c in runs]
        assert math.prod(ev._planned_atoms(ctx.out, runs)) >= ctx.root_sum.n_atoms

    @pytest.mark.parametrize("kind, params, size", [
        *(("increasing_leaves", {}, n) for n in range(1, 22)),
        ("wide_uniform", {"m": 3}, 16), ("wide_uniform", {"m": 20}, 50), ("two_relay", {}, 30)])
    def test_planned_counts_split_the_root_as_built_counts_would(
            self, pair75, leaf_family, kind, params, size):
        s = simple_strategy(TreeFamily(kind, params).generate(size), pair75, leaf_family, 0.4).strategy
        ctx = ev._context_for(s, pair75)
        table = s.tree.shape_children
        for runs in table[1:-1]:
            law = ev._sum_law([ev._conv_power(ctx.out[k], c) for k, c in runs])
            assert math.prod(ev._planned_atoms(ctx.out, runs)) >= law.n_atoms
        parts = [ev._conv_power(ctx.out[k], c) for k, c in table[-1]]
        assert ev._planned_atoms(ctx.out, table[-1]) == [law.n_atoms for law in parts]
        logs = np.cumsum([0.0] + [math.log(law.n_atoms) for law in parts])
        i = int(np.argmin(np.maximum(logs[:-1], logs[-1] - logs[:-1])))
        halves = sorted([ev._sum_law(parts[:i]) if i else ev._ZERO, ev._sum_law(parts[i:])],
                        key=lambda h: h.n_atoms)
        for got, want in zip(ctx.halves, halves):
            assert got.values.tobytes() == want.values.tobytes()
            assert got.logp0.tobytes() == want.logp0.tobytes()

    def test_one_pass_per_relay_level(self, pair75, leaf_family, ident, monkeypatch):
        # increasing_leaves(21): one relay level of 21 shapes, split and checked at once
        calls = {"_splits": [], "_bit_laws": [], "_binomial_powers": []}
        for name, seen in calls.items():
            monkeypatch.setattr(ev, name, lambda batch, *a, f=getattr(ev, name), seen=seen:
                                seen.append(len(batch)) or f(batch, *a))
        s = simple_strategy(TreeFamily("increasing_leaves").generate(21), pair75, leaf_family, 0.4)
        ev._context_for(s.strategy, pair75)
        # the fringe level's 21 powers, then each root half's runs, of one copy each: an empty batch
        assert calls == {"_splits": [21], "_bit_laws": [21], "_binomial_powers": [21, 0, 0]}
        for seen in calls.values():
            seen.clear()
        ev._context_for(build_relay_strategy(TestTailReport.HEIGHT_3, ident, (0.0, -0.1, 0.1)), pair75)
        assert calls["_splits"] == calls["_bit_laws"] == [2, 2]

    def test_a_level_of_large_laws_holds_one_at_a_time(self, pair75, ident):
        # five fringe relays of 2^16 + i leaves: each sum law is too large to share a batch, so
        # the level peaks at one power's closed form (six columns), not at all five laid end to end
        sizes = [2**16 + i for i in range(5)]
        parents = [-1]
        for size in sizes:
            parents += [0] + [len(parents)] * size
        tree = Tree(parents)
        tree.shape_children, tree.shape_counts  # built before the trace
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        ctx, columns = TestLawMemory._traced(lambda: ev._build_context(s, pair75), max(sizes) + 1)
        assert sum(r is not None for r in ctx.split) == 5
        assert columns <= 6  # 23 with the five laid end to end

    def test_a_refusal_names_the_first_shape_that_fails(self, pair75, ident, monkeypatch):
        # at a cap of 20 atoms, level 2 holds two relays that fail, in one batch: one over six
        # distinct fringe relays, whose sum law passes the cap, and one over 30 copies of a
        # one-leaf relay, whose closed-form power does.  The refusal names the one of lower id,
        # as a build shape by shape would, with that shape's own message
        parents = [-1]
        for group in ([1, 2, 3, 4, 5, 6], [1] * 30):
            above = len(parents)
            parents += [0]
            for count in group:
                parents += [above] + [len(parents)] * count
        tree = Tree(parents)
        s = build_relay_strategy(tree, ident, (0.0, 0.0, 0.0))
        out = ev._build_context(s, pair75).out  # built under the default cap
        monkeypatch.setattr(ev, "STATE_SPACE_CAP", 20)
        failing = []
        for sid, lv in enumerate(tree.shape_counts.level.tolist()):
            if lv == 2:
                try:
                    ev._sum_law([ev._conv_power(out[k], c) for k, c in tree.shape_children[sid]])
                except StateSpaceTooLarge as exc:
                    failing.append(f"level 2, shape {sid}: {exc}")
        assert len(failing) == 2
        with pytest.raises(StateSpaceTooLarge) as refusal:
            ev._build_context(s, pair75)
        assert str(refusal.value) == failing[0]

    def test_a_root_half_of_one_run_keeps_no_other_run(self, pair75, ident):
        # the root's runs, 3 copies of one relay's bit law and 50 of another's, fall one to a
        # half; each half takes its closed form in a batch of its own, whose columns it alone holds
        parents = [-1]
        for leaves, copies in ((1, 3), (2, 50)):
            for _ in range(copies):
                parents += [0] + [len(parents)] * leaves
        tree = Tree(parents)
        ctx = ev._context_for(build_relay_strategy(tree, ident, (0.0, 0.0)), pair75)
        runs = tree.shape_children[-1]
        assert [c for _, c in runs] == [3, 50]
        for half, (k, c) in zip(ctx.halves, runs):
            assert half.values.base is None or half.values.base.size == half.n_atoms
            alone = ev._conv_power(ctx.out[k], c)
            assert half.values.tobytes() == alone.values.tobytes()
            assert half.logp0.tobytes() == alone.logp0.tobytes()

    def test_a_narrow_power_is_merged_alone(self):
        # atoms 2e-13 apart: the closed form's neighbours fall within the merge tolerance, so
        # that law is merged as it would be alone, beside a wide law the batch leaves as it is
        narrow, wide = _two_atom_law(-1e-13, 1e-13), _two_atom_law(-0.3, 0.2)

        def alone(law, m):
            k = np.arange(m + 1.0)
            return ev._merged((m - k) * law.values[0] + k * law.values[1],
                              log_comb_alone(m) + (m - k) * law.logp0[0] + k * law.logp0[1])

        got = ev._binomial_powers([(wide, 5), (narrow, 8), (wide, 3)])
        assert got[1].n_atoms < 9 and got[0].n_atoms == 6
        for law, (base, m) in zip(got, [(wide, 5), (narrow, 8), (wide, 3)]):
            want = alone(base, m)
            assert law.values.tobytes() == want[0].tobytes()
            assert law.logp0.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("fault, message", [
        ("order", "^law atoms must be strictly increasing$"),
        ("nan", "^law atoms must be finite$"),
        ("mass", r"^law mass 1\.000001\d* is not 1$"),
    ])
    def test_a_batch_with_one_bad_law_is_refused(self, fault, message):
        # the batch's laws descend from one to the next, which is no fault; the third is broken
        laws = [_two_atom_law(-0.2 * i - 0.1, 0.5 - 0.1 * i) for i in range(5)]
        laws[1] = ev._conv_power(laws[1], 5)
        values, logp0 = (np.concatenate([getattr(law, f) for law in laws]) for f in ("values", "logp0"))
        starts = [0, *np.cumsum([law.n_atoms for law in laws])[:-1].tolist()]
        good = ev._checked_laws(values.copy(), logp0.copy(), starts)
        assert [(g.values.tobytes(), g.logp0.tobytes()) for g in good] == [
            (law.values.tobytes(), law.logp0.tobytes()) for law in laws]
        i = starts[2]
        if fault == "order":
            values[i : i + 2] = values[i : i + 2][::-1].copy()
        elif fault == "nan":
            values[i + 1] = np.nan
        else:
            logp0[i : i + 2] += math.log1p(1e-6)
        with pytest.raises(InvalidParams, match=message):
            ev._checked_laws(values, logp0, starts)
        with pytest.raises(InvalidParams, match=message):
            MessageLaw(values[i : i + 2], logp0[i : i + 2])


class TestRootSumLaw:
    def test_two_leaf_star(self, pair75, ident):
        tree = TreeFamily("parallel").generate(3)
        s = build_relay_strategy(tree, ident, (0.0,))
        values, logp0, logp1 = root_sum_law(s, pair75)
        assert_allclose(values, [-2 * LOG3, 0.0, 2 * LOG3], rtol=1e-14)
        assert_allclose(np.exp(logp0), [0.5625, 0.375, 0.0625], rtol=1e-12)
        assert_allclose(np.exp(logp1), [0.0625, 0.375, 0.5625], rtol=1e-12)

    def test_context_is_cached(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(4)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        v1, p1, _ = root_sum_law(s, pair75)
        v2, p2, _ = root_sum_law(s, pair75)
        assert v1 is v2 and p1 is p2

    def test_calibration_shares_the_law(self, pair75, ident):
        # changing only the root threshold must not rebuild the law
        tree = TreeFamily("two_relay").generate(4)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        v1, _, _ = root_sum_law(s, pair75)
        cal = np_calibrate_root(s, pair75, 0.25)
        v2, _, _ = root_sum_law(cal, pair75)
        assert v1 is v2

    def test_laws_are_freed_with_the_strategy(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(4)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        cal = np_calibrate_root(s, pair75, 0.25)
        exact_error_probs(cal, pair75)
        dead = weakref.ref(tree)
        del tree, s, cal
        gc.collect()
        assert dead() is None

    def test_threads_sharing_a_strategy_agree(self, pair75, leaf_family):
        # the memo takes no lock: a race may build a law twice, never a wrong one
        tree = TreeFamily("increasing_leaves").generate(14)

        def strategy():
            return simple_strategy(tree, pair75, leaf_family, 0.2).strategy

        def evaluate(s):
            return exact_error_probs(np_calibrate_root(s, pair75, 0.25), pair75)

        expected = evaluate(strategy())
        shared = strategy()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(evaluate, shared) for _ in range(16)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == expected for r in results)
        assert list(shared._laws) == [pair75]

    def test_changed_relay_threshold_rebuilds_the_law(self, pair75, ident):
        # -0.8 and 0.0 split the level-1 atoms differently
        tree = TreeFamily("two_relay").generate(4)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        old = root_sum_law(s, pair75)
        moved = replace(s, thresholds=(-0.8, 0.0))
        got = root_sum_law(moved, pair75)
        fresh = root_sum_law(build_relay_strategy(tree, ident, (-0.8, 0.0)), pair75)
        for a, b in zip(got, fresh):
            assert_array_equal(a, b)
        assert got[0].size != old[0].size or np.any(got[0] != old[0])

    def test_state_space_cap(self, pair75, ident, monkeypatch):
        # the root's halves of 16 atoms each fit; their outer sum, built only
        # when read, does not
        monkeypatch.setattr(ev, "STATE_SPACE_CAP", 64)
        tree = TreeFamily("increasing_leaves").generate(8)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        with pytest.raises(
            StateSpaceTooLarge,
            match=r"^level 2, shape \d+: convolving laws of 16 and 16 atoms would create 256",
        ):
            root_sum_law(s, pair75)

    def test_binomial_power_cap(self, pair75, ident, monkeypatch):
        monkeypatch.setattr(ev, "STATE_SPACE_CAP", 10)
        s = build_relay_strategy(TreeFamily("wide_uniform", {"m": 10}).generate(2), ident, (0.0, 0.0))
        with pytest.raises(
            StateSpaceTooLarge,
            match=r"^level 1, shape 1: 10 copies of a two-atom law would create 11 atoms, "
            r"over the cap of 10$",
        ):
            root_sum_law(s, pair75)


def built_tails(law, leaf_count, threshold):
    """(low1, high0) of a built law by its sorted prefix and suffix sums: the
    reference for the root's halves.  A side of every atom has mass one."""
    k = int(np.count_nonzero(law.values / leaf_count <= threshold))
    sides = (law.logp1[:k], law.logp0[k:])
    return tuple(0.0 if side.size == law.n_atoms else _logsumexp(side) for side in sides)


def assert_tails_close(got, want):
    # the stated bound: 1e-13 of the log mass, absolute below 1, as the
    # halves sum a pair's mass in another order than the built root
    for g, w in zip(got, want, strict=True):
        assert g == w or abs(g - w) <= 1e-13 * max(1.0, abs(w)), (got, want)


@st.composite
def multi_run_roots(draw):
    """A bern75 or ternary pair, a height-2 tree of relays of 1..5 leaves with
    at least two leaf counts, and a relay threshold at a relay sum atom or an
    ulp beside it."""
    pair = draw(st.sampled_from((bernoulli_pair(0.75), TERNARY)))
    counts = draw(st.lists(st.integers(1, 5), min_size=2, max_size=6).filter(lambda c: len(set(c)) > 1))
    k = draw(st.sampled_from(counts))
    atoms = ev._conv_power(law_from_pair(pair), k).values / k
    t = atoms[draw(st.integers(0, atoms.size - 1))]
    t = float(np.nextafter(t, draw(st.sampled_from((-np.inf, t, np.inf)))))
    parents = [-1] + [0] * len(counts) + [1 + i for i, c in enumerate(counts) for _ in range(c)]
    return pair, Tree(parents), t


class TestRootHalves:
    """A root of several runs is read from two halves of its runs, never built."""

    @staticmethod
    def _built_calibration(strategy, pair, law, alpha):
        # the built law beside the law of 0 is a root of one run, calibrated on its atoms
        one_run = replace(strategy)
        one_run._laws[pair] = ev._LawContext([], [], (ev._ZERO, law))
        return np_calibrate_root(one_run, pair, alpha).root_threshold

    @settings(max_examples=60, deadline=None)
    @given(multi_run_roots())
    def test_halves_match_the_built_root(self, case):
        pair, tree, t = case
        s = build_relay_strategy(tree, identity_map(pair.alphabet), (t, t))
        ctx = ev._context_for(s, pair)
        law = MessageLaw(*root_sum_law(s, pair)[:2])
        l_f = int(tree.shape_counts.leaf_count[-1])
        atoms = law.values / l_f
        for q in atoms.tolist():
            assert_tails_close(ev._root_tails(ctx, l_f, q), built_tails(law, l_f, q))
        for alpha in (0.05, 0.25, 0.5, 0.95):
            threshold = np_calibrate_root(s, pair, alpha).root_threshold
            assert threshold in atoms.tolist()
            assert threshold == self._built_calibration(s, pair, law, alpha)

    @pytest.mark.parametrize("p, epsilon", [(0.75, 0.4), (0.85, 0.1)])
    def test_past_the_cap_the_halves_keep_the_built_atom(self, monkeypatch, p, epsilon):
        # 2^14 root atoms built at the default cap, then read from halves of
        # 2^7 atoms under a cap of 2^8; at 0.85 the built root merged 5,008
        # groups of equal sums
        pair = bernoulli_pair(p)
        tree = TreeFamily("increasing_leaves").generate(14)

        def strategy():
            return simple_strategy(tree, pair, all_binary_leaf_family(pair.alphabet), epsilon).strategy

        law = MessageLaw(*root_sum_law(strategy(), pair)[:2])
        l_f = int(tree.shape_counts.leaf_count[-1])
        monkeypatch.setattr(ev, "STATE_SPACE_CAP", 2**8)
        s = strategy()
        for alpha in (0.01, 0.1, 0.25, 0.5):
            cal = np_calibrate_root(s, pair, alpha)
            assert cal.root_threshold == self._built_calibration(s, pair, law, alpha)
            est = exact_error_probs(cal, pair)
            want = built_tails(law, l_f, cal.root_threshold)
            assert (est.log_type_ii, est.log_type_i) == pytest.approx(want, rel=1e-12, abs=0)
        with pytest.raises(StateSpaceTooLarge):
            root_sum_law(s, pair)

    def test_25_relays_past_the_cap(self, pair75, leaf_family):
        # 2^25 root atoms, over the cap; halves of 2^12 and 2^13 atoms
        tree = TreeFamily("increasing_leaves").generate(25)
        start = time.perf_counter()
        cal = np_calibrate_root(simple_strategy(tree, pair75, leaf_family, 0.4).strategy, pair75, 0.25)
        est = exact_error_probs(cal, pair75)
        root = tail_report(cal, pair75)[0]
        elapsed = time.perf_counter() - start
        assert [h.n_atoms for h in ev._context_for(cal, pair75).halves] == [2**12, 2**13]
        assert est.type_i <= 0.25 and -200.0 < est.log_type_ii < -100.0
        assert math.isfinite(root.log_miss_per_leaf) and math.isfinite(root.log_fa_per_leaf)
        assert elapsed < 0.5
        refusal = r"^level 2, shape 26: convolving laws of 4096 and 8192 atoms"
        with pytest.raises(StateSpaceTooLarge, match=refusal):
            root_sum_law(cal, pair75)

    @pytest.mark.parametrize("t, errors", [(1e308, (0.0, 1.0)), (-1e308, (1.0, 0.0))])
    def test_thresholds_past_every_pair_sum(self, pair75, ident, t, errors):
        # t·L overflows to ±inf: every pair sum goes low at 1e308 and high at -1e308,
        # for exact errors, the tail report's root row and Monte Carlo alike
        s = build_relay_strategy(TreeFamily("increasing_leaves").generate(6), ident, (0.0, t))
        assert ev._context_for(s, pair75).halves[0].n_atoms > 1
        est = exact_error_probs(s, pair75)
        assert (est.type_i, est.type_ii) == errors
        row = tail_report(s, pair75)[0]
        assert (math.exp(row.log_fa_per_leaf), math.exp(row.log_miss_per_leaf)) == errors
        mc = monte_carlo_error(s, pair75, trials=100, seed=0)
        assert (mc.type_i, mc.type_ii) == errors

    def test_a_root_of_one_run_builds_no_cumulative_tables(self, pair75, leaf_family):
        # beside the law of 0, a root of one run is read as a relay's split reads
        # its law: its readers build none of the larger half's cumulative tables
        s = simple_strategy(TreeFamily("wide_uniform", {"m": 4}).generate(50), pair75, leaf_family, 0.4).strategy
        cal = np_calibrate_root(s, pair75, 0.25)
        exact_error_probs(cal, pair75)
        tail_report(cal, pair75)
        monte_carlo_error(cal, pair75, trials=100, seed=0)
        ctx = ev._context_for(cal, pair75)
        assert ctx.halves[0] is ev._ZERO and "larger" not in vars(ctx)

    @pytest.mark.parametrize("kind, params, size, thresholds", [
        ("parallel", {}, 12, (0.0,)),
        ("wide_uniform", {"m": 4}, 50, (0.1, 0.0)),
        ("two_relay", {}, 30, (0.0, 0.0)),
        ("wide_uniform", {"m": 4}, 50, (1e308, 0.0)),  # every relay sends low: B is one atom
    ])
    def test_a_root_of_one_run_sums_its_sides_as_splits_does(self, pair75, ident, kind, params, size,
                                                              thresholds):
        tree = TreeFamily(kind, params).generate(size)
        ctx = ev._context_for(build_relay_strategy(tree, ident, thresholds), pair75)
        b = ctx.halves[1]
        assert ctx.halves[0] is ev._ZERO and (b.n_atoms == 1) == (thresholds[0] == 1e308)
        l_f = int(tree.shape_counts.leaf_count[-1])
        atoms = b.values / l_f
        for t in [*atoms.tolist(), *((atoms[1:] + atoms[:-1]) / 2).tolist(), 1e308, -1e308]:
            want = ev._splits([b], [l_f], t)[0][3:5]
            assert _hexes(ev._root_tails(ctx, l_f, t)) == _hexes(want), t

    def test_merged_sums_are_read_by_their_least(self):
        # sums of ternary leaf laws are multiples of one log-likelihood ratio,
        # so these halves' 63 pair sums are 21 distinct floats, which the built
        # root merges into 15 atoms, each its group's least sum.  The rule reads
        # a group by that sum, so the halves send a group that straddles their
        # own cut low with it: tails, cut and calibration as the built root's
        leaf = law_from_pair(TERNARY)
        ctx = ev._LawContext([], [], (ev._conv_power(leaf, 3), ev._conv_power(leaf, 4)))
        law = ev._sum_law(ctx.halves)
        sums = np.add.outer(*(h.values for h in ctx.halves)).ravel()
        assert (sums.size, np.unique(sums).size, law.n_atoms) == (63, 21, 15)
        q = sums / 7
        for t in np.concatenate((q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf))).tolist():
            assert_tails_close(ev._root_tails(ctx, 7, t), built_tails(law, 7, t))
            k = int(np.count_nonzero(law.values / 7 <= t))
            cut = ev._root_cut(ctx, 7, t)[1]
            assert (law.values[k - 1] < cut if k else cut == -np.inf)
            assert (cut < law.values[k] if k < law.n_atoms else cut == np.inf)
        def reported(t):  # type I as exact_error_probs reports it
            return math.exp(min(ev._root_tails(ctx, 7, t)[1], 0.0))

        tails = np.array([reported(t) for t in (law.values / 7).tolist()])
        tails = tails[(tails > 0.0) & (tails < 1.0)]
        alphas = np.concatenate((tails, np.nextafter(tails, 0.0), np.nextafter(tails, 1.0)))
        s = build_relay_strategy(TreeFamily("parallel").generate(8), identity_map(TERNARY.alphabet), (0.0,))
        assert int(s.tree.shape_counts.leaf_count[-1]) == 7
        s._laws[TERNARY] = ctx  # calibrated on these halves, as a root of seven leaves
        for alpha in alphas.tolist():
            threshold = np_calibrate_root(s, TERNARY, alpha).root_threshold
            i = int(np.searchsorted(law.values / 7, threshold))
            assert law.values[i] / 7 == threshold and reported(threshold) <= alpha
            assert i == 0 or reported(law.values[i - 1] / 7) > alpha

    def test_readers_build_no_law_past_the_larger_half(self, pair75, leaf_family, monkeypatch):
        # calibration, exact errors, the tail report and Monte Carlo on a root
        # of 12 runs: the largest law any of them makes is a half, and each
        # relay shape is still split once
        sizes, splits = [], []
        check, split = ev._check_laws, ev._splits

        def checked(v, logp0, starts):  # the largest law of each checked batch
            sizes.append(int(np.diff(starts, append=v.size).max()))
            check(v, logp0, starts)

        monkeypatch.setattr(ev, "_check_laws", checked)
        monkeypatch.setattr(ev, "_splits", lambda *a: splits.extend(a[0]) or split(*a))
        tree = TreeFamily("increasing_leaves").generate(12)
        s = simple_strategy(tree, pair75, leaf_family, 0.4).strategy
        cal = np_calibrate_root(s, pair75, 0.25)
        exact_error_probs(cal, pair75)
        tail_report(cal, pair75)
        monte_carlo_error(cal, pair75, trials=1000, seed=0)
        ctx = ev._context_for(cal, pair75)
        assert [h.n_atoms for h in ctx.halves] == [64, 64] and max(sizes) == 64
        assert len(splits) == len(set(map(id, splits))) == 12
        assert "root_sum" not in vars(ctx)


class TestExactErrors:
    def test_log_fields_match_linear(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(5)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        cal = np_calibrate_root(s, pair75, 0.25)
        est = exact_error_probs(cal, pair75)
        assert est.method == "exact"
        assert est.type_i == pytest.approx(math.exp(est.log_type_i), rel=1e-12)
        assert est.type_ii == pytest.approx(math.exp(est.log_type_ii), rel=1e-12)

    def test_deep_type_ii_survives_underflow(self, pair75, leaf_family):
        tree = TreeFamily("parallel").generate(2001)
        s = simple_strategy(tree, pair75, leaf_family, 0.02).strategy
        cal = np_calibrate_root(s, pair75, 0.25)
        est = exact_error_probs(cal, pair75)
        assert est.type_ii == 0.0
        assert est.log_type_ii < -1000.0
        assert math.isfinite(est.log_type_ii)

    def test_or_gate_two_relay(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(2)
        s = build_relay_strategy(
            tree, ident, (0.0, 0.0), level1_gate=or_gate()
        )
        cal = np_calibrate_root(s, pair75, 0.25)
        # hand-convolved: relay fires with prob 7/16 under the null and
        # 15/16 under the alternative
        assert cal.root_threshold == pytest.approx(-0.3587711313223306, rel=1e-12)
        est = exact_error_probs(cal, pair75)
        assert est.type_i == pytest.approx(0.19140625, abs=1e-12)
        assert est.type_ii == pytest.approx(0.12109375, abs=1e-12)

    @pytest.mark.parametrize("pair", [bernoulli_pair(0.75), TERNARY], ids=["bern75", "ternary"])
    @pytest.mark.parametrize("family, params, size, thresholds", [
        ("parallel", {}, 5, (0.0,)),
        ("two_relay", {}, 5, (0.0, 0.0)),
        ("wide_uniform", {"m": 3}, 4, (0.0, 0.0)),
    ], ids=["parallel", "two_relay", "wide_uniform"])
    def test_a_side_of_every_atom_has_log_mass_zero(self, pair, family, params, size, thresholds):
        # the law's check fixes its total at one, so that side is not summed
        tree = TreeFamily(family, params).generate(size)
        s = build_relay_strategy(tree, identity_map(pair.alphabet), thresholds)
        atoms = root_sum_law(s, pair)[0] / int(tree.shape_counts.leaf_count[-1])
        above = exact_error_probs(replace(s, root_threshold=float(atoms[-1]) + 1.0), pair)
        assert (above.type_i, above.type_ii, above.log_type_ii) == (0.0, 1.0, 0.0)
        below = exact_error_probs(replace(s, root_threshold=float(atoms[0]) - 1.0), pair)
        assert (below.type_i, below.type_ii, below.log_type_i) == (1.0, 0.0, 0.0)


def tail_rows_by_node(strategy, pair):
    """Reference tail report: one node at a time, in node-id order, with
    counts from per-depth passes rather than the shape table."""
    ctx = ev._context_for(strategy, pair)
    tree = strategy.tree
    _, leaves, nodes = subtree_counts_by_passes(tree)
    rows = []
    for v in np.flatnonzero(~tree.is_leaf):
        level = int(tree.height - tree.depth[v])
        if level == 1 and strategy.level1_gate is not None:
            continue
        # the node's own sum law, rebuilt from its shape's runs in the engine's order
        runs = tree.shape_children[int(tree.shape_ids[v])]
        law = ev._sum_law([ev._conv_power(ctx.out[k], c) for k, c in runs])
        l_v = int(leaves[v])
        t = strategy.thresholds[level - 1]
        *_, low1, high0, _ = reference_split(law, l_v, t)
        p_v = int(nodes[v])
        rows.append(ev.TailRow(int(v), level, l_v, p_v, low1 / l_v, high0 / l_v))
    return tuple(rows)


def assert_rows_match(strategy, rows, expected):
    """``rows`` are the reference rows, but a root of several runs is read from
    its two halves, not from the law the reference builds: its tails match to
    1e-12 relative, and a one-run root's bit for bit."""
    rows, expected = list(rows), list(expected)
    if len(strategy.tree.shape_children[-1]) > 1:
        i = [r.node for r in expected].index(strategy.tree.root)
        root, want = rows.pop(i), expected.pop(i)
        assert root[:4] == want[:4] and root[4:] == pytest.approx(want[4:], rel=1e-12, abs=0)
    assert rows == expected


class RecordingFamily:
    """A tree family that keeps every tree it generates."""

    def __init__(self, family):
        self.family, self.trees = family, []

    def generate(self, size):
        self.trees.append(self.family.generate(size))
        return self.trees[-1]


class TestTailReport:
    # two fringe shapes under two level-2 shapes; every relay has several children,
    # so no relay's sum law is its one child's outgoing law
    HEIGHT_3 = Tree(
        [-1, 0, 0, 1, 1, 1, 2, 2, 2]
        + [3] * 2 + [4] * 3 + [5] * 2 + [6] * 3 + [7] * 3 + [8] * 2
    )

    def test_matches_node_by_node_rows(
        self, pair75, ident, leaf_family, make_rugged_tree
    ):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tree = make_rugged_tree(rng, int(rng.integers(2, 5)))
            s = simple_strategy(tree, pair75, leaf_family, 0.2).strategy
            rows = tail_report(s, pair75)
            assert_rows_match(s, rows, tail_rows_by_node(s, pair75))
            # plain Python scalars, as the node-by-node rows held
            assert {type(x) for r in rows for x in tuple(r)} == {int, float}
        tree = TreeFamily("wide_uniform", {"m": 2}).generate(3)
        s = build_relay_strategy(tree, ident, (0.0, 0.0), level1_gate=or_gate())
        assert tail_report(s, pair75) == tail_rows_by_node(s, pair75)

    def test_exact_path_reads_only_the_shape_table(self, pair75, ident, leaf_family):
        # per-node subtree counts cost a pass over every node; the shape
        # table already holds the root's and every row's, and a fringe
        # node's leaf count is its degree
        family = RecordingFamily(TreeFamily("wide_uniform", {"m": 3}))
        tree = family.generate(40)

        def factory(t):
            return simple_strategy(t, pair75, leaf_family, 0.1).strategy

        cal = np_calibrate_root(factory(tree), pair75, 0.25)
        exact_error_probs(cal, pair75)
        root = tail_report(cal, pair75)[0]
        monte_carlo_error(cal, pair75, trials=200, seed=0)
        chebyshev_variance_check(cal, pair75, small_cap=3, eta=0.3)
        chernoff_bound_report(tree, rate_table(pair75, ident, (0.0, 0.0)), n_floor=3)
        analyze_tree(tree, 2)
        estimate_z(family, (5, 10))
        empirical_exponent(family, pair75, (5, 10), factory)
        assert cal.tree is tree and len(family.trees) == 5
        for t in family.trees:
            assert {"subtree_leaf_count", "subtree_node_count", "_parents",
                    "depth"}.isdisjoint(t.__dict__)
        assert (root.node, root.leaf_count, root.pred_count) == (0, 120, 160)

    def test_a_family_tree_at_scale_expands_no_per_node_array(self, pair75, ident, leaf_family):
        # a family tree is its shape table, and none of these reads expands a
        # per-node array: 10^7 relays would need gigabytes of them
        family = TreeFamily("wide_uniform", {"m": 20})
        big = family.generate(10**7)
        assert big.shape_multiplicity.tolist() == [2 * 10**8, 10**7, 1]
        assert big.shape_counts.node_count[-1] == 21 * 10**7
        assert big.height == 2 and big.is_uniform
        assert analyze_tree(big, 20).n_nodes == 21 * 10**7 + 1
        build_relay_strategy(big, ident, (0.0, 0.0))
        report = chernoff_bound_report(big, rate_table(pair75, ident, (0.0, 0.0)), 20)
        assert len(report.rows) == 2 * (10**7 + 1) + 2
        assert [r.kind for r in report.roots] == ["root_type1", "root_type0"]
        tree = family.generate(10**6)
        cal = np_calibrate_root(simple_strategy(tree, pair75, leaf_family, 0.1).strategy, pair75, 0.25)
        exact_error_probs(cal, pair75)
        assert len(tail_report(cal, pair75)) == 10**6 + 1
        monte_carlo_error(cal, pair75, trials=20, seed=0)
        for t in (big, tree):
            assert {"_parents", "_shapes", "depth", "n_children", "_by_depth"}.isdisjoint(t.__dict__)

    def test_two_relay_rows(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(3)
        s = build_relay_strategy(tree, ident, (0.0, 0.0), pair=pair75)
        rows = tail_report(s, pair75)
        assert [r.node for r in rows] == [0, 1, 2]
        root, r1, r2 = rows
        assert root.level == 2 and r1.level == 1
        # P(Bin(3, 1/4) >= 2) = 5/32 on both one-sided tails at zero
        expected = math.log(5.0 / 32.0) / 3.0
        assert r1.log_fa_per_leaf == pytest.approx(expected, rel=1e-12)
        assert r1.log_miss_per_leaf == pytest.approx(expected, rel=1e-12)
        assert r2.log_miss_per_leaf == r1.log_miss_per_leaf
        assert root.log_miss_per_leaf == pytest.approx(-0.20741607487660552, rel=1e-10)

    def test_gate_levels_are_skipped(self, pair75, ident):
        tree = TreeFamily("wide_uniform", {"m": 2}).generate(3)
        s = build_relay_strategy(tree, ident, (0.0, 0.0), level1_gate=or_gate())
        rows = tail_report(s, pair75)
        assert [r.level for r in rows] == [2]

    def test_fringe_laws(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(3)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        laws = fringe_message_laws(s, pair75)
        assert len(laws) == 1
        law, count = laws[0]
        assert count == 2
        assert law.n_atoms == 2
        assert law.p0[1] == pytest.approx(5.0 / 32.0, rel=1e-12)
        assert law.p1[0] == pytest.approx(5.0 / 32.0, rel=1e-12)
        star = build_relay_strategy(TreeFamily("parallel").generate(4), ident, (0.0,))
        with pytest.raises(InvalidParams):
            fringe_message_laws(star, pair75)

    def test_relay_rule_is_applied_once_per_relay_shape(self, pair75, ident, monkeypatch):
        # each relay level is split once, while its laws are built, in one
        # batch of its shapes' sum laws; the readers, calibration among them,
        # cut only the root, at their own threshold, and cut it through its
        # two halves: no law is cut after the build
        calls, counts = [], []  # (laws, their splits) per batch; each root cut
        split, root_cut = ev._splits, ev._root_cut
        monkeypatch.setattr(ev, "_splits", lambda *a: calls.append((a[0], split(*a))) or calls[-1][1])
        monkeypatch.setattr(ev, "_root_cut", lambda *a, **k: counts.append(a[0]) or root_cut(*a, **k))
        s = build_relay_strategy(self.HEIGHT_3, ident, (0.0, -0.1, 0.1))
        s = np_calibrate_root(s, pair75, 0.25)
        ctx = ev._context_for(s, pair75)
        relays = [r for r in ctx.split if r is not None]
        # two fringe shapes, then two level-2 shapes, each level split in one batch
        assert len(relays) == 4 and ctx.halves[0].n_atoms > 1
        assert [len(laws) for laws, _ in calls] == [2, 2]
        assert all(got is r for got, r in zip((g for _, got in calls for g in got), relays, strict=True))
        calibration_counts = len(counts)
        assert calibration_counts >= 1
        exact_error_probs(s, pair75)
        tail_report(s, pair75)
        monte_carlo_error(s, pair75, trials=100, seed=0)
        assert len(calls) == 2
        assert len(counts) == calibration_counts + 3 and all(c is ctx for c in counts)
        assert "root_sum" not in vars(ctx)

    def test_only_the_root_sum_law_outlives_the_build(self, pair75, ident, monkeypatch):
        # a relay's sum law is read once, by its split, and then dropped; the
        # root keeps its halves, and its own sum law is not built
        refs = []
        split = ev._splits
        monkeypatch.setattr(ev, "_splits", lambda *a: refs.extend(map(weakref.ref, a[0])) or split(*a))
        ctx = ev._context_for(build_relay_strategy(self.HEIGHT_3, ident, (0.0, -0.1, 0.1)), pair75)
        gc.collect()
        assert len(refs) == 4
        assert all(r() is None for r in refs)
        assert ctx.halves[0].n_atoms > 1 and "root_sum" not in vars(ctx)


def assert_lazy_rows(make):
    """``make()`` returns a fresh report row sequence; check its sequence
    contract against its own expansion, and return that expansion."""
    n = len(make())  # no row is built yet
    rows = make()
    expected = tuple(rows)
    assert n == len(rows) == len(expected) > 0
    assert tuple(rows) == expected  # a second pass yields the same rows
    for i in range(-n, n):
        assert rows[i] == expected[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]
    assert rows == expected and rows == list(expected) and make() == rows
    assert not rows != expected and list(expected) == rows
    assert rows != expected[:-1] and rows != expected + expected[-1:]
    if expected[0] != expected[-1]:
        assert rows != expected[::-1]
    assert rows != 3 and rows != "rows"
    with pytest.raises(TypeError):
        hash(rows)
    return expected


class TestReportRows:
    def test_rugged_trees(self, pair75, ident, leaf_family, make_rugged_tree):
        rng = np.random.default_rng(5)
        for _ in range(8):
            tree = make_rugged_tree(rng, int(rng.integers(1, 5)))
            s = simple_strategy(tree, pair75, leaf_family, 0.2).strategy
            rows = assert_lazy_rows(lambda: tail_report(s, pair75))
            assert_rows_match(s, rows, tail_rows_by_node(s, pair75))
            table = rate_table(pair75, ident, (-0.2,) * s.tree.height)
            floor = int(s.tree.shape_counts.fringe_degrees.min())
            for n_floor in (floor, floor + 1):
                rows = assert_lazy_rows(lambda: chernoff_bound_report(s.tree, table, n_floor).rows)
                roots = chernoff_bound_report(s.tree, table, n_floor).roots
                assert len(roots) == (2 if n_floor == floor else 0)
                assert rows[len(rows) - len(roots):] == roots
                assert len(rows) == 2 * np.count_nonzero(~s.tree.is_leaf) + len(roots)

    def test_gate_drops_the_fringe_shapes(self, pair75, ident):
        tree = Tree([-1, 0, 0, 1, 1, 2, 2])
        s = build_relay_strategy(tree, ident, (0.0, 0.0), level1_gate=or_gate())
        rows = assert_lazy_rows(lambda: tail_report(s, pair75))
        assert rows == tail_rows_by_node(s, pair75) and [r.node for r in rows] == [0]

    def test_height_one_tree(self, pair75, ident):
        tree = TreeFamily("parallel").generate(6)
        s = build_relay_strategy(tree, ident, (0.0,))
        rows = assert_lazy_rows(lambda: tail_report(s, pair75))
        assert rows == tail_rows_by_node(s, pair75) and [r.node for r in rows] == [0]
        table = rate_table(pair75, ident, (0.0,))
        rows = assert_lazy_rows(lambda: chernoff_bound_report(tree, table, 5).rows)
        assert [r.kind for r in rows] == ["type1", "type0", "root_type1", "root_type0"]

    def test_lengths_read_only_the_shape_table(self, pair75, ident, monkeypatch):
        # a report whose rows are not read costs a pass over shapes, not nodes
        relays = 10**5
        tree = TreeFamily("wide_uniform", {"m": 20}).generate(relays)

        def unread(name):
            def read(tree):
                raise AssertionError(f"read Tree.{name}")
            return property(read)

        for name in ("is_leaf", "shape_ids", "n_children", "fringe"):
            monkeypatch.setattr(Tree, name, unread(name))
        s = np_calibrate_root(build_relay_strategy(tree, ident, (0.0, 0.0)), pair75, 0.25)
        assert len(tail_report(s, pair75)) == relays + 1
        report = chernoff_bound_report(tree, rate_table(pair75, ident, (0.0, 0.0)), 20)
        assert len(report.rows) == 2 * (relays + 1) + 2
        assert [(r.node, r.kind) for r in report.roots] == [
            (0, "root_type1"), (0, "root_type0")
        ]
        with pytest.raises(AssertionError, match="read Tree"):
            report.rows[0]


class TestMonteCarlo:
    def test_reproducible(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(6)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        cal = np_calibrate_root(s, pair75, 0.25)
        a = monte_carlo_error(cal, pair75, trials=5000, seed=9)
        b = monte_carlo_error(cal, pair75, trials=5000, seed=9)
        assert a.type_i == b.type_i
        assert a.type_ii == b.type_ii
        c = monte_carlo_error(cal, pair75, trials=5000, seed=10)
        assert (a.type_i, a.type_ii) != (c.type_i, c.type_ii)

    @pytest.mark.parametrize(
        "ternary, tree, thresholds, trials",
        [
            (False, TreeFamily("two_relay").generate(6), (0.0, 0.0), 40000),
            # commensurate leaf atoms, so sums merge onto shared atoms
            (True, TreeFamily("wide_uniform", {"m": 3}).generate(6), (0.0, 0.0), 40000),
            (True, TreeFamily("increasing_leaves").generate(8), (0.0, 0.0), 40000),
            # height 1: the root reads the fringe counts directly
            (False, TreeFamily("parallel").generate(12), (0.0,), 40000),
            # even leaf counts put relay sums exactly on the threshold
            (False, TreeFamily("two_relay").generate(4), (0.0, 0.0), 40000),
            # every relay sends high, so the laws above the leaves have one atom
            (False, TreeFamily("wide_uniform", {"m": 3}).generate(5), (-5.0, 0.0), 40000),
            # every relay sends low: each bit law has one atom, its low and high
            # end alike, though the fringe split's low log mass sums to 2.2e-16
            (True, TreeFamily("wide_uniform", {"m": 3}).generate(4), (1.0, 0.0), 40000),
            # one group of 40 same-shape fringe siblings: one count per trial,
            # looked up in the Bin(40, P(high)) table
            (False, TreeFamily("wide_uniform", {"m": 2}).generate(40), (0.0, 0.0), 10**6),
            # each level-2 relay holds a two-node sibling group and a lone
            # fringe node of another shape, which in the first relay sits
            # between the group's two nodes
            (
                False,
                Tree(
                    [-1, 0, 0, 1, 1, 1, 2, 2, 2]
                    + [3] * 2 + [4] * 3 + [5] * 2 + [6] * 3 + [7] * 3 + [8] * 2
                ),
                (0.0, 0.0, 0.0),
                40000,
            ),
        ],
        ids=[
            "two_relay", "ternary_wide", "ternary_increasing", "star", "relay_ties", "one_atom",
            "all_low", "sibling_group", "groups_and_lone",
        ],
    )
    def test_matches_exact(self, pair75, ternary, tree, thresholds, trials):
        pair = TERNARY if ternary else pair75
        s = build_relay_strategy(tree, identity_map(pair.alphabet), thresholds)
        cal = np_calibrate_root(s, pair, 0.25)
        exact = exact_error_probs(cal, pair)
        # the calibrated root threshold is an atom, so this pins ties going low
        assert exact.type_i <= 0.25
        mc = monte_carlo_error(cal, pair, trials=trials, seed=3)
        for p, q in ((exact.type_i, mc.type_i), (exact.type_ii, mc.type_ii)):
            se = math.sqrt(p * (1.0 - p) / trials)
            assert abs(p - q) <= 4.0 * se

    def test_matches_exact_with_gate(self, pair75, ident):
        tree = TreeFamily("wide_uniform", {"m": 2}).generate(5)
        s = build_relay_strategy(tree, ident, (0.0, 0.0), level1_gate=or_gate())
        cal = np_calibrate_root(s, pair75, 0.25)
        exact = exact_error_probs(cal, pair75)
        mc = monte_carlo_error(cal, pair75, trials=40000, seed=1)
        for p, q in ((exact.type_i, mc.type_i), (exact.type_ii, mc.type_ii)):
            se = math.sqrt(p * (1.0 - p) / 40000)
            assert abs(p - q) <= 4.0 * se

    def test_matches_exact_on_shuffled_ids(self, pair75, ident, make_uniform_tree):
        # node ids play no part: Monte Carlo walks the shape table, so a
        # permuted tree draws as its shapes do, whatever order ids come in
        rng = np.random.default_rng(8)
        for _ in range(4):
            tree = make_uniform_tree(rng, 3, lo=1, hi=6)
            perm = rng.permutation(tree.n)
            parents = np.full(tree.n, -1)
            kids = np.flatnonzero(tree.parents >= 0)
            parents[perm[kids]] = perm[tree.parents[kids]]
            shuffled = Tree(parents.tolist())
            s = build_relay_strategy(shuffled, ident, (0.0, 0.0, 0.0))
            cal = np_calibrate_root(s, pair75, 0.25)
            exact = exact_error_probs(cal, pair75)
            mc = monte_carlo_error(cal, pair75, trials=40000, seed=3)
            for p, q in ((exact.type_i, mc.type_i), (exact.type_ii, mc.type_ii)):
                se = math.sqrt(p * (1.0 - p) / 40000)
                assert abs(p - q) <= 4.0 * se

    @pytest.mark.parametrize(
        "tree",
        [
            TreeFamily("wide_uniform", {"m": 3}).generate(6),
            TreeFamily("parallel").generate(5),
            Tree(
                [-1, 0, 0, 1, 1, 1, 2, 2, 2]
                + [3] * 2 + [4] * 3 + [5] * 2 + [6] * 3 + [7] * 3 + [8] * 2
            ),
        ],
        ids=["family", "height_1", "parents"],
    )
    def test_reads_no_per_node_array(self, pair75, ident, tree, monkeypatch):
        # after calibration, a simulation needs only the shape table
        s = build_relay_strategy(tree, ident, (0.0,) * tree.height)
        cal = np_calibrate_root(s, pair75, 0.25)

        def refuse(*args):
            raise AssertionError("Monte Carlo read a per-node array")

        for name in ("parents", "depth", "n_children", "shape_ids"):
            monkeypatch.setattr(Tree, name, property(refuse))
        monkeypatch.setattr(Tree, "nodes_at_depth", refuse)
        mc = monte_carlo_error(cal, pair75, trials=2000, seed=4)
        assert 0.0 < mc.type_i < 1.0 and 0.0 <= mc.type_ii < 1.0

    @staticmethod
    def _count_substreams(monkeypatch):
        # the hypothesis of each substream a simulation opens, from its spawn key
        opened, seed_sequence = [], np.random.SeedSequence

        def counted(*args, **kwargs):
            opened.append(kwargs["spawn_key"][1])
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        return opened

    def test_substreams_of_one_seed_draw_apart(self, pair75, ident, monkeypatch):
        # a two_relay root holds one row, so 2048 trials take two blocks of
        # 1024 per hypothesis: four (block, hypothesis) substreams of the
        # seed, here the top of its range, with no uniform in common
        s = build_relay_strategy(TreeFamily("two_relay").generate(6), ident, (0.0, 0.0))
        cal = np_calibrate_root(s, pair75, 0.25)
        monkeypatch.setattr(ev, "_MC_BLOCK_FLOATS", 1024)
        opened, seed_sequence = [], np.random.SeedSequence
        monkeypatch.setattr(
            np.random, "SeedSequence",
            lambda *a, **k: opened.append(seed_sequence(*a, **k)) or opened[-1],
        )
        mc = monte_carlo_error(cal, pair75, trials=2048, seed=2**63 - 1)
        assert 0.0 < mc.type_i < 1.0 and 0.0 < mc.type_ii < 1.0
        assert [ss.spawn_key for ss in opened] == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert all(ss.entropy == 2**63 - 1 for ss in opened)
        draws = [np.random.Generator(np.random.SFC64(ss)).random(1024) for ss in opened]
        assert np.unique(np.concatenate(draws)).size == 4 * 1024

    def test_a_block_holds_every_trial_at_scale(self, pair75, ident, monkeypatch):
        # 10^6 fringe siblings of one root hold one row: one count of high
        # bits per trial, and one substream per hypothesis for 10^5 trials
        tree = TreeFamily("wide_uniform", {"m": 20}).generate(10**6)
        cal = np_calibrate_root(build_relay_strategy(tree, ident, (0.0, 0.0)), pair75, 0.25)
        exact = exact_error_probs(cal, pair75)
        opened = self._count_substreams(monkeypatch)
        mc = monte_carlo_error(cal, pair75, trials=10**5, seed=2)
        assert opened == [0, 1]
        for p, q in ((exact.type_i, mc.type_i), (exact.type_ii, mc.type_ii)):
            assert abs(p - q) <= 4.0 * math.sqrt(p * (1.0 - p) / 10**5)

    def test_block_size_is_floats_over_rows(self, pair75, ident, monkeypatch):
        # a two_relay root holds one row, so a block takes 1024 trials
        s = build_relay_strategy(TreeFamily("two_relay").generate(6), ident, (0.0, 0.0))
        cal = np_calibrate_root(s, pair75, 0.25)
        monkeypatch.setattr(ev, "_MC_BLOCK_FLOATS", 1024)
        opened = self._count_substreams(monkeypatch)
        monte_carlo_error(cal, pair75, trials=5000, seed=0)
        assert opened == [0] * 5 + [1] * 5

    def test_a_block_counts_every_kept_relay_decision(self, pair75, ident, monkeypatch):
        # six level-2 relays of distinct shapes, each appearing once, keep
        # their decisions until the root reads them: with the root, a block
        # holds 7 rows, so takes 1024 // 7 = 146 trials
        parents, fringe = [-1] + [0] * 6, []
        for relay in range(1, 7):
            fringe += list(range(len(parents), len(parents) + relay))
            parents += [relay] * relay
        parents += [f for f in fringe for _ in range(2)]
        tree = Tree(parents)
        assert tree.shape_multiplicity.tolist() == [42, 21] + [1] * 7
        cal = np_calibrate_root(build_relay_strategy(tree, ident, (0.0,) * 3), pair75, 0.25)
        monkeypatch.setattr(ev, "_MC_BLOCK_FLOATS", 1024)
        opened = self._count_substreams(monkeypatch)
        monte_carlo_error(cal, pair75, trials=1000, seed=0)
        assert opened == [0] * 7 + [1] * 7

    def test_binomial_before_lone_uniform_matches_exact(self, pair75, ident):
        # the root's sibling pair has the lower shape id, so its count of high
        # bits is drawn before the lone fringe node's uniform
        tree = Tree([-1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3])
        assert [c for _, c in tree.shape_children[-1]] == [2, 1]
        cal = np_calibrate_root(build_relay_strategy(tree, ident, (0.0, 0.0)), pair75, 0.25)
        exact = exact_error_probs(cal, pair75)
        for seed in range(4):
            mc = monte_carlo_error(cal, pair75, trials=40000, seed=seed)
            for p, q in ((exact.type_i, mc.type_i), (exact.type_ii, mc.type_ii)):
                assert abs(p - q) <= 4.0 * math.sqrt(p * (1.0 - p) / 40000)

    def test_trials_validated(self, pair75, ident):
        tree = TreeFamily("two_relay").generate(2)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        with pytest.raises(InvalidParams):
            monte_carlo_error(s, pair75, trials=0, seed=0)
        # the seed range is API: SeedSequence would take the first two, not -1
        for seed in (2**63, 2**64, -1):
            with pytest.raises(InvalidParams, match=r"seed must lie in \[0, 2\*\*63\)"):
                monte_carlo_error(s, pair75, trials=10, seed=seed)

    @pytest.mark.parametrize(
        "trials, seed, message",
        [(1000.0, 0, "trials is 1000.0"), (True, 0, "trials is True"),
         (10, 1.5, "seed is 1.5"), (10, True, "seed is True")],
    )
    def test_non_integer_trials_and_seeds_are_refused(self, pair75, ident, trials, seed, message):
        s = build_relay_strategy(TreeFamily("two_relay").generate(2), ident, (0.0, 0.0))
        with pytest.raises(InvalidParams, match=message):
            monte_carlo_error(s, pair75, trials=trials, seed=seed)

    @pytest.mark.parametrize(
        "ternary, kind, params, size, gate, pinned",
        [
            # wrong decisions under (H0, H1) per (seed, floats per block);
            # six same-shape two-atom gated siblings draw one count of high
            # bits by inversion, at z = 2.49/-0.50, 0.70/0.37 and -0.31/2.66
            # against exact
            (
                False, "wide_uniform", {"m": 2}, 6, or_gate(),
                {(5, None): (4849, 80), (11, None): (4742, 88), (5, 1024): (4681, 109)},
            ),
            # a three-atom gate law is drawn by CDF search, through the same
            # lookup as a count table
            (
                False, "wide_uniform", {"m": 2}, 5, count_gate(),
                {(5, None): (4547, 68), (11, None): (4611, 81), (5, 1024): (4541, 64)},
            ),
            # a three-atom leaf law: one uniform per fringe node against the
            # exact split, every count within 2 se of the exact rates
            (
                True, "increasing_leaves", {}, 7, None,
                {(5, None): (4721, 52), (11, None): (4662, 60), (5, 1024): (4722, 58)},
            ),
            # a height-1 root is the one fringe node and draws its own decision
            (
                False, "parallel", {}, 12, None,
                {(5, None): (2374, 144), (11, None): (2350, 160), (5, 1024): (2296, 178)},
            ),
            # two same-shape relays: one count of high bits by inversion, at
            # z = 0.90/-0.09, 1.71/-0.01 and -0.15/1.18 against exact
            (
                False, "two_relay", {}, 6, None,
                {(5, None): (1509, 572), (11, None): (1539, 574), (5, 1024): (1470, 602)},
            ),
            # three relays of distinct shapes: one uniform each
            (
                False, "increasing_leaves", {}, 3, None,
                {(5, None): (5040, 331), (11, None): (5007, 365), (5, 1024): (5054, 348)},
            ),
            # 200 OR-gated siblings: count tables of 136 and 91 edges below 1.0,
            # past those counted edge by edge, read through the guide; type I
            # at z = 2.47, 0.74 and -0.07 against exact, type II 1e-74
            (
                False, "wide_uniform", {"m": 2}, 200, or_gate(),
                {(5, None): (4901, 0), (11, None): (4797, 0), (5, 1024): (4748, 0)},
            ),
        ],
        ids=[
            "or_gated_wide", "count_gated_wide", "ternary_increasing", "parallel", "two_relay",
            "binary_increasing", "wide_count_table",
        ],
    )
    def test_fringe_streams_are_pinned(
        self, pair75, monkeypatch, ternary, kind, params, size, gate, pinned
    ):
        # a seed and block size fix every count: a height-1 root, a lone
        # fringe node and each node under a three-atom gate law draw one
        # uniform, and so does a run of same-shape fringe siblings, for its
        # count of high bits
        pair = TERNARY if ternary else pair75
        tree = TreeFamily(kind, params).generate(size)
        gated = {"level1_gate": gate} if gate is not None else {}
        s = build_relay_strategy(
            tree, identity_map(pair.alphabet), (0.0,) * tree.height, **gated
        )
        cal = np_calibrate_root(s, pair, 0.25)
        for (seed, block), (wrong0, wrong1) in pinned.items():
            if block is not None:
                monkeypatch.setattr(ev, "_MC_BLOCK_FLOATS", block)
            mc = monte_carlo_error(cal, pair, trials=20000, seed=seed)
            assert (mc.type_i, mc.type_ii) == (wrong0 / 20000, wrong1 / 20000)


class TestCountDraws:
    """The count table Bin(c, P(high)) of a run of fringe siblings and the
    inverse-CDF lookup that draws from it and from a wide gate law."""

    @staticmethod
    def _table(c, p):
        return ev._count_table(c, np.log([1.0 - p, p]))

    def _cdfs(self, pair75, ident):
        s = build_relay_strategy(
            TreeFamily("wide_uniform", {"m": 2}).generate(5), ident, (0.0, 0.0),
            level1_gate=count_gate(),
        )
        gate = ev._context_for(s, pair75).out[int(np.flatnonzero(s.tree.shape_counts.level == 1)[0])]
        cdf = np.cumsum(ev._exp(gate.logp0))
        gate_cdf = cdf / cdf[-1]
        assert gate_cdf.size == 3
        # edges at, and one past, the count read edge by edge; a table whose
        # top edges round to 1.0, which no u < 1 reaches
        bound = ev._COUNTED_EDGES
        tables = [np.ones(1), self._table(1, 0.3)[1], self._table(2, 0.3)[1],
                  self._table(40, 0.5)[1], self._table(10**6, 0.5)[1], gate_cdf,
                  np.linspace(0.0, 1.0, bound + 2)[1:], np.linspace(0.0, 1.0, bound + 3)[1:],
                  self._table(60, 0.5)[1]]
        assert [t.size for t in tables] == [1, 2, 3, 41, 10957, 3, bound + 1, bound + 2, 61]
        assert [int(np.searchsorted(t, 1.0)) for t in tables[-3:]] == [bound, bound + 1, 58]
        return tables

    def test_inverse_cdf_is_searchsorted(self, pair75, ident):
        rng = np.random.default_rng(0)
        for cdf in self._cdfs(pair75, ident):
            assert cdf[-1] == 1.0
            # every cell edge and its neighbours: the guide's bucket edges
            # round exactly where a lookup can miss its atom
            edges = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)))
            u = np.concatenate(([0.0, 1.0 - 2.0**-53], edges[edges < 1.0], rng.random(10**5)))
            for draws in (u, u[: u.size // 4 * 4].reshape(4, -1)):  # as (nodes, trials)
                k = ev._inverse_cdf(cdf, draws)
                assert k.dtype == np.intp  # so lo + k cannot wrap at any count
                assert_array_equal(k, np.searchsorted(cdf, draws, side="right"))

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.97])
    def test_count_table_is_the_exact_binomial(self, p):
        # the window's law, renormalized, against exact rationals: the CDF the
        # lookup reads, and each count's chance where doubles resolve it
        fp = Fraction(p)
        for c in (2, 3, 6, 13, 40, 60):
            lo, cdf = self._table(c, p)
            assert 0 <= lo and lo + cdf.size - 1 <= c and cdf[-1] == 1.0
            pmf = [math.comb(c, k) * fp**k * (1 - fp) ** (c - k) for k in range(lo, lo + cdf.size)]
            total, run, want = sum(pmf), Fraction(0), []
            assert 1 - total < 2.0 * math.exp(-60.0)  # Hoeffding's bound outside the window
            for mass in pmf:
                run += mass
                want.append(float(run / total))
            assert_allclose(cdf, want, rtol=1e-12, atol=0.0)
            want_pmf = np.array([float(m / total) for m in pmf])
            seen = want_pmf > 1e-3
            assert_allclose(np.diff(cdf, prepend=0.0)[seen], want_pmf[seen], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [1e-9, 0.25, 0.5, 0.999])
    def test_count_window_at_scale(self, p):
        c = 10**6
        lo, cdf = self._table(c, p)
        w = math.ceil(math.sqrt(30 * c))
        assert cdf.size <= 2 * w + 2 and cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        assert lo <= c * p <= lo + cdf.size - 1
        # each count just outside the window lies in a tail that Hoeffding's
        # bound holds below e^-60
        for k in (lo - 1, lo + cdf.size):
            if 0 <= k <= c:
                log_pmf = (math.lgamma(c + 1) - math.lgamma(k + 1) - math.lgamma(c - k + 1)
                           + k * math.log(p) + (c - k) * math.log1p(-p))
                assert log_pmf < -60.0

    @pytest.mark.parametrize(
        "thresholds, ternary",
        [((-5.0, 0.0), False), ((1.0, 0.0), True)],
        ids=["every_relay_high", "every_relay_low"],
    )
    def test_certain_bits_draw_constant_counts(self, pair75, thresholds, ternary):
        with np.errstate(all="raise"):
            lo, cdf = ev._count_table(7, np.array([0.0]))
            assert (lo, cdf.tolist()) == (7, [1.0])
        # every relay sends one side, so its bit law has one atom
        pair = TERNARY if ternary else pair75
        tree = TreeFamily("wide_uniform", {"m": 3}).generate(5)
        s = build_relay_strategy(tree, identity_map(pair.alphabet), thresholds)
        cal = np_calibrate_root(s, pair, 0.25)
        assert ev._context_for(cal, pair).out[1].n_atoms == 1
        with np.errstate(all="raise"):
            mc = monte_carlo_error(cal, pair, trials=2000, seed=1)
        exact = exact_error_probs(cal, pair)
        assert (mc.type_i, mc.type_ii) == (exact.type_i, exact.type_ii)

    @pytest.mark.parametrize("c, p", [(2, 0.25), (6, 0.75), (40, 0.6)])
    def test_drawn_counts_pass_chi_square(self, c, p):
        lo, cdf = self._table(c, p)
        draws = lo + ev._inverse_cdf(cdf, np.random.default_rng(c).random(10**5))
        seen = np.bincount(draws, minlength=c + 1)
        want = 10**5 * np.array([math.comb(c, k) * p**k * (1 - p) ** (c - k) for k in range(c + 1)])
        # pool the counts expected fewer than 5 times into their neighbours
        keep = want >= 5.0
        edges = np.flatnonzero(keep)
        bins = np.clip(np.searchsorted(edges, np.arange(c + 1)), 0, edges.size - 1)
        seen, want = np.bincount(bins, seen), np.bincount(bins, want)
        stat = float(np.sum((seen - want) ** 2 / want))
        assert chdtrc(seen.size - 1, stat) > 1e-3


class TestOneBitCeiling:
    """C(k): the largest divergence per leaf that one bit of a k-leaf relay
    (bern75, identity map) carries, over every split of its sum law.  By
    Stein's lemma it bounds what such relays add to the root's exponent, so
    it shows why criterion 6's relays of 16..24 leaves fall short of -0.549."""

    @staticmethod
    def ceiling(pair, k):
        # every split at once: the log masses of each prefix and each suffix
        law = ev._conv_power(law_from_pair(pair), k)
        low0, low1 = (np.logaddexp.accumulate(x)[:-1] for x in (law.logp0, law.logp1))
        high0, high1 = (np.logaddexp.accumulate(x[::-1])[::-1][1:] for x in (law.logp0, law.logp1))
        d = np.exp(low0) * (low0 - low1) + np.exp(high0) * (high0 - high1)
        return float(d.max(initial=0.0)) / k

    @staticmethod
    def brute_force(k, p=0.75):
        # every one-bit message of the count of ones, not only threshold splits
        q0 = np.array([math.comb(k, j) * (1 - p) ** j * p ** (k - j) for j in range(k + 1)])
        q1 = q0[::-1]
        sets = (np.arange(2 ** (k + 1))[:, None] >> np.arange(k + 1)) & 1
        a0, a1 = sets @ q0, sets @ q1
        inner = (a0 > 0) & (a0 < 1)
        a0, a1 = a0[inner], a1[inner]
        return float(np.max(a0 * np.log(a0 / a1) + (1 - a0) * np.log((1 - a0) / (1 - a1)))) / k

    def test_one_leaf_is_the_parallel_exponent(self, pair75, leaf_family):
        assert abs(self.ceiling(pair75, 1) + parallel_exponent(pair75, leaf_family)[0]) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 13))
    def test_threshold_splits_are_optimal(self, pair75, k):
        assert abs(self.ceiling(pair75, k) - self.brute_force(k)) <= 1e-12

    def test_criterion_6_relays_stay_below_the_target_band(self, pair75):
        # criterion 6 wants -0.549 +- 0.05 from relays of 16..24 leaves
        ceilings = [self.ceiling(pair75, k) for k in range(16, 25)]
        assert max(ceilings) < 0.499
        assert [round(self.ceiling(pair75, k), 3) for k in (16, 20, 24)] == [0.383, 0.384, 0.383]


def test_import_loads_no_scipy():
    # the package needs only numpy; scipy.special alone doubled its import time
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, treedet, treedet.cli; "
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0


class TestEmpiricalExponent:
    def _factory(self, pair, family):
        def make(tree):
            return simple_strategy(tree, pair, family, 0.2).strategy

        return make

    def test_fields_are_consistent(self, pair75, leaf_family):
        fit = empirical_exponent(
            TreeFamily("two_relay"),
            pair75,
            (100, 200),
            self._factory(pair75, leaf_family),
        )
        assert fit.leaf_counts == (200, 400)
        assert len(fit.node_counts) == len(fit.type_i) == 2
        for per_leaf, logb, lf in zip(fit.per_leaf, fit.log_type_ii, fit.leaf_counts):
            assert per_leaf == pytest.approx(logb / lf, rel=1e-12)
        assert fit.slope < 0.0
        assert all(t <= 0.25 for t in fit.type_i)  # the default alpha

    def test_regressor_validation(self, pair75, leaf_family):
        with pytest.raises(InvalidParams):
            empirical_exponent(
                TreeFamily("two_relay"),
                pair75,
                (50, 100),
                self._factory(pair75, leaf_family),
                regress_on="height",
            )

    @pytest.mark.parametrize("sizes", [(3.9, 6), (3, True)])
    def test_non_integer_sizes_are_refused(self, pair75, leaf_family, sizes):
        with pytest.raises(InvalidParams, match="size is"):
            empirical_exponent(
                TreeFamily("two_relay"), pair75, sizes, self._factory(pair75, leaf_family)
            )

    def test_constant_regressor_rejected(self, pair75, leaf_family):
        with pytest.raises(InvalidParams):
            empirical_exponent(
                TreeFamily("two_relay"),
                pair75,
                (100, 100),
                self._factory(pair75, leaf_family),
            )


class TestChebyshev:
    def test_bound_holds_on_small_fringe(self, pair75, ident):
        tree = TreeFamily("wide_uniform", {"m": 2}).generate(50)
        s = build_relay_strategy(tree, ident, (0.0, 0.0), pair=pair75)
        rep = chebyshev_variance_check(s, pair75, small_cap=2, eta=0.3)
        assert rep.holds
        assert rep.exceed_probability <= rep.bound
        lf = int(tree.subtree_leaf_count[tree.root])
        expected = (LOG3 * LOG3 + 2.0) * 3.0 / (0.09 * lf)
        assert rep.bound == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "kind, params, size, pair, small_cap, eta",
        [
            ("wide_uniform", {"m": 2}, 50, bernoulli_pair(0.75), 2, 0.3),
            ("two_relay", {}, 3, TERNARY, 3, 0.25),
        ],
    )
    def test_bound_constant_is_second_moment_plus_two(
        self, kind, params, size, pair, small_cap, eta
    ):
        tree = TreeFamily(kind, params).generate(size)
        assert tree.height == 2
        s = build_relay_strategy(tree, identity_map(pair.alphabet), (0.0, 0.0), pair=pair)
        rep = chebyshev_variance_check(s, pair, small_cap=small_cap, eta=eta)
        l = int(tree.subtree_leaf_count[tree.root])
        assert rep.bound == (second_moment_null(pair) + 2.0) * (1 + small_cap) / (eta**2 * l)

    def test_requires_height_two(self, pair75, ident):
        tree = TreeFamily("parallel").generate(5)
        s = build_relay_strategy(tree, ident, (0.0,))
        with pytest.raises(InvalidParams):
            chebyshev_variance_check(s, pair75, small_cap=2, eta=0.3)

    def test_fringe_cap_enforced(self, pair75, ident):
        tree = TreeFamily("wide_uniform", {"m": 3}).generate(5)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        message = "^every fringe node must hold at most small_cap leaves$"
        with pytest.raises(InvalidParams, match=message):
            chebyshev_variance_check(s, pair75, small_cap=2, eta=0.3)
        assert chebyshev_variance_check(s, pair75, small_cap=3, eta=0.3).holds

    @pytest.mark.parametrize("small_cap", [2.5, True, "3"])
    def test_small_cap_must_be_an_integer(self, pair75, ident, small_cap):
        tree = TreeFamily("wide_uniform", {"m": 2}).generate(5)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        with pytest.raises(InvalidParams, match="small_cap is"):
            chebyshev_variance_check(s, pair75, small_cap=small_cap, eta=0.3)

    @pytest.mark.parametrize("eta", [0.0, -0.3, math.nan])
    def test_eta_must_be_positive(self, pair75, ident, eta):
        tree = TreeFamily("wide_uniform", {"m": 2}).generate(5)
        s = build_relay_strategy(tree, ident, (0.0, 0.0))
        with pytest.raises(InvalidParams, match="eta must be positive"):
            chebyshev_variance_check(s, pair75, small_cap=2, eta=eta)

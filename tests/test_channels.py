import functools
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from treedet import (
    BINARY,
    Alphabet,
    Direction,
    DistributionPair,
    EnumerationTooLarge,
    InputError,
    InvalidParams,
    QuantizerFamily,
    TransmissionFunction,
    all_binary_leaf_family,
    and_gate,
    bernoulli_pair,
    enumerate_quantizers,
    forward_first_gate,
    fused_pair,
    fusion_loss_constant,
    identity_map,
    induced_pair,
    kl_divergence,
    or_gate,
    parallel_exponent,
    xor_gate,
)
from treedet.errors import DegenerateFamily
from treedet.evaluate import _sends_low

LOG3 = math.log(3.0)
TERNARY = Alphabet((0, 1, 2))
G_PARALLEL = -0.5493061443340548


def _constant(value):
    """The binary map that sends both symbols to ``value``."""
    return TransmissionFunction(0, (BINARY,), BINARY, {(0,): value, (1,): value})


class TestTransmissionFunction:
    def test_identity(self):
        f = identity_map(BINARY)
        assert f.arity == 0
        assert f(0) == 0 and f(1) == 1

    def test_gate_tables(self):
        assert [or_gate()(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 1, 1]
        assert [and_gate()(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 0, 0, 1]
        assert [xor_gate()(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 1, 0]
        assert [forward_first_gate()(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 0, 1, 1]

    def test_json_round_trip(self):
        f = or_gate()
        g = TransmissionFunction.from_json(f.to_json())
        assert g.arity == 2
        assert all(g(a, b) == f(a, b) for a in (0, 1) for b in (0, 1))

    def test_wide_identity_builds_in_linear_time(self):
        # the domain and output checks are set lookups, not tuple scans
        alphabet = Alphabet(tuple(range(4000)))
        t0 = time.perf_counter()
        f = identity_map(alphabet)
        assert time.perf_counter() - t0 < 0.2
        assert f(3999) == 3999

    def test_out_of_domain_entry_rejected(self):
        table = {(0,): 0, (1,): 1, (2,): 0}
        with pytest.raises(
            InvalidParams, match=r"table has entries outside the domain: \[\(2,\)\]"
        ):
            TransmissionFunction(0, (BINARY,), BINARY, table)

    @pytest.mark.parametrize(
        "arity, inputs, table, message",
        [
            (-1, (BINARY,), {(0,): 0, (1,): 1}, "^arity must be >= 0$"),
            (2, (BINARY,), {(0,): 0, (1,): 1}, r"^arity 2 requires 2 input alphabet\(s\)$"),
            (0, (BINARY,), {(0,): 0}, r"^table not total: missing \[\(1,\)\]\.\.\.$"),
            (0, (BINARY,), {(0,): 0, (1,): 2}, r"^outputs \[2\] not in the output alphabet$"),
            (0, (BINARY,), {(0,): [0], (1,): 1}, r"^outputs \[\[0\]\] not in the output alphabet$"),
            (0, (BINARY,), {(0,): 0, (2,): 0}, r"^table not total: missing \[\(1,\)\]\.\.\.$"),
        ],
        ids=["negative_arity", "input_count", "not_total", "output_outside", "unhashable_output",
             "missing_before_extra"],
    )
    def test_malformed_maps_rejected(self, arity, inputs, table, message):
        with pytest.raises(InvalidParams, match=message):
            TransmissionFunction(arity, inputs, BINARY, table)

    def test_wrong_input_count(self):
        from treedet import InputError

        with pytest.raises(InputError):
            or_gate()(0)


class TestEnumeration:
    def test_binary_maps_in_order(self):
        maps = enumerate_quantizers(BINARY, BINARY)
        assert len(maps) == 4
        tables = [(f(0), f(1)) for f in maps]
        assert tables == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cap(self):
        # 2**32 maps from five binary inputs exceed ENUMERATION_CAP
        with pytest.raises(EnumerationTooLarge):
            enumerate_quantizers((BINARY,) * 5, BINARY)

    def test_needs_an_input_alphabet(self):
        with pytest.raises(InvalidParams, match="^need at least one input alphabet$"):
            enumerate_quantizers((), BINARY)

    def test_arity_two(self):
        maps = enumerate_quantizers((BINARY, BINARY), BINARY)
        assert len(maps) == 16
        assert all(f.arity == 2 for f in maps)

    @pytest.mark.parametrize("arity", [0, 1, 2])
    @pytest.mark.parametrize("output", [BINARY, TERNARY], ids=["binary", "ternary"])
    def test_order_is_itertools_product(self, arity, output):
        inputs = {0: TERNARY, 1: (TERNARY,), 2: (BINARY, TERNARY)}[arity]
        alphabets = (inputs,) if arity == 0 else inputs
        domain = list(itertools.product(*[a.symbols for a in alphabets]))
        want = [dict(zip(domain, outs)) for outs in itertools.product(output.symbols, repeat=len(domain))]
        maps = enumerate_quantizers(inputs, output)
        assert len(maps) == len(want)
        assert [f.table for f in maps] == want
        assert all((f.arity, f.input_alphabets, f.output_alphabet) == (arity, alphabets, output)
                   for f in maps)

    def test_maps_are_built_once_and_indexed_like_a_tuple(self):
        maps = enumerate_quantizers(TERNARY, BINARY)
        assert maps[3] is maps[3] and maps[-1] is maps[7] and maps[-8] is maps[0]
        assert all(a is b for a, b in zip(maps[1:7:2], (maps[1], maps[3], maps[5])))
        assert [f.table for f in maps[::-1]] == [f.table for f in reversed(list(maps))]
        assert maps[5:2] == () and len(maps[-3:]) == 3
        for i in (8, -9):
            with pytest.raises(IndexError):
                maps[i]
        assert len(list(maps)) == 8

    def test_cap_refuses_before_allocating(self):
        # 2**20 maps of 20 outputs each: the refused table would take over 20 MB
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLarge, match="^1048576 maps exceed the cap"):
                enumerate_quantizers(Alphabet(tuple(range(20))), BINARY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestInducedLaws:
    def test_identity_preserves(self, pair75):
        q = induced_pair(pair75, identity_map(BINARY))
        assert_allclose(q.p0, pair75.p0)
        assert_allclose(q.p1, pair75.p1)

    def test_constant_is_uninformative(self, pair75):
        q = induced_pair(pair75, _constant(0))
        assert len(q.alphabet) == 1
        assert_allclose(q.p0, [1.0])
        assert_allclose(q.p1, [1.0])

    def test_or_fusion(self, pair75):
        ident = identity_map(BINARY)
        fused = fused_pair(pair75, (ident, ident), or_gate())
        zero = fused.alphabet.index(0)
        assert_allclose(fused.p0[zero], 0.5625, rtol=1e-14)
        assert_allclose(fused.p1[zero], 0.0625, rtol=1e-14)

    def test_and_fusion(self, pair75):
        ident = identity_map(BINARY)
        fused = fused_pair(pair75, (ident, ident), and_gate())
        one = fused.alphabet.index(1)
        assert_allclose(fused.p0[one], 0.0625, rtol=1e-14)
        assert_allclose(fused.p1[one], 0.5625, rtol=1e-14)

    def test_forward_fusion_keeps_marginal(self, pair75):
        ident = identity_map(BINARY)
        fused = fused_pair(pair75, (ident, ident), forward_first_gate())
        assert_allclose(fused.p0, pair75.p0)
        assert_allclose(fused.p1, pair75.p1)


def _old_loop_pairs(pair, leaf_maps, gate=None):
    """Reference push-forward by explicit loops: per-symbol sums clamped at
    1, then mass products accumulated in itertools.product order."""

    def push(g):
        k = len(g.output_alphabet)
        q0, q1 = np.zeros(k), np.zeros(k)
        for i, s in enumerate(pair.alphabet):
            j = g.output_alphabet.index(g(s))
            q0[j] += pair.p0[i]
            q1[j] += pair.p1[i]
        return np.minimum(q0, 1.0), np.minimum(q1, 1.0)

    if gate is None:
        (g,) = leaf_maps
        q0, q1 = push(g)
        output = g.output_alphabet
    else:
        margins = [push(g) for g in leaf_maps]
        output = gate.output_alphabet
        q0, q1 = np.zeros(len(output)), np.zeros(len(output))
        for combo in itertools.product(*[range(len(g.output_alphabet)) for g in leaf_maps]):
            m0 = m1 = 1.0
            for (a0, a1), idx in zip(margins, combo):
                m0 *= a0[idx]
                m1 *= a1[idx]
            symbols = [g.output_alphabet.symbols[i] for g, i in zip(leaf_maps, combo)]
            j = output.index(gate(*symbols))
            q0[j] += m0
            q1[j] += m1
    keep = (q0 > 0.0) | (q1 > 0.0)
    symbols = tuple(s for s, k in zip(output, keep) if k)
    return DistributionPair(Alphabet(symbols), q0[keep], q1[keep])


class TestPushForward:
    # p0 and p1 sum to exactly 1, but the fused masses of two leaf maps
    # overshoot 1 by an ulp on one output, which the pair constructor rejects
    OVERSHOOT = {"alphabet": [0, 1, 2], "p0": [0.2, 0.2, 0.6], "p1": [0.6, 0.2, 0.2]}

    def test_fused_masses_are_clamped(self):
        pair = DistributionPair.from_json(json.dumps(self.OVERSHOOT))
        gates = enumerate_quantizers((BINARY, BINARY), BINARY)
        rep = fusion_loss_constant(pair, all_binary_leaf_family(pair.alphabet), gates, 2)
        # leaf maps (0, 1, 1) send 1 w.p. 0.8 / 0.4 and the and-gate fuses two:
        # D = 0.64 log 4 + 0.36 log(0.36 / 0.84), per observation
        expected = -(0.64 * math.log(4.0) + 0.36 * math.log(0.36 / 0.84)) / 2
        assert rep.constant == pytest.approx(expected, rel=1e-12)
        assert [rep.best_gate(a, b) for a, b in itertools.product((0, 1), repeat=2)] == [0, 0, 0, 1]

    def test_matches_the_loops_bit_for_bit(self):
        rng = np.random.default_rng(40)
        gates = enumerate_quantizers((BINARY, BINARY), BINARY)
        answered = 0
        for trial in range(40):
            n = int(rng.integers(2, 6))
            # small integer weights make one-ulp overshoots common
            w0, w1 = (rng.integers(1, 6, n).astype(float) for _ in range(2))
            pair = DistributionPair(Alphabet(tuple(range(n))), w0 / w0.sum(), w1 / w1.sum())
            maps = enumerate_quantizers(pair.alphabet, BINARY)
            calls = [((g,), None) for g in maps]
            for gate in gates:
                a, b = (maps[int(i)] for i in rng.integers(0, len(maps), 2))
                calls.append(((a, b), gate))
            for leaf_maps, gate in calls:
                new = (induced_pair(pair, leaf_maps[0]) if gate is None
                       else fused_pair(pair, leaf_maps, gate))
                try:
                    old = _old_loop_pairs(pair, leaf_maps, gate)
                except InputError:
                    continue
                answered += 1
                assert new.alphabet == old.alphabet
                assert new.p0.tobytes() == old.p0.tobytes()
                assert new.p1.tobytes() == old.p1.tobytes()
        assert answered > 1000


class TestLlrQuantizer:
    # the relay quantizer is one threshold rule, applied by the evaluator

    def test_ties_go_low(self):
        assert _sends_low(np.array([LOG3 - LOG3]), 2, 0.0).tolist() == [True]
        # a normalized sum exactly at the threshold
        assert _sends_low(np.array([0.8, 0.8 + 1e-12]), 2, 0.4).tolist() == [True, False]

    def test_strictly_above_sends_one(self):
        assert _sends_low(np.array([LOG3 + LOG3]), 2, 0.0).tolist() == [False]

    def test_normalization_uses_leaf_count(self):
        # sum is 2 log 3 over 6 leaves, below a threshold of 0.4
        sums = np.array([2 * LOG3])
        assert _sends_low(sums, 6, 0.4).tolist() == [True]
        assert _sends_low(sums, 2, 0.4).tolist() == [False]


class TestParallelExponent:
    def test_value_and_tie_break(self, pair75, leaf_family):
        g, gamma = parallel_exponent(pair75, leaf_family)
        assert_allclose(g, G_PARALLEL, rtol=1e-14)
        # the flipped map attains the same divergence; enumeration
        # order keeps the identity
        assert gamma(0) == 0 and gamma(1) == 1

    def test_degenerate_family(self, pair75):
        with pytest.raises(DegenerateFamily):
            parallel_exponent(pair75, [_constant(0)])

    def test_empty_family(self, pair75):
        with pytest.raises(InvalidParams, match="^leaf family must be non-empty$"):
            parallel_exponent(pair75, [])


class TestQuantizerFamily:
    @pytest.mark.parametrize(
        "leaf, message",
        [((), "^leaf family must be non-empty$"),
         ((identity_map(BINARY), or_gate()), "^leaf family entries must have arity 0$")],
        ids=["empty", "gate_entry"],
    )
    def test_refusals(self, leaf, message):
        with pytest.raises(InvalidParams, match=message):
            QuantizerFamily(leaf)


def _reference_parallel_exponent(pair, gammas):
    """The search as written before divergences were read off push-forward
    masses: one induced pair per map, strict improvement over 0.0."""
    best_gamma, best_d = None, 0.0
    for gamma in gammas:
        d = kl_divergence(induced_pair(pair, gamma), Direction.ZERO_ONE)
        if d > best_d:
            best_gamma, best_d = gamma, d
    return -best_d, best_gamma


class TestParallelExponentPinned:
    def test_bit_identical_to_induced_pair_loop(self):
        rng = np.random.default_rng(40)
        ternary = Alphabet((0, 1, 2))
        for _ in range(40):
            k = int(rng.integers(2, 6))
            p0 = rng.dirichlet(np.ones(k))
            p1 = rng.dirichlet(np.ones(k))
            pair = DistributionPair(Alphabet(tuple(range(k))), p0, p1)
            families = [all_binary_leaf_family(pair.alphabet).leaf]
            if k <= 4:
                families.append(enumerate_quantizers(pair.alphabet, ternary))
            for family in families:
                g, gamma = parallel_exponent(pair, family)
                want_g, want_gamma = _reference_parallel_exponent(pair, family)
                assert g.hex() == want_g.hex()
                assert gamma is want_gamma

    def test_tie_keeps_earliest_map(self, pair75):
        ident = identity_map(BINARY)
        flip = TransmissionFunction(0, (BINARY,), BINARY, {(0,): 1, (1,): 0})
        d_ident = kl_divergence(induced_pair(pair75, ident), Direction.ZERO_ONE)
        d_flip = kl_divergence(induced_pair(pair75, flip), Direction.ZERO_ONE)
        assert d_ident == d_flip
        for family in ([flip, ident], [ident, flip]):
            assert parallel_exponent(pair75, family)[1] is family[0]

    def test_errors_still_raised(self, pair75):
        with pytest.raises(DegenerateFamily):
            parallel_exponent(pair75, [_constant(0), _constant(1)])
        with pytest.raises(InputError, match="does not match the pair alphabet"):
            parallel_exponent(pair75, [identity_map(Alphabet(("a", "b")))])
        with pytest.raises(InvalidParams, match="arity-0"):
            parallel_exponent(pair75, [or_gate()])


@functools.lru_cache(maxsize=None)
def _maps(k, width):
    return enumerate_quantizers(Alphabet(tuple(range(k))), Alphabet(tuple(range(width))))


@st.composite
def tied_pairs(draw):
    """Pairs from small integer weights, so likelihood ratios repeat, with
    some symbols dead under both hypotheses."""
    k = draw(st.integers(2, 6))
    w = np.array(draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                               min_size=k, max_size=k)), float)
    dead = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    dead[draw(st.integers(0, k - 1))] = False
    w[dead] = 0.0
    return DistributionPair(Alphabet(tuple(range(k))), w[:, 0] / w[:, 0].sum(), w[:, 1] / w[:, 1].sum())


@st.composite
def mixed_families(draw, k):
    """Binary and ternary maps over k symbols, repeats allowed, in shuffled order."""
    picks = draw(st.lists(st.tuples(st.sampled_from((2, 3)), st.integers(0, 10**6)),
                          min_size=1, max_size=30))
    return [_maps(k, width)[i % len(_maps(k, width))] for width, i in picks]


def _same_scan(pair, family):
    want_g, want_gamma = _reference_parallel_exponent(pair, family)
    if want_gamma is None:
        with pytest.raises(DegenerateFamily):
            parallel_exponent(pair, family)
        return
    g, gamma = parallel_exponent(pair, family)
    assert g.hex() == want_g.hex()
    assert gamma is want_gamma


class TestFamilyScan:
    """The one-push-forward scan against the per-map loop, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_mixed_families_on_tied_pairs(self, data):
        pair = data.draw(tied_pairs())
        _same_scan(pair, data.draw(mixed_families(len(pair))))

    @pytest.mark.parametrize("dead", [(), (0,), (4, 8)])
    def test_nine_symbol_identity(self, dead):
        # nine live terms are where np.sum switches to pairwise blocks; with
        # dead symbols the live terms number eight or seven
        rng = np.random.default_rng(9)
        alphabet = Alphabet(tuple(range(9)))
        binary = enumerate_quantizers(alphabet, BINARY)
        for _ in range(20):
            w0, w1 = rng.random(9), rng.random(9)
            w0[list(dead)] = w1[list(dead)] = 0.0
            pair = DistributionPair(alphabet, w0 / w0.sum(), w1 / w1.sum())
            family = [binary[int(i)] for i in rng.integers(0, len(binary), 12)]
            family.append(identity_map(alphabet))
            rng.shuffle(family)
            _same_scan(pair, family)


class TestTableScan:
    """A family from ``enumerate_quantizers`` scans its table of output indices."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tied_pairs(), st.sampled_from((2, 3)))
    def test_matches_the_scan_of_its_maps(self, pair, width):
        family = enumerate_quantizers(pair.alphabet, Alphabet(tuple(range(width))))
        try:
            g, gamma = parallel_exponent(pair, family)
        except DegenerateFamily:
            with pytest.raises(DegenerateFamily):
                parallel_exponent(pair, list(family))
            return
        want_g, want_gamma = parallel_exponent(pair, list(family))
        assert g.hex() == want_g.hex()
        assert gamma is want_gamma

    def test_builds_only_the_map_it_returns(self, monkeypatch):
        built = []
        check = TransmissionFunction.__post_init__
        monkeypatch.setattr(TransmissionFunction, "__post_init__",
                            lambda tf: (built.append(tf), check(tf)))
        rng = np.random.default_rng(12)
        pair = DistributionPair(Alphabet(tuple(range(12))), rng.dirichlet(np.ones(12)),
                                rng.dirichlet(np.ones(12)))
        family = all_binary_leaf_family(pair.alphabet)
        assert len(family.leaf) == 4096 and built == []
        _, gamma = parallel_exponent(pair, family)
        assert built == [gamma]

    def test_refusals_match_the_map_scan(self, pair75):
        for family, error in ((enumerate_quantizers((BINARY, BINARY), BINARY), InvalidParams),
                              (enumerate_quantizers(Alphabet((0, 2)), BINARY), InputError)):
            with pytest.raises(error) as table:
                parallel_exponent(pair75, family)
            with pytest.raises(error) as maps:
                parallel_exponent(pair75, list(family))
            assert str(table.value) == str(maps.value)

    def test_family_checks_the_table_arity(self):
        with pytest.raises(InvalidParams, match="^leaf family entries must have arity 0$"):
            QuantizerFamily(enumerate_quantizers((BINARY,), BINARY))


class TestInducedMemo:
    def test_repeat_returns_one_object(self):
        rng = np.random.default_rng(3)
        p0, p1 = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        pair = DistributionPair(Alphabet(tuple(range(5))), p0, p1)
        gamma = all_binary_leaf_family(pair.alphabet).leaf[11]
        first = induced_pair(pair, gamma)
        assert induced_pair(pair, gamma) is first
        fresh = induced_pair(DistributionPair(pair.alphabet, p0, p1), gamma)
        assert fresh is not first and fresh.alphabet == first.alphabet
        for a, b in ((fresh.p0, first.p0), (fresh.p1, first.p1)):
            assert [x.hex() for x in a] == [x.hex() for x in b]

    def test_validation_runs_before_a_hit(self):
        pair75 = bernoulli_pair(0.75)  # its own pair: the memo is planted below
        ident = identity_map(BINARY)
        induced_pair(pair75, ident)
        assert induced_pair(pair75, ident) is induced_pair(pair75, ident)
        with pytest.raises(InputError, match="does not match the pair alphabet"):
            induced_pair(pair75, identity_map(Alphabet((1, 0))))
        induced_pair(pair75, ident)
        with pytest.raises(InvalidParams, match="arity-0"):
            induced_pair(pair75, or_gate())
        # a hit for a map the pair never accepted would still be refused
        gate = or_gate()
        object.__setattr__(pair75, "_induced", (gate, pair75))
        with pytest.raises(InvalidParams, match="arity-0"):
            induced_pair(pair75, gate)

    def test_holds_one_entry(self):
        alphabet = Alphabet(tuple(range(10)))
        pair = DistributionPair(alphabet, np.full(10, 0.1), np.linspace(1.0, 10.0, 10) / 55.0)
        maps = all_binary_leaf_family(alphabet).leaf
        for gamma in maps:
            induced_pair(pair, gamma)
        last, message = pair._induced
        assert last is maps[-1] and message is induced_pair(pair, maps[-1])


class TestFusedPairPushesOnce:
    def test_gate_arity_must_match_the_inputs(self, pair75):
        with pytest.raises(InvalidParams, match="^gate arity 2 != 3 quantized inputs$"):
            fused_pair(pair75, [identity_map(BINARY)] * 3, or_gate())

    def test_repeated_map_matches_distinct_copies(self):
        rng = np.random.default_rng(12)
        gates = enumerate_quantizers((BINARY, BINARY), BINARY)
        for _ in range(30):
            w0, w1 = rng.integers(1, 6, 4).astype(float), rng.integers(1, 6, 4).astype(float)
            pair = DistributionPair(Alphabet(tuple(range(4))), w0 / w0.sum(), w1 / w1.sum())
            gamma = all_binary_leaf_family(pair.alphabet).leaf[int(rng.integers(0, 16))]
            twin = TransmissionFunction.from_json(gamma.to_json())
            for gate in gates:
                once = fused_pair(pair, [gamma, gamma], gate)
                twice = fused_pair(pair, [gamma, twin], gate)
                assert once.alphabet == twice.alphabet
                assert once.p0.tobytes() == twice.p0.tobytes()
                assert once.p1.tobytes() == twice.p1.tobytes()


_TERNARY_GATES = enumerate_quantizers((TERNARY, TERNARY), BINARY)


class TestFusionLoss:
    def test_pairwise_constant(self, pair75, leaf_family):
        gates = enumerate_quantizers((BINARY, BINARY), BINARY)
        rep = fusion_loss_constant(pair75, leaf_family, gates, 2)
        assert_allclose(rep.constant, -0.45125127599055304, atol=1e-12)
        assert rep.parallel == pytest.approx(G_PARALLEL, rel=1e-14)
        assert rep.dominated

    def test_requires_matching_arity(self, pair75, leaf_family):
        with pytest.raises(InvalidParams):
            fusion_loss_constant(pair75, leaf_family, [or_gate()], 3)

    def test_k_must_be_positive(self, pair75, leaf_family):
        with pytest.raises(InvalidParams, match="^k must be >= 1$"):
            fusion_loss_constant(pair75, leaf_family, [or_gate()], 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_fused_pairs_bit_for_bit(self, data):
        # binary and ternary leaf maps: one gate meets both kinds of message tuple
        pair = data.draw(tied_pairs())
        leaf_maps = data.draw(mixed_families(len(pair)))[:4]
        gates = [_TERNARY_GATES[i] for i in data.draw(st.lists(st.integers(0, 511), min_size=1,
                                                                 max_size=4))]
        best, best_xi = math.inf, None
        for gate in gates:
            for leafs in itertools.product(leaf_maps, repeat=2):
                value = -kl_divergence(fused_pair(pair, leafs, gate), Direction.ZERO_ONE) / 2
                if value < best:
                    best, best_xi = value, (gate, leafs)
        try:
            rep = fusion_loss_constant(pair, leaf_maps, gates, 2)
        except DegenerateFamily:  # the parallel exponent of an uninformative family
            return
        assert rep.constant.hex() == best.hex()
        assert rep.best_gate is best_xi[0]
        assert all(a is b for a, b in zip(rep.best_leaf_maps, best_xi[1], strict=True))

    def test_combinations_capped(self, pair75):
        # 16 gates times 256^2 leaf-map pairs exceed ENUMERATION_CAP = 10**6
        leaf_maps = enumerate_quantizers(Alphabet(tuple(range(8))), BINARY)
        gates = enumerate_quantizers((BINARY, BINARY), BINARY)
        with pytest.raises(
            EnumerationTooLarge, match="^1048576 fused configurations exceed cap 1000000$"
        ):
            fusion_loss_constant(pair75, leaf_maps, gates, 2)

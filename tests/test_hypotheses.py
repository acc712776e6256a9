import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from treedet import (
    Alphabet,
    BINARY,
    Direction,
    DistributionPair,
    EquivalenceViolation,
    InputError,
    bernoulli_pair,
    kl_divergence,
    second_moment_null,
)
from treedet.hypotheses import _EXP_ZERO, UnknownSymbol, _exp, _logsumexp

LOG3 = math.log(3.0)


class TestAlphabet:
    def test_basic(self):
        a = Alphabet(("a", "b", "c"))
        assert len(a) == 3
        assert list(a) == ["a", "b", "c"]
        assert "b" in a
        assert a.index("c") == 2

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            Alphabet((0, 1, 0))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Alphabet(())

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            BINARY.index(2)

    def test_index_is_the_tuple_position(self):
        symbols = tuple(range(0, 3000, 3)) + tuple(f"s{i}" for i in range(500))
        a = Alphabet(symbols)
        assert [a.index(s) for s in symbols] == list(range(len(symbols)))
        assert all(s in a for s in symbols)
        for missing in (1, "s500", None, [0]):
            assert missing not in a
            with pytest.raises(UnknownSymbol, match="not in alphabet"):
                a.index(missing)


class TestLogSumExp:
    @pytest.mark.parametrize("center", [0.0, 700.0, -700.0])
    def test_agrees_with_scipy(self, center):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            logs = center + rng.normal(0.0, rng.choice([0.1, 1.0, 10.0]), n)
            logs[1:][rng.random(n - 1) < 0.4] = -np.inf  # keep one finite entry
            rng.shuffle(logs)
            assert math.isclose(_logsumexp(logs), logsumexp(logs), rel_tol=1e-14)

    def test_empty_is_minus_inf(self):
        assert _logsumexp(np.array([])) == -math.inf

    def test_all_minus_inf_is_minus_inf(self):
        assert _logsumexp(np.full(3, -np.inf)) == -math.inf

    def test_returns_python_float(self):
        assert type(_logsumexp(np.log([0.25, 0.75]))) is float
        assert type(_logsumexp(np.array([]))) is float

    def test_a_given_top_gives_the_same_bits(self):
        # the exact engine's splits pass each side's maximum from one pass over all sides
        rng = np.random.default_rng(23)
        cases = [np.full(n, -np.inf) for n in (1, 4)]
        for _ in range(300):
            n = int(rng.integers(1, 50))
            logs = rng.normal(rng.choice([0.0, -700.0, -2e4]), rng.choice([0.1, 1.0, 30.0]), n)
            if rng.random() < 0.5:
                logs[rng.random(n) < 0.3] = -np.inf
            cases.append(logs)
        for logs in cases:
            want = _logsumexp(logs).hex()
            top = float(logs.max())
            assert _logsumexp(logs, top=top).hex() == want
            scratch = logs.copy()
            assert _logsumexp(scratch, out=scratch, top=top).hex() == want
        assert _logsumexp(np.full(3, -np.inf), top=-math.inf) == -math.inf


class TestExp:
    """``_exp`` is ``np.exp`` bit for bit, whichever lanes it leaves out."""

    @staticmethod
    def _check(x):
        want = np.exp(x).tobytes()
        assert _exp(x.copy()).tobytes() == want
        into = np.full_like(x, 7.0)
        assert _exp(x.copy(), out=into) is into and into.tobytes() == want
        same = x.copy()
        assert _exp(same, out=same) is same and same.tobytes() == want

    def test_dense_grid_across_the_underflow(self):
        grid = np.linspace(-746.5, -745.0, 30001)
        self._check(grid)
        self._check(grid[::-1].copy())
        ulps = np.nextafter(-745.1332191019411, 0.0) + np.arange(-2000, 2000) * 2.0**-43
        self._check(np.concatenate(([-750.0], ulps, [-760.0])))

    def test_dead_ends_inner_dead_lanes_and_specials(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = rng.uniform(-900.0, 5.0, int(rng.integers(1, 60)))
            if rng.random() < 0.5:
                x.sort()
            specials = rng.random(x.size)
            x[specials < 0.05] = np.nan
            x[(specials >= 0.05) & (specials < 0.1)] = np.inf
            x[(specials >= 0.1) & (specials < 0.15)] = -np.inf
            self._check(x)
        for x in ([], [-800.0], [-np.inf, -800.0], [np.nan], [-800.0, np.nan, -900.0],
                  [-800.0, 0.0, -900.0, 1.0, -np.inf], [np.inf, -800.0], [-746.0, -800.0]):
            self._check(np.array(x, dtype=float))

    def test_holds_one_byte_mask_beside_its_output(self):
        x = -np.abs(np.linspace(-2000.0, 2000.0, 2**20))  # dead at both ends
        out = np.empty_like(x)
        tracemalloc.start()
        try:
            _exp(x, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * x.size  # a float temporary would take 8 bytes a lane
        assert out.tobytes() == np.exp(x).tobytes()

    def test_numpy_underflows_to_exact_zero_below_the_cut(self):
        # _exp writes 0.0 for these lanes instead of asking numpy
        below = _EXP_ZERO - np.concatenate(
            ([0.0], np.geomspace(1e-13, 1e300, 2000), [np.inf])
        )
        below[0] = np.nextafter(_EXP_ZERO, -np.inf)
        assert np.exp(below).tobytes() == np.zeros_like(below).tobytes()


class TestDistributionPair:
    def test_bernoulli(self, pair75):
        assert pair75.alphabet == BINARY
        assert_allclose(pair75.p0, [0.75, 0.25])
        assert_allclose(pair75.p1, [0.25, 0.75])

    def test_mass_must_sum_to_one(self):
        with pytest.raises(InputError):
            DistributionPair(BINARY, np.array([0.7, 0.2]), np.array([0.5, 0.5]))

    def test_negative_mass_rejected(self):
        with pytest.raises(InputError):
            DistributionPair(BINARY, np.array([1.2, -0.2]), np.array([0.5, 0.5]))

    def test_nan_mass_rejected(self):
        # NaN compares false both ways, so it must fail the range check itself
        with pytest.raises(InputError, match=r"p0 entries must lie in \[0, 1\]"):
            DistributionPair(BINARY, np.array([np.nan, 1.0]), np.array([0.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError, match="^p0 must have one probability per symbol$"):
            DistributionPair(BINARY, np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.5]))

    def test_one_sided_zero_rejected(self):
        with pytest.raises(EquivalenceViolation):
            DistributionPair(BINARY, np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_both_sided_zero_allowed(self):
        abc = Alphabet((0, 1, 2))
        pair = DistributionPair(abc, np.array([0.75, 0.25, 0.0]), np.array([0.25, 0.75, 0.0]))
        assert_allclose(pair.support, [True, True, False])

    def test_json_round_trip(self, pair75):
        again = DistributionPair.from_json(pair75.to_json())
        assert again.alphabet == pair75.alphabet
        assert_allclose(again.p0, pair75.p0)
        assert_allclose(again.p1, pair75.p1)

    def test_from_json_rejects_garbage(self):
        for text in (
            "{not json",
            '{"alphabet": [0, 1], "p0": ["a", 0.5], "p1": [0.5, 0.5]}',
            '{"alphabet": [[0], 1], "p0": [0.5, 0.5], "p1": [0.5, 0.5]}',
        ):
            with pytest.raises(InputError, match="malformed pair document"):
                DistributionPair.from_json(text)


    def test_from_json_names_a_missing_field(self):
        with pytest.raises(InputError, match="^pair document missing field 'p1'$"):
            DistributionPair.from_json('{"alphabet": [0, 1], "p0": [0.5, 0.5]}')


class TestDivergences:
    def test_bern75_is_symmetric(self, pair75):
        d01 = kl_divergence(pair75, Direction.ZERO_ONE)
        d10 = kl_divergence(pair75, Direction.ONE_ZERO)
        assert_allclose(d01, 0.5 * LOG3, rtol=1e-14)
        assert_allclose(d10, 0.5 * LOG3, rtol=1e-14)

    def test_asymmetric_pair(self):
        pair = DistributionPair(BINARY, np.array([0.9, 0.1]), np.array([0.5, 0.5]))
        assert_allclose(
            kl_divergence(pair, Direction.ZERO_ONE), 0.36806420716849714, rtol=1e-13
        )
        assert_allclose(
            kl_divergence(pair, Direction.ONE_ZERO), 0.5108256237659905, rtol=1e-13
        )

    def test_second_moment(self, pair75):
        assert_allclose(second_moment_null(pair75), LOG3 * LOG3, rtol=1e-14)


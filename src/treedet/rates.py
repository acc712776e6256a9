"""Log-moment generating functions, convex conjugates, and the per-level
rate recursion behind the relay error bounds.

Level 1 rates come from the exact conjugate of the quantized observation's
log-MGF: the log-MGF's derivative is the LLR's mean under the tilted law
p0^(1-s) p1^s, increasing in s, so Newton's method finds the tilt at which
that mean equals the threshold.  Higher levels admit closed forms because a
one-bit message's log-MGF is the maximum of two lines; every such level is
re-derived as the envelope's exact conjugate, taken at the kink or at an end
of the domain, as an always-on transcription check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import TransmissionFunction, induced_pair
from .errors import InfeasibleThreshold, InvalidParams, NotUniform
from .hypotheses import Direction, DistributionPair, _logsumexp, kl_divergence
from .topology import Tree, _integer, _NodeRows

_LAMBDA_TOL = 1e-10
_MAX_ITER = 200
_CROSS_CHECK_TOL = 1e-8
# a tilt error d moves a level-1 rate by about var * d**2 / 2
_TILT_TOL = 1e-15


def log_mgf(pair: DistributionPair, hypothesis: int, lam: float) -> float:
    """log E_j[(p1/p0)^lam (Y)] for the message law ``pair``.

    Finite for every real lam on equivalent discrete pairs.
    """
    if hypothesis not in (0, 1):
        raise InvalidParams("hypothesis must be 0 or 1")
    logp0, logp1 = pair._live_logs
    base = logp1 if hypothesis == 1 else logp0
    return _logsumexp(base + lam * (logp1 - logp0))


def fenchel_legendre(
    fn: Callable[[float], float], t: float, lam_domain: tuple[float, float]
) -> tuple[float, float]:
    """sup over the domain of lam*t - fn(lam), with the maximizing lam.

    ``fn`` must be convex on the domain (caller contract), making the
    objective concave; ternary search needs no derivatives and tolerates
    kinks.  It is a numeric reference for any convex ``fn``; ``rate_table``
    instead solves level 1 by a Newton tilt and each higher level exactly.
    """
    lo, hi = float(lam_domain[0]), float(lam_domain[1])
    if not lo < hi:
        raise InvalidParams("lam domain must be a nondegenerate interval")

    def objective(lam: float) -> float:
        return lam * t - fn(lam)

    for _ in range(_MAX_ITER):
        if hi - lo < _LAMBDA_TOL:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if objective(m1) < objective(m2):
            lo = m1
        else:
            hi = m2
    lam = 0.5 * (lo + hi)
    return objective(lam), lam


@dataclass(frozen=True)
class RateTable:
    """Per-level decay rates for both error types under fixed thresholds.

    ``rate0[k-1]`` bounds the false-alarm side at level k, ``rate1[k-1]`` the
    miss side; both are positive whenever the thresholds are feasible.
    """

    rate0: tuple[float, ...]
    rate1: tuple[float, ...]
    thresholds: tuple[float, ...]

    @property
    def height(self) -> int:
        return len(self.thresholds)

    def level0(self, k: int) -> float:
        return self.rate0[k - 1]

    def level1(self, k: int) -> float:
        return self.rate1[k - 1]


def _envelope_conjugate(r0: float, r1: float, j: int, t: float) -> float:
    """Exact sup over lam in [-j, 1 - j] of lam*t minus the envelope
    max(-r1 (j + lam), r0 (j - 1 + lam)), the log-MGF under hypothesis j of
    a one-bit message whose tail rates are (r0, r1).

    The objective is concave and piecewise linear, so the sup is at an end
    of the domain or at the kink where the envelope's two lines cross.
    """
    lams = [float(-j), float(1 - j)]
    kink = r0 / (r0 + r1) - j
    if lams[0] < kink < lams[1]:
        lams.append(kink)
    return max(lam * t - max(-r1 * (j + lam), r0 * (j - 1 + lam)) for lam in lams)


def _closed_step(r0: float, r1: float, t: float) -> tuple[float, float]:
    # next level's (rate0, rate1) from the previous level's and its threshold
    denom = r0 + r1
    return r0 * (r1 + t) / denom, r1 * (r0 - t) / denom


def _tilt(message: DistributionPair, t: float) -> float:
    """The s in [0, 1] at which the LLR's mean under p0^(1-s) p1^s is t.

    That mean is the level-1 log-MGF's derivative, increasing in s with the
    tilted variance as slope; Newton steps that leave the bracket bisect it.
    """
    logp0, logp1 = message._live_logs
    llr = logp1 - logp0
    lo, hi, s = 0.0, 1.0, 0.5
    for _ in range(_MAX_ITER):
        w = logp0 + s * llr
        q = np.exp(w - w.max())
        q /= q.sum()
        mean = float(q @ llr)
        if mean < t:
            lo = s
        elif mean > t:
            hi = s
        dev = llr - mean
        var = float(q @ (dev * dev))
        # a variance lost to underflow sends the step to lo, a bisection
        step = s - (mean - t) / var if var > 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - s) <= _TILT_TOL:
            return step
        s = step
    return s


def _level1_interval(message: DistributionPair) -> tuple[float, float]:
    return (
        -kl_divergence(message, Direction.ZERO_ONE),
        kl_divergence(message, Direction.ONE_ZERO),
    )


def feasible_threshold_interval(
    pair: DistributionPair,
    gamma: TransmissionFunction,
    partial: RateTable | None = None,
) -> tuple[float, float]:
    """Open interval the next level's threshold must fall in.

    With no partial table this is the level-1 interval between the two
    (negated) divergences of the quantized pair; afterwards it is bounded by
    the previous level's rates.  An uninformative leaf map yields an empty
    interval rather than an error.
    """
    if partial is not None and partial.height >= 1:
        return (-partial.rate1[-1], partial.rate0[-1])
    return _level1_interval(induced_pair(pair, gamma))


def rate_table(
    pair: DistributionPair,
    gamma: TransmissionFunction,
    thresholds: Sequence[float],
) -> RateTable:
    """Builds the per-level rates, validating each threshold eagerly.

    Level 1 is the log-MGF conjugate at the Newton tilt s of ``_tilt``:
    r0 = s t - L0(s) and r1 = (s - 1) t - L1(s - 1).  Levels above the
    first follow the closed recursion
    r1' = r1 (r0 - t) / (r0 + r1),  r0' = r0 (r1 + t) / (r0 + r1),
    and every such level is cross-computed by the exact conjugate of the
    one-bit envelope; disagreement beyond 1e-8 aborts.
    """
    ts = tuple(float(t) for t in thresholds)
    if not ts:
        raise InvalidParams("need at least one threshold")
    # a NaN threshold fails every interval check and would read as infeasible
    if not all(map(math.isfinite, ts)):
        raise InvalidParams("thresholds must be finite")
    message = induced_pair(pair, gamma)
    lo, hi = _level1_interval(message)
    if not lo < 0.0 < hi:
        raise InfeasibleThreshold(
            1, "leaf map is uninformative: empty threshold interval"
        )
    rate0, rate1 = [], []
    # each level's threshold must fall in the interval its previous level leaves
    for k, tk in enumerate(ts, 1):
        if not lo < tk < hi:
            raise InfeasibleThreshold(k, f"t_{k}={tk:.6g} outside ({lo:.6g}, {hi:.6g})")
        if k == 1:
            s = _tilt(message, tk)
            new0 = s * tk - log_mgf(message, 0, s)
            new1 = (s - 1.0) * tk - log_mgf(message, 1, s - 1.0)
        else:
            prev0, prev1 = rate0[-1], rate1[-1]
            new0, new1 = _closed_step(prev0, prev1, tk)
            check1 = _envelope_conjugate(prev0, prev1, 1, tk)
            check0 = _envelope_conjugate(prev0, prev1, 0, tk)
            if abs(check1 - new1) > _CROSS_CHECK_TOL or abs(check0 - new0) > _CROSS_CHECK_TOL:
                raise AssertionError(
                    f"closed-form and envelope-conjugate rates disagree at level {k}: "
                    f"({new0:.12g}, {new1:.12g}) vs ({check0:.12g}, {check1:.12g})"
                )
        rate0.append(new0)
        rate1.append(new1)
        lo, hi = -new1, new0
    return RateTable(tuple(rate0), tuple(rate1), ts)


class BoundRow(NamedTuple):
    node: int
    level: int
    leaf_count: int
    pred_count: int
    kind: str
    value: float


@dataclass(frozen=True)
class BoundReport:
    """Per-node exponential bounds on the two tail probabilities.

    ``rows`` is a lazy sequence, its rows built on first read.  ``kind`` is
    type1/type0 for per-node bounds; the root_type1/root_type0 rows, also
    held apart in ``roots``, come last, and only when every fringe node has
    at least ``n_floor`` leaves.  A bound is informative when negative.
    """

    rows: Sequence[BoundRow]
    roots: tuple[BoundRow, ...]


def chernoff_bound_report(tree: Tree, table: RateTable, n_floor: int) -> BoundReport:
    """Evaluates the per-node tail bounds -rate + p(v)/l(v) - 1 and, when the
    fringe is uniformly large enough, the root bounds -rate + h/n_floor.
    Both depend only on a node's shape, so each is computed once per shape,
    and the report reads the shape table alone until its rows are read.
    """
    if not tree.is_uniform:
        raise NotUniform("bounds are stated for height-uniform trees")
    if table.height != tree.height:
        raise InvalidParams(
            f"rate table has {table.height} levels, tree height is {tree.height}"
        )
    if _integer(n_floor, "n_floor") < 1:
        raise InvalidParams("n_floor must be >= 1")
    level, lcount, pcount = tree.shape_counts
    # two rows per shape, type1 then type0; the leaf shape's are never expanded
    rates = np.column_stack((table.rate1, table.rate0))[level - 1]
    values = -rates + (pcount / lcount)[:, None] - 1.0
    kinds = np.tile(np.array(["type1", "type0"], dtype=object), level.size)
    cols = (*(np.repeat(c, 2) for c in (level, lcount, pcount)), kinds, values.ravel())
    roots, degrees = (), tree.shape_counts.fringe_degrees
    if degrees.size and degrees.min() >= n_floor:
        h = tree.height
        root = (tree.root, h, int(lcount[-1]), int(pcount[-1]))
        roots = (
            BoundRow(*root, "root_type1", -table.level1(h) + h / n_floor),
            BoundRow(*root, "root_type0", -table.level0(h) + h / n_floor),
        )
    return BoundReport(rows=_NodeRows(tree, BoundRow, cols, tail=roots), roots=roots)


def recipe_threshold(pair: DistributionPair, gamma: TransmissionFunction, epsilon: float) -> float:
    """Threshold -D(P0^g || P1^g) + eps/2, strictly inside (-D, 0) whenever
    eps is below twice the quantized divergence."""
    d01 = kl_divergence(induced_pair(pair, gamma), Direction.ZERO_ONE)
    t = -d01 + 0.5 * epsilon
    if not -d01 < t < 0.0:
        raise InvalidParams(
            f"epsilon {epsilon:.6g} pushes the threshold outside (-{d01:.6g}, 0)"
        )
    return t

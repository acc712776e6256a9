"""Log-moment generating functions, convex conjugates, and the per-level
rate recursion behind the relay error bounds.

Level 1 rates come from a numeric conjugate of the quantized observation's
log-MGF.  Higher levels admit closed forms because a one-bit message's
log-MGF is the maximum of two lines; the closed forms are re-derived
numerically at every level as an always-on transcription check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import TransmissionFunction, induced_pair
from .errors import InfeasibleThreshold, InvalidParams, NotUniform
from .hypotheses import Direction, DistributionPair, _logsumexp, kl_divergence
from .topology import Tree

_LAMBDA_TOL = 1e-10
_MAX_ITER = 200
_CROSS_CHECK_TOL = 1e-8


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
    objective concave; ternary search needs no derivatives and tolerates the
    piecewise-linear kinks of higher-level log-MGFs.
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


def _one_bit_envelope(r0: float, r1: float, j: int) -> Callable[[float], float]:
    # log-MGF of a one-bit message whose tail rates are (r0, r1)
    def fn(lam: float) -> float:
        return max(-r1 * (j + lam), r0 * (j - 1 + lam))

    return fn


def _message_law(
    pair: DistributionPair, gamma: TransmissionFunction | None
) -> DistributionPair:
    if gamma is None:
        return pair
    return induced_pair(pair, gamma)


def feasible_threshold_interval(
    pair: DistributionPair,
    gamma: TransmissionFunction | None = None,
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
    message = _message_law(pair, gamma)
    return (
        -kl_divergence(message, Direction.ZERO_ONE),
        kl_divergence(message, Direction.ONE_ZERO),
    )


def rate_table(
    pair: DistributionPair,
    gamma: TransmissionFunction | None,
    thresholds: Sequence[float],
) -> RateTable:
    """Builds the per-level rates, validating each threshold eagerly.

    Levels above the first follow the closed recursion
    r1' = r1 (r0 - t) / (r0 + r1),  r0' = r0 (r1 + t) / (r0 + r1),
    and every such level is cross-computed by a numeric conjugate of the
    one-bit envelope; disagreement beyond 1e-8 aborts.
    """
    ts = tuple(float(t) for t in thresholds)
    if not ts:
        raise InvalidParams("need at least one threshold")
    message = _message_law(pair, gamma)
    lo, hi = feasible_threshold_interval(message)
    if not lo < 0.0 < hi:
        raise InfeasibleThreshold(
            1, "leaf map is uninformative: empty threshold interval"
        )
    if not lo < ts[0] < hi:
        raise InfeasibleThreshold(
            1, f"t_1={ts[0]:.6g} outside ({lo:.6g}, {hi:.6g})"
        )
    r1, _ = fenchel_legendre(
        lambda lam: log_mgf(message, 1, lam), ts[0], (-1.0, 0.0)
    )
    r0, _ = fenchel_legendre(
        lambda lam: log_mgf(message, 0, lam), ts[0], (0.0, 1.0)
    )
    rate0 = [r0]
    rate1 = [r1]
    for k in range(2, len(ts) + 1):
        tk = ts[k - 1]
        prev0, prev1 = rate0[-1], rate1[-1]
        if not -prev1 < tk < prev0:
            raise InfeasibleThreshold(
                k, f"t_{k}={tk:.6g} outside ({-prev1:.6g}, {prev0:.6g})"
            )
        denom = prev0 + prev1
        new1 = prev1 * (prev0 - tk) / denom
        new0 = prev0 * (prev1 + tk) / denom
        check1, _ = fenchel_legendre(
            _one_bit_envelope(prev0, prev1, 1), tk, (-1.0, 0.0)
        )
        check0, _ = fenchel_legendre(
            _one_bit_envelope(prev0, prev1, 0), tk, (0.0, 1.0)
        )
        if abs(check1 - new1) > _CROSS_CHECK_TOL or abs(check0 - new0) > _CROSS_CHECK_TOL:
            raise AssertionError(
                f"closed-form and numeric rates disagree at level {k}: "
                f"({new0:.12g}, {new1:.12g}) vs ({check0:.12g}, {check1:.12g})"
            )
        rate0.append(new0)
        rate1.append(new1)
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

    ``kind`` is type1/type0 for per-node bounds; root_type1/root_type0 rows
    appear only when every fringe node has at least ``n_floor`` leaves.
    A bound is informative when negative.
    """

    rows: tuple[BoundRow, ...]
    n_floor: int

    def root_rows(self) -> tuple[BoundRow, ...]:
        return tuple(r for r in self.rows if r.kind.startswith("root_"))


def chernoff_bound_report(tree: Tree, table: RateTable, n_floor: int) -> BoundReport:
    """Evaluates the per-node tail bounds -rate + p(v)/l(v) - 1 and, when the
    fringe is uniformly large enough, the root bounds -rate + h/n_floor.
    """
    if not tree.is_uniform:
        raise NotUniform("bounds are stated for height-uniform trees")
    if table.height != tree.height:
        raise InvalidParams(
            f"rate table has {table.height} levels, tree height is {tree.height}"
        )
    if n_floor < 1:
        raise InvalidParams("n_floor must be >= 1")
    lcount = tree.subtree_leaf_count
    pcount = tree.subtree_node_count
    nodes = np.flatnonzero(~tree.is_leaf)
    levels = tree.level[nodes]
    # two rows per node, type1 then type0
    rates = np.column_stack((table.rate1, table.rate0))[levels - 1]
    values = (-rates + (pcount[nodes] / lcount[nodes])[:, None] - 1.0).ravel()
    cols = [np.repeat(c, 2).tolist() for c in (nodes, levels, lcount[nodes], pcount[nodes])]
    kinds = ["type1", "type0"] * nodes.size
    rows = list(map(BoundRow, *cols, kinds, values.tolist()))
    fringe_min = int(lcount[tree.fringe].min()) if len(tree.fringe) else 0
    if fringe_min >= n_floor:
        h = tree.height
        root = tree.root
        for kind, rate in (
            ("root_type1", table.level1(h)),
            ("root_type0", table.level0(h)),
        ):
            rows.append(
                BoundRow(
                    node=int(root),
                    level=h,
                    leaf_count=int(lcount[root]),
                    pred_count=int(pcount[root]),
                    kind=kind,
                    value=-rate + h / n_floor,
                )
            )
    return BoundReport(rows=tuple(rows), n_floor=int(n_floor))


def recipe_threshold(pair: DistributionPair, gamma: TransmissionFunction, epsilon: float) -> float:
    """Threshold -D(P0^g || P1^g) + eps/2, strictly inside (-D, 0) whenever
    eps is below twice the quantized divergence."""
    d01 = kl_divergence(_message_law(pair, gamma), Direction.ZERO_ONE)
    t = -d01 + 0.5 * epsilon
    if not -d01 < t < 0.0:
        raise InvalidParams(
            f"epsilon {epsilon:.6g} pushes the threshold outside (-{d01:.6g}, 0)"
        )
    return t


def exponent_lower_bound(table: RateTable, n_floor: int) -> float:
    """Root miss-side bound -rate1[h] + h/n_floor, the quantity driving the
    near-optimality argument for large fringes."""
    return -table.rate1[-1] + table.height / n_floor

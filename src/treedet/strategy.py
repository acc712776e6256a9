"""Complete detection strategies on height-uniform trees.

A strategy fixes one arity-0 map for every leaf, a one-bit threshold rule
per relay level, and the root's decision threshold.  Fringe nodes may
instead apply a fixed gate to their incoming bits, which is how bounded
fan-in fusion rules are compared against threshold rules.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import TransmissionFunction, parallel_exponent
from .errors import EpsilonTooLarge, InvalidParams, NotUniform
from .hypotheses import DistributionPair
from .rates import rate_table, recipe_threshold
from .topology import Tree, uniformize


@dataclass(frozen=True)
class Strategy:
    """Leaf map, per-level thresholds, and the root decision rule.

    ``thresholds[k-1]`` drives level-k nodes; the root (level h) compares its
    normalized incoming sum against ``root_threshold`` instead, declaring the
    alternative on values strictly above it.  When ``level1_gate`` is set,
    fringe nodes apply that gate to their incoming bits and
    ``thresholds[0]`` is ignored.
    """

    tree: Tree
    gamma: TransmissionFunction
    thresholds: tuple[float, ...]
    root_threshold: float
    level1_gate: TransmissionFunction | None = None
    # exact laws by pair, kept by ``evaluate``; every ``replace`` starts empty
    _laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.gamma.arity != 0:
            raise InvalidParams("leaf map must have arity 0")
        if not self.tree.is_uniform:
            raise NotUniform("uniformize the tree before building a strategy")
        h = self.tree.height
        if h < 1:
            raise InvalidParams("tree must have at least one level")
        if len(self.thresholds) != h:
            raise InvalidParams(
                f"need {h} thresholds for a height-{h} tree, got {len(self.thresholds)}"
            )
        # a NaN threshold would send every comparison the same way, unannounced
        if not all(map(math.isfinite, (*self.thresholds, self.root_threshold))):
            raise InvalidParams("thresholds and the root threshold must be finite")
        gate = self.level1_gate
        if gate is not None:
            if h < 2:
                raise InvalidParams("a fringe gate needs height at least 2")
            if np.any(self.tree.shape_counts.fringe_degrees != gate.arity):
                raise InvalidParams(
                    f"gate arity {gate.arity} does not match every fringe degree"
                )
            out = self.gamma.output_alphabet.symbols
            if any(a.symbols != out for a in gate.input_alphabets):
                raise InvalidParams("gate inputs must match the leaf message alphabet")

    def to_json(self) -> str:
        doc = {
            "gamma": json.loads(self.gamma.to_json()),
            "thresholds": list(self.thresholds),
            "root_threshold": self.root_threshold,
        }
        if self.level1_gate is not None:
            doc["level1_gate"] = json.loads(self.level1_gate.to_json())
        return json.dumps(doc, sort_keys=True)


def build_relay_strategy(
    tree: Tree,
    gamma: TransmissionFunction,
    thresholds: Sequence[float],
    *,
    pair: DistributionPair | None = None,
    level1_gate: TransmissionFunction | None = None,
) -> Strategy:
    """Assembles the uniform-threshold relay strategy on ``uniformize(tree)``.

    This is the one place a strategy's tree is uniformized: a height-uniform
    tree is used as given, any other gets relay chains, keeping its node ids
    and its height.  Passing ``pair`` validates threshold feasibility level
    by level through the rate recursion (skipped for gate strategies, where
    the first level is not a threshold rule).
    """
    ts = tuple(float(t) for t in thresholds)
    strategy = Strategy(
        tree=uniformize(tree).tree,
        gamma=gamma,
        thresholds=ts,
        # with no thresholds, Strategy's own checks name the fault
        root_threshold=ts[-1] if ts else math.nan,
        level1_gate=level1_gate,
    )
    if pair is not None and level1_gate is None:
        rate_table(pair, gamma, ts)
    return strategy


@dataclass(frozen=True)
class SimpleStrategyResult:
    strategy: Strategy
    parallel_exponent: float


def simple_strategy(
    tree: Tree,
    pair: DistributionPair,
    leaf_family: Sequence[TransmissionFunction],
    epsilon: float,
) -> SimpleStrategyResult:
    """One leaf map everywhere, one threshold everywhere.

    The leaf map maximizes the null-to-alternative divergence over the
    family; every level then thresholds at that divergence's negation plus
    half of ``epsilon``, a choice that stays feasible at every level and
    concedes at most ``epsilon`` of exponent.  The strategy lives on the
    tree ``build_relay_strategy`` uniformizes.
    """
    if not epsilon > 0.0:
        raise InvalidParams("epsilon must be positive")
    g_p, best = parallel_exponent(pair, leaf_family)
    if epsilon >= -g_p:
        raise EpsilonTooLarge(
            f"epsilon {epsilon:.6g} is not below the exponent magnitude {-g_p:.6g}"
        )
    t = recipe_threshold(pair, best, epsilon)
    strat = build_relay_strategy(tree, best, (t,) * tree.height, pair=pair)
    return SimpleStrategyResult(strategy=strat, parallel_exponent=g_p)

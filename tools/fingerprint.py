"""Fingerprint treedet's exact and Monte Carlo results, to show a change is bit-identical.

    python tools/fingerprint.py [SRC]

Imports ``treedet`` from SRC (default: the ``src`` beside this file) and prints one line per
set: its name, its row count and the SHA-1 of its rows, each row one line of fields written
with ``float.hex()``.  Run it on two checkouts' ``src`` and compare the lines:

- ``calibrations``: ``increasing_leaves`` sizes 1-20 x Bernoulli 0.75/0.8/0.85/0.9 x alpha
  0.01/0.05/0.1/0.25/0.4/0.5, calibrated from ``simple_strategy`` at epsilon 0.4; the root
  threshold and both exact log errors.
- ``monte_carlo``: the nine trees of the bench's ``mc_check`` x Bernoulli 0.7/0.75/0.8 x alpha
  0.1/0.25/0.4, 20,000 trials at seed 7; the root threshold, the exact log type II and both
  Monte Carlo rates.
- ``rugged``: 40 seeded trees of height 2-3 whose roots hold several runs, a ternary pair on
  every third; the root threshold, both exact log errors, the first 50 tail rows and the root's
  atom count.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC.resolve()))

import numpy as np  # noqa: E402

from treedet import (  # noqa: E402
    Alphabet,
    DistributionPair,
    Tree,
    TreeFamily,
    all_binary_leaf_family,
    bernoulli_pair,
    build_relay_strategy,
    exact_error_probs,
    identity_map,
    monte_carlo_error,
    np_calibrate_root,
    or_gate,
    recipe_threshold,
    root_sum_law,
    simple_strategy,
    tail_report,
)

MC_CONFIGS = (  # bench/workloads.py's MC_CONFIGS: (family, params, size, fringe gate)
    ("two_relay", {}, 30, None),
    ("two_relay", {}, 12, None),
    ("two_relay", {}, 4, None),
    ("wide_uniform", {"m": 2}, 40, "or"),
    ("wide_uniform", {"m": 2}, 16, "or"),
    ("wide_uniform", {"m": 3}, 16, None),
    ("wide_uniform", {"m": 4}, 8, None),
    ("increasing_leaves", {}, 10, None),
    ("increasing_leaves", {}, 6, None),
)
TERNARY = DistributionPair(Alphabet((0, 1, 2)), np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]))


def _row(*fields) -> str:
    return " ".join(f.hex() if isinstance(f, float) else str(f) for f in fields)


def calibrations():
    for p in (0.75, 0.8, 0.85, 0.9):
        pair = bernoulli_pair(p)
        family = all_binary_leaf_family(pair.alphabet)
        for size in range(1, 21):
            strat = simple_strategy(TreeFamily("increasing_leaves").generate(size), pair, family, 0.4)
            for alpha in (0.01, 0.05, 0.1, 0.25, 0.4, 0.5):
                calibrated = np_calibrate_root(strat.strategy, pair, alpha)
                est = exact_error_probs(calibrated, pair)
                yield _row(calibrated.root_threshold, est.log_type_i, est.log_type_ii)


def monte_carlo():
    for kind, params, size, gate in MC_CONFIGS:
        tree = TreeFamily(kind, params).generate(size)
        for p in (0.7, 0.75, 0.8):
            pair = bernoulli_pair(p)
            ident = identity_map(pair.alphabet)
            if gate == "or":
                strat = build_relay_strategy(tree, ident, (0.0,) * tree.height, level1_gate=or_gate())
            else:
                t = recipe_threshold(pair, ident, 0.3)
                strat = build_relay_strategy(tree, ident, (t,) * tree.height)
            for alpha in (0.1, 0.25, 0.4):
                calibrated = np_calibrate_root(strat, pair, alpha)
                exact = exact_error_probs(calibrated, pair)
                mc = monte_carlo_error(calibrated, pair, 20_000, 7)
                yield _row(calibrated.root_threshold, exact.log_type_ii, mc.type_i, mc.type_ii)


def _rugged_tree(rng, height: int) -> Tree:
    # relays of few leaf counts, so that the root holds runs of several copies beside single relays
    parents = [-1]
    for _ in range(int(rng.integers(2, 5)) if height == 3 else 1):
        above = 0
        if height == 3:
            above = len(parents)
            parents.append(0)
        for leaves in rng.integers(1, 5, size=int(rng.integers(2, 11))).tolist():
            parents += [above] + [len(parents)] * leaves
    return Tree(parents)


def rugged():
    rng = np.random.default_rng(2008)
    for i in range(40):
        pair = TERNARY if i % 3 == 2 else bernoulli_pair(float(rng.choice((0.7, 0.75, 0.8))))
        tree = _rugged_tree(rng, 2 + i % 2)
        thresholds = tuple(rng.uniform(-0.6, 0.4, size=tree.height).tolist())
        strat = build_relay_strategy(tree, identity_map(pair.alphabet), thresholds)
        calibrated = np_calibrate_root(strat, pair, float(rng.choice((0.05, 0.25))))
        est = exact_error_probs(calibrated, pair)
        tails = [_row(*row) for row in tail_report(calibrated, pair)[:50]]
        atoms = root_sum_law(calibrated, pair)[0].size
        yield _row(calibrated.root_threshold, est.log_type_i, est.log_type_ii, *tails, atoms)


def main() -> None:
    for name, rows in (("calibrations", calibrations), ("monte_carlo", monte_carlo), ("rugged", rugged)):
        lines = [f"{line}\n" for line in rows()]
        print(name, len(lines), hashlib.sha1("".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()

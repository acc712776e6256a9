"""The four benchmark workloads: seeded inputs, one op, and its checks.

Every op reaches the package only through public ``treedet`` functions, and
every such call goes through ``tracer.call`` under a span named
``<module>.<function>``; the span's first segment is the layer it is
charged to.  With tracing off, ``tracer.call`` is a plain call, so the
untraced run makes exactly the calls a user would.  Traced runs add two
kinds of calls that only reuse cached work: touching the cached ``Tree``
metrics before the strategy is built (``topology.metrics``), and
``root_sum_law`` before ``np_calibrate_root`` (``evaluate.root_sum_law``),
so that topology and law-building time show up under their own layers.

Inputs come from a numpy generator seeded by (seed, pass index).  A pass is
the workload at its stated size; the structural sizes in a pass are fixed
and the seed picks only parameters that leave the cost alone (pair,
thresholds, alpha, Monte Carlo seed) or average out over a pass (the 80
random design pairs), so wall time does not drift with the seed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

from treedet import (
    BINARY,
    Alphabet,
    DistributionPair,
    TreeFamily,
    all_binary_leaf_family,
    build_relay_strategy,
    exact_error_probs,
    feasible_threshold_interval,
    identity_map,
    monte_carlo_error,
    np_calibrate_root,
    or_gate,
    parallel_exponent,
    rate_table,
    recipe_threshold,
    root_sum_law,
    simple_strategy,
    tail_report,
)

# Relative tolerance on exact log error probabilities against the values
# recorded from the seed commit: reordered float sums move them by about
# 1e-12 relative, a wrong law by far more than 1e-9.
LOG_RTOL = 1e-9
# The conjugate identity and the closed recursion hold to rounding.
RATE_ATOL = 1e-10
# A Monte Carlo error count fails only when its exact two-sided binomial
# tail probability under the exact error rate is below that of a normal
# deviate 6 standard errors out; the 4-standard-error level is a diagnostic
# only.  The exact tail, not the normal approximation, is needed because
# some error rates are near 1e-8, where a single error in 1e5 trials is
# dozens of normal standard errors away yet happens for correct code.
MC_FAIL_P = 1.97e-9
MC_DIAG_P = 6.33e-5
MC_TRIALS = 10**5

# Bernoulli pairs the seed picks from; reference.json holds the exact
# results for every (pair, size) a pass can draw.
WIDE_PS = (0.7, 0.75, 0.8)
WIDE_M = 20
WIDE_RELAYS = 25_000
WIDE_OPS = 8
WIDE_EPSILON = 0.02
FIT_PS = (0.75, 0.8, 0.85)
FIT_SIZES = tuple(range(15, 22))
FIT_EPSILON = 0.4
ALPHA = 0.25
DESIGN_OPS = 80
# mc_check: (family kind, params, size, fringe gate) per op; nine ops, an
# odd count, so no fixed percentile falls on a boundary between configs
MC_CONFIGS = (
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
MC_PS = (0.7, 0.75, 0.8)


def _pair(tracer, p0, p1):
    alphabet = Alphabet(tuple(range(len(p0))))
    return tracer.call("hypotheses.DistributionPair", DistributionPair, alphabet, np.asarray(p0), np.asarray(p1))


def _bernoulli(tracer, p):
    return _pair(tracer, [p, 1.0 - p], [1.0 - p, p])


def _touch_metrics(tree):
    for name in ("depth", "subtree_leaf_count", "subtree_node_count", "fringe", "shape_ids"):
        getattr(tree, name)


def _tree_prelude(tracer, kind, params, size):
    tree = tracer.call("topology.TreeFamily.generate", TreeFamily(kind, params).generate, size)
    if tracer.enabled:
        tracer.call("topology.metrics", _touch_metrics, tree)
    return tree


def _tree_counters(tracer, tree):
    tracer.count("topology.nodes", tree.n)
    tracer.count("topology.shapes", int(np.unique(tree.shape_ids).size))


def _close(value, ref):
    return abs(value - ref) <= LOG_RTOL * max(1.0, abs(ref))


# -- design_sweep ----------------------------------------------------------


def design_inputs(rng):
    ops = []
    for _ in range(DESIGN_OPS):
        k = int(rng.integers(2, 6))
        p0 = rng.dirichlet(np.ones(k)) + 0.05
        p1 = rng.dirichlet(np.ones(k)) + 0.05
        ops.append(
            {
                "p0": (p0 / p0.sum()).tolist(),
                "p1": (p1 / p1.sum()).tolist(),
                "eps_frac": float(rng.uniform(0.1, 0.9)),
                "levels": int(rng.integers(1, 5)),
            }
        )
    return ops


def design_op(tracer, inp):
    pair = _pair(tracer, inp["p0"], inp["p1"])
    family = tracer.call("channels.all_binary_leaf_family", all_binary_leaf_family, pair.alphabet)
    g, gamma = tracer.call("channels.parallel_exponent", parallel_exponent, pair, family)
    lo, hi = tracer.call("rates.feasible_threshold_interval", feasible_threshold_interval, pair, gamma)
    t = tracer.call("rates.recipe_threshold", recipe_threshold, pair, gamma, inp["eps_frac"] * -g)
    table = tracer.call("rates.rate_table", rate_table, pair, gamma, (t,) * inp["levels"])
    return {"interval": (lo, hi), "t": t, "table": table}


def design_check(tracer, inp, out, reference):
    lo, hi = out["interval"]
    t = out["t"]
    table = out["table"]
    ok = lo < t < hi and table.height == inp["levels"]
    r0, r1 = table.rate0[0], table.rate1[0]
    for k in range(table.height):
        if k > 0:
            tk = table.thresholds[k]
            r0, r1 = r0 * (r1 + tk) / (r0 + r1), r1 * (r0 - tk) / (r0 + r1)
        ok = ok and abs(table.rate1[k] - (table.rate0[k] - table.thresholds[k])) <= RATE_ATOL
        ok = ok and abs(table.rate0[k] - r0) <= RATE_ATOL and abs(table.rate1[k] - r1) <= RATE_ATOL
    if tracer.enabled:
        tracer.count("rates.levels", table.height)
    return ok, {}


# -- wide_exact ------------------------------------------------------------


def wide_inputs(rng):
    return [{"p": float(rng.choice(WIDE_PS)), "relays": WIDE_RELAYS} for _ in range(WIDE_OPS)]


def wide_op(tracer, inp):
    pair = _bernoulli(tracer, inp["p"])
    family = tracer.call("channels.all_binary_leaf_family", all_binary_leaf_family, pair.alphabet)
    tree = _tree_prelude(tracer, "wide_uniform", {"m": WIDE_M}, inp["relays"])
    res = tracer.call("strategy.simple_strategy", simple_strategy, tree, pair, family, WIDE_EPSILON)
    if tracer.enabled:
        tracer.call("evaluate.root_sum_law", root_sum_law, res.strategy, pair)
    calibrated = tracer.call("strategy.np_calibrate_root", np_calibrate_root, res.strategy, pair, ALPHA)
    est = tracer.call("evaluate.exact_error_probs", exact_error_probs, calibrated, pair)
    rows = tracer.call("evaluate.tail_report", tail_report, calibrated, pair)
    return {"pair": pair, "strategy": calibrated, "est": est, "tail_rows": len(rows)}


def exact_summary(out):
    """The values of an exact op that reference.json records."""
    got = {
        "log_type_ii": out["est"].log_type_ii,
        "root_atoms": int(root_sum_law(out["strategy"], out["pair"])[0].size),
    }
    if "tail_rows" in out:
        got["tail_rows"] = out["tail_rows"]
    return got


def _exact_check(tracer, key, out, reference):
    ref = reference[key]
    got = exact_summary(out)
    ok = out["est"].type_i <= ALPHA and _close(got["log_type_ii"], ref["log_type_ii"])
    ok = ok and all(got[name] == ref[name] for name in got if name != "log_type_ii")
    if tracer.enabled:
        _tree_counters(tracer, out["strategy"].tree)
        for name in got:
            if name != "log_type_ii":
                tracer.count(f"evaluate.{name}", got[name])
    return ok, got


def wide_key(p, relays):
    return f"wide_exact:p={p}:relays={relays}"


def wide_check(tracer, inp, out, reference):
    return _exact_check(tracer, wide_key(inp["p"], inp["relays"]), out, reference)


# -- increasing_fit --------------------------------------------------------


def fit_inputs(rng):
    p = float(rng.choice(FIT_PS))
    return [{"p": p, "relays": n} for n in FIT_SIZES]


def fit_op(tracer, inp):
    # the calls empirical_exponent makes for one grid point
    pair = _bernoulli(tracer, inp["p"])
    family = tracer.call("channels.all_binary_leaf_family", all_binary_leaf_family, pair.alphabet)
    tree = _tree_prelude(tracer, "increasing_leaves", {}, inp["relays"])
    strat = tracer.call("strategy.simple_strategy", simple_strategy, tree, pair, family, FIT_EPSILON).strategy
    if tracer.enabled:
        tracer.call("evaluate.root_sum_law", root_sum_law, strat, pair)
    calibrated = tracer.call("strategy.np_calibrate_root", np_calibrate_root, strat, pair, ALPHA)
    est = tracer.call("evaluate.exact_error_probs", exact_error_probs, calibrated, pair)
    return {"pair": pair, "strategy": calibrated, "est": est}


def fit_key(p, relays=None):
    return f"increasing_fit:p={p}:" + ("slope" if relays is None else f"relays={relays}")


def fit_check(tracer, inp, out, reference):
    ok, got = _exact_check(tracer, fit_key(inp["p"], inp["relays"]), out, reference)
    tree = out["strategy"].tree
    got["leaves"] = int(tree.subtree_leaf_count[tree.root])
    return ok, got


def fitted_slope(leaves, log_type_ii):
    """Least-squares slope of log miss probability on leaf count, as
    empirical_exponent fits it."""
    x = np.asarray(leaves, dtype=float)
    y = np.asarray(log_type_ii, dtype=float)
    xm = x - x.mean()
    return float(np.dot(xm, y) / np.dot(xm, xm))


def fit_finish(inputs, details, reference):
    """The pass ends with the fitted slope, checked against the reference."""
    if any(d is None for d in details):
        return False, {}
    slope = fitted_slope([d["leaves"] for d in details], [d["log_type_ii"] for d in details])
    ref = reference[fit_key(inputs[0]["p"])]["slope"]
    return _close(slope, ref), {"slope": slope}


# -- mc_check --------------------------------------------------------------


def mc_inputs(rng):
    ops = []
    for kind, params, size, gate in MC_CONFIGS:
        ops.append(
            {
                "kind": kind,
                "params": params,
                "size": size,
                "gate": gate,
                "p": float(rng.choice(MC_PS)),
                "epsilon": float(rng.uniform(0.1, 0.5)),
                "alpha": float(rng.choice((0.1, 0.25, 0.4))),
                "mc_seed": int(rng.integers(0, 2**31)),
            }
        )
    return ops


def mc_op(tracer, inp):
    pair = _bernoulli(tracer, inp["p"])
    ident = tracer.call("channels.identity_map", identity_map, BINARY)
    tree = _tree_prelude(tracer, inp["kind"], inp["params"], inp["size"])
    h = tree.height
    if inp["gate"] == "or":
        gate = tracer.call("channels.or_gate", or_gate)
        strat = tracer.call(
            "strategy.build_relay_strategy", build_relay_strategy, tree, ident, (0.0,) * h, level1_gate=gate
        )
    else:
        t = tracer.call("rates.recipe_threshold", recipe_threshold, pair, ident, inp["epsilon"])
        strat = tracer.call("strategy.build_relay_strategy", build_relay_strategy, tree, ident, (t,) * h)
    if tracer.enabled:
        tracer.call("evaluate.root_sum_law", root_sum_law, strat, pair)
    calibrated = tracer.call("strategy.np_calibrate_root", np_calibrate_root, strat, pair, inp["alpha"])
    exact = tracer.call("evaluate.exact_error_probs", exact_error_probs, calibrated, pair)
    mc = tracer.call(
        "evaluate.monte_carlo_error", monte_carlo_error, calibrated, pair, trials=MC_TRIALS, seed=inp["mc_seed"]
    )
    return {"tree": tree, "exact": exact, "mc": mc}


def binomial_tail(k, n, p):
    """Two-sided tail probability of k successes in n trials of chance p."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    at_most = betainc(n - k, k + 1, 1.0 - p) if k < n else 1.0
    at_least = betainc(k, n - k + 1, p) if k > 0 else 1.0
    return min(1.0, 2.0 * float(min(at_most, at_least)))


def mc_check(tracer, inp, out, reference):
    tail = min(
        binomial_tail(round(q * MC_TRIALS), MC_TRIALS, p)
        for p, q in ((out["exact"].type_i, out["mc"].type_i), (out["exact"].type_ii, out["mc"].type_ii))
    )
    if tracer.enabled:
        tree = out["tree"]
        _tree_counters(tracer, tree)
        tracer.count("evaluate.mc_leaf_draws", MC_TRIALS * 2 * int(tree.is_leaf.sum()))
    return tail >= MC_FAIL_P, {"tail_p": tail, "within_4se": tail >= MC_DIAG_P}


# The stated size of one pass of each workload.
SIZES = {
    "design_sweep": {"ops": DESIGN_OPS, "pairs": DESIGN_OPS, "symbols": [2, 5], "levels": [1, 4]},
    "wide_exact": {
        "ops": WIDE_OPS,
        "relays_per_op": WIDE_RELAYS,
        "leaves_per_relay": WIDE_M,
        "nodes_per_op": 1 + WIDE_RELAYS * (1 + WIDE_M),
        "leaves_per_op": WIDE_RELAYS * WIDE_M,
        "root_atoms_per_op": WIDE_RELAYS + 1,
        "tail_rows_per_op": WIDE_RELAYS + 1,
        "pairs": list(WIDE_PS),
    },
    "increasing_fit": {
        "ops": len(FIT_SIZES),
        "relays": list(FIT_SIZES),
        "leaves": [n * (n + 3) // 2 for n in FIT_SIZES],
        "root_atoms_max": 2 ** FIT_SIZES[-1],
        "pairs": list(FIT_PS),
    },
    "mc_check": {
        "ops": len(MC_CONFIGS),
        "trials": MC_TRIALS,
        "configs": [[kind, params, size, gate] for kind, params, size, gate in MC_CONFIGS],
        "pairs": list(MC_PS),
    },
}

WORKLOADS = {
    "design_sweep": (design_inputs, design_op, design_check, None),
    "wide_exact": (wide_inputs, wide_op, wide_check, None),
    "increasing_fit": (fit_inputs, fit_op, fit_check, fit_finish),
    "mc_check": (mc_inputs, mc_op, mc_check, None),
}

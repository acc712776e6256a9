"""Command-line drivers: argument parsing, orchestration, report emission.

Every command writes its reports into an output directory (CSV for curves,
JSON for summaries) and prints a short account to stdout.  Reruns with the
same inputs and seed produce byte-identical files except for the CSV
timestamp header, which --no-timestamp suppresses.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .channels import (
    TransmissionFunction,
    all_binary_leaf_family,
    and_gate,
    enumerate_quantizers,
    forward_first_gate,
    fused_pair,
    fusion_loss_constant,
    identity_map,
    or_gate,
    parallel_exponent,
    xor_gate,
)
from .errors import InfeasibilityError, InputError, InvalidParams
from .evaluate import (
    ErrorEstimate,
    empirical_exponent,
    exact_error_probs,
    fringe_message_laws,
    monte_carlo_error,
    np_calibrate_root,
)
from .hypotheses import (
    BINARY,
    Direction,
    DistributionPair,
    bernoulli_pair,
    kl_divergence,
)
from .rates import (
    chernoff_bound_report,
    feasible_threshold_interval,
    rate_table,
)
from .strategy import Strategy, build_relay_strategy, simple_strategy
from .topology import GrowthReport, Tree, TreeFamily, analyze_tree, estimate_z, uniformize

_GATES: dict[str, Callable[[], TransmissionFunction]] = {
    "or": or_gate,
    "and": and_gate,
    "xor": xor_gate,
    "forward": forward_first_gate,
}

T = TypeVar("T")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # a word like -0.2,-0.1 is a comma list's value, not an option;
        # argparse's own pattern accepts only a single negative number
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# -- input loading -----------------------------------------------------------


def _load_spec(
    spec: str, builtins: Mapping[str, Callable[[], T]], parse: Callable[[str], T], missing: str
) -> T:
    """A builtin name, else an existing file read through ``parse``, else
    InputError with the ``missing`` message."""
    if spec in builtins:
        return builtins[spec]()
    path = Path(spec)
    if not path.exists():
        raise InputError(missing)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {spec!r}: {exc.strerror}") from None
    return parse(text)


def _load_pair(spec: str) -> DistributionPair:
    if spec.startswith("bernoulli:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"pair spec {spec!r}: {exc}") from None
        return bernoulli_pair(p)
    return _load_spec(
        spec, {"bern75": lambda: bernoulli_pair(0.75)}, DistributionPair.from_json,
        f"pair spec {spec!r} is neither a file nor 'bern75'/'bernoulli:p'",
    )


def _load_gamma(spec: str, pair: DistributionPair) -> TransmissionFunction:
    return _load_spec(
        spec, {"identity": lambda: identity_map(pair.alphabet)}, TransmissionFunction.from_json,
        f"leaf map spec {spec!r} is neither a file nor 'identity'",
    )


def _load_gate(spec: str | None) -> TransmissionFunction | None:
    if spec is None:
        return None
    return _load_spec(
        spec, _GATES, TransmissionFunction.from_json,
        f"gate spec {spec!r} is neither a file nor one of {sorted(_GATES)}",
    )


def _load_tree_file(spec: str) -> Tree:
    return _load_spec(spec, {}, Tree.from_json, f"tree file {spec!r} does not exist")


def _load_tree(args: argparse.Namespace) -> Tree:
    if args.tree:
        return _load_tree_file(args.tree)
    if args.family:
        if args.size is None:
            raise InputError("--family needs --size")
        return _family_from_args(args).generate(args.size)
    raise InputError("provide --tree or --family/--size")


def _family_from_args(args: argparse.Namespace) -> TreeFamily:
    params: Mapping[str, object] = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise InputError(f"--params is not valid JSON: {exc}") from None
        if not isinstance(params, dict):
            raise InputError("--params must be a JSON object")
    return TreeFamily(args.family, params)


def _parse_list(text: str, label: str, cast: Callable[[str], T]) -> tuple[T, ...]:
    try:
        values = tuple(cast(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise InputError(f"{label}: {exc}") from None
    if not values:
        raise InputError(f"{label} must list at least one value")
    return values


# -- report emission ---------------------------------------------------------


def _write_csv(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    stamp: bool,
) -> None:
    with path.open("w") as f:
        if stamp:
            f.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _write_json(path: Path, doc: object) -> None:
    # standard JSON only: a non-finite float raises instead of writing Infinity
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_growth(
    out: Path, growth: GrowthReport, sizes: Sequence[int], caps: Sequence[int], stamp: bool
) -> None:
    header = ["size", "leaf_count", "leaf_fraction"] + [
        f"small_leaf_fraction_{c}" for c in caps
    ]
    rows = [
        [s, growth.leaf_counts[i], growth.leaf_fractions[i]]
        + [growth.small_fraction_curves[c][i] for c in caps]
        for i, s in enumerate(sizes)
    ]
    _write_csv(out / "growth.csv", header, rows, stamp)


def _estimate_doc(est: ErrorEstimate) -> dict:
    # only Monte Carlo estimates carry trials and standard errors; the log of
    # a zero probability is written null
    doc = {k: v for k, v in asdict(est).items() if v is not None}
    for key in ("log_type_i", "log_type_ii"):
        if not math.isfinite(doc[key]):
            doc[key] = None
    return doc


# -- subcommands -------------------------------------------------------------


def cmd_exponent(args: argparse.Namespace) -> int:
    pair = _load_pair(args.pair)
    family = all_binary_leaf_family(pair.alphabet)
    g_parallel, best = parallel_exponent(pair, family)
    doc: dict = {
        "parallel_exponent": g_parallel,
        "best_leaf_map": json.loads(best.to_json()),
        "fusion": [],
    }
    for k in _parse_list(args.fusion_arity, "--fusion-arity", int):
        gates = enumerate_quantizers((BINARY,) * k, BINARY)
        rep = fusion_loss_constant(pair, family, gates, k)
        doc["fusion"].append(
            {
                "arity": k,
                "constant": rep.constant,
                "parallel": rep.parallel,
                "dominated": rep.dominated,
                "best_gate": json.loads(rep.best_gate.to_json()),
                "best_leaf_maps": [
                    json.loads(g.to_json()) for g in rep.best_leaf_maps
                ],
            }
        )
    out = _out_dir(args)
    _write_json(out / "exponent.json", doc)
    print(f"parallel exponent {g_parallel:.6f}")
    for entry in doc["fusion"]:
        print(
            f"arity-{entry['arity']} fusion constant {entry['constant']:.6f}"
            f" (dominated: {entry['dominated']})"
        )
    print(f"wrote {out / 'exponent.json'}")
    return 0


def cmd_rates(args: argparse.Namespace) -> int:
    pair = _load_pair(args.pair)
    gamma = _load_gamma(args.gamma, pair)
    thresholds = _parse_list(args.thresholds, "--thresholds", float)
    table = rate_table(pair, gamma, thresholds)
    # the bounds hold for the tree a strategy is built on, the uniformized one; it is
    # loaded and checked before anything is written
    tree = uniformize(_load_tree(args)).tree if args.tree or args.family else None
    if tree is not None and tree.shape_counts.fringe_degrees.size == 0:
        raise InvalidParams("tree has no fringe nodes")
    out = _out_dir(args)
    stamp = not args.no_timestamp
    rows = [
        (k, table.thresholds[k - 1], table.level0(k), table.level1(k))
        for k in range(1, table.height + 1)
    ]
    _write_csv(out / "rates.csv", ("level", "threshold", "fa_rate", "miss_rate"), rows, stamp)
    summary: dict = {
        "height": table.height,
        "thresholds": list(table.thresholds),
        "next_feasible_interval": list(
            feasible_threshold_interval(pair, gamma, table)
        ),
    }
    if tree is not None:
        # the least fringe degree is the one floor at which the root bound
        # -rate + h/n_floor both holds and is tightest
        n_floor = int(tree.shape_counts.fringe_degrees.min())
        report = chernoff_bound_report(tree, table, n_floor)
        _write_csv(
            out / "bounds.csv",
            ("node_id", "level", "leaf_count", "pred_count", "bound_type", "bound_value"),
            report.rows,
            stamp,
        )
        summary["n_floor"] = n_floor
        summary["root_bounds"] = {r.kind: r.value for r in report.roots}
        summary["exponent_lower_bound"] = summary["root_bounds"]["root_type1"]
    _write_json(out / "rates.json", summary)
    print(f"rates for {table.height} levels written to {out / 'rates.csv'}")
    if "exponent_lower_bound" in summary:
        print(f"root miss bound per leaf: {summary['exponent_lower_bound']:.6f}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    caps = _parse_list(args.small_caps, "--small-caps", int)
    out = _out_dir(args)
    doc: dict = {}
    if args.tree or args.size is not None:
        tree = _load_tree(args)
        per_cap = {cap: analyze_tree(tree, cap) for cap in caps}
        base = per_cap[caps[0]]
        doc["stats"] = {
            "height": base.height,
            "n_nodes": base.n_nodes,
            "n_leaves": base.n_leaves,
            "n_leaf_parents": base.n_leaf_parents,
            "n_fringe": base.n_fringe,
            "leaf_fraction": base.leaf_fraction,
            "is_uniform": tree.is_uniform,
        }
        doc["small_leaf_fraction"] = {
            str(cap): {"fraction": s.small_leaf_fraction, "n_small_fringe": s.n_small_fringe}
            for cap, s in per_cap.items()
        }
    if args.sizes:
        if not args.family:
            raise InputError("--sizes needs --family")
        sizes = _parse_list(args.sizes, "--sizes", int)
        growth = estimate_z(_family_from_args(args), sizes, caps)
        _emit_growth(out, growth, sizes, caps, not args.no_timestamp)
        doc["growth"] = {
            "z_estimate": growth.z_estimate,
            "consistent": growth.consistent,
            "sizes": list(sizes),
        }
    if not doc:
        raise InputError("provide --tree, --family/--size, or --family/--sizes")
    _write_json(out / "analyze.json", doc)
    print(f"wrote {out / 'analyze.json'}")
    return 0


def cmd_uniformize(args: argparse.Namespace) -> int:
    tree = _load_tree_file(args.tree)
    result = uniformize(tree)
    out = _out_dir(args)
    tree_path = out / args.out_tree
    tree_path.write_text(result.tree.to_json() + "\n")
    summary = {
        "n_before": tree.n,
        "n_after": result.tree.n,
        "height_before": tree.height,
        "height_after": result.tree.height,
        "leaf_count_before": len(tree.leaves),
        "leaf_count_after": len(result.tree.leaves),
        "was_uniform": tree.is_uniform,
        "tree_file": tree_path.name,
    }
    _write_json(out / "uniformize.json", summary)
    print(
        f"height {summary['height_before']} -> {summary['height_after']}, "
        f"nodes {summary['n_before']} -> {summary['n_after']}, "
        f"leaves preserved: "
        f"{summary['leaf_count_before'] == summary['leaf_count_after']}"
    )
    print(f"wrote {tree_path}")
    return 0


def _strategy_from_args(
    args: argparse.Namespace, tree: Tree, pair: DistributionPair
) -> Strategy:
    if args.epsilon is not None:
        given = [f"--{k}" for k in ("gamma", "thresholds", "gate") if getattr(args, k)]
        if given:
            raise InputError(f"--epsilon builds the recipe strategy; it cannot take {', '.join(given)}")
        family = all_binary_leaf_family(pair.alphabet)
        return simple_strategy(tree, pair, family, args.epsilon).strategy
    if not args.gamma or not args.thresholds:
        raise InputError("provide --epsilon, or --gamma with --thresholds")
    gamma = _load_gamma(args.gamma, pair)
    gate = _load_gate(args.gate)
    ts = _parse_list(args.thresholds, "--thresholds", float)
    if len(ts) == 1 and tree.height > 1:
        ts = ts * tree.height
    return build_relay_strategy(
        tree, gamma, ts, pair=pair if gate is None else None, level1_gate=gate
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    pair = _load_pair(args.pair)
    tree = _load_tree(args)
    strat = _strategy_from_args(args, tree, pair)
    if args.alpha is not None:
        strat = np_calibrate_root(strat, pair, args.alpha)
    elif args.root_threshold is not None:
        strat = replace(strat, root_threshold=args.root_threshold)
    doc: dict = {
        "strategy": json.loads(strat.to_json()),
        "n_nodes": strat.tree.n,
        "leaf_count": int(strat.tree.shape_counts.leaf_count[-1]),
    }
    estimates = {}
    if args.method in ("exact", "both"):
        estimates["exact"] = exact_error_probs(strat, pair)
    if args.method in ("mc", "both"):
        estimates["monte_carlo"] = monte_carlo_error(strat, pair, args.trials, args.seed)
        doc["seed"] = args.seed
    doc.update((key, _estimate_doc(est)) for key, est in estimates.items())
    out = _out_dir(args)
    _write_json(out / "simulate.json", doc)
    for key, est in estimates.items():
        print(
            f"{key}: type I {est.type_i:.6g}, type II {est.type_ii:.6g} "
            f"(log {est.log_type_ii:.6g})"
        )
    print(f"wrote {out / 'simulate.json'}")
    return 0


def _emit_fit(
    out: Path, name: str, stamp: bool, target: float | None, tolerance: float,
    family: TreeFamily, pair: DistributionPair, sizes: Sequence[int],
    factory: Callable[[Tree], Strategy], *, alpha: float = 0.25, regress_on: str = "leaves",
) -> dict:
    """Runs ``empirical_exponent`` and writes the fit to ``name``.csv and
    ``name``.json."""
    fit = empirical_exponent(family, pair, sizes, factory, alpha=alpha, regress_on=regress_on)
    rows = [
        (size, fit.node_counts[i], fit.leaf_counts[i], alpha, fit.type_i[i],
         math.exp(fit.log_type_ii[i]), fit.per_leaf[i])
        for i, size in enumerate(sizes)
    ]
    _write_csv(
        out / f"{name}.csv",
        ("size", "n", "leaf_count", "alpha", "type_i", "type_ii", "log_type_ii_per_leaf"),
        rows,
        stamp,
    )
    summary = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "regressor": regress_on,
        "sizes": list(sizes),
        "alpha": alpha,
        "target_exponent": target,
        "tolerance": tolerance if target is not None else None,
        "verdict": (
            None if target is None else bool(abs(fit.slope - target) <= tolerance)
        ),
    }
    _write_json(out / f"{name}.json", summary)
    return summary


def cmd_fit(args: argparse.Namespace) -> int:
    pair = _load_pair(args.pair)
    family = _family_from_args(args)
    sizes = _parse_list(args.sizes, "--sizes", int)

    def factory(tree: Tree) -> Strategy:
        return _strategy_from_args(args, tree, pair)

    out = _out_dir(args)
    summary = _emit_fit(
        out, "fit", not args.no_timestamp, args.target, args.tolerance, family, pair, sizes,
        factory, alpha=args.alpha, regress_on=args.regress_on,
    )
    print(
        f"slope {summary['slope']:.6f} (r^2 {summary['r_squared']:.6f})"
        f" over sizes {list(sizes)}"
    )
    if summary["verdict"] is not None:
        print(
            f"|slope - target| <= {args.tolerance}: "
            f"{'pass' if summary['verdict'] else 'fail'}"
        )
    print(f"wrote {out / 'fit.csv'}")
    return 0 if summary["verdict"] in (None, True) else 1


# -- example reproduction ----------------------------------------------------

# each worked example returns its named verdicts, where any False fails the
# reproduction, its summary, and the artifact files it wrote
_Outcome = tuple[dict[str, bool], dict, tuple[str, ...]]


def _naive_type_i(delta: float, relays: float) -> float:
    """Type I of declaring the alternative when any of ``relays`` independent
    relays, each of false-alarm rate delta, sends 1.  Stays in the log domain
    so astronomically many relays are fine."""
    if delta >= 1.0:  # log1p(-1.0) raises; at delta = 0.0 the form below is 0.0
        return 1.0
    return -math.expm1(relays * math.log1p(-delta))


def _recipe_fit(
    out: Path, stamp: bool, family: TreeFamily, sizes: Sequence[int], epsilon: float
) -> dict:
    """Fits the recipe strategy's slope on ``family`` into fit.csv and
    fit.json, judged against the parallel exponent of Bernoulli(0.75)."""
    pair = bernoulli_pair(0.75)
    leaf_family = all_binary_leaf_family(pair.alphabet)
    target, _ = parallel_exponent(pair, leaf_family)

    def factory(tree: Tree) -> Strategy:
        return simple_strategy(tree, pair, leaf_family, epsilon).strategy

    return _emit_fit(out, "fit", stamp, target, 0.05, family, pair, sizes, factory)


def _reproduce_two_relay(out: Path, stamp: bool) -> _Outcome:
    summary = _recipe_fit(out, stamp, TreeFamily("two_relay"), (15000, 30000, 60000, 120000), 0.02)
    verdicts = {"slope_matches_parallel_exponent": bool(summary["verdict"])}
    return verdicts, {"fit": summary}, ("fit.csv", "fit.json")


def _reproduce_wide_uniform(out: Path, stamp: bool) -> _Outcome:
    pair = bernoulli_pair(0.75)
    family = all_binary_leaf_family(pair.alphabet)
    alpha = 0.25
    epsilon = 0.02
    grid = [(m, m * m) for m in (4, 8, 12, 16, 20)]
    grid.append((20, 10**5))
    simple_rows = []
    naive_rows = []
    for m, relays in grid:
        tree = TreeFamily("wide_uniform", {"m": m}).generate(relays)
        strat = simple_strategy(tree, pair, family, epsilon).strategy
        strat = np_calibrate_root(strat, pair, alpha)
        est = exact_error_probs(strat, pair)
        leaf_count = int(tree.shape_counts.leaf_count[-1])
        simple_rows.append(
            (
                m,
                relays,
                tree.n,
                leaf_count,
                est.type_i,
                est.type_ii,
                est.log_type_ii / leaf_count,
            )
        )
        laws = fringe_message_laws(strat, pair)
        law = laws[0][0]
        delta = float(law.p0[-1]) if law.n_atoms == 2 else 0.0
        miss_per_leaf = float(law.logp1[0]) / m if law.n_atoms == 2 else -math.inf
        huge = min(m**m, 10**6)
        naive_rows.append(
            (
                m,
                relays,
                delta,
                _naive_type_i(delta, relays),
                _naive_type_i(delta, 10**5),
                huge,
                _naive_type_i(delta, huge),
                miss_per_leaf,
            )
        )
    _write_csv(
        out / "simple.csv",
        ("m", "n_relays", "n", "leaf_count", "type_i", "type_ii", "log_type_ii_per_leaf"),
        simple_rows,
        stamp,
    )
    _write_csv(
        out / "naive.csv",
        (
            "m",
            "n_relays",
            "relay_fa",
            "naive_type_i",
            "naive_type_i_1e5_relays",
            "capped_relays",
            "naive_type_i_capped",
            "relay_log_miss_per_leaf",
        ),
        naive_rows,
        stamp,
    )
    anchor_simple = simple_rows[-1]
    anchor_naive = naive_rows[-1]
    verdicts = {
        "naive_rule_inadmissible_at_1e5_relays": anchor_naive[4] > alpha,
        "calibrated_rule_within_alpha": all(
            row[4] <= alpha + 1e-12 for row in simple_rows
        ),
    }
    summary = {
        "alpha": alpha,
        "epsilon": epsilon,
        "anchor": {
            "m": anchor_simple[0],
            "n_relays": anchor_simple[1],
            "calibrated_type_i": anchor_simple[4],
            "naive_type_i": anchor_naive[4],
        },
        "per_leaf_trend": [row[6] for row in simple_rows],
    }
    return verdicts, summary, ("simple.csv", "naive.csv")


def _reproduce_gate_table(out: Path, stamp: bool) -> _Outcome:
    pair = bernoulli_pair(0.75)
    ident = identity_map(pair.alphabet)
    family = all_binary_leaf_family(pair.alphabet)
    g_parallel, _ = parallel_exponent(pair, family)
    p = 0.75  # null probability of the quiet symbol

    def forward_form() -> float:
        return (p * math.log((1 - p) / p) + (1 - p) * math.log(p / (1 - p))) / 2.0

    def or_form() -> float:
        q = p * p  # both quiet
        return (q * math.log((1 - p) ** 2 / q) + (1 - q) * math.log((1 - (1 - p) ** 2) / (1 - q))) / 2.0

    def and_form() -> float:
        q = (1 - p) ** 2  # both loud
        return ((1 - q) * math.log((1 - p * p) / (1 - q)) + q * math.log(p * p / q)) / 2.0

    gates = (
        ("forward", forward_first_gate(), forward_form()),
        ("or", or_gate(), or_form()),
        ("and", and_gate(), and_form()),
    )
    rows = []
    matches = []
    above_parallel = []
    for name, gate, closed in gates:
        fused = fused_pair(pair, [ident, ident], gate)
        value = -kl_divergence(fused, Direction.ZERO_ONE) / 2.0
        matches.append(abs(value - closed) <= 1e-6)
        rows.append((name, value, closed, "true" if matches[-1] else "false"))
        above_parallel.append(value > g_parallel)
    _write_csv(
        out / "gate_table.csv",
        ("gate", "per_leaf_rate", "closed_form", "matches_closed_form"),
        rows,
        stamp,
    )
    fam = TreeFamily("wide_uniform", {"m": 2})
    sizes = (50, 100, 200, 400)

    def factory(tree: Tree) -> Strategy:
        return build_relay_strategy(
            tree, ident, (0.0, 0.0), level1_gate=or_gate()
        )

    or_rate = rows[1][1]
    fit_summary = _emit_fit(out, "or_fit", stamp, or_rate, 0.05, fam, pair, sizes, factory)
    verdicts = {
        "per_leaf_rates_match_closed_forms": all(matches),
        "every_gate_above_parallel_exponent": all(above_parallel),
        "or_gate_slope_matches_rate": bool(fit_summary["verdict"]),
    }
    summary = {
        "parallel_exponent": g_parallel,
        "gates": {name: value for name, value, _, _ in rows},
        "or_fit": fit_summary,
    }
    return verdicts, summary, ("gate_table.csv", "or_fit.csv", "or_fit.json")


def _reproduce_increasing_leaves(out: Path, stamp: bool) -> _Outcome:
    fam = TreeFamily("increasing_leaves")
    caps = (2, 5, 10)
    q_sizes = (25, 50, 100, 200)
    growth = estimate_z(fam, q_sizes, caps)
    _emit_growth(out, growth, q_sizes, caps, stamp)
    curves = growth.small_fraction_curves
    vanishing = all(
        all(b < a for a, b in zip(curves[c], curves[c][1:]))
        and curves[c][-1] < 0.02
        for c in caps
    )
    # Exact evaluation caps this family at m=23 (2^m root atoms). The
    # relay slack of 0.4 maximizes the fitted slope at that scale; the
    # asymptotic per-leaf rate needs slack -> 0 after leaf counts grow,
    # so the fitted slope stays well short of the parallel exponent.
    fit_summary = _recipe_fit(out, stamp, fam, (15, 17, 19, 21, 23), 0.4)
    verdicts = {
        "small_fringe_fraction_vanishes": bool(vanishing),
        "slope_matches_parallel_exponent": bool(fit_summary["verdict"]),
    }
    summary = {
        "z_estimate": growth.z_estimate,
        "final_small_fractions": {str(c): curves[c][-1] for c in caps},
        "fit": fit_summary,
    }
    return verdicts, summary, ("growth.csv", "fit.csv", "fit.json")


_EXAMPLES = {
    1: _reproduce_two_relay,
    2: _reproduce_wide_uniform,
    3: _reproduce_gate_table,
    4: _reproduce_increasing_leaves,
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    out = Path(args.out) / f"example_{args.example}"
    out.mkdir(parents=True, exist_ok=True)
    verdicts, summary, artifacts = _EXAMPLES[args.example](out, not args.no_timestamp)
    all_pass = all(verdicts.values())
    doc = {
        "example": args.example,
        "verdicts": verdicts,
        "all_pass": all_pass,
        "summary": summary,
        "artifacts": list(artifacts),
    }
    _write_json(out / "bundle.json", doc)
    for name, ok in verdicts.items():
        print(f"{'pass' if ok else 'FAIL'}: {name}")
    print(f"wrote {out / 'bundle.json'}")
    return 0 if all_pass else 1


# -- parser ------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="treedet",
        description=(
            "Decentralized detection on bounded-height trees: error "
            "exponents, threshold design, and exact or simulated evaluation."
        ),
    )

    # flag groups shared between subcommands, each declared once as a parent
    def flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    common = flags()
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp header line from CSV files"
    )
    pair = flags()
    pair.add_argument("--pair", required=True, help="pair JSON file, 'bern75', or 'bernoulli:p'")

    def family(required: bool) -> argparse.ArgumentParser:
        group = flags()
        group.add_argument("--family", required=required, help="tree family kind")
        group.add_argument("--params", help="family parameters as JSON")
        return group

    tree = flags(family(False))
    tree.add_argument("--tree", help="tree JSON file instead of --family")
    tree.add_argument("--size", type=int, help="family size argument")
    strategy = flags()
    strategy.add_argument("--epsilon", type=float, help="use the recipe strategy with this slack")
    strategy.add_argument("--gamma", help="leaf map for an explicit strategy")
    strategy.add_argument("--thresholds", help="comma list (a single value repeats per level)")
    strategy.add_argument("--gate", help="fringe gate: or/and/xor/forward or a map JSON file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, about: str, *groups: argparse.ArgumentParser):
        p = sub.add_parser(name, parents=[common, *groups], help=about)
        p.set_defaults(func=func)
        return p

    p = command(
        "exponent", cmd_exponent, "parallel error exponent and bounded fan-in fusion constants", pair
    )
    p.add_argument("--fusion-arity", default="2", help="comma list of fan-ins")

    p = command("rates", cmd_rates, "per-level tail rates and per-node exponential bounds", pair, tree)
    p.add_argument("--gamma", default="identity", help="'identity' or a map JSON file")
    p.add_argument("--thresholds", required=True, help="comma list, one per level")

    p = command("analyze", cmd_analyze, "structural statistics and leaf-dominance diagnostics", tree)
    p.add_argument("--sizes", help="comma list for growth curves (needs --family)")
    p.add_argument("--small-caps", default="2,5,10")

    p = command(
        "uniformize", cmd_uniformize, "re-attach shallow leaves so all leaves sit at full height"
    )
    p.add_argument("--tree", required=True)
    p.add_argument("--out-tree", default="uniform_tree.json")

    p = command(
        "simulate", cmd_simulate, "exact and Monte Carlo error probabilities of one strategy",
        pair, tree, strategy,
    )
    root = p.add_mutually_exclusive_group()
    root.add_argument("--alpha", type=float, default=None, help="calibrate the root to this level")
    root.add_argument("--root-threshold", type=float, default=None)
    p.add_argument("--method", choices=("exact", "mc", "both"), default="exact")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    p = command(
        "fit", cmd_fit, "decay-slope fit of exact miss probabilities along a size grid",
        pair, family(True), strategy,
    )
    p.add_argument("--sizes", required=True)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--regress-on", choices=("leaves", "nodes"), default="leaves")
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=0.05)

    p = command(
        "reproduce", cmd_reproduce, "run one of the four worked scenarios and check its verdicts"
    )
    p.add_argument("--example", type=int, required=True, choices=sorted(_EXAMPLES))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

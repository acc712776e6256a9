"""treedet benchmark: four workloads, end-to-end metrics and per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
The run is a closed loop of passes, one after another, until S seconds have
passed and at least MIN_PASSES passes are done.  A pass is the workload at
its stated size, run by ``worker.py`` in a fresh interpreter so that every
pass starts cold.  With ``--trace 0`` the passes run untraced and the result
holds the end-to-end metrics.  With ``--trace 1`` each pass index runs twice
with the same inputs, untraced and traced, alternating which goes first; the
result holds the per-layer metrics taken from the traced passes' spans (in
unscaled seconds), and the tracing overhead is the median of the paired
differences in scaled wall time.

End-to-end times are scaled to a nominal machine speed.  Between ops each
pass times a fixed yardstick computation (``worker.yardstick``); an op's
time is multiplied by YARDSTICK_S over the mean of the yardsticks timed
just before and just after it, and set-up time by YARDSTICK_S over the
median of three yardsticks timed right after set-up.  On a shared machine whose speed swings
by tens of percent from one minute to the next, this keeps a run's numbers
tied to the program rather than to its neighbours.  The unscaled times are
in the report.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report (machine, inputs,
sample counts, checks and, when traced, every span) is written to
``bench/out/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "treedet"
OUT = BENCH / "out"

# Mirrors workloads.py, which this file does not import because it imports
# treedet; the orchestrator must run, and fail cleanly, without the package.
WORKLOADS = ("design_sweep", "wide_exact", "increasing_fit", "mc_check")
OPS_PER_PASS = {"design_sweep": 80, "wide_exact": 8, "increasing_fit": 7, "mc_check": 9}
# Guaranteed passes per run, so that every run has enough op samples for
# the same tail percentile whatever the machine's speed.
MIN_PASSES = 6
MIN_TRACED_PASSES = 2
# No pass may end later than this after the run starts: a run that cannot
# finish its minimum passes by then stops with an error.
RUN_LIMIT_S = 170.0
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

LAYERS = ("hypotheses", "channels", "topology", "rates", "strategy", "evaluate")
# Named per-layer busy times and the spans whose self time they sum.
NAMED_TIMES = {
    "topology.generate_s": ("topology.TreeFamily.generate",),
    "topology.metrics_s": ("topology.metrics",),
    "hypotheses.pair_s": ("hypotheses.DistributionPair",),
    "channels.exponent_s": ("channels.all_binary_leaf_family", "channels.parallel_exponent"),
    "rates.rate_table_s": ("rates.rate_table",),
    "strategy.build_s": ("strategy.simple_strategy", "strategy.build_relay_strategy"),
    "strategy.calibrate_s": ("strategy.np_calibrate_root",),
    "evaluate.law_build_s": ("evaluate.root_sum_law",),
    "evaluate.exact_s": ("evaluate.exact_error_probs",),
    "evaluate.tails_s": ("evaluate.tail_report",),
    "evaluate.mc_s": ("evaluate.monte_carlo_error",),
}
COUNTERS = (
    "topology.nodes",
    "topology.shapes",
    "rates.levels",
    "evaluate.root_atoms",
    "evaluate.tail_rows",
    "evaluate.mc_leaf_draws",
)
# The layer (or named busy time) each workload is built to load most.
DOMINANT = {
    "design_sweep": "rates",
    "wide_exact": "topology",
    "increasing_fit": "evaluate.law_build_s",
    "mc_check": "evaluate.mc_s",
}
MIN_COVERAGE = 0.95
# Median time of worker.yardstick() on the 2-core box this benchmark was
# defined on.  End-to-end times are scaled to this yardstick speed.
YARDSTICK_S = 0.0046


def tail_percentile(workload: str) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it
    in the op count every run is guaranteed to reach."""
    n = MIN_PASSES * OPS_PER_PASS[workload]
    return next(q for q in TAIL_LADDER if n * (100.0 - q) / 100.0 >= TAIL_BEYOND)


def run_pass(workload: str, seed: int, index: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(index), str(int(traced)), repr(spawn)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled_latencies(p: dict) -> list[float]:
    """Op latencies in seconds at the nominal yardstick speed: each op's time
    times YARDSTICK_S over the mean of the yardsticks timed just before and
    just after it."""
    y = p["yardsticks"]
    return [lat * 2.0 * YARDSTICK_S / (a + b) for lat, a, b in zip(p["latencies"], y, y[1:])]


def time_metrics(passes: list[dict], q: float, scale: bool) -> dict:
    """setup_s, wall_s, op_p50_s and op_tail_s over untraced passes."""
    if scale:
        setups = [p["setup_s"] * YARDSTICK_S / p["setup_yardstick_s"] for p in passes]
        per_pass = [scaled_latencies(p) for p in passes]
    else:
        setups = [p["setup_s"] for p in passes]
        per_pass = [p["latencies"] for p in passes]
    latencies = [x for lat in per_pass for x in lat]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(lat) for lat in per_pass),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": statistics.quantiles(latencies, n=100, method="inclusive")[int(q) - 1],
    }


def span_stats(passes: list[dict]) -> tuple[dict, list[float]]:
    """Per-layer metrics (median over traced passes) and per-op coverage."""
    per_pass = []
    coverage = []
    for p in passes:
        spans = p["spans"]
        inner = [0.0] * len(spans)
        for _, _, parent, _, start, end, _ in spans:
            if parent is not None:
                inner[parent] += end - start
        values = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("busy_s", "calls", "failed")}
        values.update({name: 0.0 for name in NAMED_TIMES})
        values.update({name: float(p["counters"].get(name, 0)) for name in COUNTERS})
        for (_, sid, _, name, start, end, failed) in spans:
            dur = end - start
            layer = name.split(".")[0]
            if layer == "op":
                coverage.append(inner[sid] / dur if dur > 0.0 else 1.0)
                continue
            values[f"{layer}.busy_s"] += dur - inner[sid]
            values[f"{layer}.calls"] += 1
            values[f"{layer}.failed"] += int(failed)
            for metric, sources in NAMED_TIMES.items():
                if name in sources:
                    values[metric] += dur - inner[sid]
        per_pass.append(values)
    merged = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    return merged, coverage


def dominant_check(workload: str, values: dict) -> dict:
    target = DOMINANT[workload]
    if target in LAYERS:
        rivals = {f"{layer}.busy_s": values[f"{layer}.busy_s"] for layer in LAYERS}
        key = f"{target}.busy_s"
    else:
        rivals = {name: values[name] for name in NAMED_TIMES}
        key = target
    total = sum(values[f"{layer}.busy_s"] for layer in LAYERS)
    return {
        "target": target,
        "share": values[key] / total if total > 0.0 else 0.0,
        "largest": max(rivals, key=rivals.get),
        "ok": all(values[key] >= v for v in rivals.values()),
    }


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "total_memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def code_lines() -> dict:
    return {p.name: len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no treedet package under {PACKAGE.parent}; run from a full checkout", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    min_passes = MIN_TRACED_PASSES if traced else MIN_PASSES
    untraced_passes, traced_passes = [], []
    start = time.monotonic()
    deadline = start + args.seconds
    index = 0
    try:
        while index < min_passes or time.monotonic() < deadline:
            # a traced pass repeats its untraced twin's inputs; the twins
            # alternate which goes first, so neither gains from going second
            order = (False, True) if traced else (False,)
            for flag in order if index % 2 == 0 else order[::-1]:
                timeout = start + RUN_LIMIT_S - time.monotonic()
                result = run_pass(args.workload, args.seed, index, flag, timeout)
                (traced_passes if flag else untraced_passes).append(result)
            index += 1
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    every = untraced_passes + traced_passes
    verdicts = [v for p in every for v in p["verdicts"]]
    attempted, failed = len(verdicts), verdicts.count(False)
    correct = failed == 0 and all(p["pass_ok"] for p in every)
    q = tail_percentile(args.workload)
    n_ops = sum(len(p["latencies"]) for p in untraced_passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "versions": every[0]["versions"],
        "size": every[0]["size"],
        "code_lines": code_lines(),
        "tail_percentile": q,
        "samples": {"setup_s": len(untraced_passes), "wall_s": len(untraced_passes), "op_s": n_ops},
        "unscaled": time_metrics(untraced_passes, q, scale=False),
        "pass_latencies_s": [p["latencies"] for p in untraced_passes],
        "pass_setups_s": [p["setup_s"] for p in untraced_passes],
        "pass_yardsticks_s": [p["yardsticks"] for p in untraced_passes],
        "pass_setup_yardsticks_s": [p["setup_yardstick_s"] for p in untraced_passes],
        "within_4se": [d["within_4se"] for p in every for d in p["details"] if d and "within_4se" in d].count(True),
        "pass_details": [p["pass_detail"] for p in every],
    }
    if traced:
        values, coverage = span_stats(traced_passes)
        overhead = statistics.median(
            sum(scaled_latencies(t)) - sum(scaled_latencies(u)) for u, t in zip(untraced_passes, traced_passes)
        )
        values["trace.overhead_s"] = overhead
        values["trace.coverage_min"] = min(coverage)
        units = {name: ("s" if name.endswith("_s") else "count") for name in values}
        units["trace.coverage_min"] = "ratio"
        report["dominant"] = dominant_check(args.workload, values)
        report["coverage_ok"] = min(coverage) >= MIN_COVERAGE
        report["spans"] = [p["spans"] for p in traced_passes]
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    else:
        metrics = {name: {"value": v, "unit": "s"} for name, v in time_metrics(untraced_passes, q, True).items()}
        metrics.update({
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in untraced_passes), "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        })
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report))
    summary = {k: report[k] for k in ("samples", "tail_percentile", "within_4se")}
    for key in ("dominant", "coverage_ok"):
        if key in report:
            summary[key] = report[key]
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

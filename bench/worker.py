"""Runs one pass of one workload in a fresh interpreter.

A pass is the workload at its stated size.  ``run.py`` starts one of these
per pass, so no pass sees the package's module-level caches or cached tree
metrics from an earlier one, and the peak resident memory it reports is its
own.  The pass prints one JSON line: op latencies, the yardstick times
between ops, correctness verdicts, set-up time, peak RSS and, when traced,
its spans and counters.

    python3 bench/worker.py WORKLOAD SEED PASS TRACE SPAWN_TIME
    python3 bench/worker.py --record      # rewrite bench/reference.json

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the start of the first op.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import treedet  # noqa: E402

import workloads  # noqa: E402

REFERENCE = BENCH / "reference.json"


def yardstick() -> int:
    """A fixed mix of interpreter and numpy work, timed between ops.

    Its time tracks how fast the machine runs this kind of code at that
    moment; run.py scales op times by it, so the end-to-end times do not
    follow the speed swings of a shared machine.
    """
    total = 0
    for i in range(40_000):
        total += i * i
    a = np.arange(200_000)[::-1].cumsum()
    a.sort()
    return total + int(a[-1])


def time_yardstick() -> float:
    start = time.perf_counter()
    yardstick()
    return time.perf_counter() - start


class Tracer:
    """In-memory spans around calls into the package, plus op counters.

    A span is [op id, span id, parent id, name, start, end, failed].  When
    disabled, ``call`` is a plain call and nothing is recorded.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [self._op, len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, False]
        self.spans.append(span)
        self._stack.append(span[1])
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[6] = True
            raise
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()

    def op(self, name, fn, *args):
        """Runs one op under an op span; its latency lands in ``latency``."""
        self._op += 1
        start = time.perf_counter()
        try:
            return self.call(name, fn, *args)
        finally:
            self.latency = time.perf_counter() - start

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)


def run_pass(workload: str, seed: int, index: int, traced: bool, spawn: float) -> dict:
    make_inputs, op, check, finish = workloads.WORKLOADS[workload]
    reference = json.loads(REFERENCE.read_text())
    inputs = make_inputs(np.random.default_rng([seed, index]))
    tracer = Tracer(traced)

    def one(inp):
        # the op's outputs die with this frame, before the next op starts
        out = tracer.op(f"op.{workload}", op, tracer, inp)
        return check(tracer, inp, out, reference)

    setup_s = time.monotonic() - spawn
    setup_yardstick_s = statistics.median(time_yardstick() for _ in range(3))
    yardsticks = [time_yardstick()]
    latencies, verdicts, details = [], [], []
    for inp in inputs:
        try:
            ok, detail = one(inp)
        except Exception as exc:  # a failed op is counted, not fatal
            ok, detail = False, None
            print(f"{workload} op failed: {exc!r}", file=sys.stderr)
        latencies.append(tracer.latency)
        yardsticks.append(time_yardstick())
        verdicts.append(bool(ok))
        details.append(detail)
    pass_ok, pass_detail = finish(inputs, details, reference) if finish else (True, {})
    return {
        "setup_s": setup_s,
        "setup_yardstick_s": setup_yardstick_s,
        "latencies": latencies,
        "yardsticks": yardsticks,
        "verdicts": verdicts,
        "details": details,
        "pass_ok": pass_ok,
        "pass_detail": pass_detail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "size": workloads.SIZES[workload],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "treedet": treedet.__version__,
        },
    }


def record_reference() -> dict:
    """Exact results for every input the exact workloads can draw."""
    tracer = Tracer(False)
    ref = {}
    for p in workloads.WIDE_PS:
        out = workloads.wide_op(tracer, {"p": p, "relays": workloads.WIDE_RELAYS})
        ref[workloads.wide_key(p, workloads.WIDE_RELAYS)] = workloads.exact_summary(out)
    for p in workloads.FIT_PS:
        leaves, logs = [], []
        for relays in workloads.FIT_SIZES:
            out = workloads.fit_op(tracer, {"p": p, "relays": relays})
            tree = out["strategy"].tree
            leaves.append(int(tree.subtree_leaf_count[tree.root]))
            logs.append(out["est"].log_type_ii)
            ref[workloads.fit_key(p, relays)] = workloads.exact_summary(out)
        ref[workloads.fit_key(p)] = {"slope": workloads.fitted_slope(leaves, logs)}
    return ref


def main(argv: list[str]) -> int:
    if Path(treedet.__file__).resolve().parent != SRC / "treedet":
        print(f"treedet imported from {treedet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if argv == ["--record"]:
        REFERENCE.write_text(json.dumps(record_reference(), indent=1, sort_keys=True) + "\n")
        return 0
    workload, seed, index, traced, spawn = argv
    result = run_pass(workload, int(seed), int(index), traced == "1", float(spawn))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

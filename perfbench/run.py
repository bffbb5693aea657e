"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports the library from ``src``.
Workloads: ``cold-load``, ``warm-ask``, ``mutate-stream``, ``serve-closed``
(see ``perfbench/workloads.py`` for what each exercises and why).

``--trace 0`` sets the workload up five times (``setup_s`` is the median),
runs it for ``--seconds`` seconds, checks every answer and prints the
end-to-end metrics.  Timings are normalised to the reference speed of
``perfbench/kernel.py`` (except in ``serve-closed``, whose time the kernel
does not track; its kernel times are still printed), with the raw value and
the kernel times beside them.

The result line carries the four metrics every workload has, none of them
ever zero: ``setup_s``, ``ops_per_s`` (asks plus mutations per second of
timed phase), ``ask_p50_ms`` and ``peak_rss_mb`` (the run's own peak plus
its children's, not normalised).  In ``cold-load`` the asks are the cold
first answers, so its ``ask_p50_ms`` is the first-answer median, printed as
``first_answer_p50_ms``.  The metrics only some workloads have are printed
above the result line: the tail of each latency, at the highest of
p99/p95/p90/p75 that leaves at least ten samples beyond it; the mutation
latencies; and ``failed_share``, whose count is the result's ``failed``.

``--trace 1`` runs a fixed number of operations three times (untraced,
traced, untraced) and prints the per-layer table, the exact work counts
(which repeat exactly for one seed) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process exits
non-zero on a wrong answer or a degenerate outcome mix.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing.util
import os
import resource
import shutil
import statistics
import sys
import time
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.kernel import NOMINAL_S, ReferenceClock  # noqa: E402
from perfbench.trace import (  # noqa: E402
    ASKS,
    MUTATORS,
    TRACE_DIR_ENV,
    Tracer,
    install_worker_tracing,
    read_worker_lines,
    wrap_client,
)
from perfbench.workloads import WORKLOADS, ServeClosed, Stop, Timing, Workload  # noqa: E402

if __name__ == "__mp_main__" and os.environ.get(TRACE_DIR_ENV):
    # a service worker of the traced serve-closed run: it re-imports this
    # module before it unpickles its handler, so the wrappers go in first
    install_worker_tracing(os.environ[TRACE_DIR_ENV])

SETUPS = 5
#: the string-hash seed of the traced run
HASH_SEED = "0"

#: per-layer metric -> the end-to-end metric it should move (printed)
SHOULD_MOVE = {
    "core.entity_block": "cold-load/ask_p50_ms (first answer)",
    "core.denial.ground": "cold-load/ask_p50_ms; mutate-stream mutate tail",
    "reasoning.chase": "mutate-stream mutate_p50_ms",
    "reasoning.current_db": "warm-ask and mutate-stream ask tail",
    "solvers.encoder": "cold-load/ask_p50_ms (first answer)",
    "solvers.sat": "warm-ask/ops_per_s and ask_p50_ms",
    "preservation.space": "warm-ask ask tail (CPP/BCP); mutate-stream mutate tail",
    "query.engine": "warm-ask ask tail (CCQA)",
    "session.ask": "warm-ask/ask_p50_ms",
    "session.memo": "warm-ask/ask_p50_ms",
    "session.mutate": "mutate-stream/ops_per_s (mutate_p50_ms)",
    "session.delta": "mutate-stream/ask_p50_ms",
    "session.snapshot": "serve-closed mutate tail",
    "session.restore": "mutate-stream/ops_per_s",
    "serve": "serve-closed/ask_p50_ms, ask tail, failed_share",
    "trace": "(tracing overhead against the untraced passes)",
}


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _tail(values: List[float]) -> Optional[Tuple[str, float]]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for name, fraction in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)):
        if len(values) * (1 - fraction) >= 10:
            return name, _percentile(values, fraction)
    return None


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _print_latencies(timing: Timing, ask_label: str) -> None:
    labels = {"ask": ask_label, "mutate": "mutate", "followup": "cop_after_first_answer"}
    for kind, label in labels.items():
        values, raw = timing.samples[kind], timing.raw[kind]
        if not values:
            continue
        line = (
            f"  {label}_p50_ms {1000 * statistics.median(values):.3f} ms "
            f"(raw {1000 * statistics.median(raw):.3f}; n={len(values)})"
        )
        tail = _tail(values)
        if tail is not None:
            line += (
                f"  {label}_{tail[0]}_ms {1000 * tail[1]:.3f} ms "
                f"(raw {1000 * _tail(raw)[1]:.3f})"  # type: ignore[index]
            )
        print(line)


def _check_outcomes(workload: Workload) -> List[str]:
    outcomes = workload.outcomes
    print(f"  outcome mix: {json.dumps(outcomes.mix())}")
    reasons = outcomes.degenerate(workload.split_problems, workload.needs_ccqa)
    for reason in reasons:
        print(f"  DEGENERATE MIX: {reason}")
    for problem in outcomes.problems:
        print(f"  WRONG: {problem}")
    print(
        f"  failed_share {outcomes.failed / max(1, outcomes.attempted):.6f} "
        f"({outcomes.failed} of {outcomes.attempted})"
    )
    return reasons


def _setup(workload: Workload, clock: ReferenceClock) -> Tuple[float, float]:
    """Set the workload up ``SETUPS`` times; the median normalised and raw
    times."""
    spans = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        workload.setup()
        spans.append((started, time.perf_counter()))
        clock.sample()
    normalised = [(end - start) * clock.factor(start, end) for start, end in spans]
    return statistics.median(normalised), statistics.median(end - start for start, end in spans)


def timed_run(name: str, seed: int, seconds: float) -> Tuple[Dict[str, Any], Workload, bool]:
    workload = WORKLOADS[name](seed)
    clock = ReferenceClock(workload.normalised)
    print(f"[perfbench] {name} seed={seed} seconds={seconds}")
    try:
        setup_s, raw_setup_s = _setup(workload, clock)
        timing = Timing(clock)
        workload.run(timing, Stop(seconds=seconds))
        timing.finish()
        workload.verify()
    finally:
        workload.close()
    ops = timing.ops()
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / timing.elapsed, "1/s"),
        "ask_p50_ms": (1000 * statistics.median(timing.samples["ask"]), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    raw = {
        "setup_s": raw_setup_s,
        "ops_per_s": ops / timing.raw_elapsed,
        "ask_p50_ms": 1000 * statistics.median(timing.raw["ask"]),
        "kernel_ms": 1000 * statistics.median(clock.kernel_times),
    }
    print(f"  setup_s {setup_s:.4f} s (raw {raw_setup_s:.4f}; median of {SETUPS} set-ups)")
    print(
        f"  ops_per_s {ops / timing.elapsed:.3f} 1/s "
        f"(raw {raw['ops_per_s']:.3f}; {ops} ops in {timing.raw_elapsed:.2f} s)"
    )
    _print_latencies(timing, workload.ask_label)
    print(f"  peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB (not normalised)")
    kernels = clock.kernel_times
    print(
        f"  kernel_ms median {raw['kernel_ms']:.4f} "
        f"min {1000 * min(kernels):.4f} max {1000 * max(kernels):.4f} "
        f"(nominal {1000 * NOMINAL_S:.4f}{'' if clock.normalise else ', not applied'}; "
        f"{len(kernels)} timings)"
    )
    print(f"[perfbench] raw {json.dumps(raw)}")
    reasons = _check_outcomes(workload)
    correct = not reasons and workload.outcomes.failed == 0
    return metrics, workload, correct


# --------------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------------- #
def _pass(name: str, seed: int, tracer: Optional[Tracer], trace_dir: Optional[str]) -> Tuple[Workload, Timing, Dict[str, Any]]:
    """One fixed-length pass; traced when *tracer* is given."""
    workload = WORKLOADS[name](seed, traced=True) if name == ServeClosed.name else WORKLOADS[name](seed)
    clock = ReferenceClock(workload.normalised)
    extra: Dict[str, Any] = {}
    if trace_dir is not None:
        os.environ[TRACE_DIR_ENV] = trace_dir
    try:
        workload.setup()
        timing = Timing(clock)
        if tracer is not None:
            tracer.install()
            if trace_dir is not None:
                wrap_client(tracer)
        try:
            started = time.perf_counter()
            workload.run(timing, Stop(ops=workload.trace_ops))
            extra["window"] = (started, time.perf_counter())
            timing.finish()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if isinstance(workload, ServeClosed):
            extra.update(workload.service_counters())
            extra["mutation_stats"] = _service_mutation_stats(workload)
        elif name == "mutate-stream":
            extra["mutation_stats"] = workload.state["stats"]
        workload.verify()
    finally:
        workload.close()
        os.environ.pop(TRACE_DIR_ENV, None)
    return workload, timing, extra


def _service_mutation_stats(workload: ServeClosed) -> Dict[str, int]:
    async def collect() -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for slot in workload.state["slots"]:
            stats = await workload.state["service"].mutation_stats(slot["spec"])
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    return asyncio.run(collect())


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(tracer: Tracer, extra: Dict[str, Any], factor: float, overhead: float) -> Dict[str, Tuple[float, str]]:
    calls, counts = tracer.calls, tracer.counts
    ms = {name: 1000 * value * factor for name, value in tracer.self_time.items()}
    total_ms = {name: 1000 * value * factor for name, value in tracer.total.items()}
    stats = extra.get("mutation_stats", {})
    metrics: Dict[str, Tuple[float, str]] = {
        "core.entity_block.calls": (calls.get("core.entity_block", 0), "count"),
        "core.entity_block.ms": (ms.get("core.entity_block", 0.0), "ms"),
        "core.denial.ground.calls": (counts.get("core.denial.ground.calls", 0), "count"),
        "core.denial.ground.ms": (ms.get("core.denial.ground", 0.0), "ms"),
        "reasoning.chase.builds": (calls.get("reasoning.chase.build", 0), "count"),
        "reasoning.chase.extends": (calls.get("reasoning.chase.extend", 0), "count"),
        "reasoning.chase.ms": (
            ms.get("reasoning.chase.build", 0.0) + ms.get("reasoning.chase.extend", 0.0),
            "ms",
        ),
        "reasoning.current_db.databases": (counts.get("reasoning.current_db.databases", 0), "count"),
        "reasoning.current_db.ms": (ms.get("reasoning.current_db", 0.0), "ms"),
        "solvers.encoder.builds": (calls.get("solvers.encoder.build", 0), "count"),
        "solvers.encoder.build_ms": (ms.get("solvers.encoder.build", 0.0), "ms"),
        "solvers.sat.solves": (calls.get("solvers.sat.solve", 0), "count"),
        "solvers.sat.solve_ms": (ms.get("solvers.sat.solve", 0.0), "ms"),
        "solvers.sat.conflicts": (counts.get("solvers.sat.conflicts", 0), "count"),
        "solvers.sat.propagations": (counts.get("solvers.sat.propagations", 0), "count"),
        "solvers.sat.clauses_added": (counts.get("solvers.sat.clauses_added", 0), "count"),
        "preservation.space.builds": (calls.get("preservation.space.build", 0), "count"),
        "preservation.space.build_ms": (ms.get("preservation.space.build", 0.0), "ms"),
        "preservation.space.extend_ok_share": (
            _share(
                counts.get("preservation.space.extend_ok", 0),
                counts.get("preservation.space.extend_ok", 0)
                + counts.get("preservation.space.extend_fail", 0),
            ),
            "1",
        ),
        "preservation.space.search_ms": (ms.get("preservation.space.search", 0.0), "ms"),
        "query.engine.answers_calls": (calls.get("query.engine.answers", 0), "count"),
        "query.engine.answers_ms": (ms.get("query.engine.answers", 0.0), "ms"),
    }
    for problem in ASKS.values():
        span = f"session.ask.{problem}"
        metrics[f"{span}.count"] = (calls.get(span, 0), "count")
        metrics[f"{span}.ms"] = (total_ms.get(span, 0.0), "ms")
    metrics["session.memo.hit_share"] = (
        _share(counts.get("session.memo_hits", 0), counts.get("session.asks", 0)),
        "1",
    )
    for op in MUTATORS:
        metrics[f"session.mutate.{op}.ms"] = (total_ms.get(f"session.mutate.{op}", 0.0), "ms")
    metrics["session.delta.memo_retained_share"] = (
        _share(stats.get("memo_retained", 0), stats.get("memo_retained", 0) + stats.get("memo_evicted", 0)),
        "1",
    )
    metrics["session.delta.space_extended_share"] = (
        _share(stats.get("space_extended", 0), stats.get("space_extended", 0) + stats.get("space_rebuilt", 0)),
        "1",
    )
    metrics["session.snapshot.bytes"] = (counts.get("session.snapshot.bytes", 0), "bytes")
    metrics["session.snapshot.ms"] = (total_ms.get("session.snapshot", 0.0), "ms")
    metrics["session.restore.ms"] = (total_ms.get("session.restore", 0.0), "ms")
    metrics.update(_serve_metrics(tracer, extra, factor))
    metrics["trace.overhead_share"] = (overhead, "1")
    return metrics


def _serve_metrics(tracer: Tracer, extra: Dict[str, Any], factor: float) -> Dict[str, Tuple[float, str]]:
    compute = extra.get("compute", {})
    requests = {rid: end - start for name, start, end, _, rid in tracer.spans if name == "serve.request"}
    joined = [rid for rid in requests if rid in compute]
    depths = extra.get("queue_depths", [])
    return {
        "serve.compute_ms": (
            1000 * factor * statistics.median(compute[rid] for rid in joined) if joined else 0.0,
            "ms",
        ),
        "serve.overhead_ms": (
            1000 * factor * statistics.median(requests[rid] - compute[rid] for rid in joined)
            if joined
            else 0.0,
            "ms",
        ),
        "serve.queue_depth": (statistics.mean(depths) if depths else 0.0, "count"),
        "serve.compactions": (extra.get("compactions", 0), "count"),
        "serve.retries": (extra.get("retries", 0), "count"),
        "serve.respawns": (extra.get("respawns", 0), "count"),
    }


#: the work counts that repeat exactly for one seed
EXACT_COUNTS = (
    "core.entity_block.calls",
    "core.denial.ground.calls",
    "reasoning.chase.builds",
    "reasoning.chase.extends",
    "reasoning.current_db.databases",
    "solvers.encoder.builds",
    "solvers.sat.solves",
    "solvers.sat.conflicts",
    "solvers.sat.propagations",
    "solvers.sat.clauses_added",
    "preservation.space.builds",
    "query.engine.answers_calls",
    "session.memo.hit_share",
    "session.snapshot.bytes",
    "serve.compactions",
)


def traced_run(name: str, seed: int) -> Tuple[Dict[str, Any], Workload, bool]:
    print(f"[perfbench] {name} seed={seed} traced")
    _, before, _ = _pass(name, seed, None, None)
    tracer = Tracer()
    trace_dir = None
    if name == ServeClosed.name:
        trace_dir = os.path.join(ROOT, "perfbench", f".trace-{os.getpid()}")
        os.makedirs(trace_dir, exist_ok=True)
    try:
        workload, timing, extra = _pass(name, seed, tracer, trace_dir)
        if trace_dir is not None:
            # the worker's lines from the timed window: requests, and the
            # snapshot probes of log compaction, which carry no request id
            first, last = extra["window"]
            lines = [line for line in read_worker_lines(trace_dir) if first <= line["start"] <= last]
            for line in lines:
                tracer.merge(line["totals"])
            extra["compute"] = {
                line["rid"]: line["end"] - line["start"] for line in lines if line["rid"] is not None
            }
            extra["queue_depths"] = workload.queue_depths
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    # untraced passes on both sides of the traced one, so a drift of the
    # host over the run does not read as tracing overhead
    _, after, _ = _pass(name, seed, None, None)
    untraced = (before.elapsed + after.elapsed) / 2
    overhead = timing.elapsed / untraced - 1.0
    factor = timing.elapsed / timing.raw_elapsed
    metrics = _layer_metrics(tracer, extra, factor, overhead)
    print(
        f"  untraced {before.ops()} ops in {untraced:.3f} s, traced "
        f"{timing.ops()} ops in {timing.elapsed:.3f} s (normalised): "
        f"tracing overhead {100 * overhead:+.1f}%"
    )
    print(f"  {'metric':<44} {'value':>14}  unit   should move")
    for metric, (value, unit) in metrics.items():
        layer = next((key for key in SHOULD_MOVE if metric.startswith(key)), "")
        print(f"  {metric:<44} {value:>14.4f}  {unit:<6} {SHOULD_MOVE.get(layer, '')}")
    counts = {metric: metrics[metric][0] for metric in EXACT_COUNTS}
    print(f"  exact counts: {json.dumps(counts, sort_keys=True)}")
    reasons = _check_outcomes(workload)
    correct = not reasons and workload.outcomes.failed == 0
    return metrics, workload, correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # a session snapshot pickles its tuples' cached string hashes, so
        # its size (an exact count) depends on the hash seed: the traced
        # run fixes it, for this process and the service's workers
        os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if args.trace:
        metrics, workload, correct = traced_run(args.workload, args.seed)
    else:
        metrics, workload, correct = timed_run(args.workload, args.seed, args.seconds)
    result = {
        "correct": correct,
        "attempted": workload.outcomes.attempted,
        "failed": workload.outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def stop_helpers() -> None:
    """Stop the helper processes multiprocessing leaves behind, and wait
    for each.  The service's queues start a resource tracker, which would
    otherwise end only after this process has, as an unreaped orphan.  Its
    exit hooks run first (reaping workers, joining queue feeders and
    unregistering semaphores), so nothing restarts the tracker after it
    stops; at interpreter exit those hooks then do nothing."""
    multiprocessing.util._exit_function()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_helpers()
    sys.exit(code)

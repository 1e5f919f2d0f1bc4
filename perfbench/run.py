"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload evolve_store --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
twice (untraced, then with the layer hooks of ``tracing.py`` installed) and
prints the per-layer metrics.  Each metric is printed with its unit, then one
``report:`` line with counts, sample sizes and digests, and finally the
result as one JSON object on the last line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up is repeated this many times per untraced run; the median is reported.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "gold_recall": "ratio",
}

MATCHERS = ("Children", "Leaves", "Name", "NamePath", "TypeName")

PER_LAYER = {
    **{f"matchers.{name}.self_ms": "ms" for name in MATCHERS},
    "auxiliary.synonyms.lookups": "count",
    "engine.profile.calls": "count",
    "engine.profile.self_ms": "ms",
    "engine.execute.cells": "count",
    "engine.execute.self_ms": "ms",
    "engine.execute_partial.cells": "count",
    "engine.execute_partial.self_ms": "ms",
    "combination.aggregate.self_ms": "ms",
    "combination.select.self_ms": "ms",
    "combination.select.cells": "count",
    "combination.select.pairs": "count",
    "combination.combine_pairs.self_ms": "ms",
    "session.match.self_ms": "ms",
    "session.cube_cache.hit_ratio": "ratio",
    "session.store.hit_ratio": "ratio",
    "session.rematch.self_ms": "ms",
    "session.rematch.reused_rows_ratio": "ratio",
    "session.rematch.fallbacks": "count",
    "model.schema_delta.calls": "count",
    "model.schema_delta.self_ms": "ms",
    "repository.load_cube.calls": "count",
    "repository.load_cube.self_ms": "ms",
    "repository.load_cube.hit_ratio": "ratio",
    "repository.load_path_signatures.self_ms": "ms",
    "repository.store_cube.busy_ms": "ms",
    "repository.close.wait_ms": "ms",
    "repository.bytes_written": "bytes",
    "repository.store_kb_per_op": "kB",
    "search.rank.self_ms": "ms",
    "search.load.calls": "count",
    "search.load.self_ms": "ms",
    "search.survivors": "count",
    "search.useful_ratio": "ratio",
    "service.http.self_ms": "ms",
    "service.pool.wait_ms": "ms",
    "service.response_kb": "kB",
    "service.refused": "count",
    "service.retries": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _outputs_digest(log) -> str:
    text = json.dumps(sorted((repr(key), digest) for key, digest in log.outputs.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compare_outputs(reference, candidate) -> None:
    """Fail every output of ``candidate`` that differs from ``reference``'s."""
    for key, digest in candidate.outputs.items():
        if key in reference.outputs and reference.outputs[key] != digest:
            candidate.fail(("traced", key), f"traced output of {key} differs from untraced")


def _setup(workload) -> None:
    """Set the workload up; release whatever a failed set-up left running."""
    try:
        workload.setup()
    except BaseException:
        with contextlib.suppress(Exception):
            workload.teardown()
        raise


def untraced(workloads, name: str, seed: int, seconds: float, work_dir: str):
    workload = workloads.WORKLOADS[name](seed, work_dir)
    workload.prepare()
    # Set-up is scaled to the reference speed like the operations are.
    setup_gauge = workloads.speed.SpeedGauge()
    setup_samples, wall_setup_samples = [], []
    for repeat in range(SETUP_REPEATS):
        with workloads.speed.SignalSampler(setup_gauge):
            started = time.perf_counter()
            _setup(workload)
            wall = time.perf_counter() - started
        wall_setup_samples.append(wall)
        setup_samples.append(setup_gauge.normalised(wall, started))
        if repeat < SETUP_REPEATS - 1:
            workload.teardown()
    log = workloads.OpLog()
    try:
        workload.run(seconds, log)
        rss = workload.peak_rss_mb()
        workload.check(log)
    finally:
        workload.teardown()
    summary = workloads.stats.latency_summary(log.latencies_ms)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": log.ops_per_s(),
        "latency_p50_ms": summary["p50_ms"],
        "latency_tail_ms": summary["tail_ms"],
        "success_ratio": 1.0 - log.failed / log.attempted,
        "peak_rss_mb": rss,
        "gold_recall": workloads.stats.ratio(*log.recall),
    }
    wall = workloads.stats.latency_summary(log.wall_latencies_ms)
    report = {
        "setup_samples_s": setup_samples,
        "latency": summary,
        "wall": {"setup_s": statistics.median(wall_setup_samples),
                 "ops_per_s": workloads.stats.ratio(log.completed, sum(log.wall_latencies_ms) / 1e3),
                 "latency_p50_ms": wall["p50_ms"], "latency_tail_ms": wall["tail_ms"]},
        "speed": {"setup": setup_gauge.summary(), "run": workload.gauge.summary()},
        "gold_found": log.recall,
        "inputs_digest": workloads.inputs.inputs_digest(workload.input_schemas()),
        "outputs_digest": _outputs_digest(log),
        "cache_delta": workload.cache,
        "extras": workload.extras,
    }
    return metrics, log, report


def traced(workloads, name: str, seed: int, seconds: float, work_dir: str):
    import tracing

    half = seconds / 2
    plain = workloads.WORKLOADS[name](seed, work_dir)
    plain.prepare()
    plain_log = workloads.OpLog()
    _setup(plain)
    try:
        plain.run(half, plain_log)
        plain.check(plain_log)
    finally:
        plain.teardown()

    workload = workloads.WORKLOADS[name](seed, work_dir, traced=True)
    workload.prepare()
    recorder = tracing.Recorder()
    recorder.active = False
    uninstall = tracing.install(recorder) if workload.in_process else (lambda: None)
    log = workloads.OpLog()
    try:
        _setup(workload)
        try:
            recorder.active = True
            workload.run(half, log, recorder if workload.in_process else None)
        finally:
            recorder.active = False
            workload.teardown()
    finally:
        uninstall()
    if workload.in_process:
        trace_file = os.path.join(work_dir, f"trace-{name}-{seed}.json")
        recorder.dump(trace_file)
        root = "op"
    else:
        trace_file = workload.trace_file
        root = "service.request"
    spans, counters = tracing.load_dump(trace_file)
    _compare_outputs(plain_log, log)

    metrics = layer_metrics(tracing, spans, counters, root, log, workload)
    metrics["trace.overhead_ratio"] = workloads.stats.ratio(log.ops_per_s(), plain_log.ops_per_s())
    combined = workloads.OpLog()
    combined.attempted = plain_log.attempted + log.attempted
    combined.failed_ops = {("untraced", op) for op in plain_log.failed_ops} | {
        ("traced", op) for op in log.failed_ops}
    combined.reasons = plain_log.reasons + log.reasons
    report = {
        "trace_file": os.path.relpath(trace_file),
        "spans": len(spans),
        "missing_hooks": counters.get("trace.missing_hooks", 0),
        "untraced_ops_per_s": plain_log.ops_per_s(),
        "traced_ops_per_s": log.ops_per_s(),
        "breakdown": breakdown(name, metrics, log),
    }
    return metrics, combined, report


def layer_metrics(tracing, spans, counters, root: str, log, workload) -> dict:
    """Per-operation layer figures of the traced timed phase."""
    from stats import ratio

    ops = max(log.attempted, 1)
    totals = tracing.layer_totals(spans)

    def field(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def per_op(value: float) -> float:
        return value / ops

    metrics = {}
    for name in MATCHERS:
        metrics[f"matchers.{name}.self_ms"] = per_op(field(f"matchers.{name}", "self_ms"))
    for counter in ("auxiliary.synonyms.lookups", "engine.profile.calls",
                    "engine.execute.cells", "engine.execute_partial.cells",
                    "combination.select.cells", "combination.select.pairs",
                    "repository.bytes_written"):
        metrics[counter] = per_op(counters.get(counter, 0))
    for span in ("engine.profile", "engine.execute", "engine.execute_partial",
                 "combination.aggregate", "combination.select", "combination.combine_pairs",
                 "session.match", "session.rematch", "model.schema_delta",
                 "repository.load_cube", "repository.load_path_signatures",
                 "search.rank", "search.load"):
        metrics[f"{span}.self_ms"] = per_op(field(span, "self_ms"))
    for span in ("model.schema_delta", "repository.load_cube", "search.load"):
        metrics[f"{span}.calls"] = per_op(field(span, "calls"))
    cache = workload.cache
    metrics["session.cube_cache.hit_ratio"] = ratio(
        cache.get("cube_hits", 0), cache.get("cube_hits", 0) + cache.get("cube_misses", 0))
    metrics["session.store.hit_ratio"] = ratio(
        cache.get("store_hits", 0), cache.get("store_hits", 0) + cache.get("store_misses", 0))
    metrics["session.rematch.reused_rows_ratio"] = ratio(
        cache.get("rematch_reused_rows", 0),
        cache.get("rematch_reused_rows", 0) + cache.get("rematch_recomputed_rows", 0))
    metrics["session.rematch.fallbacks"] = per_op(cache.get("rematch_fallbacks", 0))
    metrics["repository.load_cube.hit_ratio"] = ratio(
        counters.get("repository.load_cube.hits", 0), field("repository.load_cube", "calls"))
    metrics["repository.store_cube.busy_ms"] = per_op(field("repository.store_cube", "ms"))
    metrics["repository.close.wait_ms"] = per_op(field("repository.close", "ms"))
    metrics["repository.store_kb_per_op"] = workload.extras.get("repository.store_kb_per_op", 0.0)
    metrics["search.survivors"] = metrics["search.load.calls"]
    metrics["search.useful_ratio"] = ratio(counters.get("search.results", 0),
                                           field("search.load", "calls"))
    metrics["service.http.self_ms"] = (
        per_op(sum(log.wall_latencies_ms) - field("session.match", "ms"))
        if not workload.in_process else 0.0)
    metrics["service.pool.wait_ms"] = per_op(field("service.pool.wait", "ms"))
    for name in ("service.response_kb", "service.refused", "service.retries"):
        metrics[name] = workload.extras.get(name, 0.0)
    metrics["trace.unattributed_ratio"] = ratio(field(root, "self_ms"), field(root, "ms"))
    return metrics


def breakdown(name: str, metrics: dict, log) -> dict:
    """Whether the trace confirms the ROADMAP's breakdown for this workload."""
    op_ms = statistics.fmean(log.wall_latencies_ms) if log.wall_latencies_ms else 0.0
    structural = metrics["matchers.Children.self_ms"] + metrics["matchers.Leaves.self_ms"]
    layers = {key: value for key, value in metrics.items()
              if key.endswith(".self_ms") or key.endswith("wait_ms") or key.endswith("busy_ms")}
    largest = max(layers, key=layers.get)
    result = {"mean_op_ms": op_ms, "structural_share": structural / op_ms if op_ms else 0.0,
              "largest_layer": largest, "largest_layer_ms": layers[largest]}
    if name == "corpus_search":
        # Every query is a set of cold survivor matches: the cold match path.
        result["claim"] = "structural matchers dominate cold matching"
        result["confirmed"] = result["structural_share"] > 0.5
    elif name == "serve_warm":
        result["claim"] = "combination.select dominates serve_warm"
        result["confirmed"] = largest == "combination.select.self_ms"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_warm", "corpus_search", "evolve_store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    # A terminated run still unwinds, so the server it started is shut down.
    signal.signal(signal.SIGTERM, lambda number, frame: sys.exit(128 + number))

    source = os.path.abspath("src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: no repro package under {source}; run from the repository root",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads and inherited by the server:
    # on two cores OpenBLAS's default worker threads spin on the second core,
    # which made corpus queries 7-11% slower at twice the CPU time and exposed
    # every run to contention on both cores.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [source, HERE]
    import workloads

    work_dir = os.path.abspath(workloads.WORK_DIR)
    os.makedirs(work_dir, exist_ok=True)
    run = traced if arguments.trace else untraced
    metrics, log, report = run(workloads, arguments.workload, arguments.seed,
                               arguments.seconds, work_dir)
    units = PER_LAYER if arguments.trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    for metric, unit in units.items():
        print(f"{metric:<42} {metrics[metric]:>14.6g} {unit}")
    report = {
        "workload": arguments.workload, "seed": arguments.seed, "seconds": arguments.seconds,
        "trace": arguments.trace, "cpu_count": _cpu_count(),
        "attempted": log.attempted, "succeeded": log.attempted - log.failed,
        "failed": log.failed, "failures": log.reasons, **report,
    }
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

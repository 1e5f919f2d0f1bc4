"""Service throughput: requests/sec against the HTTP match service.

Follows the platform-style evaluation methodology of VOODB-like benchmarks:
a fixed request mix replayed at increasing client concurrency, measuring
end-to-end throughput through the real network stack (HTTP over loopback).

Two sweeps are recorded:

1. **Client scaling (thread backend).**  For each client thread count
   (1, 4, 8) a fresh in-process
   :class:`~repro.service.aserver.MatchServiceServer` (pool of 8 warm
   sessions) serves the same ``/match`` request mix -- two schema pairs (the
   Figure 1 PO1/PO2 pair and a generated ~50-path pair) under three
   cacheable strategies:

   * **cold**: the first pass on a fresh server, every pooled session
     starts with empty profile / cube caches;
   * **warm**: the same mix after unmeasured warm-up passes (best of two
     measured passes), so requests are predominantly served from the
     shards' cube caches (only the combination pipeline re-runs).

2. **Backend sweep (thread vs process).**  For 1 / 2 / 4 workers, the same
   mix is replayed (client threads matched to the worker count) against
   ``backend=thread`` and ``backend=process`` servers, recording per-worker
   warm scaling.  On a 1-core machine the process backend pays IPC for no
   parallelism and lands *below* thread -- the recorded ratio documents
   that honestly.  With >= 2 cores the process backend escapes the GIL and
   the warm ratio is gated at >= 1.5x in :func:`test_service_throughput`.

Results are recorded in ``BENCH_service.json`` at the repository root,
including the warm-cache throughput scaling from 1 to 8 client threads.
Interpreting the scaling number: matching is GIL-bound CPU work, so the
thread backend's ceiling is ~1 core regardless of ``cpu_count`` (recorded
in the JSON); the process backend's ceiling is the hardware.

Run directly::

    python benchmarks/bench_service_throughput.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py -q -s
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # script mode without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets.figure1 import PO1_DDL, PO2_XSD  # noqa: E402
from repro.service import ServiceClient, create_server  # noqa: E402

#: Cacheable strategies exercising different combination tuples.
STRATEGY_SPECS = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "All(Max,Both,Thr(0.5)+MaxN(1),Average)",
    "All(Average,Both,Thr(0.6),Dice)",
)

CLIENT_THREADS = (1, 4, 8)
POOL_SIZE = 8
REQUESTS_PER_PHASE = 96
WARMUP_PASSES = 2
#: Worker counts of the thread-vs-process backend sweep.
BACKEND_WORKERS = (1, 2, 4)

RESULT_PATH = REPO_ROOT / "BENCH_service.json"

_FIELDS = ("Id", "Name", "Code", "Date", "Amount", "Status",
           "City", "Street", "Zip", "Country")


def _generated_spec(name: str, sections: int, leaves: int, rotate: int) -> dict:
    """A deterministic dict-spec schema of ``sections * (leaves + 1)`` paths."""
    elements = []
    for section in range(sections):
        children = [
            {
                "name": _FIELDS[(section + leaf + rotate) % len(_FIELDS)],
                "type": "xsd:string",
            }
            for leaf in range(leaves)
        ]
        elements.append({"name": f"Section{section + rotate}", "children": children})
    return {"name": name, "elements": elements}


def _upload_workload(client: ServiceClient) -> list:
    """Upload the benchmark schemas; returns the (source, target) pairs."""
    client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
    client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
    client.upload_schema(spec=_generated_spec("GenA", sections=5, leaves=9, rotate=0))
    client.upload_schema(spec=_generated_spec("GenB", sections=5, leaves=9, rotate=3))
    return [("PO1", "PO2"), ("GenA", "GenB")]


def _request_mix(pairs, count: int = REQUESTS_PER_PHASE) -> list:
    """The replayed request list: pairs x strategies, round-robin."""
    mix = []
    for index in range(count):
        source, target = pairs[index % len(pairs)]
        spec = STRATEGY_SPECS[index % len(STRATEGY_SPECS)]
        mix.append((source, target, spec))
    return mix


def _run_phase(base_url: str, mix, client_threads: int) -> float:
    """Issue the mix across ``client_threads`` clients; returns the seconds."""
    clients = [ServiceClient(base_url) for _ in range(client_threads)]

    def issue(indexed):
        index, (source, target, spec) = indexed
        result = clients[index % client_threads].match(source, target, strategy=spec)
        if not result["correspondences"]:
            raise AssertionError(f"empty mapping for {source}<->{target} under {spec}")
        return result

    started = time.perf_counter()
    if client_threads == 1:
        for item in enumerate(mix):
            issue(item)
    else:
        with ThreadPoolExecutor(max_workers=client_threads) as executor:
            list(executor.map(issue, enumerate(mix)))
    return time.perf_counter() - started


def _measure(
    client_threads: int, pool_size: int = POOL_SIZE, backend: str = "thread"
) -> dict:
    """Cold and warm requests/sec for one (backend, workers, clients) setting."""
    server = create_server(port=0, pool_size=pool_size, backend=backend)
    thread = server.run_in_thread()
    client = None
    try:
        client = ServiceClient(server.url)
        pairs = _upload_workload(client)
        mix = _request_mix(pairs)

        cold_seconds = _run_phase(server.url, mix, client_threads)
        for _ in range(WARMUP_PASSES):  # fill every shard's cube cache
            _run_phase(server.url, mix, client_threads)
        warm_seconds = min(
            _run_phase(server.url, mix, client_threads) for _ in range(2)
        )

        pool = client.stats()["pool"]
        return {
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "cold_rps": round(len(mix) / cold_seconds, 2),
            "warm_rps": round(len(mix) / warm_seconds, 2),
            "cube_hits": pool["cube_hits"],
            "cube_misses": pool["cube_misses"],
        }
    finally:
        if client is not None:
            client.close()
        server.request_shutdown()
        thread.join(timeout=30)


def collect_backend_sweep() -> dict:
    """Thread-vs-process warm throughput for 1/2/4 workers (clients = workers)."""
    sweep: dict = {}
    for backend in ("thread", "process"):
        by_workers = {}
        for workers in BACKEND_WORKERS:
            by_workers[str(workers)] = _measure(
                client_threads=workers, pool_size=workers, backend=backend
            )
        sweep[backend] = by_workers
    top = str(BACKEND_WORKERS[-1])
    sweep["process_over_thread_warm"] = {
        str(workers): round(
            sweep["thread"][str(workers)]["warm_seconds"]
            / sweep["process"][str(workers)]["warm_seconds"],
            2,
        )
        for workers in BACKEND_WORKERS
    }
    sweep["process_over_thread_warm_at_max_workers"] = (
        sweep["process_over_thread_warm"][top]
    )
    return sweep


def collect_results() -> dict:
    by_threads = {}
    for client_threads in CLIENT_THREADS:
        by_threads[str(client_threads)] = _measure(client_threads)
    lowest = by_threads[str(CLIENT_THREADS[0])]
    highest = by_threads[str(CLIENT_THREADS[-1])]
    return {
        "benchmark": "service_throughput",
        "description": (
            "HTTP match service over loopback: /match requests/sec at "
            "1/4/8 client threads, cold vs warm cache "
            f"(pool of {POOL_SIZE} sessions, {REQUESTS_PER_PHASE} requests per "
            f"phase), plus a thread-vs-process backend sweep at "
            f"{'/'.join(str(w) for w in BACKEND_WORKERS)} workers"
        ),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pool_size": POOL_SIZE,
        "requests_per_phase": REQUESTS_PER_PHASE,
        "pairs": 2,
        "strategies": len(STRATEGY_SPECS),
        "client_threads": by_threads,
        "warm_scaling_1_to_8": round(lowest["warm_seconds"] / highest["warm_seconds"], 2),
        "backend_sweep": collect_backend_sweep(),
    }


def write_results(results: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def _print_results(results: dict) -> None:
    for threads, numbers in results["client_threads"].items():
        print(
            f"{threads:>2} client thread(s): "
            f"cold {numbers['cold_rps']:7.1f} req/s, "
            f"warm {numbers['warm_rps']:7.1f} req/s "
            f"(hits {numbers['cube_hits']}, misses {numbers['cube_misses']})"
        )
    print(f"warm-cache throughput scaling 1 -> {CLIENT_THREADS[-1]} threads: "
          f"{results['warm_scaling_1_to_8']:.2f}x")
    sweep = results["backend_sweep"]
    for backend in ("thread", "process"):
        for workers, numbers in sweep[backend].items():
            print(
                f"backend={backend:<7} workers={workers}: "
                f"warm {numbers['warm_rps']:7.1f} req/s "
                f"(cold {numbers['cold_rps']:7.1f} req/s)"
            )
    print(
        f"process-over-thread warm speedup at {BACKEND_WORKERS[-1]} workers: "
        f"{sweep['process_over_thread_warm_at_max_workers']:.2f}x "
        f"(cpu_count={results['cpu_count']})"
    )


def test_service_throughput():
    """Warm-cache throughput must not degrade when clients scale 1 -> 8."""
    results = collect_results()
    write_results(results)
    _print_results(results)
    for numbers in results["client_threads"].values():
        assert numbers["cold_rps"] > 0 and numbers["warm_rps"] > 0
        # warm phases are served mostly from the cube caches
        assert numbers["cube_hits"] > numbers["cube_misses"]
    # Scaling clients 1 -> 8 must not collapse throughput: flat is the
    # single-core ceiling (GIL-bound match work), multi-core machines gain.
    # The pre-fix failure mode this guards was a 4-5x collapse (convoying on
    # one pool shard + dropped connection bursts).
    assert results["warm_scaling_1_to_8"] >= 0.75, (
        f"warm throughput collapsed under concurrency: "
        f"{results['warm_scaling_1_to_8']}x"
    )
    # The process backend exists to break the GIL ceiling, so with real
    # parallelism available it must beat the thread backend warm.  On 1-core
    # runners the ratio is recorded (IPC cost, no parallelism to win) but
    # not gated -- there is no ceiling to break.
    sweep = results["backend_sweep"]
    for backend in ("thread", "process"):
        for numbers in sweep[backend].values():
            assert numbers["warm_rps"] > 0
    if (os.cpu_count() or 1) >= 2:
        ratio = sweep["process_over_thread_warm_at_max_workers"]
        assert ratio >= 1.5, (
            f"process backend only reached {ratio}x over thread warm at "
            f"{BACKEND_WORKERS[-1]} workers on a {os.cpu_count()}-core machine"
        )


if __name__ == "__main__":
    collected = collect_results()
    destination = write_results(collected)
    _print_results(collected)
    print(f"\nresults written to {destination}")

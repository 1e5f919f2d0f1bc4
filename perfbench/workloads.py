"""The benchmark workloads: set-up, timed closed loop, output checks.

Each workload owns one piece of system state (a session, a server, a corpus
or a store file).  ``setup`` builds it, ``run`` drives operations against it
(for the given number of seconds, or for the cycle-based workloads the work
those seconds held at the reference speed), ``check`` verifies outputs outside
the timed phase, and ``teardown`` releases it.  Outcomes of every operation
land in an :class:`OpLog`; ``run`` samples the machine's speed between
operations (:mod:`speed`) and ends by scaling every latency to the reference
speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import inputs
import speed
import stats

from repro.datasets.gold_standard import load_all_tasks
from repro.datasets.purchase_orders import load_all_schemas
from repro.engine.engine import PAIRWISE_REFERENCE_ENGINE
from repro.exceptions import ServiceError
from repro.service.client import ServiceClient, _NoDelayHTTPConnection
from repro.session.session import MatchSession

#: The directory the benchmark keeps its state files in (under the checkout).
WORK_DIR = ".perfbench_work"
#: serve_warm: at most this many seconds between two speed samples.
SERVE_SPEED_INTERVAL_S = 0.25
#: How many completed operations are re-checked against the reference engine
#: (evolve_store checks the last rematch of every chain instead).
REFERENCE_SAMPLES = {"serve_warm": 2, "corpus_search": 1}
#: corpus_search result count.
SEARCH_K = 5
#: The cycle-based workloads time at least this many whole cycles.
MIN_CYCLES = 2


# -- outputs ------------------------------------------------------------------


def result_digest(strategy: str, similarity: float, rows) -> str:
    """sha256 of a mapping with every float written bit-exactly (``float.hex``)."""
    document = {
        "strategy": strategy,
        "schema_similarity": float(similarity).hex(),
        "rows": [[source, target, float(value).hex()] for source, target, value in rows],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome_digest(outcome) -> str:
    return result_digest(outcome.strategy.to_spec(), outcome.schema_similarity,
                         outcome.result.as_tuples())


def payload_digest(payload: dict) -> str:
    """The :func:`outcome_digest` of a ``/match`` response body."""
    rows = [(row["source"], row["target"], row["similarity"])
            for row in payload["correspondences"]]
    return result_digest(payload["strategy"], payload["schema_similarity"], rows)


def reference_digest(source, target, strategy=None) -> str:
    """The digest of a cold, cache-less, store-less pairwise reference match."""
    with MatchSession(engine=PAIRWISE_REFERENCE_ENGINE, cache_cubes=False) as session:
        return outcome_digest(session.match(source, target, strategy=strategy))


def found(rows, gold) -> Tuple[int, int]:
    """(gold pairs present in ``rows``, gold pairs)."""
    return len(gold & {(row[0], row[1]) for row in rows}), len(gold)


class OpLog:
    """Attempts, failures, latencies and output digests of one timed phase.

    An operation fails at most once, whether it raised, answered with an
    error status, or was later found to return a wrong output.
    """

    def __init__(self) -> None:
        self.attempted = 0
        #: Latencies at the reference speed, once :meth:`normalise` ran;
        #: wall latencies until then (and in ``wall_latencies_ms`` after).
        self.latencies_ms: List[float] = []
        self.wall_latencies_ms: List[float] = []
        self.starts: List[float] = []
        self.failed_ops: set = set()
        self.reasons: List[str] = []
        self.outputs: Dict[object, str] = {}
        self.elapsed_s = 0.0
        self.recall = [0, 0]
        self._lock = threading.Lock()

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    def start(self) -> int:
        with self._lock:
            self.attempted += 1
            return self.attempted - 1

    def done(self, seconds: float, started: float) -> None:
        with self._lock:
            self.latencies_ms.append(seconds * 1e3)
            self.starts.append(started)

    def fail(self, op: object, reason: str) -> None:
        with self._lock:
            if op not in self.failed_ops:
                self.failed_ops.add(op)
                if len(self.reasons) < 10:
                    self.reasons.append(f"op {op}: {reason}")

    def output(self, op: int, key: object, digest: str) -> None:
        """Record an output; a key answered twice must answer the same."""
        with self._lock:
            previous = self.outputs.setdefault(key, digest)
        if previous != digest:
            self.fail(op, f"output of {key} changed between operations")

    def add_recall(self, hits: int, total: int) -> None:
        with self._lock:
            self.recall[0] += hits
            self.recall[1] += total

    def normalise(self, gauge: speed.SpeedGauge) -> None:
        """Scale every latency to the reference speed; ``elapsed_s`` is their sum."""
        self.wall_latencies_ms = self.latencies_ms
        self.latencies_ms = [gauge.normalised(ms / 1e3, started) * 1e3
                             for ms, started in zip(self.wall_latencies_ms, self.starts)]
        self.elapsed_s = sum(self.latencies_ms) / 1e3

    def ops_per_s(self) -> float:
        """Completed operations per second of operation time."""
        return stats.ratio(self.completed, self.elapsed_s)


def timed_call(log: OpLog, op: int, recorder, function, *args, **kwargs):
    """Run one operation; returns ``(result, seconds)`` or ``(None, seconds)``."""
    started = time.perf_counter()
    try:
        with (recorder.op(op) if recorder is not None else contextlib.nullcontext()):
            result = function(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - any raise is a failed operation
        seconds = time.perf_counter() - started
        log.fail(op, f"{type(error).__name__}: {error}")
        return None, seconds
    seconds = time.perf_counter() - started
    log.done(seconds, started)
    return result, seconds


def sample(seed: int, label: str, population: list, count: int) -> list:
    chooser = random.Random(inputs.sub_seed(seed, "check", label))
    return chooser.sample(population, min(count, len(population)))


def _child_env() -> Dict[str, str]:
    """The environment of a child interpreter that imports ``repro`` from ``./src``."""
    env = dict(os.environ)
    source = os.path.abspath("src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cache_delta(before: Dict[str, int], after: Dict[str, int], into: Dict[str, int]) -> None:
    for key in ("cube_hits", "cube_misses", "store_hits", "store_misses",
                "rematch_fallbacks", "rematch_reused_rows", "rematch_recomputed_rows"):
        into[key] = into.get(key, 0) + after.get(key, 0) - before.get(key, 0)


class Workload:
    """Shared shape of the workloads; see the module docstring."""

    name = ""
    in_process = True
    #: For cycle-based workloads: the seconds one cycle took at the commit
    #: that defined the benchmark (two-core x86-64 container).
    reference_cycle_s = 0.0

    def __init__(self, seed: int, work_dir: str, traced: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.traced = traced
        #: cache_info() deltas over the timed phase, summed.
        self.cache: Dict[str, int] = {}
        #: Workload-specific figures for the report (and per-layer metrics).
        self.extras: Dict[str, float] = {}

    def prepare(self) -> None:
        """Generate inputs (benchmark work, not timed as set-up)."""

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, log: OpLog, recorder=None) -> None:
        raise NotImplementedError

    def check(self, log: OpLog) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return stats.peak_rss_mb()

    def cycles(self, seconds: float) -> int:
        """Whole cycles a run times: ``seconds`` of work at the reference speed.

        The amount of work, not the clock, ends the timed phase, so every run
        has the same sample count.  The latency mix of a cycle is multi-modal
        (one band per size); a count that varied with machine speed would move
        the median and the tail percentile from one band to another.
        """
        return max(MIN_CYCLES, round(seconds / self.reference_cycle_s))

    def input_schemas(self) -> list:
        """The generated schemas, for the determinism digest."""
        raise NotImplementedError


# -- serve_warm -----------------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class _RefusedOrFailed(Exception):
    """A ``/match`` answered with a status outside 2xx (429 included)."""


class _TimedConnection:
    """The timed client's keep-alive connection, without ``ServiceClient``'s decoding.

    It rides the service client's Nagle-free connection class, returns the
    raw body (hashed and sized by the benchmark), raises on a status outside
    2xx so the operation fails inside :func:`timed_call`, and counts the
    429 refusals and the reconnects of a stale keep-alive socket.
    """

    def __init__(self, port: int):
        self.port = port
        self.connection: Optional[_NoDelayHTTPConnection] = None
        self.retries = 0
        self.refused = 0

    def post(self, path: str, payload: dict) -> bytes:
        body = json.dumps(payload).encode("utf-8")
        for attempt in (0, 1):
            if self.connection is None:
                self.connection = _NoDelayHTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                self.connection.request("POST", path, body=body,
                                        headers={"Content-Type": "application/json"})
                response = self.connection.getresponse()
                data = response.read()
            except ServiceClient._STALE_CONNECTION_ERRORS:
                self.close()
                if attempt:
                    raise
                self.retries += 1
                continue
            if response.will_close:
                self.close()
            if response.status == 429:
                self.refused += 1
            if not 200 <= response.status < 300:
                raise _RefusedOrFailed(f"status {response.status}: {data[:200]!r}")
            return data
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


class ServeWarm(Workload):
    """A ``coma serve`` subprocess answering a warm working set over loopback."""

    name = "serve_warm"
    in_process = False

    def prepare(self):
        self.pairs = inputs.serve_warm_pairs(self.seed)

    def setup(self):
        self.port = _free_port()
        command = [sys.executable, os.path.join(os.path.dirname(__file__), "serve_boot.py")]
        self.trace_file = None
        if self.traced:
            self.trace_file = os.path.abspath(
                os.path.join(self.work_dir, f"trace-serve_warm-{self.seed}.json"))
            command += ["--trace-file", self.trace_file]
        command += ["--", "serve", "--host", "127.0.0.1", "--port", str(self.port), "--quiet"]
        self.log_path = os.path.join(self.work_dir, f"server-{self.seed}.log")
        with open(self.log_path, "wb") as server_log:
            self.process = subprocess.Popen(command, stdout=server_log, stderr=subprocess.STDOUT,
                                            env=_child_env())
        self.admin = ServiceClient(f"http://127.0.0.1:{self.port}")
        deadline = time.monotonic() + 90
        while True:
            try:
                self.admin.health()
                break
            except ServiceError:
                if self.process.poll() is not None or time.monotonic() > deadline:
                    with open(self.log_path, encoding="utf-8", errors="replace") as server_log:
                        raise RuntimeError("the server did not start:\n" + server_log.read()[-2000:])
                time.sleep(0.05)
        for pair in self.pairs:
            for schema in (pair.source, pair.target):
                self.admin.upload_schema(name=schema.name, spec=inputs.nested_spec(schema))
        self._warm()

    def _warm(self) -> None:
        """Replay the working set until a whole replay misses no pooled session's cache."""
        keys = inputs.serve_warm_keys()
        for _ in range(8):
            misses = self._stats()["cube_misses"]
            for key in keys:
                self.admin.match(**self._request(key))
            if self._stats()["cube_misses"] == misses:
                return

    def _request(self, key) -> dict:
        pair = self.pairs[key[0]]
        return {"source": pair.source.name, "target": pair.target.name,
                "strategy": inputs.SERVE_WARM_STRATEGIES[key[1]]}

    def _stats(self) -> dict:
        return self.admin.stats()["pool"]

    def _server_kernel(self) -> float:
        return self.admin.request("POST", "/perfbench/speed", {})["seconds"]

    def run(self, seconds, log, recorder=None):
        self.bodies: Dict[Tuple[int, int], Tuple[int, bytes]] = {}
        self.key_ops: Dict[Tuple[int, int], int] = {}
        # The server does the matching, so the speed kernel runs there.
        self.gauge = speed.SpeedGauge(self._server_kernel, SERVE_SPEED_INTERVAL_S)
        before = self._stats()
        if self.traced:
            self.admin.request("POST", "/perfbench/window", {"active": True})
        connection = _TimedConnection(self.port)
        sequence = inputs.serve_warm_sequence(self.seed, 0)
        response_bytes = 0
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                self.gauge.tick()
                key = next(sequence)
                op = log.start()
                body, _ = timed_call(log, op, None, connection.post, "/match", self._request(key))
                if body is None:
                    continue
                response_bytes += len(body)
                log.output(op, key, hashlib.sha256(body).hexdigest())
                self.bodies.setdefault(key, (op, body))
                self.key_ops[key] = self.key_ops.get(key, 0) + 1
            self.gauge.sample()
        finally:
            connection.close()
        if self.traced:
            self.admin.request("POST", "/perfbench/window", {"active": False})
        log.normalise(self.gauge)
        _cache_delta(before, self._stats(), self.cache)
        ops = max(log.attempted, 1)
        self.extras.update({
            "service.refused": connection.refused / ops,
            "service.retries": connection.retries / ops,
            "service.response_kb": response_bytes / 1024 / ops,
        })
        for key, (op, body) in self.bodies.items():
            pair = self.pairs[key[0]]
            rows = [(row["source"], row["target"])
                    for row in json.loads(body)["correspondences"]]
            hits, total = found(rows, inputs.gold_pairs(pair))
            log.add_recall(hits * self.key_ops[key], total * self.key_ops[key])

    def check(self, log):
        for key in sample(self.seed, self.name, sorted(self.bodies), REFERENCE_SAMPLES[self.name]):
            op, body = self.bodies[key]
            pair = self.pairs[key[0]]
            expected = reference_digest(pair.source, pair.target,
                                        inputs.SERVE_WARM_STRATEGIES[key[1]])
            if payload_digest(json.loads(body)) != expected:
                log.fail(op, f"/match {key} differs from the pairwise reference")

    def peak_rss_mb(self):
        return stats.peak_rss_mb(self.process.pid)

    def teardown(self):
        with contextlib.suppress(ServiceError):
            self.admin.shutdown()
        self.admin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.log_path)

    def input_schemas(self):
        return [schema for pair in self.pairs for schema in (pair.source, pair.target)]


# -- corpus_search --------------------------------------------------------------


class CorpusSearch(Workload):
    """Top-5 search of fresh gold variants in a corpus of gold schemas and decoys."""

    name = "corpus_search"
    reference_cycle_s = 8.7

    def prepare(self):
        self.golds = load_all_schemas()
        self.decoys = inputs.corpus_decoys(self.seed)
        #: The gold schemas each gold schema is matched with in the paper's tasks.
        self.partners: Dict[str, set] = {}
        for task in load_all_tasks():
            self.partners.setdefault(task.source.name, set()).add(task.target.name)
            self.partners.setdefault(task.target.name, set()).add(task.source.name)
        self.partners_found = [0, 0]

    def setup(self):
        self.session = MatchSession(corpus=":memory:")
        for schema in (*self.golds.values(), *self.decoys):
            self.session.register(schema)

    def run(self, seconds, log, recorder=None):
        self.results = []
        self.gauge = speed.SpeedGauge()
        before = self.session.cache_info()
        with speed.SignalSampler(self.gauge):
            self._queries(seconds, log, recorder)
        log.normalise(self.gauge)
        _cache_delta(before, self.session.cache_info(), self.cache)
        self.extras["partner_recall"] = stats.ratio(*self.partners_found)

    def _queries(self, seconds, log, recorder) -> None:
        for cycle in range(self.cycles(seconds)):
            for index, (base, query) in enumerate(inputs.corpus_queries(self.seed, cycle, self.golds)):
                op = log.start()
                hits, _ = timed_call(log, op, recorder, self.session.search, query, k=SEARCH_K)
                if hits is None:
                    continue
                digest = hashlib.sha256(json.dumps(
                    [[hit.name, hit.schema_similarity.hex(), outcome_digest(hit.outcome)]
                     for hit in hits]).encode("utf-8")).hexdigest()
                log.output(op, (cycle, index), digest)
                # The gold target of a query is the gold schema it was derived
                # from; the task partners of that schema are reported apart,
                # since decoys may legitimately outrank them.
                names = {hit.name for hit in hits}
                log.add_recall(int(base in names), 1)
                if base not in names:
                    log.fail(op, f"gold target {base} missing from the top {SEARCH_K}")
                partners = self.partners[base]
                self.partners_found[0] += len(partners & names)
                self.partners_found[1] += len(partners)
                self.results.append((op, query, [(hit.name, outcome_digest(hit.outcome)) for hit in hits]))

    def check(self, log):
        corpus = self.session.corpus
        for op, query, hits in sample(self.seed, self.name, self.results,
                                      REFERENCE_SAMPLES[self.name]):
            chooser = random.Random(inputs.sub_seed(self.seed, "hit", op))
            name, digest = hits[chooser.randrange(len(hits))]
            if reference_digest(query, corpus.load(name)) != digest:
                log.fail(op, f"search hit {name} differs from the pairwise reference")

    def teardown(self):
        self.session.close()

    def input_schemas(self):
        queries = inputs.corpus_queries(self.seed, 0, self.golds)
        return [*self.decoys, *(query for _, query in queries)]


# -- evolve_store ---------------------------------------------------------------


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + suffix)
    shutil.rmtree(path + ".blobs", ignore_errors=True)


def _store_bytes(path: str) -> int:
    total = 0
    for suffix in ("", "-wal"):
        with contextlib.suppress(FileNotFoundError):
            total += os.path.getsize(path + suffix)
    for root, _, files in os.walk(path + ".blobs"):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


class EvolveStore(Workload):
    """Restart, store-served match and one-edit rematch of evolving schemas."""

    name = "evolve_store"
    reference_cycle_s = 0.42

    def prepare(self):
        self.pairs = inputs.evolve_pairs(self.seed)

    def setup(self):
        self.path = os.path.join(self.work_dir, f"evolve-{self.seed}.db")
        _remove_store(self.path)
        session = MatchSession(store=self.path)
        self.chains = []
        for pair in self.pairs:
            outcome = session.match(pair.source, pair.target)
            self.chains.append({"schema": pair.source, "target": pair.target,
                                "digest": outcome_digest(outcome), "gold": inputs.gold_pairs(pair)})
        session.close()

    def _step(self, chain: dict, new) -> tuple:
        session = MatchSession(store=self.path)
        try:
            previous = session.match(chain["schema"], chain["target"])
            outcome = session.rematch(chain["schema"], new, previous, target=chain["target"])
            info = session.cache_info()
        finally:
            session.close()
        return previous, outcome, info

    def run(self, seconds, log, recorder=None):
        #: chain index -> (op, new schema, target, digest) of its last rematch.
        self.last_steps: Dict[int, tuple] = {}
        # A step hands cube writes to the store's writer thread, which would
        # hold up a kernel timed inside the step; samples go between steps.
        self.gauge = speed.SpeedGauge(lambda: speed.time_kernel(runs=speed.BETWEEN_RUNS))
        size_before = _store_bytes(self.path)
        self._steps(seconds, log, recorder)
        self.gauge.sample()
        log.normalise(self.gauge)
        self.extras["repository.store_kb_per_op"] = stats.ratio(
            (_store_bytes(self.path) - size_before) / 1024, log.attempted)

    def _steps(self, seconds, log, recorder) -> None:
        step = 0
        for _ in range(self.cycles(seconds)):
            for index, chain in enumerate(self.chains):
                new, old_path, new_path = inputs.single_field_edit(chain["schema"], self.seed, step)
                self.gauge.sample()
                op = log.start()
                result, _ = timed_call(log, op, recorder, self._step, chain, new)
                step += 1
                if result is None:
                    continue
                previous, outcome, info = result
                _cache_delta({}, info, self.cache)
                if outcome_digest(previous) != chain["digest"]:
                    log.fail(op, "the store-served match differs from the last stored result")
                digest = outcome_digest(outcome)
                log.output(op, step - 1, digest)
                chain["gold"] = {(new_path if source == old_path else source, target)
                                 for source, target in chain["gold"]}
                log.add_recall(*found(outcome.result.as_tuples(), chain["gold"]))
                chain.update(schema=new, digest=digest)
                self.last_steps[index] = (op, new, chain["target"], digest)

    def check(self, log):
        # A wrong splice is stored and served to the chain's next step, so
        # checking each chain's last rematch covers every step before it.
        for op, new, target, digest in self.last_steps.values():
            if reference_digest(new, target) != digest:
                log.fail(op, "rematch differs from a cold pairwise match of the new pair")

    def teardown(self):
        _remove_store(self.path)

    def input_schemas(self):
        schemas = [schema for pair in self.pairs for schema in (pair.source, pair.target)]
        schemas.append(inputs.single_field_edit(self.pairs[0].source, self.seed, 0)[0])
        return schemas


WORKLOADS = {cls.name: cls for cls in (ServeWarm, CorpusSearch, EvolveStore)}

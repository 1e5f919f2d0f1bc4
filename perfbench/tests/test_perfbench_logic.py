"""Tests of the benchmark's own logic: tail rule, self time, failures, speed, inputs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(HERE, "..", "..", "src")]

import inputs  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# -- tail rule -------------------------------------------------------------------


@pytest.mark.parametrize("count", [20, 21, 37, 100, 999, 1000])
def test_tail_has_exactly_ten_samples_beyond_until_the_cap(count):
    samples = [float(value) for value in range(count)]
    summary = stats.latency_summary(samples)
    beyond = sum(1 for value in samples if value > summary["tail_ms"])
    assert summary["tail_rule_met"]
    assert beyond == 10
    assert summary["tail_percentile"] == pytest.approx(100 * (count - 10) / count, abs=1e-3)


def test_tail_caps_at_p99_and_keeps_ten_beyond():
    samples = [float(value) for value in range(5000)]
    summary = stats.latency_summary(samples)
    assert summary["tail_percentile"] == 99.0
    assert sum(1 for value in samples if value > summary["tail_ms"]) == 50


def test_too_few_samples_report_the_maximum_and_say_so():
    summary = stats.latency_summary([3.0, 1.0, 2.0])
    assert summary["tail_ms"] == 3.0
    assert not summary["tail_rule_met"]
    assert summary["p50_ms"] == 2.0
    assert stats.tail_percentile(19) is None


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_nested_children_once():
    spans = [
        Span(1, None, 1, 7, "op", 0, 100),
        Span(2, 1, 1, 7, "session.match", 10, 60),
        Span(3, 2, 1, 7, "matchers.Leaves", 20, 40),
        Span(4, 2, 1, 7, "matchers.Name", 30, 50),  # overlaps its sibling
    ]
    own = tracing.self_times(spans)
    assert own == {1: 50, 2: 20, 3: 20, 4: 20}
    totals = tracing.layer_totals(spans)
    assert totals["session.match"]["self_ms"] == pytest.approx(20 / 1e6)
    assert totals["op"]["calls"] == 1


def test_cross_thread_children_do_not_reduce_self_time():
    spans = [
        Span(1, None, 1, 7, "repository.close", 0, 100),
        Span(2, 1, None, 8, "repository.store_cube", 10, 90),  # the writer thread
        Span(3, 1, 1, 7, "repository.flush", 95, 120),  # clipped to the parent
    ]
    own = tracing.self_times(spans)
    assert own[1] == 95
    assert own[2] == 80


def test_recorder_links_parents_per_thread_and_honours_the_window():
    recorder = tracing.Recorder()

    def background() -> None:
        with recorder.span("background"):
            recorder.count("hits")

    with recorder.op(5):
        with recorder.span("outer"):
            worker = threading.Thread(target=background)
            worker.start()
            worker.join(timeout=10)
            with recorder.span("inner"):
                recorder.count("hits", 2)
    assert not worker.is_alive()
    recorder.active = False
    with recorder.span("ignored"):
        recorder.count("hits")
    by_name = {span.name: span for span in recorder.spans}
    assert set(by_name) == {"op", "outer", "inner", "background"}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent == by_name["op"].span_id
    assert by_name["background"].parent is None
    assert by_name["background"].thread != by_name["outer"].thread
    assert {by_name[name].op for name in ("op", "outer", "inner")} == {5}
    assert recorder.counters() == {"hits": 3}


def test_install_wraps_layers_and_uninstall_restores_them(tmp_path):
    from repro.datasets.figure1 import load_po1, load_po2
    from repro.session.session import MatchSession

    original = MatchSession.match
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        with recorder.op(1):
            outcome = MatchSession().match(load_po1(), load_po2())
    finally:
        uninstall()
    assert MatchSession.match is original
    names = {span.name for span in recorder.spans}
    assert {"op", "session.match", "engine.execute", "matchers.Leaves",
            "combination.select"} <= names
    assert recorder.counters()["engine.execute.cells"] == (
        len(outcome.cube.source_paths) * len(outcome.cube.target_paths))
    path = tmp_path / "trace.json"
    recorder.dump(str(path))
    spans, counters = tracing.load_dump(str(path))
    assert spans == recorder.spans and counters == recorder.counters()


def test_a_hook_whose_target_is_gone_is_reported(monkeypatch):
    gone = tracing.Hook("repro.session.session:MatchSession.no_such_method", "gone")
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS[:1] + (gone,))
    recorder = tracing.Recorder()
    recorder.active = False
    tracing.install(recorder)()
    assert recorder.missing_hooks == [gone.target]
    assert recorder.counters() == {"trace.missing_hooks": 1}


# -- failure counting ----------------------------------------------------------


def test_failures_count_once_per_operation():
    log = workloads.OpLog()
    first = log.start()
    result, _ = workloads.timed_call(log, first, None, lambda: 1 / 0)
    assert result is None
    second = log.start()
    result, _ = workloads.timed_call(log, second, None, lambda: "ok")
    assert result == "ok"
    log.output(second, "key", "digest-a")
    third = log.start()
    workloads.timed_call(log, third, None, lambda: "ok")
    log.output(third, "key", "digest-b")  # the same key answered differently
    log.fail(third, "also wrong against the reference")
    assert (log.attempted, log.completed, log.failed) == (3, 2, 2)
    assert "ZeroDivisionError" in log.reasons[0]


def test_http_error_status_fails_without_a_latency_sample():
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    statuses = iter([200, 429, 500])

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            body = b"{}"
            self.send_response(next(statuses))
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    connection = workloads._TimedConnection(server.server_address[1])
    log = workloads.OpLog()
    try:
        bodies = [workloads.timed_call(log, log.start(), None, connection.post, "/match", {})[0]
                  for _ in range(3)]
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join()
    assert bodies == [b"{}", None, None]
    assert (log.attempted, log.completed, log.failed, connection.refused) == (3, 1, 2, 1)
    assert "status 429" in log.reasons[0] and "status 500" in log.reasons[1]


# -- machine-speed normalisation -------------------------------------------------


def _gauge(samples) -> "speed.SpeedGauge":
    """A gauge holding ``(start, kernel seconds)`` samples."""
    gauge = speed.SpeedGauge()
    for started, seconds in samples:
        gauge.record(started, seconds)
    return gauge


def test_slowness_averages_samples_inside_else_the_ones_either_side():
    reference = speed.REFERENCE_KERNEL_S
    gauge = _gauge([(0.0, reference), (1.0, 2 * reference), (1.5, 4 * reference),
                    (3.0, 4 * reference)])
    assert gauge.slowness(0.9, 1.6) == pytest.approx(3.0)  # the two samples inside
    assert gauge.slowness(1.6, 2.5) == pytest.approx(4.0)  # 1.5 before, 3.0 after
    assert gauge.slowness(0.2, 0.8) == pytest.approx(1.5)
    assert gauge.slowness(3.5, 4.0) == pytest.approx(4.0)  # nothing after: the one before
    assert speed.SpeedGauge().slowness(0.0, 1.0) == 1.0


def test_normalise_scales_latencies_less_the_kernel_and_keeps_the_wall_times():
    reference = speed.REFERENCE_KERNEL_S
    log = workloads.OpLog()
    log.done(0.2, 1.1)  # one sample inside, which took 2 * reference
    log.done(0.1, 2.1)  # none inside: samples at 2.0 and 3.0 stand in
    log.normalise(_gauge([(1.0, 2 * reference), (1.2, 2 * reference), (2.0, 2 * reference),
                          (3.0, reference)]))
    assert log.wall_latencies_ms == pytest.approx([200.0, 100.0])
    assert log.latencies_ms == pytest.approx([(200.0 - 2e3 * reference) / 2, 100.0 / 1.5])
    assert log.ops_per_s() == pytest.approx(2e3 / sum(log.latencies_ms))


def test_gauge_ticks_only_after_its_interval():
    calls = []
    gauge = speed.SpeedGauge(lambda: calls.append(1) or 0.01, interval_s=60.0)
    gauge.tick()
    gauge.tick()
    gauge.sample()
    assert len(calls) == len(gauge.seconds) == 2


def test_signal_sampler_samples_inside_a_running_operation():
    import signal
    import time

    gauge = speed.SpeedGauge()
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SignalSampler(gauge, interval_s=0.01):
        started = time.perf_counter()
        while time.perf_counter() - started < 0.2:
            sum(range(1000))
    assert len(gauge.seconds) >= 5
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- inputs ------------------------------------------------------------------------


def _digests(seed: int) -> list:
    schemas = [schema for pair in inputs.serve_warm_pairs(seed)
               for schema in (pair.source, pair.target)]
    schemas += inputs.corpus_decoys(seed)[:5]
    edited, _, _ = inputs.single_field_edit(inputs.evolve_pairs(seed)[0].source, seed, 0)
    return [inputs.inputs_digest(schemas), inputs.inputs_digest([edited])]


def test_same_seed_gives_identical_inputs_and_other_seeds_do_not():
    assert _digests(3) == _digests(3)
    assert _digests(3)[0] != _digests(4)[0]
    sequence = inputs.serve_warm_sequence(3, client=0)
    assert [next(sequence) for _ in range(20)] == [
        key for key, _ in zip(inputs.serve_warm_sequence(3, client=0), range(20))]


def test_single_field_edit_changes_exactly_one_leaf():
    schema = inputs.evolve_pairs(2)[0].source
    for step in range(6):
        edited, old_path, new_path = inputs.single_field_edit(schema, 2, step)
        before = {path.dotted(): path.leaf.source_type for path in schema.paths()}
        after = {path.dotted(): path.leaf.source_type for path in edited.paths()}
        assert len(before) == len(after)
        changed = {key for key in before if after.get(key) != before[key]}
        assert changed == {old_path}
        assert new_path in after


def test_uploaded_spec_rebuilds_the_same_schema():
    from repro.importers.dictspec import DictImporter
    from repro.repository.store import schema_content_digest

    schema = inputs.serve_warm_pairs(1)[3].target
    rebuilt = DictImporter().import_text(json.dumps(inputs.nested_spec(schema)), schema.name)
    assert schema_content_digest(rebuilt) == schema_content_digest(schema)


def test_printed_metrics_match_benchmark_json():
    import run

    root = os.path.join(HERE, "..", "..")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER.items())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)

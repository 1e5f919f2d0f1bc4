"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` wraps the public functions of each ``repro`` layer on the
request path (the table :data:`HOOKS`) so that every call records a span:
span id, parent span, operation id, thread, name and ``perf_counter_ns``
start/end.  Spans and counters are kept in memory by a :class:`Recorder` and
written out once, by :meth:`Recorder.dump`, when the traced phase ends.  The
untraced run installs nothing, so it measures the program unmodified.

A span's *self time* is its duration minus the part of it covered by its
child spans on the same thread (:func:`self_times`).  Children on another
thread -- the store's background writer -- run concurrently rather than
inside the parent, so they are not subtracted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    span_id: int
    parent: Optional[int]
    op: Optional[int]
    thread: int
    name: str
    start_ns: int
    end_ns: int


class Recorder:
    """In-memory span and counter sink shared by every thread of a process.

    Nothing is recorded while ``active`` is false, which keeps set-up and
    warm-up work out of the figures of the timed phase.
    """

    def __init__(self) -> None:
        self.active = True
        self.spans: List[Span] = []  # list.append is atomic under the GIL
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counters: List[Dict[str, float]] = []
        self._lock = threading.Lock()
        #: Hook targets :func:`install` could not find (a refactor moved them).
        self.missing_hooks: List[str] = []

    # -- thread-local state ------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> Optional[str]:
        """The name of the innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a counter (per-thread, merged by :meth:`counters`)."""
        if not self.active:
            return
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            with self._lock:
                self._thread_counters.append(counters)
        counters[name] = counters.get(name, 0) + value

    def counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        with self._lock:
            for counters in self._thread_counters:
                for name, value in list(counters.items()):
                    totals[name] = totals.get(name, 0) + value
        if self.missing_hooks:
            totals["trace.missing_hooks"] = len(self.missing_hooks)
        return totals

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(
                span_id, parent, getattr(self._local, "op", None),
                threading.get_ident(), name, start, end,
            ))

    @contextlib.contextmanager
    def op(self, op_id: Optional[int] = None, name: str = "op") -> Iterator[None]:
        """Run one operation (a fresh id by default): its spans carry its id."""
        if op_id is None:
            op_id = next(self._op_ids)
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._local.op = previous

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [list(span) for span in self.spans],
                       "counters": self.counters()}, handle)


def load_dump(path: str) -> Tuple[List[Span], Dict[str, float]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return [Span(*row) for row in document["spans"]], document["counters"]


# -- self time -----------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length of the union of ``[start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the time its same-thread children cover."""
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None or parent.thread != span.thread:
            continue
        start, end = max(span.start_ns, parent.start_ns), min(span.end_ns, parent.end_ns)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {
        span.span_id: span.end_ns - span.start_ns - _covered(children.get(span.span_id, ()))
        for span in spans
    }


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``ms`` and total ``self_ms``."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["ms"] += (span.end_ns - span.start_ns) / 1e6
        entry["self_ms"] += own[span.span_id] / 1e6
    return totals


# -- hooks -----------------------------------------------------------------------


class Hook(NamedTuple):
    """One wrapped layer function.

    ``target`` is ``"module:Attr.path"``.  ``name`` is the span name, or a
    callable deriving it from the call's arguments.  ``after`` receives the
    recorder, the span name, the arguments and the result to update counters;
    ``span=False`` records counters only (for functions too hot to span), and
    ``op=True`` opens a new operation (a server request).
    """

    target: str
    name: object
    after: Optional[Callable] = None
    span: bool = True
    op: bool = False


def _cube_cells(recorder, name, args, kwargs, cube) -> None:
    recorder.count(f"{name}.cells", len(cube.source_paths) * len(cube.target_paths))


def _profile_built(recorder, name, args, kwargs, result) -> None:
    recorder.count("engine.profile.calls")


def _select_counts(recorder, name, args, kwargs, pairs) -> None:
    recorder.count("combination.select.cells", args[1].values.size)
    recorder.count("combination.select.pairs", len(pairs))


def _load_cube_hit(recorder, name, args, kwargs, cube) -> None:
    recorder.count("repository.load_cube.hits", cube is not None)


def _payload_bytes(recorder, name, args, kwargs, payload) -> None:
    recorder.count("repository.bytes_written", len(payload))


def _signature_bytes(recorder, name, args, kwargs, result) -> None:
    signatures = args[2] if len(args) > 2 else kwargs["signatures"]
    recorder.count("repository.bytes_written", len(json.dumps(list(signatures))))


def _search_counts(recorder, name, args, kwargs, results) -> None:
    recorder.count("search.results", len(results))


#: The layer functions on the request path.  Names double as metric prefixes.
HOOKS: Tuple[Hook, ...] = (
    Hook("repro.engine.engine:MatchEngine.compute_matrix",
         lambda self, matcher, *rest, **kw: f"matchers.{matcher.name}"),
    Hook("repro.engine.engine:MatchEngine.execute", "engine.execute", _cube_cells),
    Hook("repro.engine.engine:MatchEngine.execute_partial",
         "engine.execute_partial", _cube_cells),
    Hook("repro.engine.profiles:PathSetProfile.__init__", "engine.profile", _profile_built),
    Hook("repro.engine.profiles:PathSetProfile.token_profile", "engine.profile"),
    Hook("repro.engine.profiles:PathSetProfile.ngram_sets", "engine.profile"),
    Hook("repro.engine.profiles:PathSetProfile.soundex_codes", "engine.profile"),
    Hook("repro.auxiliary.synonyms:SynonymDictionary.relationship",
         "auxiliary.synonyms.lookups", span=False),
    Hook("repro.combination.strategy:CombinationStrategy.aggregate",
         "combination.aggregate"),
    Hook("repro.combination.strategy:CombinationStrategy.select",
         "combination.select", _select_counts),
    Hook("repro.combination.strategy:CombinationStrategy.combine_pairs",
         "combination.combine_pairs"),
    Hook("repro.session.session:MatchSession.match", "session.match"),
    Hook("repro.session.session:MatchSession.rematch", "session.rematch"),
    Hook("repro.model.digests:schema_delta", "model.schema_delta"),
    Hook("repro.repository.store:SimilarityStore.load_cube",
         "repository.load_cube", _load_cube_hit),
    Hook("repro.repository.store:SimilarityStore.load_path_signatures",
         "repository.load_path_signatures"),
    Hook("repro.repository.store:SimilarityStore.store_cube", "repository.store_cube"),
    Hook("repro.repository.store:SimilarityStore.store_path_signatures",
         "repository.store_path_signatures", _signature_bytes),
    Hook("repro.repository.store:SimilarityStore.close", "repository.close"),
    Hook("repro.repository.store:encode_stack", "repository.encode",
         _payload_bytes, span=False),
    Hook("repro.search.searcher:CorpusSearcher.search", "search.search", _search_counts),
    Hook("repro.search.searcher:CorpusSearcher.rank", "search.rank"),
    Hook("repro.search.corpus:SchemaCorpus.load", "search.load"),
    Hook("repro.service.server:MatchService.handle_request", "service.request", op=True),
)


def _wrap(recorder: Recorder, hook: Hook, original: Callable) -> Callable:
    name, after = hook.name, hook.after

    if not hook.span:
        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if after is None:
                recorder.count(name)
            else:
                after(recorder, name, args, kwargs, result)
            return result
        return counted

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        # execute_partial delegates to execute: keep the cells and the span
        # with the partial execution instead of counting them twice.
        if name == "engine.execute" and recorder.current_name() == "engine.execute_partial":
            return original(*args, **kwargs)
        span_name = name(*args, **kwargs) if callable(name) else name
        with (recorder.op(name=span_name) if hook.op else recorder.span(span_name)):
            result = original(*args, **kwargs)
        if after is not None:
            after(recorder, span_name, args, kwargs, result)
        return result
    return spanned


def _resolve(target: str) -> Tuple[object, str]:
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@contextlib.contextmanager
def _pool_wait(recorder: Recorder, original: Callable, pool):
    """``SessionPool.session`` with the wait for a free shard as a span."""
    with contextlib.ExitStack() as stack:
        with recorder.span("service.pool.wait"):
            session = stack.enter_context(original(pool))
        yield session


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every hook (skipping targets a refactor removed); returns undo.

    Missing targets are listed in ``recorder.missing_hooks`` (and counted as
    ``trace.missing_hooks``) so a traced run shows when a layer stopped being
    measured.
    """
    undo: List[Tuple[object, str, object]] = []

    def original_of(target: str):
        try:
            owner, attribute = _resolve(target)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        except (ImportError, AttributeError, KeyError):
            recorder.missing_hooks.append(target)
            return None
        undo.append((owner, attribute, original))
        return owner, attribute, original

    for hook in HOOKS:
        found = original_of(hook.target)
        if found is not None:
            owner, attribute, original = found
            setattr(owner, attribute, _wrap(recorder, hook, original))
    found = original_of("repro.service.pool:SessionPool.session")
    if found is not None:
        owner, attribute, original = found
        setattr(owner, attribute, lambda pool: _pool_wait(recorder, original, pool))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
    return uninstall

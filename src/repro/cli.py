"""Command-line interface: match schema files through a :class:`MatchSession`.

Usage examples::

    coma match po1.sql po2.xsd
    coma match a.xsd b.xsd --strategy "All(Average,Both,Thr(0.5)+Delta(0.02),Average)"
    coma match a.xsd b.xsd --matchers NamePath Leaves --selection "Thr(0.5)+Delta(0.02)"
    coma match a.xsd b.xsd --repository coma.db --strategy tuned   # stored by name
    coma rematch po1_v1.xsd po1_v2.xsd po2.xsd   # incremental re-match: splice
                                                 # unchanged rows of the previous result
    coma rematch old.xsd new.xsd b.xsd --store coma-store.db  # splice across restarts
    coma strategies                       # list the matcher library
    coma strategies --repository coma.db  # ... plus the stored named strategies
    coma strategies --repository coma.db --save tuned "All(Max,Both,Thr(0.6),Dice)"
    coma stats po.xsd
    coma stats --store coma-store.db      # persistent-reuse effectiveness counters
    coma corpus corpus.db add schemas/*.xsd   # register schemas into a search corpus
    coma corpus corpus.db list                # ... list / info / remove NAME
    coma search query.xsd --corpus corpus.db -k 10   # top-K corpus search
    coma tasks            # list the bundled evaluation tasks and their sizes
    coma serve --port 8765 --workers 4    # the HTTP match service (docs/service.md)
    coma serve --backend process --workers 4  # worker processes: warm throughput
                                              # scales with the cores, not the GIL
    coma serve --store coma-store.db      # ... warm across restarts (persistent reuse)
    coma serve --store coma-store.db --store-dtype uint16  # quantized cube storage

The CLI is intentionally thin: everything it does is a few calls into the
session-based public API, so it doubles as a usage example.  ``--strategy``
accepts the full declarative spec grammar of :mod:`repro.core.spec` -- or,
when a repository is attached, the name of a stored strategy.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.combination.strategy import parse_combination
from repro.core.strategy import MatchStrategy, default_strategy
from repro.datasets.gold_standard import load_all_tasks
from repro.evaluation.report import format_table
from repro.exceptions import ComaError
from repro.importers.registry import DEFAULT_IMPORTERS
from repro.session import MatchSession


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coma",
        description="COMA schema matching (Do & Rahm, VLDB 2002) - reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    match_parser = subparsers.add_parser("match", help="match two schema files")
    match_parser.add_argument("source", help="source schema file (.sql, .xsd, .json)")
    match_parser.add_argument("target", help="target schema file (.sql, .xsd, .json)")
    match_parser.add_argument(
        "--strategy", default=None,
        help='full strategy spec, e.g. "All(Average,Both,Thr(0.5)+Delta(0.02),Average)", '
             "or the name of a strategy stored in the repository",
    )
    match_parser.add_argument(
        "--matchers", nargs="+", default=None,
        help="matcher names from the library (default: the five hybrid matchers)",
    )
    # The per-part combination flags default to None so an explicitly passed
    # value is distinguishable from "not given" (--strategy conflicts with any
    # explicitly given part); the effective defaults live in _resolve_cli_strategy.
    match_parser.add_argument("--aggregation", default=None,
                              help="aggregation strategy: Max, Min or Average (default Average)")
    match_parser.add_argument("--direction", default=None,
                              help="direction strategy: Both, LargeSmall or SmallLarge (default Both)")
    match_parser.add_argument("--selection", default=None,
                              help='selection strategy, e.g. "MaxN(1)" '
                                   '(default "Thr(0.5)+Delta(0.02)")')
    match_parser.add_argument("--min-similarity", type=float, default=0.0,
                              help="only print correspondences at or above this similarity")
    match_parser.add_argument("--repository", default=None,
                              help="SQLite repository file (stored strategies, reuse matchers)")

    rematch_parser = subparsers.add_parser(
        "rematch",
        help="incrementally re-match an evolved schema against a fixed target, "
             "splicing unchanged rows from the previous result",
    )
    rematch_parser.add_argument("old", help="previous schema version (.sql, .xsd, .json)")
    rematch_parser.add_argument("new", help="evolved schema version (.sql, .xsd, .json)")
    rematch_parser.add_argument("target", help="fixed target schema file (.sql, .xsd, .json)")
    rematch_parser.add_argument(
        "--strategy", default=None,
        help='full strategy spec, e.g. "All(Average,Both,Thr(0.5)+Delta(0.02),Average)", '
             "or the name of a strategy stored in the repository",
    )
    rematch_parser.add_argument(
        "--matchers", nargs="+", default=None,
        help="matcher names from the library (default: the five hybrid matchers)",
    )
    rematch_parser.add_argument("--aggregation", default=None,
                                help="aggregation strategy: Max, Min or Average (default Average)")
    rematch_parser.add_argument("--direction", default=None,
                                help="direction strategy: Both, LargeSmall or SmallLarge (default Both)")
    rematch_parser.add_argument("--selection", default=None,
                                help='selection strategy, e.g. "MaxN(1)" '
                                     '(default "Thr(0.5)+Delta(0.02)")')
    rematch_parser.add_argument("--min-similarity", type=float, default=0.0,
                                help="only print correspondences at or above this similarity")
    rematch_parser.add_argument("--repository", default=None,
                                help="SQLite repository file (stored strategies, reuse matchers)")
    rematch_parser.add_argument("--store", default=None,
                                help="persistent similarity store: the previous "
                                     "(old, target) cube is loaded from here instead "
                                     "of being recomputed, so a fresh process can "
                                     "still splice")

    strategies_parser = subparsers.add_parser(
        "strategies", help="list the matcher library and the stored named strategies"
    )
    strategies_parser.add_argument("--repository", default=None,
                                   help="SQLite repository file with stored strategies")
    strategies_parser.add_argument(
        "--save", nargs=2, metavar=("NAME", "SPEC"), default=None,
        help="store a named strategy spec in the repository (requires --repository)",
    )

    stats_parser = subparsers.add_parser(
        "stats",
        help="print the Table 5 statistics of a schema file, or -- with "
             "--store -- the reuse effectiveness of a persistent similarity store",
    )
    stats_parser.add_argument("schema", nargs="?", default=None,
                              help="schema file (.sql, .xsd, .json)")
    stats_parser.add_argument("--store", default=None,
                              help="persistent similarity store file: print its "
                                   "occupancy and lifetime hit/miss counters")

    corpus_parser = subparsers.add_parser(
        "corpus",
        help="manage a schema search corpus (see docs/search.md)",
    )
    corpus_parser.add_argument("corpus", help="corpus SQLite file")
    corpus_parser.add_argument(
        "action", choices=("add", "remove", "list", "info"),
        help="add schema files, remove a registered name, list names, "
             "or print occupancy statistics",
    )
    corpus_parser.add_argument(
        "items", nargs="*",
        help="schema files for 'add', registered names for 'remove'",
    )

    search_parser = subparsers.add_parser(
        "search",
        help="find the best match targets for a schema in a corpus "
             "(see docs/search.md)",
    )
    search_parser.add_argument("query", help="query schema file (.sql, .xsd, .json)")
    search_parser.add_argument("--corpus", required=True,
                               help="corpus SQLite file built with `coma corpus add`")
    search_parser.add_argument("-k", type=int, default=10,
                               help="number of ranked results (default 10)")
    search_parser.add_argument("--candidates", type=int, default=None,
                               help="survivor-pool size the full pipeline runs on "
                                    "(default max(4*k, 16))")
    search_parser.add_argument("--strategy", default=None,
                               help="full strategy spec for the survivor matches "
                                    "(default: the paper's default operation)")
    search_parser.add_argument("--min-similarity", type=float, default=0.0,
                               help="only print correspondences at or above this "
                                    "similarity in the per-result detail")
    search_parser.add_argument("--processes", type=int, default=None,
                               help="fan survivor matching out over this many "
                                    "worker processes")
    search_parser.add_argument("--details", action="store_true",
                               help="also print each result's correspondences")

    subparsers.add_parser("tasks", help="list the bundled evaluation tasks (Figure 8 data)")

    serve_parser = subparsers.add_parser(
        "serve", help="run the HTTP match service (see docs/service.md)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="bind port (default 8765; 0 picks an ephemeral port)")
    serve_parser.add_argument("--workers", type=int, default=4,
                              help="number of warm workers: pooled sessions for "
                                   "--backend thread, worker processes for "
                                   "--backend process (default 4)")
    serve_parser.add_argument("--backend", default="thread",
                              help="execution backend: 'thread' (one process, "
                                   "pooled sessions) or 'process' (spawned worker "
                                   "processes; warm throughput scales with the "
                                   "cores instead of the GIL)")
    serve_parser.add_argument("--repository", default=None,
                              help="SQLite repository shared by all worker sessions "
                                   "(stored strategies, reuse matchers)")
    serve_parser.add_argument("--store", default=None,
                              help="persistent similarity store shared by all worker "
                                   "sessions: a restarted service stays warm across "
                                   "processes (see docs/service.md)")
    serve_parser.add_argument("--store-dtype", default=None,
                              choices=("float64", "float32", "uint16"),
                              help="storage dtype for cubes the store writes: "
                                   "float64 (default; bit-identical round trips), "
                                   "float32, or quantized uint16 (quarter the "
                                   "bytes at a ~1e-5 tolerance); requires --store")
    serve_parser.add_argument("--corpus", default=None,
                              help="schema corpus file enabling POST /search and "
                                   "GET /corpus; uploaded schemas are indexed "
                                   "automatically (see docs/search.md)")
    serve_parser.add_argument("--max-queue", type=int, default=None,
                              help="admit at most this many in-flight requests "
                                   "before answering 429 (default 64)")
    serve_parser.add_argument("--read-timeout", type=float, default=None,
                              help="seconds a client may take to deliver a "
                                   "request before a 408 (default 30)")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="do not log request lines to stderr")
    serve_parser.add_argument("--fault-plan", default=None,
                              help="JSON fault plan armed for the whole service "
                                   "(chaos runs; see docs/robustness.md). "
                                   "Refused unless COMA_ENABLE_FAULTS=1 is set "
                                   "in the environment")
    return parser


def _open_session(repository_path: Optional[str]) -> MatchSession:
    """A session over the default resources, with a repository when requested."""
    repository = None
    if repository_path:
        from repro.repository.repository import Repository

        repository = Repository(repository_path)
    return MatchSession(repository=repository)


def _resolve_cli_strategy(session: MatchSession, arguments: argparse.Namespace) -> MatchStrategy:
    per_part_flags = ("aggregation", "direction", "selection")
    if arguments.strategy is not None:
        if arguments.matchers is not None:
            raise ComaError("--strategy and --matchers are mutually exclusive; "
                            "name the matchers inside the strategy spec")
        # A --strategy spec carries the whole combination, so any explicitly
        # given per-part flag is a conflict rather than silently ignored.
        given = [f"--{flag}" for flag in per_part_flags
                 if getattr(arguments, flag) is not None]
        if given:
            raise ComaError(
                f"--strategy conflicts with {', '.join(given)}; "
                "put the combination inside the strategy spec instead"
            )
        try:
            return session.resolve_strategy(arguments.strategy)
        except ComaError as error:
            if "(" in arguments.strategy:
                raise  # a spec string: the parse error is the useful message
            # A bare name that is neither stored nor a known matcher: point at
            # the stored-strategy listing instead of the raw lookup error.
            stored = session.strategy_names()
            listing = (
                f"stored strategies: {', '.join(stored)}"
                if stored
                else "no strategies are stored"
                + ("" if arguments.repository else " (no --repository given)")
            )
            raise ComaError(
                f"unknown strategy {arguments.strategy!r}: not a stored strategy "
                f"name or matcher spec; {listing} -- run `coma strategies"
                + (f" --repository {arguments.repository}" if arguments.repository else "")
                + "` to list them, or pass a full spec such as "
                '"All(Average,Both,Thr(0.5)+Delta(0.02),Average)"'
            ) from error
    combination = parse_combination(
        aggregation=arguments.aggregation or "Average",
        direction=arguments.direction or "Both",
        selection=arguments.selection or "Thr(0.5)+Delta(0.02)",
    )
    strategy = default_strategy().replaced(combination=combination)
    if arguments.matchers is not None:
        strategy = strategy.replaced(matchers=list(arguments.matchers), name="")
    return strategy


def _command_match(arguments: argparse.Namespace) -> int:
    session = _open_session(arguments.repository)
    source = DEFAULT_IMPORTERS.import_file(arguments.source)
    target = DEFAULT_IMPORTERS.import_file(arguments.target)
    strategy = _resolve_cli_strategy(session, arguments)
    outcome = session.match(source, target, strategy=strategy)
    rows = [
        {
            "source": correspondence.source.dotted(),
            "target": correspondence.target.dotted(),
            "similarity": correspondence.similarity,
        }
        for correspondence in outcome.result
        if correspondence.similarity >= arguments.min_similarity
    ]
    print(format_table(rows, title=f"Mapping {source.name} <-> {target.name}"))
    print(f"\nstrategy:          {outcome.strategy.to_spec()}")
    print(f"schema similarity: {outcome.schema_similarity:.3f}")
    print(f"correspondences:   {len(rows)}")
    return 0


def _command_rematch(arguments: argparse.Namespace) -> int:
    """Incremental re-match: splice the evolved schema against a previous result.

    Without ``--store`` the previous (old, target) result is computed in the
    same process, so the splice reads it from the session's cube cache.  With
    ``--store`` the previous cube is recovered from the persistent store by
    content digest -- the path a restarted process takes -- and the command
    falls back to a full match (reported as such) when the store has no
    matching artifact.
    """
    repository = None
    if arguments.repository:
        from repro.repository.repository import Repository

        repository = Repository(arguments.repository)
    with MatchSession(repository=repository, store=arguments.store) as session:
        old = DEFAULT_IMPORTERS.import_file(arguments.old)
        new = DEFAULT_IMPORTERS.import_file(arguments.new)
        target = DEFAULT_IMPORTERS.import_file(arguments.target)
        strategy = _resolve_cli_strategy(session, arguments)
        previous = None
        if not arguments.store:
            # No persistent store: establish the previous result in-process so
            # the splice has something to reuse (it lands in the cube cache).
            previous = session.match(old, target, strategy=strategy)
        before = session.cache_info()
        outcome = session.rematch(
            old, new, previous_result=previous, target=target, strategy=strategy
        )
        after = session.cache_info()
        rows = [
            {
                "source": correspondence.source.dotted(),
                "target": correspondence.target.dotted(),
                "similarity": correspondence.similarity,
            }
            for correspondence in outcome.result
            if correspondence.similarity >= arguments.min_similarity
        ]
        print(format_table(rows, title=f"Mapping {new.name} <-> {target.name}"))
        from repro.model.digests import schema_delta

        delta = schema_delta(old, new)
        spliced = after["rematch_spliced"] > before["rematch_spliced"]
        print(f"\nstrategy:          {outcome.strategy.to_spec()}")
        print(f"schema similarity: {outcome.schema_similarity:.3f}")
        print(f"correspondences:   {len(rows)}")
        print(f"spliced:           {'yes' if spliced else 'no (full recompute)'}")
        print(f"rows reused:       {delta.reused}")
        print(f"rows recomputed:   {delta.recomputed}")
        if delta.added:
            print(f"paths added:       {', '.join(delta.added)}")
        if delta.removed:
            print(f"paths removed:     {', '.join(delta.removed)}")
    return 0


def _command_strategies(arguments: argparse.Namespace) -> int:
    if arguments.save is not None and not arguments.repository:
        raise ComaError("--save requires --repository to persist the strategy")
    session = _open_session(arguments.repository)
    if arguments.save is not None:
        name, spec = arguments.save
        saved = session.save_strategy(name, spec)
        print(f"stored strategy {name!r}: {saved.to_spec()}")

    library_rows = [
        {
            "matcher": info.name,
            "kind": info.kind,
            "schema_info": info.schema_info or "-",
            "auxiliary_info": info.auxiliary_info or "-",
        }
        for info in session.library.entries()
    ]
    print(format_table(library_rows, title="Matcher library (cf. Table 3)"))

    names = session.strategy_names()
    if names:
        # In the CLI every listed name is repository-backed (--save requires
        # --repository and persists before registering), and the repository
        # stores the spec column exactly for listings.
        repository = session.repository
        strategy_rows = [
            {"name": name, "spec": repository.strategy_spec(name)} for name in names
        ]
        print()
        print(format_table(strategy_rows, title="Stored named strategies"))
    else:
        print("\nno stored named strategies"
              + ("" if arguments.repository else " (no repository attached)"))
    return 0


def _command_stats(arguments: argparse.Namespace) -> int:
    if arguments.schema is None and arguments.store is None:
        raise ComaError("coma stats needs a schema file and/or --store <file>")
    if arguments.schema is not None:
        schema = DEFAULT_IMPORTERS.import_file(arguments.schema)
        statistics = schema.statistics()
        print(format_table([statistics.as_row()], title="Schema statistics (cf. Table 5)"))
    if arguments.store is not None:
        _print_reuse_stats(arguments.store)
    return 0


def _print_reuse_stats(store_path: str) -> None:
    """Reuse effectiveness: persistent-store and kernel-memo-pool counters.

    The store counters are lifetime totals accumulated on disk across every
    process that used the store; the kernel memo pool is process-local, so a
    long-lived process (``coma serve``) reports it through ``/stats`` while
    this command shows the current process (useful after batch runs in the
    same interpreter).
    """
    import os

    from repro.matchers.memo import DEFAULT_MEMO_POOL
    from repro.repository.store import SimilarityStore

    # A stats read must not conjure an empty database out of a typo, nor run
    # the store DDL against whatever file the path happens to point at: the
    # read-only open fails cleanly on missing paths, non-SQLite files and
    # SQLite databases that are not similarity stores, and guarantees the
    # inspected file is never mutated.
    if store_path != ":memory:" and not os.path.exists(store_path):
        raise ComaError(f"no similarity store at {store_path!r}")
    with SimilarityStore(store_path, readonly=True) as store:
        info = store.info()
    consultations = info["lifetime_hits"] + info["lifetime_misses"]
    hit_rate = info["lifetime_hits"] / consultations if consultations else 0.0
    store_rows = [{
        "cubes": info["cubes"],
        "cube_mb": round(info["cube_bytes"] / 1e6, 2),
        "tokens": info["tokens"],
        "lifetime_hits": info["lifetime_hits"],
        "lifetime_misses": info["lifetime_misses"],
        "hit_rate": round(hit_rate, 3),
        "corrupt": info["lifetime_corrupt"],
        "quarantined": info["lifetime_quarantined"],
    }]
    print(format_table(store_rows, title=f"Persistent similarity store ({info['path']})"))
    dtype_rows = [
        {
            "dtype": name,
            "cubes": entry["cubes"],
            "bytes": entry["bytes"],
            "mmap_files": entry["external"],
        }
        for name, entry in sorted(info.get("cube_dtypes", {}).items())
    ]
    if dtype_rows:
        print()
        print(format_table(
            dtype_rows, title="Cube payload bytes by storage dtype"
        ))
    memo = DEFAULT_MEMO_POOL.info()
    print()
    if memo["hits"] or memo["misses"]:
        print(format_table([memo], title="Kernel memo pool (this process)"))
    else:
        # A fresh CLI process has run no matches; zeros here would only
        # mislead.  The live counters of a running service are on /stats.
        print("kernel memo pool: no activity in this process "
              "(live counters: GET /stats on a running `coma serve`)")


def _command_corpus(arguments: argparse.Namespace) -> int:
    import os

    from repro.search import SchemaCorpus

    action = arguments.action
    if action == "add" and not arguments.items:
        raise ComaError("coma corpus add needs at least one schema file")
    if action == "remove" and not arguments.items:
        raise ComaError("coma corpus remove needs at least one registered name")
    if action in ("list", "info") and arguments.items:
        raise ComaError(f"coma corpus {action} takes no further arguments")
    # Only 'add' may create the file; every other action inspects an
    # existing corpus and must not conjure an empty one out of a typo.
    if action != "add" and arguments.corpus != ":memory:" \
            and not os.path.exists(arguments.corpus):
        raise ComaError(f"no schema corpus at {arguments.corpus!r}")
    with SchemaCorpus(arguments.corpus) as corpus:
        if action == "add":
            for path in arguments.items:
                schema = DEFAULT_IMPORTERS.import_file(path)
                corpus.add(schema)
                print(f"registered {schema.name!r} ({len(schema.paths())} paths)")
            print(f"corpus {arguments.corpus}: {len(corpus)} schemas")
        elif action == "remove":
            for name in arguments.items:
                if corpus.remove(name):
                    print(f"removed {name!r}")
                else:
                    raise ComaError(
                        f"no schema named {name!r} in corpus {arguments.corpus!r}"
                    )
        elif action == "list":
            names = corpus.names()
            for name in names:
                print(name)
            print(f"({len(names)} schemas)")
        else:  # info
            info = corpus.info()
            rows = [{
                "schemas": info["schemas"],
                "paths": info["paths"],
                "terms": info["terms"],
                "postings": info["postings"],
                "nodes": info["nodes"],
            }]
            print(format_table(rows, title=f"Schema corpus ({info['path']})"))
    return 0


def _command_search(arguments: argparse.Namespace) -> int:
    import os

    if arguments.corpus != ":memory:" and not os.path.exists(arguments.corpus):
        raise ComaError(f"no schema corpus at {arguments.corpus!r}")
    query = DEFAULT_IMPORTERS.import_file(arguments.query)
    with MatchSession(corpus=arguments.corpus) as session:
        results = session.search(
            query,
            k=arguments.k,
            strategy=arguments.strategy,
            candidates=arguments.candidates,
            processes=arguments.processes,
        )
        corpus_size = len(session.corpus)
    rows = [
        {
            "rank": rank,
            "schema": result.name,
            "schema_similarity": round(result.schema_similarity, 4),
            "index_score": round(result.candidate_score, 4),
            "correspondences": len(result.outcome.result.correspondences),
        }
        for rank, result in enumerate(results, start=1)
    ]
    title = (f"Top-{arguments.k} matches for {query.name} "
             f"(corpus of {corpus_size} schemas)")
    if rows:
        print(format_table(rows, title=title))
    else:
        print(f"{title}\nno candidates (is the corpus empty?)")
    if arguments.details:
        for result in results:
            print(f"\n{query.name} <-> {result.name} "
                  f"(similarity {result.schema_similarity:.3f})")
            for correspondence in result.outcome.result:
                if correspondence.similarity >= arguments.min_similarity:
                    print(f"  {correspondence.source.dotted()} <-> "
                          f"{correspondence.target.dotted()} "
                          f"{correspondence.similarity:.3f}")
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    # Validate everything *before* touching sockets or files, so a bad flag
    # exits with one clean message instead of a traceback (or a half-started
    # server).
    if arguments.workers < 1:
        raise ComaError(f"--workers must be >= 1, got {arguments.workers}")
    if arguments.backend not in ("thread", "process"):
        raise ComaError(
            f"unknown --backend {arguments.backend!r}: choose 'thread' "
            f"(one process, pooled sessions) or 'process' (worker processes)"
        )
    if arguments.store_dtype is not None and not arguments.store:
        raise ComaError("--store-dtype requires --store <file>")
    if arguments.max_queue is not None and arguments.max_queue < 1:
        raise ComaError(f"--max-queue must be >= 1, got {arguments.max_queue}")
    if arguments.read_timeout is not None and arguments.read_timeout <= 0:
        raise ComaError(
            f"--read-timeout must be positive, got {arguments.read_timeout}"
        )
    fault_plan = None
    if arguments.fault_plan is not None:
        import os

        # Fault injection wedges workers, corrupts store reads and kills
        # processes by design -- never something a copy-pasted command line
        # should switch on silently.  The environment gate is the operator's
        # explicit second signature on a chaos run.
        if os.environ.get("COMA_ENABLE_FAULTS") != "1":
            raise ComaError(
                "--fault-plan injects faults into a live service and is "
                "refused unless the environment sets COMA_ENABLE_FAULTS=1 "
                "(see docs/robustness.md)"
            )
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.load(arguments.fault_plan).to_dict()

    from repro.service.aserver import DEFAULT_MAX_QUEUE, DEFAULT_READ_TIMEOUT, serve

    serve(
        host=arguments.host,
        port=arguments.port,
        verbose=not arguments.quiet,
        pool_size=arguments.workers,
        backend=arguments.backend,
        repository_path=arguments.repository,
        store_path=arguments.store,
        store_dtype=arguments.store_dtype,
        corpus_path=arguments.corpus,
        max_queue=(DEFAULT_MAX_QUEUE if arguments.max_queue is None
                   else arguments.max_queue),
        read_timeout=(DEFAULT_READ_TIMEOUT if arguments.read_timeout is None
                      else arguments.read_timeout),
        fault_plan=fault_plan,
    )
    return 0


def _command_tasks() -> int:
    rows = []
    for task in load_all_tasks():
        rows.append(
            {
                "task": task.name,
                "schemas": f"{task.source.name}<->{task.target.name}",
                "matches": task.match_count,
                "matched_paths": task.matched_path_count,
                "all_paths": task.total_paths,
                "schema_similarity": task.schema_similarity,
            }
        )
    print(format_table(rows, title="Evaluation match tasks (cf. Figure 8)"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (returns a process exit code)."""
    parser = _build_parser()
    arguments = parser.parse_args(list(argv) if argv is not None else None)
    if arguments.command == "match":
        return _command_match(arguments)
    if arguments.command == "rematch":
        return _command_rematch(arguments)
    if arguments.command == "strategies":
        return _command_strategies(arguments)
    if arguments.command == "stats":
        return _command_stats(arguments)
    if arguments.command == "corpus":
        return _command_corpus(arguments)
    if arguments.command == "search":
        return _command_search(arguments)
    if arguments.command == "tasks":
        return _command_tasks()
    if arguments.command == "serve":
        return _command_serve(arguments)
    parser.error(f"unknown command {arguments.command!r}")
    return 2


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    """Script entry point: library errors become a clean message, not a traceback."""
    try:
        return main(argv)
    except ComaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(console_main())

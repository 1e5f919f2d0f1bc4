"""Start ``coma serve`` for the benchmark, optionally with layer tracing.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_boot.py [--trace-file PATH] -- serve --port N ...

Everything after ``--`` is handed unchanged to ``repro.cli.main``.
``POST /perfbench/speed`` times the machine-speed kernel of :mod:`speed`
inside the server and answers ``{"seconds": ...}``.  With ``--trace-file``
the layer hooks of :mod:`tracing` are installed first, and
``POST /perfbench/window`` with ``{"active": true|false}`` opens and closes
the recording window, so warm-up requests stay out of the per-layer figures.
The spans are written to ``PATH`` when the server exits.
"""

from __future__ import annotations

import os
import sys


def _install_routes(recorder) -> None:
    """Answer the benchmark's own ``/perfbench/...`` requests before the service."""
    import speed
    from repro.service.server import MatchService

    handle_request = MatchService.handle_request

    def controlled(self, method, path, payload):
        if method.upper() == "POST" and path.rstrip("/") == "/perfbench/speed":
            return 200, {"seconds": speed.time_kernel(runs=speed.BETWEEN_RUNS)}
        if (recorder is not None and method.upper() == "POST"
                and path.rstrip("/") == "/perfbench/window"):
            recorder.active = bool((payload or {}).get("active"))
            return 200, {"active": recorder.active}
        return handle_request(self, method, path, payload)

    MatchService.handle_request = controlled


def _install_tracing():
    import tracing

    recorder = tracing.Recorder()
    recorder.active = False
    tracing.install(recorder)
    return recorder


def main(argv) -> int:
    trace_file = None
    if argv[:1] == ["--trace-file"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    recorder = _install_tracing() if trace_file else None
    _install_routes(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

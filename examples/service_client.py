"""The match service round-trip: upload -> stored-strategy match -> stats.

Starts a local match service on an ephemeral port (in-process, the same
server ``coma serve`` runs), then drives it through the stdlib
:class:`~repro.service.client.ServiceClient`:

1. upload the Figure 1 schemas (relational DDL and XSD, through the regular
   importer registry),
2. store a named strategy and match by that name,
3. match the same pair again and read the cache counters off ``/stats`` --
   the second request is served from the warm session's cube cache.

Run with::

    PYTHONPATH=src python examples/service_client.py

Against an already-running server (``coma serve``), point ``ServiceClient``
at its URL instead of starting one here.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # script mode without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets.figure1 import PO1_DDL, PO2_XSD  # noqa: E402
from repro.service import ServiceClient, create_server  # noqa: E402


def main() -> None:
    # pool_size=1 keeps every request on the same warm session, so the cache
    # effect in step 3 is visible; port 0 picks an ephemeral port.
    server = create_server(port=0, pool_size=1)
    thread = server.run_in_thread()
    client = ServiceClient(server.url)
    print(f"service up at {server.url}: {client.health()['status']}")

    # 1. upload the Figure 1 schemas through the importer registry
    for name, text, format_name in (
        ("PO1", PO1_DDL, "sql"),
        ("PO2", PO2_XSD, "xsd"),
    ):
        uploaded = client.upload_schema(name=name, text=text, format=format_name)
        print(f"uploaded {uploaded['name']:4} ({format_name}): "
              f"{uploaded['paths']} paths")

    # 2. store a named strategy and match by name
    stored = client.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
    print(f"stored strategy {stored['name']!r}: {stored['spec']}")
    result = client.match("PO1", "PO2", strategy="tuned")
    print(f"\nPO1 <-> PO2 under {result['strategy']} "
          f"(schema similarity {result['schema_similarity']:.3f}):")
    for row in result["correspondences"]:
        print(f"  {row['source']:35} <-> {row['target']:35} {row['similarity']:.2f}")

    # 3. the same pair again: the pooled session serves it from its cube cache
    client.match("PO1", "PO2", strategy="tuned")
    pool = client.stats()["pool"]
    print(f"\npool caches after a repeat match: cube_hits={pool['cube_hits']} "
          f"cube_misses={pool['cube_misses']} profiles={pool['profiles']}")

    client.shutdown()
    thread.join(timeout=10)
    print("service stopped")


if __name__ == "__main__":
    main()

"""Golden pin of the paper's workload: the ten purchase-order gold tasks.

For every task the default ``All`` matchers build one similarity cube, and each
combination of a strategy grid covering every selection family (MaxN, Delta
relative and absolute, Thr, Thr+Delta, Thr+MaxN) under every direction turns it
into a mapping and a schema similarity.  ``tests/paper_golden.json`` holds the
sha256 of each mapping (dotted paths plus ``float.hex`` similarities) and the
``float.hex`` schema similarity; the test compares both exactly, so a refactor
of matching, aggregation or selection is proven on the paper's own schemas.

Regenerate the file only for a deliberate change of results::

    PYTHONPATH=src python tests/test_paper_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict

import pytest

from repro.combination.strategy import combination_from_spec
from repro.core.match_operation import build_context, combine_cube, execute_matchers
from repro.core.strategy import default_strategy
from repro.datasets.gold_standard import load_all_tasks

GOLDEN_PATH = pathlib.Path(__file__).with_name("paper_golden.json")

DIRECTIONS = ("Both", "LargeSmall", "SmallLarge")
SELECTIONS = (
    "MaxN(1)",
    "MaxN(2)",
    "Delta(0.02,rel)",
    "Delta(0.02,abs)",
    "Thr(0.5)",
    "Thr(0.5)+Delta(0.02,rel)",
    "Thr(0.5)+MaxN(1)",
)
COMBINATIONS = tuple(
    f"Average,{direction},{selection},Average"
    for direction in DIRECTIONS
    for selection in SELECTIONS
) + ("Max,Both,Thr(0.6),Dice",)


def mapping_digest(result) -> str:
    """sha256 over the mapping's ``(source, target, float.hex(similarity))`` rows."""
    digest = hashlib.sha256()
    for source, target, similarity in result.as_tuples():
        digest.update(f"{source}\t{target}\t{float(similarity).hex()}\n".encode())
    return digest.hexdigest()


def compute_golden() -> Dict[str, Dict[str, Dict[str, object]]]:
    """Every task x combination: mapping digest, size and schema similarity."""
    matchers = default_strategy().resolve_matchers()
    golden: Dict[str, Dict[str, Dict[str, object]]] = {}
    for task in load_all_tasks():
        context = build_context(task.source, task.target)
        cube = execute_matchers(matchers, context)
        rows: Dict[str, Dict[str, object]] = {}
        for spec in COMBINATIONS:
            result, _, similarity = combine_cube(cube, combination_from_spec(spec), context)
            rows[spec] = {
                "mapping_sha256": mapping_digest(result),
                "correspondences": len(result),
                "schema_similarity": float(similarity).hex(),
            }
        golden[task.name] = rows
    return golden


@pytest.fixture(scope="module")
def computed():
    return compute_golden()


def test_golden_covers_every_task_and_combination(computed):
    recorded = json.loads(GOLDEN_PATH.read_text())
    assert sorted(recorded) == sorted(computed)
    for task, rows in recorded.items():
        assert sorted(rows) == sorted(COMBINATIONS), task


def test_paper_workload_matches_golden_exactly(computed):
    recorded = json.loads(GOLDEN_PATH.read_text())
    mismatches = [
        (task, spec, field)
        for task, rows in recorded.items()
        for spec, expected in rows.items()
        for field, value in expected.items()
        if computed[task][spec][field] != value
    ]
    assert not mismatches, mismatches[:10]


def test_golden_is_not_degenerate(computed):
    """The grid exercises real mappings, not empty ones."""
    sizes = [row["correspondences"] for rows in computed.values() for row in rows.values()]
    assert min(sizes) > 0
    assert len(set(row["mapping_sha256"] for rows in computed.values() for row in rows.values())) > 100


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_paper_golden.py --record")
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")

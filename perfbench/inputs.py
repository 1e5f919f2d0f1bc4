"""Seeded inputs of the workloads, built with ``repro.datasets.generators``.

Everything here is a pure function of ``--seed``: the same seed gives the
same schemas, the same order and the same edits, which
:func:`inputs_digest` makes checkable.  The program under test only ever
receives the generated schemas.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.datasets.generators import GeneratedPair, generate_corpus, generate_pair, mutate_schema
from repro.model.schema import Schema
from repro.repository.serialization import schema_from_dict, schema_to_dict
from repro.repository.store import schema_content_digest

#: serve_warm working set: 20 to 120 paths per side.  An odd number of
#: equally requested sizes keeps the median inside one size's latency band.
SERVE_WARM_SHAPES = ((4, 4), (6, 5), (8, 5), (10, 5), (12, 6), (14, 6), (15, 7))
#: The three cacheable strategies of serve_warm (all share the "All" cube).
SERVE_WARM_STRATEGIES = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "All(Max,Both,Thr(0.5)+MaxN(1),Average)",
    "All(Average,Both,Thr(0.6),Dice)",
)
#: evolve_store: independent evolving schemas of 150 paths, each against its
#: own fixed target.
EVOLVE_CHAINS = 3
EVOLVE_SHAPE = (25, 5)
#: corpus_search: decoys indexed next to the five gold schemas, with the
#: mutation rates of benchmarks/bench_corpus_search.py.
CORPUS_DECOYS = 100
DECOY_RENAME_RATE = 0.85
DECOY_DRIFT_RATE = 0.5
#: Gold schemas used as query bases: the three smallest, so that a run holds
#: whole cycles (one query per base) at ~3 s per query.
QUERY_BASES = ("CIDX", "Excel", "Noris")

_EDIT_NAMES = ("Memo", "Code", "Flag", "Label", "Value", "Remark", "Origin", "Unit")
_TYPES = ("string", "decimal", "integer", "date")


def sub_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed derived from ``seed`` and a label (stable across runs)."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big") & 0x7FFFFFFF


def cycle_order(seed: int, label: str, cycle: int, count: int) -> List[int]:
    """A seeded permutation of ``range(count)`` for one cycle."""
    order = list(range(count))
    random.Random(sub_seed(seed, label, cycle)).shuffle(order)
    return order


# -- serve_warm -----------------------------------------------------------------


def serve_warm_pairs(seed: int) -> List[GeneratedPair]:
    return [
        generate_pair(
            sections=sections, fields_per_section=fields,
            seed=sub_seed(seed, "serve_warm", index),
            source_name=f"WarmA{index}", target_name=f"WarmB{index}",
        )
        for index, (sections, fields) in enumerate(SERVE_WARM_SHAPES)
    ]


def serve_warm_keys() -> List[Tuple[int, int]]:
    """Every (pair index, strategy index) of the working set."""
    return [(pair, strategy) for pair in range(len(SERVE_WARM_SHAPES))
            for strategy in range(len(SERVE_WARM_STRATEGIES))]


def serve_warm_sequence(seed: int, client: int) -> Iterator[Tuple[int, int]]:
    """The endless request sequence of one client: seeded rounds over every key."""
    keys = serve_warm_keys()
    for round_index in itertools.count():
        for index in cycle_order(seed, f"serve_warm_client{client}", round_index, len(keys)):
            yield keys[index]


# -- corpus_search --------------------------------------------------------------


def corpus_decoys(seed: int) -> List[Schema]:
    return generate_corpus(
        CORPUS_DECOYS, seed=sub_seed(seed, "corpus"),
        rename_rate=DECOY_RENAME_RATE, drift_rate=DECOY_DRIFT_RATE,
    )


def corpus_queries(seed: int, cycle: int, golds: Dict[str, Schema]) -> List[Tuple[str, Schema]]:
    """One cycle of fresh light variants, one per query base, seeded order."""
    queries = []
    for index in cycle_order(seed, "corpus_search", cycle, len(QUERY_BASES)):
        base = QUERY_BASES[index]
        queries.append((base, mutate_schema(
            golds[base], f"Query{cycle}x{index}",
            seed=sub_seed(seed, "query", cycle, index),
            rename_rate=0.1, graft_sections=1, graft_fields=3, drift_rate=0.1,
        )))
    return queries


# -- evolve_store ---------------------------------------------------------------


def evolve_pairs(seed: int) -> List[GeneratedPair]:
    sections, fields = EVOLVE_SHAPE
    return [
        generate_pair(
            sections=sections, fields_per_section=fields,
            seed=sub_seed(seed, "evolve", chain),
            source_name=f"Evolving{chain}", target_name=f"Fixed{chain}",
        )
        for chain in range(EVOLVE_CHAINS)
    ]


def single_field_edit(schema: Schema, seed: int, step: int) -> Tuple[Schema, str, str]:
    """A copy of ``schema`` with one leaf renamed or retyped.

    Returns ``(edited schema, old dotted path, new dotted path)``; the two
    paths are equal for a type change.
    """
    document = schema_to_dict(schema)
    chooser = random.Random(sub_seed(seed, "edit", step))
    leaves = [path for path in schema.paths() if not schema.children(path.leaf)]
    path = leaves[chooser.randrange(len(leaves))]
    # Serialised records are numbered in ``schema.elements`` order.
    local_id = [element.element_id for element in schema.elements].index(path.leaf.element_id)
    record = document["elements"][local_id]
    if chooser.random() < 2 / 3:
        record["name"] = f"{chooser.choice(_EDIT_NAMES)}{step}"
    else:
        record["source_type"] = chooser.choice(
            [kind for kind in _TYPES if kind != record["source_type"]]
        )
    old_path = path.dotted()
    new_path = old_path.rsplit(".", 1)[0] + "." + record["name"]
    return schema_from_dict(document), old_path, new_path


def nested_spec(schema: Schema) -> dict:
    """The ``dict`` importer's nested form of a tree-shaped schema (for uploads)."""

    def node(element) -> dict:
        spec = {"name": element.name}
        if element.source_type is not None:
            spec["type"] = element.source_type
        children = schema.children(element)
        if children:
            spec["children"] = [node(child) for child in children]
        return spec

    return {"name": schema.name, "elements": [node(child) for child in schema.children(schema.root)]}


# -- gold and determinism -------------------------------------------------------


def gold_pairs(pair: GeneratedPair) -> Set[Tuple[str, str]]:
    return {(row[0], row[1]) for row in pair.reference.as_tuples()}


def inputs_digest(schemas: Sequence[Schema]) -> str:
    """sha256 over the content digests of ``schemas``, in order."""
    digest = hashlib.sha256()
    for schema in schemas:
        digest.update(schema_content_digest(schema).encode("ascii"))
    return digest.hexdigest()

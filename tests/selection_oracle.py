"""List-based reference ranking and selection: the oracle for the array kernel.

This is the per-row / per-column formulation of Section 6.2 that the array
kernel in ``repro.combination`` replaces: every row and column is ranked with a
Python ``sorted`` keyed on path names, each selection strategy filters the
ranked list, and directions intersect or pick sets of path triples.  It is
kept only as a test oracle; nothing under ``src/`` uses it.

The one ordering rule it adds: selected pairs whose names tie on both sides
are ordered by their row and then column position (a plain set has no
defined order for them).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.combination.direction import Both, DirectionStrategy, LargeSmall, SmallLarge
from repro.combination.matrix import SimilarityMatrix
from repro.combination.selection import (
    CombinedSelection,
    MaxDelta,
    MaxN,
    SelectionStrategy,
    Threshold,
)
from repro.model.path import SchemaPath

Ranked = List[Tuple[SchemaPath, float]]
Triple = Tuple[SchemaPath, SchemaPath, float]


def ranked_targets(matrix: SimilarityMatrix, row: int) -> Ranked:
    """Targets of ``row`` by descending similarity, ties by target names."""
    values = matrix.values[row, :]
    targets = matrix.target_paths
    order = sorted(range(len(targets)), key=lambda j: (-values[j], targets[j].names))
    return [(targets[j], float(values[j])) for j in order]


def ranked_sources(matrix: SimilarityMatrix, column: int) -> Ranked:
    """Sources of ``column`` by descending similarity, ties by source names."""
    values = matrix.values[:, column]
    sources = matrix.source_paths
    order = sorted(range(len(sources)), key=lambda i: (-values[i], sources[i].names))
    return [(sources[i], float(values[i])) for i in order]


def select(selection: SelectionStrategy, ranked: Sequence[Tuple[SchemaPath, float]]) -> Ranked:
    """Apply ``selection`` to a descending-ranked candidate list."""
    positive = [(path, similarity) for path, similarity in ranked if similarity > 0.0]
    if isinstance(selection, MaxN):
        return positive[: selection.n]
    if isinstance(selection, MaxDelta):
        if not positive:
            return []
        best = positive[0][1]
        tolerance = best * selection.delta if selection.relative else selection.delta
        floor = best - tolerance
        return [(path, similarity) for path, similarity in positive if similarity >= floor]
    if isinstance(selection, Threshold):
        return [(path, similarity) for path, similarity in positive if similarity >= selection.threshold]
    if isinstance(selection, CombinedSelection):
        accepted = [{path for path, _ in select(part, ranked)} for part in selection.strategies]
        common = set.intersection(*accepted)
        return [(path, similarity) for path, similarity in positive if path in common]
    raise TypeError(f"no oracle for {selection!r}")


def _per_source(matrix: SimilarityMatrix, selection: SelectionStrategy) -> Set[Triple]:
    pairs: Set[Triple] = set()
    for i, source in enumerate(matrix.source_paths):
        for target, similarity in select(selection, ranked_targets(matrix, i)):
            pairs.add((source, target, similarity))
    return pairs


def _per_target(matrix: SimilarityMatrix, selection: SelectionStrategy) -> Set[Triple]:
    pairs: Set[Triple] = set()
    for j, target in enumerate(matrix.target_paths):
        for source, similarity in select(selection, ranked_sources(matrix, j)):
            pairs.add((source, target, similarity))
    return pairs


def select_pairs(
    direction: DirectionStrategy, matrix: SimilarityMatrix, selection: SelectionStrategy
) -> List[Triple]:
    """The selected triples of ``direction`` x ``selection``, in output order."""
    rows, columns = matrix.shape
    if isinstance(direction, Both):
        pairs = _per_source(matrix, selection) & _per_target(matrix, selection)
    elif isinstance(direction, LargeSmall):
        pairs = (_per_target if rows >= columns else _per_source)(matrix, selection)
    elif isinstance(direction, SmallLarge):
        pairs = (_per_source if rows >= columns else _per_target)(matrix, selection)
    else:
        raise TypeError(f"no oracle for {direction!r}")
    row_of: Dict[SchemaPath, int] = {path: i for i, path in enumerate(matrix.source_paths)}
    column_of: Dict[SchemaPath, int] = {path: j for j, path in enumerate(matrix.target_paths)}
    return sorted(
        pairs, key=lambda p: (p[0].names, p[1].names, row_of[p[0]], column_of[p[1]])
    )

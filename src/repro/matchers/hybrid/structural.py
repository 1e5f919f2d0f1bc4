"""The hybrid structural matchers Children and Leaves (Section 4.2, Table 4).

Both matchers derive the similarity of two *inner* elements from the combined
similarity of element sets beneath them, using a leaf-level matcher (TypeName
by default) for the base similarities and the (Both, Max1, Average) pipeline
of Table 4 for combining set matches:

* ``Children`` compares the *child* sets of two inner elements.  Children may
  themselves be inner elements, whose similarity is computed recursively.
* ``Leaves`` compares the *leaf descendant* sets of two inner elements, which
  is more stable under structural conflicts: in Figure 1, Children only finds
  ``ShipTo <-> Address`` whereas Leaves also identifies ``ShipTo <-> DeliverTo``.

Leaf-leaf pairs take their similarity directly from the leaf matcher; mixed
pairs (a leaf against an inner element) treat the leaf as a singleton set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.combination.combined import (
    AVERAGE_COMBINED,
    CombinedSimilarityStrategy,
)
from repro.combination.direction import BOTH, Both, DirectionStrategy
from repro.combination.matrix import NameRanks, SimilarityMatrix
from repro.combination.selection import MaxN, SelectionStrategy
from repro.matchers.base import MatchContext, Matcher
from repro.matchers.hybrid.type_name import TypeNameMatcher
from repro.model.path import SchemaPath
from repro.model.schema import Schema


#: A component set and the positions of its paths in the leaf matrix.
_Components = Tuple[Tuple[SchemaPath, ...], List[int]]


class _StructuralMatcherBase(Matcher):
    """Shared implementation of the Children and Leaves matchers."""

    kind = "hybrid"

    def __init__(
        self,
        leaf_matcher: Optional[Matcher] = None,
        direction: DirectionStrategy = BOTH,
        selection: Optional[SelectionStrategy] = None,
        combined_similarity: CombinedSimilarityStrategy = AVERAGE_COMBINED,
    ):
        self._leaf_matcher = leaf_matcher if leaf_matcher is not None else TypeNameMatcher()
        self._direction = direction
        self._selection = selection if selection is not None else MaxN(1)
        self._combined = combined_similarity

    # -- configuration accessors ----------------------------------------------------

    @property
    def leaf_matcher(self) -> Matcher:
        """The matcher providing leaf-level similarities (TypeName by default)."""
        return self._leaf_matcher

    @property
    def combined_similarity(self) -> CombinedSimilarityStrategy:
        """The strategy collapsing set matches into one element similarity."""
        return self._combined

    def with_combined_similarity(
        self, combined_similarity: CombinedSimilarityStrategy
    ) -> "_StructuralMatcherBase":
        """A copy using a different combined-similarity strategy (Average vs Dice)."""
        leaf = self._leaf_matcher
        if hasattr(leaf, "with_combined_similarity"):
            leaf = leaf.with_combined_similarity(combined_similarity)  # type: ignore[attr-defined]
        return type(self)(
            leaf_matcher=leaf,
            direction=self._direction,
            selection=self._selection,
            combined_similarity=combined_similarity,
        )

    # -- template methods -------------------------------------------------------------

    def _component_paths(self, schema: Schema, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        """The component set of an inner path (children or leaf descendants)."""
        raise NotImplementedError

    def _recursive(self) -> bool:
        """Whether component similarities are computed recursively (Children) or not."""
        raise NotImplementedError

    # -- computation ---------------------------------------------------------------------

    def compute(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        # The leaf matcher is evaluated over the full path sets once, so that
        # component paths outside the requested subsets are covered too.
        leaf_matrix = self._leaf_matcher.compute(
            context.source_schema.paths(), context.target_schema.paths(), context
        )
        return self._compute_from_leaf_matrix(source_paths, target_paths, context, leaf_matrix)

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Batch variant: the leaf matrix runs through the batch path.

        The structural recursion over component sets is identical to the
        pairwise path and memoised per element pair, but it stays per-cell
        Python and is *not* cheap: it, not the leaf-level similarity it
        consumes, dominates a cold match (about 74% of a cold corpus-search
        query in the benchmark's per-layer breakdown).
        """
        leaf_matrix = self._leaf_matcher.compute_batch(
            context.source_schema.paths(), context.target_schema.paths(), context
        )
        return self._compute_from_leaf_matrix(source_paths, target_paths, context, leaf_matrix)

    def _compute_from_leaf_matrix(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
        leaf_matrix: SimilarityMatrix,
    ) -> SimilarityMatrix:
        source_schema = context.source_schema
        target_schema = context.target_schema
        # Integer index maps into the leaf matrix: the recursion gathers leaf
        # similarities (and whole component blocks) by position instead of
        # going through the per-cell path accessors.
        leaf_row = {path: i for i, path in enumerate(leaf_matrix.source_paths)}
        leaf_column = {path: j for j, path in enumerate(leaf_matrix.target_paths)}
        leaf_values = leaf_matrix.values
        # Name ranks over the full path sets: a component set's ranks are a
        # slice of these, so set selection tie-breaks without name tuples.
        source_ranks = leaf_matrix.source_ranks
        target_ranks = leaf_matrix.target_ranks

        # Component sets are derived from the schema graph alone, so they are
        # memoised per path (leaf_paths_under / child_paths scan the schema),
        # together with their positions in the leaf matrix.
        source_components: Dict[SchemaPath, _Components] = {}
        target_components: Dict[SchemaPath, _Components] = {}

        def components_of(
            schema: Schema,
            path: SchemaPath,
            cache: Dict[SchemaPath, _Components],
            index: Dict[SchemaPath, int],
        ) -> _Components:
            components = cache.get(path)
            if components is None:
                paths = self._component_paths(schema, path)
                components = (paths, [index[component] for component in paths])
                cache[path] = components
            return components

        memo: Dict[Tuple[SchemaPath, SchemaPath], float] = {}

        def pair_similarity(source: SchemaPath, target: SchemaPath) -> float:
            key = (source, target)
            if key in memo:
                return memo[key]
            source_row = leaf_row.get(source) if source_schema.is_leaf(source.leaf) else None
            target_col = leaf_column.get(target) if target_schema.is_leaf(target.leaf) else None
            if source_row is not None and target_col is not None:
                value = float(leaf_values[source_row, target_col])
            else:
                source_set, source_index = (
                    ((source,), [source_row])
                    if source_row is not None
                    else components_of(source_schema, source, source_components, leaf_row)
                )
                target_set, target_index = (
                    ((target,), [target_col])
                    if target_col is not None
                    else components_of(target_schema, target, target_components, leaf_column)
                )
                value = self._set_similarity(
                    source_set,
                    target_set,
                    source_index,
                    target_index,
                    pair_similarity,
                    leaf_values,
                    source_ranks,
                    target_ranks,
                )
            memo[key] = value
            return value

        # Leaf-leaf cells (the bulk of the matrix) are one block gather from
        # the leaf matrix; only pairs involving an inner element recurse.
        source_leaf_rows = [
            leaf_row[path] if source_schema.is_leaf(path.leaf) else -1 for path in source_paths
        ]
        target_leaf_cols = [
            leaf_column[path] if target_schema.is_leaf(path.leaf) else -1 for path in target_paths
        ]
        values = leaf_values[
            np.ix_(
                [max(row, 0) for row in source_leaf_rows],
                [max(col, 0) for col in target_leaf_cols],
            )
        ].copy()
        for i, source in enumerate(source_paths):
            source_inner = source_leaf_rows[i] < 0
            for j, target in enumerate(target_paths):
                if source_inner or target_leaf_cols[j] < 0:
                    values[i, j] = pair_similarity(source, target)
        return SimilarityMatrix(source_paths, target_paths, values)

    def _set_similarity(
        self,
        source_set: Sequence[SchemaPath],
        target_set: Sequence[SchemaPath],
        source_index: List[int],
        target_index: List[int],
        recursive_similarity,
        leaf_values: np.ndarray,
        source_ranks: NameRanks,
        target_ranks: NameRanks,
    ) -> float:
        """Combined similarity of two component sets (``*_index``: leaf-matrix positions)."""
        if not source_set or not target_set:
            return 0.0
        if self._recursive():
            component_values = np.empty((len(source_set), len(target_set)), dtype=float)
            for i, source in enumerate(source_set):
                for j, target in enumerate(target_set):
                    component_values[i, j] = recursive_similarity(source, target)
        else:
            component_values = leaf_values[np.ix_(source_index, target_index)]
        # Component positions stand in for the paths: combining only counts
        # and sums the selected pairs per element.
        selected = self._singleton_selection(component_values)
        if selected is None:
            rows, columns = self._direction.select_indices(
                component_values,
                self._selection,
                source_ranks.take(source_index),
                target_ranks.take(target_index),
            )
            selected = list(
                zip(rows.tolist(), columns.tolist(), component_values[rows, columns].tolist())
            )
        return self._combined.combine(selected, len(source_set), len(target_set))

    def _singleton_selection(
        self, component_values: np.ndarray
    ) -> Optional[List[Tuple[int, int, float]]]:
        """Shortcut for the default Both + Max1 selection on singleton sets.

        A leaf compared against a component set yields a ``1 x k`` (or
        ``k x 1``) matrix; under undirectional Max1 the intersection of both
        directions is exactly one best pair.  Which of several tied best
        candidates it is cannot change the combined similarity (one matched
        element per side, the same value), so the first one is taken.  The
        shortcut exists because these cells outnumber the set-against-set
        ones and the kernel's fixed numpy overhead would dominate them.  Any
        other configuration returns ``None``.
        """
        if not isinstance(self._direction, Both) or not isinstance(self._selection, MaxN):
            return None
        rows, columns = component_values.shape
        if self._selection.n != 1 or (rows > 1 and columns > 1):
            return None
        candidates = component_values.ravel().tolist()
        best = max(candidates)
        if best <= 0.0:
            return []
        position = candidates.index(best)
        return [(0, position, best) if rows == 1 else (position, 0, best)]


class ChildrenMatcher(_StructuralMatcherBase):
    """Similarity of inner elements from the combined similarity of their children."""

    name = "Children"

    def _component_paths(self, schema: Schema, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        return schema.child_paths(path)

    def _recursive(self) -> bool:
        return True


class LeavesMatcher(_StructuralMatcherBase):
    """Similarity of inner elements from the combined similarity of their leaf sets."""

    name = "Leaves"

    def _component_paths(self, schema: Schema, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        leaves = schema.leaf_paths_under(path)
        # An inner element whose subtree is (pathologically) empty of leaves
        # falls back to its direct children to avoid an empty component set.
        return leaves if leaves else schema.child_paths(path)

    def _recursive(self) -> bool:
        return False

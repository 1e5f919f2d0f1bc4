"""Similarity matrices: the per-matcher result over two path sets.

Every matcher produces an ``m x n`` matrix of similarity values, with rows
indexed by the source (S1) paths and columns by the target (S2) paths.  The
matrix is numpy-backed, but exposes path-aware accessors so that the rest of
the system never has to juggle integer indices.

Ranking and selection break ties by path name.  Instead of comparing name
tuples per call, each axis carries integer :class:`NameRanks` (computed once,
on first use), so the selection kernel can tie-break with ``lexsort`` and
``argmax`` over plain integer arrays.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.model.path import SchemaPath


class NameRanks(NamedTuple):
    """Integer ranks of one path axis by name tuple.

    ``strict`` orders by names and then by axis position, so every path has
    its own rank: the order a stable sort on ``names`` yields, used to break
    ties within a row or column.  ``dense`` gives equal name tuples one shared
    rank and orders the selected pairs by ``(source names, target names)``;
    pairs whose names tie on both sides keep their row-major position order.
    """

    strict: np.ndarray
    dense: np.ndarray

    def take(self, indices: Sequence[int]) -> "NameRanks":
        """The ranks of a subset of the axis (their relative order is kept)."""
        return NameRanks(self.strict[indices], self.dense[indices])


def name_ranks(paths: Sequence[SchemaPath]) -> NameRanks:
    """The strict and dense name ranks of ``paths``."""
    order = sorted(range(len(paths)), key=lambda i: paths[i].names)
    strict = np.empty(len(paths), dtype=np.intp)
    strict[order] = np.arange(len(paths))
    dense = np.empty(len(paths), dtype=np.intp)
    rank, previous = -1, None
    for i in order:
        names = paths[i].names
        if names != previous:
            rank, previous = rank + 1, names
        dense[i] = rank
    return NameRanks(strict, dense)


class SimilarityMatrix:
    """An ``m x n`` matrix of similarities between source and target paths."""

    def __init__(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        values: Optional[np.ndarray] = None,
    ):
        self._source_paths: Tuple[SchemaPath, ...] = tuple(source_paths)
        self._target_paths: Tuple[SchemaPath, ...] = tuple(target_paths)
        if not self._source_paths or not self._target_paths:
            raise CombinationError("a similarity matrix needs at least one path on each side")
        shape = (len(self._source_paths), len(self._target_paths))
        if values is None:
            self._values = np.zeros(shape, dtype=float)
        else:
            array = np.asarray(values, dtype=float)
            if array.shape != shape:
                raise CombinationError(
                    f"value array shape {array.shape} does not match path counts {shape}"
                )
            self._values = array.copy()
        self._source_index: Dict[SchemaPath, int] = {
            path: i for i, path in enumerate(self._source_paths)
        }
        self._target_index: Dict[SchemaPath, int] = {
            path: j for j, path in enumerate(self._target_paths)
        }
        self._source_ranks: Optional[NameRanks] = None
        self._target_ranks: Optional[NameRanks] = None

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def filled(
        cls,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        fill_value: float,
    ) -> "SimilarityMatrix":
        """A matrix whose every cell holds ``fill_value``."""
        matrix = cls(source_paths, target_paths)
        matrix._values.fill(float(fill_value))
        return matrix

    @classmethod
    def from_unique(
        cls,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        unique_values: np.ndarray,
        source_inverse: Sequence[int],
        target_inverse: Sequence[int],
    ) -> "SimilarityMatrix":
        """Scatter a matrix computed over *unique* cache keys to all path pairs.

        Batch matchers evaluate their similarity function only once per pair of
        distinct cache keys (e.g. distinct leaf names); ``unique_values`` holds
        that ``u x v`` result, and ``source_inverse`` / ``target_inverse`` map
        every path to the row / column of its key.  The full ``m x n`` matrix
        is materialised with one fancy-indexing gather, and values are clamped
        to ``[0, 1]`` exactly like the pairwise reference implementation.
        """
        unique = np.asarray(unique_values, dtype=float)
        rows = np.asarray(source_inverse, dtype=np.intp)
        columns = np.asarray(target_inverse, dtype=np.intp)
        if rows.shape != (len(source_paths),) or columns.shape != (len(target_paths),):
            raise CombinationError(
                "inverse index lengths do not match the path counts: "
                f"{rows.shape[0]} x {columns.shape[0]} vs {len(source_paths)} x {len(target_paths)}"
            )
        values = unique[np.ix_(rows, columns)]
        np.clip(values, 0.0, 1.0, out=values)
        return cls(source_paths, target_paths, values)

    def copy(self) -> "SimilarityMatrix":
        """An independent copy of this matrix."""
        return SimilarityMatrix(self._source_paths, self._target_paths, self._values)

    # -- axes --------------------------------------------------------------------

    @property
    def source_paths(self) -> Tuple[SchemaPath, ...]:
        """Row axis: the source (S1) paths."""
        return self._source_paths

    @property
    def target_paths(self) -> Tuple[SchemaPath, ...]:
        """Column axis: the target (S2) paths."""
        return self._target_paths

    @property
    def source_ranks(self) -> NameRanks:
        """Name ranks of the row axis (computed on first use)."""
        if self._source_ranks is None:
            self._source_ranks = name_ranks(self._source_paths)
        return self._source_ranks

    @property
    def target_ranks(self) -> NameRanks:
        """Name ranks of the column axis (computed on first use)."""
        if self._target_ranks is None:
            self._target_ranks = name_ranks(self._target_paths)
        return self._target_ranks

    @property
    def shape(self) -> Tuple[int, int]:
        """The ``(rows, columns)`` shape."""
        return self._values.shape  # type: ignore[return-value]

    @property
    def values(self) -> np.ndarray:
        """A read-only view of the underlying value array."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    # -- element access ------------------------------------------------------------

    def get(self, source: SchemaPath, target: SchemaPath) -> float:
        """The similarity stored for ``(source, target)``."""
        return float(self._values[self._source_index[source], self._target_index[target]])

    def set(self, source: SchemaPath, target: SchemaPath, similarity: float) -> None:
        """Store a similarity for ``(source, target)`` (must be within [0, 1])."""
        if not 0.0 <= similarity <= 1.0:
            raise CombinationError(
                f"similarity must be within [0, 1], got {similarity!r} for {source} / {target}"
            )
        self._values[self._source_index[source], self._target_index[target]] = float(similarity)

    def has_source(self, source: SchemaPath) -> bool:
        """True if ``source`` is on the row axis."""
        return source in self._source_index

    def has_target(self, target: SchemaPath) -> bool:
        """True if ``target`` is on the column axis."""
        return target in self._target_index

    def row(self, source: SchemaPath) -> np.ndarray:
        """The similarity row of ``source`` over all targets (copy)."""
        return self._values[self._source_index[source], :].copy()

    def column(self, target: SchemaPath) -> np.ndarray:
        """The similarity column of ``target`` over all sources (copy)."""
        return self._values[:, self._target_index[target]].copy()

    # -- bulk operations ----------------------------------------------------------------

    def fill_from(self, entries: Iterable[Tuple[SchemaPath, SchemaPath, float]]) -> None:
        """Set many cells at once from ``(source, target, similarity)`` triples."""
        for source, target, similarity in entries:
            self.set(source, target, similarity)

    def transposed(self) -> "SimilarityMatrix":
        """The matrix with source and target axes swapped."""
        return SimilarityMatrix(self._target_paths, self._source_paths, self._values.T)

    def ranked_targets(self, source: SchemaPath) -> List[Tuple[SchemaPath, float]]:
        """Targets ranked by descending similarity to ``source`` (ties: path order)."""
        row = self._values[self._source_index[source], :]
        return _ranked(self._target_paths, row, self.target_ranks)

    def ranked_sources(self, target: SchemaPath) -> List[Tuple[SchemaPath, float]]:
        """Sources ranked by descending similarity to ``target`` (ties: path order)."""
        column = self._values[:, self._target_index[target]]
        return _ranked(self._source_paths, column, self.source_ranks)

    def max_similarity(self) -> float:
        """The maximum similarity anywhere in the matrix."""
        return float(self._values.max())

    def nonzero_pairs(self) -> List[Tuple[SchemaPath, SchemaPath, float]]:
        """All cells with a strictly positive similarity as triples."""
        rows, cols = np.nonzero(self._values > 0.0)
        return [
            (self._source_paths[i], self._target_paths[j], float(self._values[i, j]))
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    # -- dunder protocol ----------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimilarityMatrix(shape={self.shape})"


def _ranked(
    paths: Tuple[SchemaPath, ...], similarities: np.ndarray, ranks: NameRanks
) -> List[Tuple[SchemaPath, float]]:
    order = np.lexsort((ranks.strict, -similarities))
    return list(zip([paths[k] for k in order.tolist()], similarities[order].tolist()))

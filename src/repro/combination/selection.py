"""Selection of match candidates from a ranked candidate list (Section 6.2).

Given the similarity matrix, the candidates for one element are ranked in
descending order of similarity and a *selection strategy* decides which of
them to keep:

* ``MaxN`` -- the ``n`` candidates with maximal similarity (``Max1`` is the
  natural choice for 1:1 correspondences),
* ``MaxDelta`` -- the best candidate plus every candidate whose similarity
  differs from the best by at most a tolerance ``d`` (absolute or relative),
* ``Threshold`` -- every candidate whose similarity exceeds a threshold ``t``,
* combinations of the above (e.g. ``Threshold(0.5) + Delta(0.02)``), realised
  by :class:`CombinedSelection`, which keeps only candidates accepted by every
  constituent strategy.

Candidates with similarity ``0`` are never selected: a zero similarity means
"strong dissimilarity" (Section 3) and must not become a match candidate just
because a row of the matrix happens to be all zeros.

Every strategy is one array operation, :meth:`SelectionStrategy.mask`: it
selects row-wise over a whole ``m x n`` array at once, ranking each row's
candidates by descending similarity and breaking ties by an integer rank per
column (the name ranks of :class:`~repro.combination.matrix.NameRanks`).  The
per-list :meth:`SelectionStrategy.select` is the same mask on a one-row array.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.model.path import SchemaPath

#: A ranked candidate: the candidate path and its similarity.
RankedCandidate = Tuple[SchemaPath, float]


class SelectionStrategy(abc.ABC):
    """Base class for candidate selection strategies."""

    name: str = "selection"

    @abc.abstractmethod
    def mask(self, values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The boolean ``m x n`` mask of the candidates selected in each row.

        Each row ranks its columns by descending value; ``ranks`` (one integer
        per column, all distinct) orders equal values, lowest rank first.
        Non-positive values are never selected.
        """

    def select(self, ranked: Sequence[RankedCandidate]) -> List[RankedCandidate]:
        """Choose match candidates from a descending-ranked candidate list."""
        if not ranked:
            return []
        values = np.array([[similarity for _, similarity in ranked]], dtype=float)
        keep = self.mask(values, np.arange(len(ranked)))[0]
        return [ranked[k] for k in np.flatnonzero(keep).tolist()]

    def __call__(self, ranked: Sequence[RankedCandidate]) -> List[RankedCandidate]:
        return self.select(ranked)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SelectionStrategy) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))

    def combined_with(self, other: "SelectionStrategy") -> "CombinedSelection":
        """The selection keeping only candidates accepted by both strategies."""
        return CombinedSelection([self, other])

    def __add__(self, other: "SelectionStrategy") -> "CombinedSelection":
        return self.combined_with(other)


class MaxN(SelectionStrategy):
    """Select the ``n`` candidates with maximal similarity."""

    def __init__(self, n: int = 1):
        if n < 1:
            raise CombinationError(f"MaxN requires n >= 1, got {n}")
        self.n = int(n)
        self.name = f"MaxN({self.n})"

    def mask(self, values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        keep = np.zeros(values.shape, dtype=bool)
        if self.n == 1:
            # argmax returns the first maximum: with the columns permuted
            # into rank order, that is the lowest-ranked of tied candidates.
            by_rank = np.argsort(ranks)
            rows = np.arange(len(values))
            best = by_rank[values[:, by_rank].argmax(axis=1)]
            keep[rows, best] = values[rows, best] > 0.0
            return keep
        if self.n >= values.shape[1]:
            return values > 0.0
        order = np.lexsort((np.broadcast_to(ranks, values.shape), -values))
        np.put_along_axis(keep, order[:, : self.n], True, axis=1)
        return keep & (values > 0.0)


class MaxDelta(SelectionStrategy):
    """Select the best candidate plus all candidates within a tolerance of it.

    The tolerance ``delta`` is interpreted relative to the best similarity when
    ``relative`` is true (the paper's evaluation uses relative deltas of
    0.01 - 0.1), otherwise as an absolute difference.
    """

    def __init__(self, delta: float = 0.02, relative: bool = True):
        if delta < 0:
            raise CombinationError(f"MaxDelta requires a non-negative delta, got {delta}")
        self.delta = float(delta)
        self.relative = bool(relative)
        kind = "rel" if self.relative else "abs"
        self.name = f"Delta({self.delta:g},{kind})"

    def mask(self, values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        best = values.max(axis=1, keepdims=True)
        tolerance = best * self.delta if self.relative else self.delta
        return (values > 0.0) & (values >= best - tolerance)


class Threshold(SelectionStrategy):
    """Select every candidate whose similarity is at least ``t``."""

    def __init__(self, threshold: float = 0.5):
        if not 0.0 < threshold <= 1.0:
            raise CombinationError(f"Threshold requires 0 < t <= 1, got {threshold}")
        self.threshold = float(threshold)
        self.name = f"Thr({self.threshold:g})"

    def mask(self, values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        return (values > 0.0) & (values >= self.threshold)


class CombinedSelection(SelectionStrategy):
    """Keep only candidates accepted by every constituent strategy.

    This realises the paper's combined criteria such as
    ``Threshold(0.5) + MaxN(1)`` and ``Threshold(0.5) + Delta(0.02)``.
    """

    def __init__(self, strategies: Sequence[SelectionStrategy]):
        flattened: List[SelectionStrategy] = []
        for strategy in strategies:
            if isinstance(strategy, CombinedSelection):
                flattened.extend(strategy.strategies)
            else:
                flattened.append(strategy)
        if len(flattened) < 2:
            raise CombinationError("CombinedSelection requires at least two strategies")
        self.strategies: Tuple[SelectionStrategy, ...] = tuple(flattened)
        self.name = "+".join(str(s) for s in self.strategies)

    def mask(self, values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        return np.logical_and.reduce([s.mask(values, ranks) for s in self.strategies])


#: The paper's default selection: Threshold(0.5) combined with Delta(0.02).
def default_selection() -> SelectionStrategy:
    """The default selection strategy identified in Section 7.2."""
    return CombinedSelection([Threshold(0.5), MaxDelta(0.02)])

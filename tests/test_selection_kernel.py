"""Differential test: the array selection kernel against the list-based oracle.

Random matrices with quantized values (so ties are common), duplicate name
tuples on both axes, all-zero rows and columns and every shape class are run
through every direction x selection.  The selected triples, their combined
similarities and the ranked candidate lists must equal the oracle's
bit for bit (``float.hex``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import selection_oracle as oracle
from repro.combination.combined import AVERAGE_COMBINED, DICE_COMBINED
from repro.combination.direction import BOTH, LARGE_SMALL, SMALL_LARGE
from repro.combination.matrix import SimilarityMatrix, name_ranks
from repro.combination.selection import MaxDelta, MaxN, Threshold
from repro.model.builder import SchemaBuilder

DIRECTIONS = (BOTH, LARGE_SMALL, SMALL_LARGE)
SELECTIONS = (
    MaxN(1),
    MaxN(2),
    MaxN(3),
    MaxDelta(0.02),
    MaxDelta(0.25),
    MaxDelta(0.1, relative=False),
    Threshold(0.5),
    Threshold(0.5) + MaxDelta(0.02),
    Threshold(0.3) + MaxN(1),
    MaxN(2) + MaxDelta(0.2, relative=False),
)
#: Few distinct levels, several of them close together, so ties are common.
LEVELS = (0.0, 0.0, 0.1, 0.3, 0.5, 0.5 + 2**-40, 0.7, 0.71, 0.9, 1.0)
NAMES = ("a", "b", "c")


def _paths(root, names, order):
    """Leaf paths named ``names`` (duplicates allowed), listed in ``order``."""
    builder = SchemaBuilder(root)
    with builder.inner("G"):
        builder.leaves(*names)
    leaves = builder.build().leaf_paths()
    return [leaves[k] for k in order]


def _hexed(triples):
    return [(s, t, float(v).hex()) for s, t, v in triples]


def check_against_oracle(source_names, target_names, values, source_order, target_order):
    matrix = SimilarityMatrix(
        _paths("S", source_names, source_order), _paths("T", target_names, target_order), values
    )
    rows, columns = matrix.shape
    for i in range(rows):
        assert _hexed_ranked(matrix.ranked_targets(matrix.source_paths[i])) == _hexed_ranked(
            oracle.ranked_targets(matrix, i)
        )
    for j in range(columns):
        assert _hexed_ranked(matrix.ranked_sources(matrix.target_paths[j])) == _hexed_ranked(
            oracle.ranked_sources(matrix, j)
        )
    for selection in SELECTIONS:
        ranked = oracle.ranked_targets(matrix, 0)
        assert selection.select(ranked) == oracle.select(selection, ranked), selection
        for direction in DIRECTIONS:
            got = direction.select_pairs(matrix, selection)
            expected = oracle.select_pairs(direction, matrix, selection)
            assert _hexed(got) == _hexed(expected), (direction, selection)
            for combined in (AVERAGE_COMBINED, DICE_COMBINED):
                assert (
                    combined.combine(got, rows, columns).hex()
                    == combined.combine(expected, rows, columns).hex()
                )


def _hexed_ranked(ranked):
    return [(path, float(value).hex()) for path, value in ranked]


@st.composite
def cases(draw):
    rows = draw(st.integers(1, 7))
    columns = draw(st.integers(1, 7))
    source_names = draw(st.lists(st.sampled_from(NAMES), min_size=rows, max_size=rows))
    target_names = draw(st.lists(st.sampled_from(NAMES), min_size=columns, max_size=columns))
    values = np.array(
        draw(st.lists(st.sampled_from(LEVELS), min_size=rows * columns, max_size=rows * columns)),
        dtype=float,
    ).reshape(rows, columns)
    values[draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), :] = 0.0
    values[:, draw(st.lists(st.booleans(), min_size=columns, max_size=columns))] = 0.0
    source_order = draw(st.permutations(range(rows)))
    target_order = draw(st.permutations(range(columns)))
    return source_names, target_names, values, source_order, target_order


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cases())
def test_kernel_matches_oracle(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (1, 6), (6, 1), (1, 1), (12, 12)])
@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_oracle_on_shape_classes(shape, seed):
    rng = np.random.default_rng(seed)
    rows, columns = shape
    values = rng.choice(LEVELS, size=shape)
    values[rng.random(rows) < 0.2, :] = 0.0
    values[:, rng.random(columns) < 0.2] = 0.0
    check_against_oracle(
        list(rng.choice(NAMES, size=rows)),
        list(rng.choice(NAMES, size=columns)),
        values,
        list(rng.permutation(rows)),
        list(rng.permutation(columns)),
    )


def test_name_ranks_strict_and_dense():
    paths = _paths("S", ["b", "a", "b", "c", "a"], range(5))
    ranks = name_ranks(paths)
    assert ranks.strict.tolist() == [2, 0, 3, 4, 1]
    assert ranks.dense.tolist() == [1, 0, 1, 2, 0]


def test_duplicate_names_interleave_by_target_name():
    """Pairs of same-named sources are ordered by target name, not by source."""
    sources = _paths("S", ["x", "x"], range(2))
    targets = _paths("T", ["a", "b", "c", "d"], [3, 2, 1, 0])  # names d, c, b, a
    values = np.array([[0.0, 0.9, 0.0, 0.8], [0.7, 0.0, 0.6, 0.0]])
    matrix = SimilarityMatrix(sources, targets, values)
    pairs = BOTH.select_pairs(matrix, Threshold(0.5))
    assert [(sources.index(s), t.name) for s, t, _ in pairs] == [
        (0, "a"), (1, "b"), (0, "c"), (1, "d")
    ]


def test_select_on_empty_list():
    for selection in SELECTIONS:
        assert selection.select([]) == []

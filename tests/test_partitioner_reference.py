"""Differential test: the mask-free search against the mask-based original.

`reference_greedy` and `reference_multi_restart` are the earlier
construction and restart loop, kept as they were: every row is scored
with its own `bincount`, rows are shuffled with one `next_below` draw per
position, and every restart is scored exactly through
`result_from_assignment`. The search in `partitioner` must give the same
assignments and bit-equal metrics on a seeded corpus.
"""

from dataclasses import replace

import numpy as np
import pytest

from blockprune.core import (
    PartitionAssignment,
    WeightMatrix,
    partition_capacities,
    result_from_assignment,
)
from blockprune.partitioner import (
    _abs_weights,
    _check_p,
    _greedy_assignment,
    _top_columns,
    greedy_partition,
    multi_restart,
)
from blockprune.rng import SplitMix64, stream_element


def reference_permutation(seed, n):
    rng = SplitMix64(seed)
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def reference_greedy(weights, p, seed):
    rows, cols = weights.rows, weights.cols
    _check_p(rows, cols, p)
    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    abs_w = np.abs(weights.data)

    order = reference_permutation(seed, rows)
    row_of = np.full(rows, -1, dtype=np.int64)
    col_of = np.full(cols, -1, dtype=np.int64)
    row_counts = np.zeros(p, dtype=np.int64)
    founded = 0

    for idx in range(rows):
        r = int(order[idx])
        abs_row = abs_w[r]
        remaining_rows = rows - idx
        must_found = founded < p and remaining_rows == p - founded

        best_k = -1
        best_score = -1.0
        if not must_found:
            assigned = col_of >= 0
            if founded and assigned.any():
                scores = np.bincount(
                    col_of[assigned], weights=abs_row[assigned], minlength=founded
                )
                for k in range(founded):
                    if row_counts[k] < row_caps[k] and scores[k] > best_score:
                        best_k = k
                        best_score = scores[k]

        found_here = must_found
        free_cols = None
        if not found_here and founded < p:
            free_cols = np.flatnonzero(col_of < 0)
            cap = col_caps[founded]
            top = np.partition(abs_row[free_cols], len(free_cols) - cap)[-cap:]
            found_here = float(top.sum()) > best_score

        if found_here:
            if free_cols is None:
                free_cols = np.flatnonzero(col_of < 0)
            chosen = _top_columns(abs_row, free_cols, col_caps[founded])
            col_of[chosen] = founded
            row_of[r] = founded
            row_counts[founded] += 1
            founded += 1
        else:
            row_of[r] = best_k
            row_counts[best_k] += 1

    assignment = PartitionAssignment(p=p, row_of=row_of, col_of=col_of)
    return result_from_assignment(weights, assignment, seed=seed, restarts=1)


def reference_multi_restart(weights, p, restarts, seed):
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        res = reference_greedy(weights, p, stream_element(seed, r))
        if best is None or res.weight_loss < best.weight_loss:
            best = res
    return replace(best, seed=seed, restarts=restarts)


SHAPES = [(5, 5), (6, 9), (9, 6), (17, 13), (40, 64), (128, 97), (512, 515)]
KINDS = ["uniform", "gauss", "ties", "near_ties"]
SEEDS = [0, 7, 2**64 - 1]


def corpus_matrix(rows, cols, kind):
    rng = np.random.default_rng([rows, cols, KINDS.index(kind)])
    if kind == "uniform":
        data = rng.uniform(-1.0, 1.0, (rows, cols))
    elif kind == "gauss":
        data = rng.normal(0.0, 1.0, (rows, cols))
    else:  # integer values in [-2, 2]: many equal scores and losses
        data = rng.integers(-2, 3, (rows, cols)).astype(np.float64)
        if kind == "near_ties":
            # Losses that differ by far less than the ranking margin, so
            # the exact pass, not the tracked weight, picks the restart.
            data += rng.uniform(0.0, 1e-9, (rows, cols))
    return WeightMatrix(data)


def assert_same(got, want):
    assert (got.assignment.row_of == want.assignment.row_of).all()
    assert (got.assignment.col_of == want.assignment.col_of).all()
    assert got.assignment.p == want.assignment.p
    assert got.weight_loss == want.weight_loss
    assert got.retained_abs_weight == want.retained_abs_weight
    assert got.seed == want.seed
    assert got.restarts == want.restarts


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows,cols", SHAPES)
def test_search_matches_mask_based_reference(rows, cols, kind):
    w = corpus_matrix(rows, cols, kind)
    abs_w = _abs_weights(w)
    # Small layers take more restarts: there, equal losses are common.
    restarts = 2 if rows * cols > 10_000 else 6
    for p in range(1, min(8, rows, cols) + 1):
        for seed in SEEDS:
            want = reference_greedy(w, p, seed)
            assert_same(greedy_partition(w, p, seed), want)
            _, tracked = _greedy_assignment(abs_w, p, seed)
            assert tracked == pytest.approx(want.retained_abs_weight,
                                            rel=1e-12, abs=1e-300)
            assert_same(multi_restart(w, p, restarts, seed),
                        reference_multi_restart(w, p, restarts, seed))


def test_equal_losses_keep_the_lowest_restart():
    # Every balanced assignment of an all-equal layer loses the same
    # weight, so each restart ties and restart 0 must be kept.
    w = WeightMatrix(np.ones((12, 10)))
    for p in (2, 3, 4):
        got = multi_restart(w, p, 8, seed=3)
        assert_same(got, reference_multi_restart(w, p, 8, seed=3))
        first = greedy_partition(w, p, stream_element(3, 0)).assignment
        assert (got.assignment.row_of == first.row_of).all()

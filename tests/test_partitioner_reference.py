"""Differential tests: the search and refinement against their originals.

`reference_greedy` and `reference_multi_restart` are the earlier
construction and restart loop, kept as they were: every row is scored
with its own `bincount`, rows are shuffled with one `next_below` draw per
position, and every restart is scored exactly through
`result_from_assignment`. The search in `partitioner` must give the same
assignments and bit-equal metrics on a seeded corpus.

`_greedy_assignment` is the construction that ran one restart at a time,
with its helpers `_top_columns` and `_best_open`: a Python loop over the
rows visited while founding, then one over the rows left. It shuffles
with the pure-Python `reference_permutation`, so it checks the batched
shuffle too. The lockstep constructor must give every restart the same
labels and a bit-equal tracked weight.

`reference_refine_swaps` is the earlier refinement, kept as it was: a
Python loop over every pair of rows and every pair of columns on each
pass. `refine_swaps` must apply the same swap sequence.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from blockprune.core import (
    PartitionAssignment,
    PruneResult,
    WeightMatrix,
    partition_capacities,
    result_from_assignment,
)
from blockprune.partitioner import (
    _BLOCK_ELEMENTS,
    _abs_weights,
    _check_p,
    _construct,
    greedy_partition,
    multi_restart,
    refine_swaps,
)
from blockprune.rng import SplitMix64, stream_array, stream_element


def _top_columns(abs_row: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest |w| among candidates; ties to lowest index."""
    vals = abs_row[candidates]
    order = np.lexsort((candidates, -vals))
    return candidates[order[:k]]


def _best_open(scores: list, row_counts: list, row_caps: tuple):
    """(partition, score) of the best-scoring partition with a free row.

    Strict `>` from a score of -1 keeps ties on the lowest index; with no
    free row the result is (-1, -1.0).
    """
    best_k, best_score = -1, -1.0
    for k, score in enumerate(scores):
        if row_counts[k] < row_caps[k] and score > best_score:
            best_k, best_score = k, score
    return best_k, best_score


def reference_permutation(seed, n):
    rng = SplitMix64(seed)
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _greedy_assignment(abs_w: np.ndarray, p: int, seed: int) -> tuple:
    """One greedy construction: (assignment, tracked retained weight).

    The tracked weight is the sum of the winning scores, so it equals the
    retained |W| up to summation-order rounding. Rows visited after the
    last founding are scored in one pass over the columns of abs_w, in
    index order: the order `np.bincount` adds a row's magnitudes in, so
    every score is bit-identical to scoring the row on its own.
    """
    rows, cols = abs_w.shape
    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)

    order = reference_permutation(seed, rows)
    row_of = np.full(rows, -1, dtype=np.int64)
    col_of = np.full(cols, -1, dtype=np.int64)
    row_counts = [0] * p
    founded = 0
    retained = 0.0

    idx = 0
    while founded < p:
        r = int(order[idx])
        abs_row = abs_w[r]
        must_found = rows - idx == p - founded

        best_k, best_score = -1, -1.0
        if founded and not must_found:
            assigned = col_of >= 0
            scores = np.bincount(
                col_of[assigned], weights=abs_row[assigned], minlength=founded
            )
            best_k, best_score = _best_open(scores.tolist(), row_counts, row_caps)

        free_cols = np.flatnonzero(col_of < 0)
        found_here = must_found
        if not found_here:
            cap = col_caps[founded]
            top = np.partition(abs_row[free_cols], len(free_cols) - cap)[-cap:]
            # Founding loses ties to any founded partition.
            found_here = float(top.sum()) > best_score

        if found_here:
            chosen = _top_columns(abs_row, free_cols, col_caps[founded])
            col_of[chosen] = founded
            row_of[r] = founded
            row_counts[founded] += 1
            retained += float(abs_row[chosen].sum())
            founded += 1
        else:
            row_of[r] = best_k
            row_counts[best_k] += 1
            retained += best_score
        idx += 1

    # Column sets are frozen: score every row against every partition.
    rest = order[idx:]
    if len(rest):
        score = np.zeros((p, rows))
        abs_t = abs_w.T
        for j, k in enumerate(col_of.tolist()):
            score[k] += abs_t[j]
        labels = []
        for row_scores in score[:, rest].T.tolist():
            best_k, best_score = _best_open(row_scores, row_counts, row_caps)
            labels.append(best_k)
            row_counts[best_k] += 1
            retained += best_score
        row_of[rest] = labels

    return PartitionAssignment(p=p, row_of=row_of, col_of=col_of), retained


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


def reference_refine_swaps(
    weights: WeightMatrix, result: PruneResult, max_passes: int = 100
) -> PruneResult:
    """Polish a result by greedily swapping node pairs across partitions.

    Each pass applies the single best loss-reducing swap of two rows or
    two columns that live in different partitions; swaps preserve group
    sizes, so feasibility is maintained. Stops when no swap improves or
    after max_passes swaps. The returned loss never exceeds the input's.
    """
    p = result.assignment.p
    if p == 1 or max_passes < 1:
        return result
    abs_w = np.abs(weights.data)
    row_of = result.assignment.row_of.copy()
    col_of = result.assignment.col_of.copy()

    def one_hot(labels, n):
        m = np.zeros((len(labels), n))
        m[np.arange(len(labels)), labels] = 1.0
        return m

    for _ in range(max_passes):
        # row_gain[i, k]: retained weight of row i if it lived in partition k.
        row_gain = abs_w @ one_hot(col_of, p)
        col_gain = abs_w.T @ one_hot(row_of, p)

        best = (0.0, None)
        for i, j in combinations(range(len(row_of)), 2):
            a, b = row_of[i], row_of[j]
            if a == b:
                continue
            g = row_gain[i, b] + row_gain[j, a] - row_gain[i, a] - row_gain[j, b]
            if g > best[0]:
                best = (g, ("row", i, j))
        for i, j in combinations(range(len(col_of)), 2):
            a, b = col_of[i], col_of[j]
            if a == b:
                continue
            g = col_gain[i, b] + col_gain[j, a] - col_gain[i, a] - col_gain[j, b]
            if g > best[0]:
                best = (g, ("col", i, j))

        if best[1] is None:
            break
        kind, i, j = best[1]
        labels = row_of if kind == "row" else col_of
        labels[i], labels[j] = labels[j], labels[i]

    assignment = PartitionAssignment(p=p, row_of=row_of, col_of=col_of)
    refined = result_from_assignment(
        weights, assignment, seed=result.seed, restarts=result.restarts
    )
    # Guard against float drift in the gain bookkeeping: never get worse.
    return refined if refined.weight_loss <= result.weight_loss else result


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
            _, _, tracked = _construct(abs_w, p, np.array([seed], dtype=np.uint64))
            assert tracked[0] == pytest.approx(want.retained_abs_weight,
                                               rel=1e-12, abs=1e-300)
            assert tracked[0] == _greedy_assignment(abs_w, p, seed)[1]
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


def edge_matrix(rows, cols, kind):
    if kind == "ones":
        # Founding scores tie the best open partition's score.
        return WeightMatrix(np.ones((rows, cols)))
    if kind == "one_column":
        # Only column 0 carries weight, so a row joins an open partition
        # whenever there is one, and founding waits until it is forced.
        data = np.zeros((rows, cols))
        data[:, 0] = np.arange(1, rows + 1)
        return WeightMatrix(data)
    return corpus_matrix(rows, cols, kind)


def assert_lockstep_matches(w, p, restarts, seed):
    abs_w = _abs_weights(w)
    row_of, col_of, tracked = _construct(abs_w, p, stream_array(seed, restarts))
    for r in range(restarts):
        want, want_tracked = _greedy_assignment(abs_w, p, stream_element(seed, r))
        assert (row_of[r] == want.row_of).all(), r
        assert (col_of[r] == want.col_of).all(), r
        assert tracked[r] == want_tracked, r
    assert_same(multi_restart(w, p, restarts, seed),
                reference_multi_restart(w, p, restarts, seed))
    return tracked


@pytest.mark.parametrize("rows,cols,kind,p,restarts", [
    (7, 5, "gauss", 1, 4),  # p = 1
    (6, 11, "uniform", 6, 8),  # p = min(rows, cols), rows < cols
    (3, 40, "ties", 3, 8),
    (13, 4, "gauss", 4, 8),  # p = min(rows, cols), rows > cols
    (40, 3, "ties", 3, 8),
    (10, 10, "one_column", 7, 8),  # founding forced on the last 4 rows
    (12, 10, "ones", 2, 8),
    (12, 10, "ones", 4, 8),
    (17, 13, "ties", 3, 1),  # one restart
    (17, 13, "ties", 3, 32),  # one indexed add per column for the block
    (9, 6, "near_ties", 2, 1),
    (6, 4096, "ties", 3, 40),  # founding runs in blocks of 16 restarts
])
def test_lockstep_matches_per_restart_construction(rows, cols, kind, p, restarts):
    w = edge_matrix(rows, cols, kind)
    for seed in SEEDS:
        assert_lockstep_matches(w, p, restarts, seed)
    if kind == "one_column":
        # Each of the last 4 rows visited founds a one-row partition.
        order = reference_permutation(stream_element(5, 0), rows)
        row_of = greedy_partition(w, p, stream_element(5, 0)).assignment.row_of
        assert row_of[order[-4:]].tolist() == [3, 4, 5, 6]


def test_lockstep_ties_across_restart_blocks():
    # Far more restarts than one block holds, on a layer of many equal
    # losses: the lowest tied restart must win across block boundaries.
    w = corpus_matrix(6, 6, "ties")
    p, restarts = 3, 5000
    block = _BLOCK_ELEMENTS // (p * 6)  # restarts per block after founding
    assert restarts > block
    tracked = assert_lockstep_matches(w, p, restarts, seed=11)
    near = np.flatnonzero(tracked == tracked.max())
    assert near[0] < block <= near[-1]


REFINE_SHAPES = [(2, 3), (5, 5), (6, 9), (9, 6), (17, 13), (40, 64), (64, 64),
                 (128, 160)]


def balanced_start(rows, cols, p, seed):
    """A seeded random balanced assignment: far from optimal, many swaps."""
    rng = np.random.default_rng(seed)
    return PartitionAssignment(p=p, row_of=rng.permutation(np.arange(rows) % p),
                               col_of=rng.permutation(np.arange(cols) % p))


def reference_trajectory(w, base, limit):
    """Results of the reference after 1, 2, ... passes, to convergence.

    A pass reads nothing but the assignment, so k one-pass calls in a row
    make the same swaps as one k-pass call. The two also return the same
    result as long as no call falls back to its input, which is asserted.
    """
    out, cur = [], base
    while len(out) < limit:
        nxt = reference_refine_swaps(w, cur, max_passes=1)
        assert nxt is not cur  # the float-drift guard never fired
        out.append(nxt)
        if ((nxt.assignment.row_of == cur.assignment.row_of).all()
                and (nxt.assignment.col_of == cur.assignment.col_of).all()):
            break
        cur = nxt
    return out


def assert_same_refinement(w, base, limit):
    for k, want in enumerate(reference_trajectory(w, base, limit), start=1):
        got = refine_swaps(w, base, max_passes=k)
        assert (got.assignment.row_of == want.assignment.row_of).all(), k
        assert (got.assignment.col_of == want.assignment.col_of).all(), k
        assert got.weight_loss == want.weight_loss, k


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows,cols", REFINE_SHAPES)
def test_refine_matches_pair_loop_reference(rows, cols, kind):
    w = corpus_matrix(rows, cols, kind)
    # Small layers are refined to convergence from a greedy and a random
    # start. On larger ones the first passes pin the order in which the
    # scan picks swaps just as well, at a fraction of the pair loop's cost.
    small = rows * cols <= 300
    limit = 200 if small else 10 if rows * cols <= 4096 else 6
    for p in range(2, min(8, rows, cols) + 1):
        assert_same_refinement(w, greedy_partition(w, p, seed=p), limit)
        if small:
            base = result_from_assignment(w, balanced_start(rows, cols, p, p),
                                          seed=0, restarts=1)
            assert_same_refinement(w, base, limit)


def test_refine_overflowing_gains_never_win():
    # Row sums of these magnitudes overflow to inf, so some gains are
    # inf - inf = NaN; the pair loop's `>` never picks one.
    w = WeightMatrix(corpus_matrix(12, 10, "ties").data * 8e307)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in (2, 3, 4):
            base = result_from_assignment(w, balanced_start(12, 10, p, p),
                                          seed=0, restarts=1)
            assert_same_refinement(w, base, 50)

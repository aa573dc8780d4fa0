"""Greedy randomized search for minimum-weight-loss balanced partitions.

The constructor processes rows in a seeded random order. The first row
founds partition 0 and claims the columns with the largest magnitudes in
that row, as many as the partition's column capacity. Every later row is
scored against each founded partition that still has row capacity (score:
sum of the row's magnitudes over the partition's column set) and against
founding the next partition (score: best attainable sum over columns not
yet claimed); the highest score wins. Founding is forced whenever exactly
enough rows remain to found the missing partitions. Column sets are fixed
at founding time and never reopened.

Row and column capacities are consumed in founding order, largest first,
so the first-founded partition is the largest on both sides. All ties
break toward the lowest index (column, partition, or restart), making
every run a pure function of (weights, p, seed).

Founding usually ends within the first few dozen rows visited. From then
on the column sets are frozen, so the scores of all remaining rows come
from one pass over the columns, added in the same order as scoring each
row alone, and so bit-identical to it.

A multi-restart wrapper keeps the best of many independent constructions.
Each construction tracks its retained weight (the sum of its winning
scores), so restarts are ranked without building a mask; the canonical
loss is computed only for the restarts that tie the best within a margin
far wider than rounding, so the result is that of scoring every restart
exactly. An optional local search polishes a result by swapping node
pairs across partitions, and a brute-force oracle computes the exact
optimum on small instances for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .core import (
    PartitionAssignment,
    PruneResult,
    WeightMatrix,
    mask_of,
    partition_capacities,
    result_from_assignment,
    weight_loss,
)
from .rng import SplitMix64, stream_element

DEFAULT_RESTARTS = 32
DEFAULT_ORACLE_BUDGET = 10_000_000


class OracleBudgetError(ValueError):
    """Raised when the exact oracle would enumerate too many candidates."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exact optimum over all feasible balanced assignments."""

    optimum_loss: float
    optimum_assignment: PartitionAssignment
    enumerated: int


def _check_p(rows: int, cols: int, p: int):
    if p < 1 or p > min(rows, cols):
        raise ValueError(
            f"partition count {p} out of range [1, {min(rows, cols)}] "
            f"for a {rows}x{cols} layer"
        )


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


def _abs_weights(weights: WeightMatrix) -> np.ndarray:
    """|W| in column-major order, so every column is one contiguous run."""
    return np.abs(weights.data.T, order="C").T


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

    order = SplitMix64(seed).permutation(rows)
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


def greedy_partition(weights: WeightMatrix, p: int, seed: int) -> PruneResult:
    """One full greedy construction from a seeded random row order."""
    _check_p(weights.rows, weights.cols, p)
    assignment, _ = _greedy_assignment(_abs_weights(weights), p, seed)
    return result_from_assignment(weights, assignment, seed=seed, restarts=1)


def multi_restart(
    weights: WeightMatrix, p: int, restarts: int, seed: int
) -> PruneResult:
    """Best of `restarts` independent greedy runs.

    Restart r uses stream element r of the master seed, so restarts are
    mutually independent and may run in any order; the kept result is the
    minimum loss with ties broken by lowest restart index.

    Restarts are ranked by the retained weight each construction tracks,
    with no mask built. The canonical `weight_loss` is then computed only
    for restarts whose tracked weight lies within a margin of the best,
    far wider than any rounding in the tracking, so the kept restart is
    the one a full exact scoring of every restart would keep.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _check_p(weights.rows, weights.cols, p)
    abs_w = _abs_weights(weights)
    margin = 1e-6 * max(float(abs_w.sum()), 1.0)
    runs = [
        _greedy_assignment(abs_w, p, stream_element(seed, r))
        for r in range(restarts)
    ]
    # Free |W| before the exact pass allocates its own n x n temporaries.
    del abs_w
    best = max(tracked for _, tracked in runs)
    near = [a for a, tracked in runs if tracked >= best - margin]
    winner = near[0]
    if len(near) > 1:
        winner = min(near, key=lambda a: weight_loss(weights, mask_of(a)))
    return result_from_assignment(weights, winner, seed=seed, restarts=restarts)


def _one_hot(labels: np.ndarray, n: int) -> np.ndarray:
    m = np.zeros((len(labels), n))
    m[np.arange(len(labels)), labels] = 1.0
    return m


def _best_swap(gain: np.ndarray, labels: np.ndarray, p: int) -> tuple:
    """(gain, i, j) of the best swap of two nodes on one side.

    gain[i, k] is the retained weight of node i if it lived in partition
    k. Swapping nodes i < j of partitions a != b gains
    ((gain[i, b] + gain[j, a]) - gain[i, a]) - gain[j, b], evaluated in
    that order. The best is the largest positive gain, ties to the lowest
    (i, j); with no positive gain the result is (0.0, -1, -1). Each
    ordered partition pair (a, b) is one block of pairs: its nodes are in
    index order, so the first maximum in the block is its lowest (i, j).
    """
    members = [np.flatnonzero(labels == k) for k in range(p)]
    best = (0.0, -1, -1)
    for a, ia in enumerate(members):
        ga = gain[ia]
        for b, ib in enumerate(members):
            if a == b or not (len(ia) and len(ib)):
                continue
            gb = gain[ib]
            g = ga[:, b, None] + gb[:, a]
            g -= ga[:, a, None]
            g -= gb[:, b]
            g[ia[:, None] > ib] = 0.0  # the pair belongs to block (b, a)
            np.fmax(g, 0.0, out=g)  # a NaN gain never wins
            k = int(np.argmax(g))
            top = float(g.flat[k])
            i, j = int(ia[k // len(ib)]), int(ib[k % len(ib)])
            if top > best[0] or (top == best[0] > 0.0 and (i, j) < best[1:]):
                best = (top, i, j)
    return best


def refine_swaps(
    weights: WeightMatrix, result: PruneResult, max_passes: int = 100
) -> PruneResult:
    """Polish a result by greedily swapping node pairs across partitions.

    Each pass applies the single best loss-reducing swap of two rows or
    two columns that live in different partitions; swaps preserve group
    sizes, so feasibility is maintained. A column swap is taken only if it
    gains strictly more than the best row swap. Stops when no swap
    improves or after max_passes swaps. The returned loss never exceeds
    the input's.

    The gains of one side depend only on the other side's labels, so a
    row swap leaves the row gains as they are and only the column gains
    are recomputed, and the other way round.
    """
    p = result.assignment.p
    if p == 1 or max_passes < 1:
        return result
    abs_w = np.abs(weights.data)
    row_of = result.assignment.row_of.copy()
    col_of = result.assignment.col_of.copy()

    # row_gain[i, k]: retained weight of row i if it lived in partition k.
    row_gain = abs_w @ _one_hot(col_of, p)
    col_gain = abs_w.T @ _one_hot(row_of, p)
    for _ in range(max_passes):
        row_best = _best_swap(row_gain, row_of, p)
        col_best = _best_swap(col_gain, col_of, p)
        if col_best[0] > row_best[0]:
            _, i, j = col_best
            col_of[[i, j]] = col_of[[j, i]]
            row_gain = abs_w @ _one_hot(col_of, p)
        elif row_best[0] > 0.0:
            _, i, j = row_best
            row_of[[i, j]] = row_of[[j, i]]
            col_gain = abs_w.T @ _one_hot(row_of, p)
        else:
            break

    assignment = PartitionAssignment(p=p, row_of=row_of, col_of=col_of)
    refined = result_from_assignment(
        weights, assignment, seed=result.seed, restarts=result.restarts
    )
    # Guard against float drift in the gain bookkeeping: never get worse.
    return refined if refined.weight_loss <= result.weight_loss else result


def _grouping_count(n: int, caps: tuple) -> int:
    total = math.factorial(n)
    for c in caps:
        total //= math.factorial(c)
    mult: dict = {}
    for c in caps:
        mult[c] = mult.get(c, 0) + 1
    for m in mult.values():
        total //= math.factorial(m)
    return total


def _split_count(n: int, caps: tuple) -> int:
    total = math.factorial(n)
    for c in caps:
        total //= math.factorial(c)
    return total


def _groupings(items: tuple, caps: tuple, prev_cap: int = -1, prev_min: int = -1):
    """Yield set partitions of items into groups sized per caps.

    Label symmetry between equal-size groups is removed by requiring
    consecutive groups of the same size to have increasing minima, so
    each unordered grouping appears exactly once.
    """
    if not caps:
        yield ()
        return
    c = caps[0]
    for group in combinations(items, c):
        if c == prev_cap and group[0] <= prev_min:
            continue
        chosen = set(group)
        remaining = tuple(x for x in items if x not in chosen)
        for tail in _groupings(remaining, caps[1:], c, group[0]):
            yield (group,) + tail


@lru_cache(maxsize=None)
def _labeled_splits(n: int, caps: tuple) -> np.ndarray:
    """All assignments of n items to slots with the given sizes.

    Returns an array of shape (count, n) holding the slot index of each
    item, in a deterministic enumeration order.
    """
    out: list = []
    labels = np.empty(n, dtype=np.int64)

    def rec(items: tuple, slot: int):
        if slot == len(caps):
            out.append(labels.copy())
            return
        for group in combinations(items, caps[slot]):
            labels[list(group)] = slot
            chosen = set(group)
            rec(tuple(x for x in items if x not in chosen), slot + 1)

    rec(tuple(range(n)), 0)
    return np.array(out)


def oracle_enumeration_size(rows: int, cols: int, p: int) -> int:
    """Candidate count the brute-force oracle would examine."""
    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    seqs = len(set(permutations(col_caps)))
    return _grouping_count(rows, row_caps) * seqs * _split_count(cols, col_caps)


def brute_force_partition(
    weights: WeightMatrix, p: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> OracleResult:
    """Exact minimizer of the pruning loss over all balanced assignments.

    Enumerates every unordered row grouping with the balanced capacity
    multiset, every assignment of columns to capacity slots, and every
    pairing of row capacities with column capacities (so a smaller row
    group may share a partition with a larger column group). Each
    distinct mask is examined exactly once.

    The scan scores candidates by total-minus-retained magnitude, then
    re-evaluates every near-tied candidate through the same loss function
    the greedy search uses, so the reported optimum compares exactly
    against search results.
    """
    rows, cols = weights.rows, weights.cols
    _check_p(rows, cols, p)
    estimate = oracle_enumeration_size(rows, cols, p)
    if estimate > budget:
        raise OracleBudgetError(
            f"instance too large for oracle: about {estimate} candidate "
            f"assignments exceed the budget of {budget}",
            estimate=estimate,
        )

    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    abs_w = np.abs(weights.data)
    total_abs = float(abs_w.sum())

    cap_seqs = sorted(set(permutations(col_caps)), reverse=True)
    splits = {seq: _labeled_splits(cols, seq) for seq in cap_seqs}
    col_range = np.arange(cols)

    groupings = list(_groupings(tuple(range(rows)), row_caps))

    # Pass 1: vectorized retained-weight scan to bound the optimum.
    retained_by = {}
    best_retained = -1.0
    for g, groups in enumerate(groupings):
        sums = np.stack([abs_w[list(grp)].sum(axis=0) for grp in groups])
        for seq in cap_seqs:
            retained = sums[splits[seq], col_range].sum(axis=1)
            retained_by[(g, seq)] = retained
            m = float(retained.max())
            if m > best_retained:
                best_retained = m

    # Pass 2: exact re-evaluation of every candidate close enough to the
    # scan optimum that summation-order rounding could matter.
    margin = 1e-6 * max(total_abs, 1.0)
    best_loss = math.inf
    witness = None
    enumerated = 0
    for g, groups in enumerate(groupings):
        row_of = np.empty(rows, dtype=np.int64)
        for k, grp in enumerate(groups):
            row_of[list(grp)] = k
        for seq in cap_seqs:
            retained = retained_by[(g, seq)]
            enumerated += len(retained)
            near = np.flatnonzero(retained >= best_retained - margin)
            for c_idx in near:
                assignment = PartitionAssignment(
                    p=p, row_of=row_of, col_of=splits[seq][c_idx]
                )
                loss = weight_loss(weights, mask_of(assignment))
                if loss < best_loss:
                    best_loss = loss
                    witness = assignment

    return OracleResult(
        optimum_loss=best_loss, optimum_assignment=witness, enumerated=enumerated
    )

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

All restarts are built together, in lockstep: each step visits the next
row of every restart still founding, and the state (labels, row counts,
founded count) is held in arrays with one row per restart. Both phases
run on blocks of restarts, so a step's temporaries hold a constant
number of elements, or those of one restart on a layer too large for
that.

Founding usually ends within the first few dozen rows visited. From then
on the column sets are frozen, so the scores of all remaining rows come
from one pass over the columns, added in the same order as scoring each
row alone, and so bit-identical to it. Until some partition fills, every
remaining row joins the lowest-index best open partition. So the rows
left are labelled in at most p rounds, each ending at a fill event: the
row that brings a partition to its row capacity and closes it.

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
from .rng import MASK64, batch_permutation, stream_array

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


def _abs_weights(weights: WeightMatrix) -> np.ndarray:
    """|W| in column-major order, so every column is one contiguous run."""
    return np.abs(weights.data.T, order="C").T


# Restarts are built in blocks whose temporaries hold at most this many
# elements (512 KB of floats): (restarts, cols) while founding, and
# (restarts, p, rows) scores after it. A block holds at least one
# restart, so the bound holds only while cols and p * rows are at most
# this; a larger layer's temporaries are those of one restart.
_BLOCK_ELEMENTS = 1 << 16


# The column pass adds each column of |W| to one score row per restart.
# A block of at least _INDEXED_ADD_RESTARTS restarts on a layer of fewer
# than _INDEXED_ADD_ROWS rows does that with one indexed add per column;
# otherwise each restart adds in place. An indexed add costs several
# plain adds per call, and its gather and scatter lose on long rows.
# Measured per restart on a 2-vCPU Xeon, indexed against plain: 512
# rows, 16 restarts 0.43 against 0.86 ms, but 8 restarts 0.57 against
# 0.52 ms and 1 restart 3.8 against 1.4 ms; 2048 rows, 16 restarts 6.1
# against 4.8 ms.
_INDEXED_ADD_RESTARTS = 16
_INDEXED_ADD_ROWS = 1024


def _construct(abs_w: np.ndarray, p: int, seeds: np.ndarray) -> tuple:
    """One greedy construction per uint64 seed, run in lockstep.

    Returns (row_of, col_of, tracked), shaped (R, rows), (R, cols) and
    (R,). tracked[r] is the sum of restart r's winning scores, in visit
    order: its retained |W| up to summation-order rounding.
    """
    rows, cols = abs_w.shape
    orders = batch_permutation(seeds, rows)
    row_of = np.full((len(seeds), rows), -1, dtype=np.int64)
    col_of = np.full((len(seeds), cols), -1, dtype=np.int64)
    counts = np.zeros((len(seeds), p), dtype=np.int64)
    tracked = np.zeros(len(seeds))
    # Each block is a slice, so the phases fill these arrays in place.
    step = max(1, _BLOCK_ELEMENTS // cols)
    for b in (slice(lo, lo + step) for lo in range(0, len(seeds), step)):
        _found_partitions(abs_w, p, orders[b], row_of[b], col_of[b], counts[b], tracked[b])
    step = max(1, _BLOCK_ELEMENTS // (p * rows))
    for b in (slice(lo, lo + step) for lo in range(0, len(seeds), step)):
        _assign_rest(abs_w, p, orders[b], row_of[b], col_of[b], counts[b], tracked[b])
    return row_of, col_of, tracked


def _found_partitions(abs_w, p, order, row_of, col_of, counts, retained):
    """Visit rows one step at a time until every restart has founded p.

    Each step takes the next row of every restart still founding. Every
    founded partition with a free row scores the row's sum over its
    columns; founding the next partition scores the sum of the row's
    largest free magnitudes. The best score wins and founding loses ties.
    Labels, row counts and retained weight are filled in place.
    """
    count, rows = order.shape
    row_caps = np.array(partition_capacities(rows, p))
    col_caps = partition_capacities(abs_w.shape[1], p)
    founded = np.zeros(count, dtype=np.int64)

    live = np.arange(count)
    t = 0
    while len(live):
        r = order[live, t]
        vals = abs_w[r]
        f = founded[live]
        labels = col_of[live]
        # One bincount over all restarts adds each row over each of its
        # partitions' columns in index order, as a bincount per row does.
        assigned = labels >= 0
        key = (np.arange(len(live))[:, None] * p + labels)[assigned]
        scores = np.bincount(key, weights=vals[assigned], minlength=len(live) * p)
        # Once only p - f rows are left, every founded partition is full
        # (each unfounded one still needs a row), so founding then wins.
        open_ = (np.arange(p) < f[:, None]) & (counts[live] < row_caps)
        scores = np.where(open_, scores.reshape(len(live), p), -1.0)
        lab = scores.argmax(axis=1)  # ties to the lowest partition
        gain = scores[np.arange(len(live)), lab]

        for fv in np.flatnonzero(np.bincount(f)):
            g = np.flatnonzero(f == fv)
            cap = col_caps[fv]
            free = np.nonzero(labels[g] < 0)[1].reshape(len(g), -1)
            free_vals = vals[g[:, None], free]
            top = np.partition(free_vals, free.shape[1] - cap, axis=1)[:, -cap:]
            # Founding loses ties; with no open partition gain is -1.
            won = top.sum(axis=1) > gain[g]
            g, top, free, free_vals = g[won], top[won], free[won], free_vals[won]
            # The cap largest |w|, ties to the lowest column: all above the
            # cap-th largest (top[:, 0]), then the first ones equal to it.
            above = free_vals > top[:, :1]
            ties = free_vals == top[:, :1]
            short = cap - above.sum(axis=1, keepdims=True)
            b, i = np.nonzero(above | (ties & (np.cumsum(ties, axis=1) <= short)))
            col_of[live[g[b]], free[b, i]] = fv
            lab[g] = fv
            # Summed largest first, as the picked columns come.
            desc = -np.sort(-top, axis=1)
            gain[g] = desc.sum(axis=1)
            founded[live[g]] += 1

        row_of[live, r] = lab
        counts[live, lab] += 1
        retained[live] += gain
        live = live[founded[live] < p]
        t += 1


def _assign_rest(abs_w, p, order, row_of, col_of, counts, retained):
    """Give every row left after founding its best open partition.

    Column sets are frozen now, so one pass over the columns scores every
    row against every partition, adding each row's magnitudes in column
    order, bit-equal to scoring it alone. A row's label is then the
    lowest-index argmax over the partitions still open, and the open set
    changes only when a partition fills. So each round commits the rows
    up to the first that fills a partition, closes it, and relabels only
    the rows that had chosen it: at most p rounds. Fills row_of in place
    and turns retained into the tracked weight.
    """
    count, rows = order.shape
    # Founding placed each restart's first counts.sum() rows visited.
    todo = np.arange(rows) >= counts.sum(axis=1)[:, None]
    if not todo.any():
        return  # every row was placed while founding, as when p == rows
    row_caps = np.array(partition_capacities(rows, p))
    score = np.zeros((count * p, rows))
    dest = (np.arange(count)[:, None] * p + col_of).T  # score row of column j
    indexed = count >= _INDEXED_ADD_RESTARTS and rows < _INDEXED_ADD_ROWS
    for col, to in zip(abs_w.T, dest):
        if indexed:
            score[to] += col  # one gather-add-scatter for the whole block
        else:
            for k in to.tolist():
                score[k] += col
    score = score.reshape(count, p, rows)
    score = np.take_along_axis(score, order[:, None, :], axis=2)  # visit order

    blk = np.arange(count)[:, None]
    pos = np.arange(rows)
    is_open = counts < row_caps
    lab = np.where(is_open[:, :, None], score, -1.0).argmax(axis=1)
    picks = np.zeros((count, rows))
    while todo.any():
        # The rows left of each partition in visit order, and so the row
        # at which each partition would fill; the first of those closes.
        key = np.where(todo, lab, p)
        by_label = np.argsort(key, axis=1, kind="stable")
        per_label = np.bincount((blk * (p + 1) + key).ravel(), minlength=count * (p + 1))
        per_label = per_label.reshape(count, p + 1)[:, :p]
        need = row_caps - counts
        nth = np.cumsum(per_label, axis=1) - per_label + need - 1
        fill_at = np.take_along_axis(by_label, np.minimum(nth, rows - 1), axis=1)
        fill_at = np.where(is_open & (per_label >= need), fill_at, rows)
        last = fill_at.min(axis=1)
        b, t = np.nonzero(todo & (pos <= last[:, None]))
        k = lab[b, t]
        row_of[b, order[b, t]] = k
        picks[b, t] = score[b, k, t]
        counts += np.bincount(b * p + k, minlength=count * p).reshape(count, p)
        todo[b, t] = False
        is_open = counts < row_caps
        # A closed partition leaves every other row's argmax as it was.
        b, t = np.nonzero(todo & ~is_open[blk, lab])
        lab[b, t] = np.where(is_open[b], score[b, :, t], -1.0).argmax(axis=1)

    # Zeros before each restart's first free row leave the sum exact, and
    # cumsum adds in visit order, as the row-by-row sum did.
    retained[:] = np.cumsum(np.hstack([retained[:, None], picks]), axis=1)[:, -1]


def greedy_partition(weights: WeightMatrix, p: int, seed: int) -> PruneResult:
    """One full greedy construction from a seeded random row order."""
    _check_p(weights.rows, weights.cols, p)
    seeds = np.array([seed & MASK64], dtype=np.uint64)
    row_of, col_of, _ = _construct(_abs_weights(weights), p, seeds)
    assignment = PartitionAssignment(p=p, row_of=row_of[0], col_of=col_of[0])
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
    row_of, col_of, tracked = _construct(abs_w, p, stream_array(seed, restarts))
    # Free |W| before the exact pass allocates its own n x n temporaries.
    del abs_w
    near = [
        PartitionAssignment(p=p, row_of=row_of[r], col_of=col_of[r])
        for r in np.flatnonzero(tracked >= tracked.max() - margin)
    ]
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


def _split_count(n: int, caps) -> int:
    """Ways to split n items into labeled groups sized per caps."""
    total = math.factorial(n)
    for c in caps:
        total //= math.factorial(c)
    return total


@lru_cache(maxsize=None)
def _labeled_splits(n: int, caps: tuple, unordered: bool = False) -> np.ndarray:
    """All assignments of n items to slots with the given sizes.

    Returns an array of shape (count, n) holding the slot index of each
    item, in a deterministic enumeration order. With `unordered`, slots
    of equal size are interchangeable and each grouping appears once:
    consecutive slots of the same size must have increasing minima.
    """
    out: list = []
    labels = np.empty(n, dtype=np.int64)

    def rec(items: tuple, slot: int, prev_min: int):
        if slot == len(caps):
            out.append(labels.copy())
            return
        for group in combinations(items, caps[slot]):
            if unordered and slot and caps[slot] == caps[slot - 1] and group[0] <= prev_min:
                continue
            labels[list(group)] = slot
            chosen = set(group)
            rec(tuple(x for x in items if x not in chosen), slot + 1, group[0])

    rec(tuple(range(n)), 0, -1)
    splits = np.array(out)
    # rec refers to itself, so the list would outlive this call until the
    # cycle collector runs.
    out.clear()
    return splits


def oracle_enumeration_size(rows: int, cols: int, p: int) -> int:
    """Candidate count the brute-force oracle would examine."""
    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    # Row groups of equal size are unlabeled, and the column capacities
    # are taken in each of their distinct orders.
    relabelings = math.prod(math.factorial(row_caps.count(c)) for c in set(row_caps))
    seqs = _split_count(p, [col_caps.count(c) for c in set(col_caps)])
    return _split_count(rows, row_caps) // relabelings * seqs * _split_count(cols, col_caps)


def brute_force_partition(
    weights: WeightMatrix, p: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> OracleResult:
    """Exact minimizer of the pruning loss over all balanced assignments.

    Enumerates every unordered row grouping with the balanced capacity
    multiset, every assignment of columns to capacity slots, and every
    pairing of row capacities with column capacities (so a smaller row
    group may share a partition with a larger column group). Each
    distinct mask is examined exactly once.

    The candidates form one table: row g is a row grouping, column s a
    column split, over every order of the column capacities, and the
    entry is the candidate's retained |W|. Every candidate within a
    margin of the table's maximum, far wider than rounding, is then
    re-evaluated in table order through the same loss function the
    greedy search uses, so the reported optimum compares exactly against
    search results.
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

    abs_w = np.abs(weights.data)
    groupings = _labeled_splits(rows, partition_capacities(rows, p), unordered=True)
    col_caps = partition_capacities(cols, p)
    cap_seqs = sorted(set(permutations(col_caps)), reverse=True)
    splits = np.concatenate([_labeled_splits(cols, seq) for seq in cap_seqs])

    # The table is added column by column, in blocks of groupings, so no
    # temporary holds more than 1/cols of it.
    retained = np.zeros((len(groupings), len(splits)))
    step = -(-len(groupings) // cols)
    for lo in range(0, len(groupings), step):
        block = groupings[lo:lo + step]
        # sums[g, k, j]: |W| of column j over the rows of block[g]'s group k.
        sums = np.zeros((len(block), p, cols))
        np.add.at(sums, (np.arange(len(block))[:, None], block), abs_w)
        for j in range(cols):
            retained[lo:lo + step] += sums[:, :, j][:, splits[:, j]]

    margin = 1e-6 * max(float(abs_w.sum()), 1.0)
    best_loss = math.inf
    witness = None
    for idx in np.flatnonzero(retained >= retained.max() - margin):
        g, s = divmod(int(idx), len(splits))
        assignment = PartitionAssignment(p=p, row_of=groupings[g], col_of=splits[s])
        loss = weight_loss(weights, mask_of(assignment))
        if loss < best_loss:
            best_loss = loss
            witness = assignment

    return OracleResult(
        optimum_loss=best_loss, optimum_assignment=witness, enumerated=retained.size
    )

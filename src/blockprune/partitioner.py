"""Greedy randomized search for minimum-weight-loss balanced partitions.

The constructor processes rows in a seeded random order. The first row
founds partition 0 and claims the columns with the largest magnitudes in
that row, as many as the partition's column capacity, ties to the lowest
column. Every later row is scored against each founded partition that
still has row capacity (score: sum of the row's magnitudes over the
partition's column set) and against founding the next partition (score:
best attainable sum over columns not yet claimed); the highest score
wins. Founding is forced whenever exactly enough rows remain to found
the missing partitions. Column sets are fixed at founding time and never
reopened.

Row and column capacities are consumed in founding order, largest first,
so the first-founded partition is the largest on both sides. All ties
break toward the lowest index (column, partition, or restart), making
every run a pure function of (weights, p, seed).

All restarts are built together, in lockstep: each step visits the next
row of every restart still founding, and the state (labels, row counts,
founded count) is held in arrays with one row per restart. Both phases
run on blocks of restarts. Founding's temporaries hold a constant number
of elements. After founding they hold that many, or an eighth of the
layer's on a larger layer, so that |W| is read once for many restarts.
On a layer too large for either bound, a block is one restart.

Founding usually ends within the first few dozen rows visited. From then
on the column sets are frozen, so one matrix product per block of
restarts scores all remaining rows. It adds in another order than
scoring a row alone, so its sums may round apart from those; a row whose
scores lie within that rounding of each other is scored again in column
order, by the code that scores founding rows, so every comparison of two
scores, and so every label, is that of scoring each row alone. Until
some partition fills, every remaining row joins the lowest-index best
open partition. So the rows left are labelled in at most p rounds, each
ending at a fill event: the row that brings a partition to its row
capacity and closes it.

A multi-restart wrapper keeps the best of many independent constructions.
Each construction tracks its retained weight, the sum of its winning
scores in whatever order the phases add them, so restarts are ranked
without building a mask. That sum is only a ranking key: the canonical
loss is computed for the restarts whose key ties the best within a
margin far wider than rounding, so the result is that of scoring every
restart exactly. An optional local search polishes a result by swapping
node pairs across partitions, scored exactly on an integer copy of |W|,
and a brute-force oracle computes the exact optimum on small instances
for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations

import numpy as np

from .core import (
    PartitionAssignment,
    PruneResult,
    WeightMatrix,
    check_int,
    mask_of,
    partition_capacities,
    result_from_assignment,
    weight_loss,
)
from .rng import MASK64, batch_permutation, stream_array

DEFAULT_RESTARTS = 32
DEFAULT_ORACLE_BUDGET = 10_000_000

# Most restarts * (rows + cols) multi_restart accepts. The constructor
# keeps every restart's row order, row labels and column labels, about
# 1.5 times that many int64s on a square layer: 0.4 GB at the bound. It
# allows 4096 restarts at 4096 x 4096 and 2 million at 8 x 8.
MAX_RESTART_LABELS = 1 << 25

_P_RANGE = "partition count {} out of range [1, {}] for a {}x{} layer"


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


def _margin(abs_w: np.ndarray) -> float:
    """The ranking margin, 1e-6 * max(sum |W|, 1).

    Retained weights are ranked by sums of |W| whose rounding is far
    below this margin. Raises ValueError when sum |W| overflows: every
    such sum may then be inf, and no ranking holds.
    """
    with np.errstate(over="ignore"):
        total = float(abs_w.sum())
    if total == math.inf:
        raise ValueError("the sum of |W| over the layer overflows a float")
    return 1e-6 * max(total, 1.0)


# Restarts are built in blocks whose temporaries hold at most this many
# elements (512 KB of floats) while founding: (restarts, cols). After
# founding, a block's (restarts, p, rows) scores and (restarts, p, cols)
# column indicators hold at most this many or an eighth of the layer's,
# whichever is more, so one matrix product scores many restarts of a
# large layer and streams its |W| once for them. A block holds at least
# one restart, so the bounds hold only while cols and p * max(rows, cols)
# are at most them; a larger layer's temporaries are those of one restart.
# The oracle adds its group sums in blocks of as many, held in cache.
_BLOCK_ELEMENTS = 1 << 16


def _construct(abs_w: np.ndarray, p: int, seeds: np.ndarray) -> tuple:
    """One greedy construction per uint64 seed, run in lockstep.

    `abs_w` is |W| in row-major order. Returns (row_of, col_of, tracked),
    shaped (R, rows), (R, cols) and (R,). tracked[r] is the sum of
    restart r's winning scores: its retained |W| up to rounding, a key
    that ranks restarts within `_margin`.
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
    # A sum of n terms of |W|, in any order, lies within about n u times
    # their total of the exact sum (u = eps / 2, Higham ch. 4), so a
    # row's BLAS score and its column-order score differ by at most about
    # cols eps rowsum. Two BLAS scores more than twice that apart keep
    # their order in column-order sums; tol is twice that again.
    tol = 4 * cols * np.finfo(float).eps * abs_w.sum(axis=1)
    step = max(1, max(_BLOCK_ELEMENTS, rows * cols // 8) // (p * max(rows, cols)))
    for b in (slice(lo, lo + step) for lo in range(0, len(seeds), step)):
        _assign_rest(abs_w, tol, p, orders[b], row_of[b], col_of[b], counts[b], tracked[b])
    return row_of, col_of, tracked


def _column_scores(vals: np.ndarray, labels: np.ndarray, p: int) -> np.ndarray:
    """scores[i, k]: the sum of vals[i] over the columns labels[i] puts in k.

    One bincount adds each row's values in column order, as scoring each
    row alone does. A column labelled -1 counts for no partition.
    """
    n = len(vals)
    assigned = labels >= 0
    key = (np.arange(n)[:, None] * p + labels)[assigned]
    return np.bincount(key, weights=vals[assigned], minlength=n * p).reshape(n, p)


def _found_partitions(abs_w, p, order, row_of, col_of, counts, retained):
    """Visit rows one step at a time until every restart has founded p.

    Each step takes the next row of every restart still founding. Every
    founded partition with a free row scores the row's sum over its
    columns; founding the next partition scores the sum of the row's
    largest free magnitudes. The best score wins and founding loses ties.
    A founding row claims its cap largest free columns, ties to the lowest
    column. Labels, row counts and retained weight (the sum of the scores
    that won) are filled in place.
    """
    count, rows = order.shape
    row_caps = np.array(partition_capacities(rows, p))
    col_caps = partition_capacities(abs_w.shape[1], p)
    founded = np.zeros(count, dtype=np.int64)

    live = np.arange(count)
    t = 0
    while len(live):
        r = order[live, t]
        vals = abs_w[r]  # each row is read as one contiguous run
        f = founded[live]
        labels = col_of[live]
        # Once only p - f rows are left, every founded partition is full
        # (each unfounded one still needs a row), so founding then wins.
        open_ = (np.arange(p) < f[:, None]) & (counts[live] < row_caps)
        scores = np.where(open_, _column_scores(vals, labels, p), -1.0)
        lab = scores.argmax(axis=1)  # ties to the lowest partition
        gain = scores[np.arange(len(live)), lab]

        for fv in np.flatnonzero(np.bincount(f)):
            g = np.flatnonzero(f == fv)
            cap = col_caps[fv]
            free = np.nonzero(labels[g] < 0)[1].reshape(len(g), -1)
            free_vals = vals[g[:, None], free]
            top = np.partition(free_vals, free.shape[1] - cap, axis=1)[:, -cap:]
            founding = top.sum(axis=1)
            # Founding loses ties; with no open partition gain is -1.
            won = founding > gain[g]
            g = g[won]
            # top[:, 0] is the cap-th largest: claim every free column
            # above it, then the lowest columns equal to it up to cap.
            cand, thr = free_vals[won], top[won, :1]
            above, ties = cand > thr, cand == thr
            short = cap - above.sum(axis=1, keepdims=True)
            take = above | (ties & (np.cumsum(ties, axis=1) <= short))
            col_of[np.repeat(live[g], cap), free[won][take]] = fv
            lab[g] = fv
            gain[g] = founding[won]
            founded[live[g]] += 1

        row_of[live, r] = lab
        counts[live, lab] += 1
        retained[live] += gain
        live = live[founded[live] < p]
        t += 1


def _assign_rest(abs_w, tol, p, order, row_of, col_of, counts, retained):
    """Give every row left after founding its best open partition.

    Column sets are frozen now, so one matrix product scores every row
    against every partition. A row whose p scores lie more than tol[row]
    apart has the same order of scores as adding its magnitudes in column
    order; any other row, ties among them, is scored again in column
    order by `_column_scores`, as scoring it alone does. A row's label is
    then the lowest-index argmax over the partitions still open, and the
    open set changes only when a partition fills. So each round commits
    the rows up to the first that fills a partition, closes it, and
    relabels only the rows that had chosen it: at most p rounds. Fills
    row_of in place, and each round adds the scores of the rows it
    commits to retained.
    """
    count, rows = order.shape
    # Founding placed each restart's first counts.sum() rows visited.
    todo = np.arange(rows) >= counts.sum(axis=1)[:, None]
    if not todo.any():
        return  # every row was placed while founding, as when p == rows
    row_caps = np.array(partition_capacities(rows, p))
    cols = col_of.shape[1]
    hot = (col_of[:, None, :] == np.arange(p)[:, None]).astype(float)
    score = (hot.reshape(count * p, cols) @ abs_w.T).reshape(count, p, rows)
    del hot  # freed before the sorts below allocate their own
    score = np.take_along_axis(score, order[:, None, :], axis=2)  # visit order

    gaps = np.diff(np.sort(score, axis=1), axis=1)
    # Written so that a tie or a NaN gap is not clear.
    b, t = np.nonzero(todo & ~(gaps > tol[order][:, None, :]).all(axis=1))
    step = max(1, _BLOCK_ELEMENTS // cols)
    for lo in range(0, len(b), step):
        bb, tt = b[lo:lo + step], t[lo:lo + step]
        score[bb, :, tt] = _column_scores(abs_w[order[bb, tt]], col_of[bb], p)

    blk = np.arange(count)[:, None]
    pos = np.arange(rows)
    is_open = counts < row_caps
    lab = np.where(is_open[:, :, None], score, -1.0).argmax(axis=1)
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
        retained += np.bincount(b, weights=score[b, k, t], minlength=count)
        counts += np.bincount(b * p + k, minlength=count * p).reshape(count, p)
        todo[b, t] = False
        is_open = counts < row_caps
        # A closed partition leaves every other row's argmax as it was.
        b, t = np.nonzero(todo & ~is_open[blk, lab])
        lab[b, t] = np.where(is_open[b], score[b, :, t], -1.0).argmax(axis=1)


def _best_of(weights: WeightMatrix, p: int, seeds: np.ndarray, seed: int) -> PruneResult:
    """The best of one greedy construction per uint64 seed in `seeds`.

    Restarts are ranked by the retained weight each construction tracks,
    with no mask built. The canonical `weight_loss` is then computed only
    for restarts whose tracked weight lies within a margin of the best,
    far wider than any rounding in the tracking, and only once for each
    distinct assignment among them, so the kept restart is the one a full
    exact scoring of every restart would keep.
    """
    rows, cols = weights.rows, weights.cols
    p = check_int(p, 1, min(rows, cols), _P_RANGE.format(p, min(rows, cols), rows, cols))
    abs_w = np.abs(weights.data)
    margin = _margin(abs_w)
    row_of, col_of, tracked = _construct(abs_w, p, seeds)
    # Free |W| before the exact pass allocates its own n x n temporaries.
    del abs_w
    # Equal labels lose equal weight, so each distinct assignment is
    # scored once, as its lowest restart.
    first = {}
    for r in np.flatnonzero(tracked >= tracked.max() - margin).tolist():
        first.setdefault(row_of[r].tobytes() + col_of[r].tobytes(), r)
    near = [PartitionAssignment(p=p, row_of=row_of[r], col_of=col_of[r])
            for r in first.values()]
    winner = near[0]
    if len(near) > 1:
        winner = min(near, key=lambda a: weight_loss(weights, mask_of(a)))
    return result_from_assignment(weights, winner, seed=seed, restarts=len(seeds))


def greedy_partition(weights: WeightMatrix, p: int, seed: int) -> PruneResult:
    """multi_restart's search with one construction, seeded by `seed` itself.

    Raises ValueError when the sum of |W| overflows, as multi_restart does.
    """
    seed = check_int(seed, -math.inf, math.inf, "seed must be an integer")
    return _best_of(weights, p, np.array([seed & MASK64], dtype=np.uint64), seed)


def multi_restart(
    weights: WeightMatrix, p: int, restarts: int, seed: int
) -> PruneResult:
    """Best of `restarts` independent greedy runs.

    Restart r uses stream element r of the master seed, so restarts are
    mutually independent and may run in any order; the kept result is the
    minimum loss with ties broken by lowest restart index.

    Raises ValueError, before allocating, when restarts * (rows + cols)
    exceeds MAX_RESTART_LABELS, and when the sum of |W| overflows.
    """
    rows, cols = weights.rows, weights.cols
    restarts = check_int(restarts, 1, math.inf, "restarts must be >= 1")
    labels = restarts * (rows + cols)
    check_int(labels, 1, MAX_RESTART_LABELS,
              f"{restarts} restarts of a {rows}x{cols} layer keep {labels} "
              f"labels, more than the limit of {MAX_RESTART_LABELS}")
    seed = check_int(seed, -math.inf, math.inf, "seed must be an integer")
    return _best_of(weights, p, stream_array(seed, restarts), seed)


def _grid(data: np.ndarray) -> np.ndarray:
    """|data| times a power of two, rounded to integers, in one copy.

    Scaled below 1 first, no line sum overflows. Then the largest row or
    column sum s, as summed, is scaled below 2**49. A line of n terms
    sums exactly to at most s (1 + n 2**-52), and rounding adds at most
    n / 2, so every line sums to at most 2**50 for any n below 2**48. A
    gain of `refine_swaps` sums part of a line, so gains, differences of
    two and sums of two differences are integers of magnitude at most
    2**51: float64 holds them exactly, in any order of addition.
    """
    q = np.abs(data)
    np.ldexp(q, -math.frexp(float(q.max()))[1], out=q)
    s = max(float(q.sum(axis=1).max()), float(q.sum(axis=0).max()))
    np.ldexp(q, 49 - math.frexp(s)[1], out=q)
    return np.rint(q, out=q)


def _best_swap(gain, labels, order, held, starts, sizes) -> tuple:
    """(gain, i, j) of the best swap of two nodes of different partitions.

    gain[i, k], an integer below 2**51 in magnitude or -inf where node i
    cannot go, is node i's retained weight if it lived in partition k.
    Run r of `order`, sizes[r] nodes from starts[r] in any order, holds
    partition held[r]; no other partition holds a node. Swapping nodes
    i < j of partitions a != b gains d[i, b] + d[j, a], exactly, with
    d[i, k] the gain of moving node i alone to k. The best is the largest
    positive gain, ties to the lowest (i, j); with none, (0.0, -1, -1).

    The two terms are independent, so with m[a, b] the largest d[i, b]
    over the nodes of a, the best swap of a with b gains m[a, b] +
    m[b, a], and its lowest pair is the lowest node of a that reaches
    m[a, b] with the lowest node of b that reaches m[b, a].
    """
    n, parts = gain.shape
    d = (gain - gain[np.arange(n), labels][:, None])[order]
    top = np.maximum.reduceat(d, starts, axis=0)
    m = np.full((parts, parts), -np.inf)  # an empty partition bounds nothing
    m[held] = top
    # The lowest node of each partition that reaches its maximum.
    node = np.zeros((parts, parts), dtype=np.int64)
    node[held] = np.minimum.reduceat(np.where(
        d == np.repeat(top, sizes, axis=0), order[:, None], n), starts, axis=0)
    bound = m + m.T
    np.fill_diagonal(bound, -np.inf)
    peak = float(bound.max())
    if peak <= 0.0:
        return 0.0, -1, -1
    a, b = np.nonzero(bound == peak)
    lo = np.minimum(node[a, b], node[b, a])
    hi = np.maximum(node[a, b], node[b, a])
    k = int(np.argmin(lo * n + hi))
    return peak, int(lo[k]), int(hi[k])


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

    Gains are scored on `_grid`'s integer copy of |W|, where every gain
    is exact: the swaps are the same on any BLAS, a positive gain is a
    real one on the grid, and no swap is undone. The gains of one side
    depend only on the other side's labels, so a swap moves two of the
    other side's gain columns by the difference of the two swapped lines
    of the grid, and nothing else. One `_best_swap` call a pass scans
    both sides, on a layout made once: a swap only trades two places.
    """
    max_passes = check_int(max_passes, 0, math.inf, "max_passes must be >= 0")
    p = result.assignment.p
    if p == 1 or max_passes == 0:
        return result
    q = _grid(weights.data)
    rows = weights.rows
    # Node i < rows is row i, gains in columns 0..p-1; node rows + j is
    # column j, labelled col_of[j] + p, gains in p..2p-1; -inf elsewhere,
    # so no swap pairs a row with a column. Rows win ties: lower nodes.
    labels = np.concatenate([result.assignment.row_of, result.assignment.col_of + p])
    gain = np.full((len(labels), 2 * p), -np.inf)
    gain[:rows, :p] = q @ (labels[rows:, None] == np.arange(p, 2 * p)).astype(float)
    gain[rows:, p:] = q.T @ (labels[:rows, None] == np.arange(p)).astype(float)
    order = np.argsort(labels, kind="stable")  # the nodes partition by partition
    sizes = np.bincount(labels, minlength=2 * p)
    held = np.flatnonzero(sizes)
    layout = (order, held, (np.cumsum(sizes) - sizes)[held], sizes[held])
    place = np.argsort(order)  # node i is order[place[i]]
    for _ in range(max_passes):
        _, i, j = _best_swap(gain, labels, *layout)
        if i < 0:
            break
        order[place[i]], order[place[j]] = j, i
        place[i], place[j] = place[j], place[i]
        a, b = labels[i], labels[j]
        labels[i], labels[j] = b, a
        # i < j are two rows or two columns; `other` holds the other
        # side's gains, partition a's in column a % p. Partition a gains
        # line j - line i of the grid there, and b loses as much.
        moved = q[j] - q[i] if j < rows else q.T[j - rows] - q.T[i - rows]
        other = gain[rows:, p:] if j < rows else gain[:rows, :p]
        other[:, a % p] += moved
        other[:, b % p] -= moved

    del q  # free the grid before the result's gathers allocate theirs
    assignment = PartitionAssignment(p=p, row_of=labels[:rows], col_of=labels[rows:] - p)
    refined = result_from_assignment(
        weights, assignment, seed=result.seed, restarts=result.restarts
    )
    # The grid rounds each |w|, so a swap that gains on it may lose a
    # little in the float sum: never get worse.
    return refined if refined.weight_loss <= result.weight_loss else result


def _split_count(n: int, caps) -> int:
    """Ways to split n items into labeled groups sized per caps."""
    total = math.factorial(n)
    for c in caps:
        total //= math.factorial(c)
    return total


def _subsets(m: int, cap: int, lead: bool, dtype) -> tuple:
    """(taken, left): each cap-subset of range(m), and the rest of range(m).

    Subsets come in lexicographic order, one per row, each row ascending.
    With `lead`, only the subsets holding 0 are made.
    """
    if lead:
        flat = chain.from_iterable((0,) + q for q in combinations(range(1, m), cap - 1))
    else:
        flat = chain.from_iterable(combinations(range(m), cap))
    taken = np.fromiter(flat, dtype=dtype).reshape(-1, cap)
    keep = np.ones((len(taken), m), dtype=bool)
    rows = np.arange(len(taken))
    for col in taken.T:
        keep[rows, col] = False
    left = np.broadcast_to(np.arange(m, dtype=dtype), keep.shape)[keep]
    return taken, left.reshape(len(taken), m - cap)


def _labeled_splits(n: int, caps: tuple, unordered: bool = False) -> np.ndarray:
    """All assignments of n items to slots with the given sizes.

    Returns an array of shape (count, n) holding the slot index of each
    item. Slot 0 takes each subset of the items in lexicographic order,
    and slot s each subset of the items the slots before it left, so the
    rows come in the order of a depth-first search over the slots. With
    `unordered`, slots of equal size are interchangeable and each
    grouping appears once: consecutive slots of the same size must have
    increasing minima.

    The splits are built one slot at a time, for all of them at once.
    The items of every slot but the last are kept in the smallest
    integer type that holds n, and the labels, in one that holds a slot.
    """
    dtype = np.min_scalar_type(n)
    free = np.arange(n, dtype=dtype)[None, :]  # each split's items left
    groups = []  # each split's items in every slot so far
    low = np.full(1, -1)  # each split's smallest item in its last slot
    for slot, cap in enumerate(caps[:-1]):
        # Where equal slots run to the end, increasing minima mean that
        # each of them takes the smallest item left.
        lead = unordered and all(c == cap for c in caps[slot:])
        taken, left = _subsets(free.shape[1], cap, lead, dtype)
        first = free[:, taken[:, 0]]
        if unordered and slot and cap == caps[slot - 1]:
            s, k = np.nonzero(first > low[:, None])
        else:
            s, k = np.divmod(np.arange(first.size), len(taken))
        groups = [g[s] for g in groups] + [np.take_along_axis(free[s], taken[k], axis=1)]
        low = first[s, k]
        free = np.take_along_axis(free[s], left[k], axis=1)
    labels = np.full((len(free), n), len(caps) - 1, dtype=np.min_scalar_type(len(caps) - 1))
    rows = np.arange(len(free))
    for slot, items in enumerate(groups):
        for col in items.T:
            labels[rows, col] = slot
    return labels


@lru_cache(maxsize=None)
def _row_groupings(rows: int, p: int) -> np.ndarray:
    """Every unordered grouping of the rows under the balanced capacities.

    Cached, so the array is read-only: every call shares it.
    """
    groupings = _labeled_splits(rows, partition_capacities(rows, p), unordered=True)
    groupings.flags.writeable = False
    return groupings


@lru_cache(maxsize=None)
def _column_splits(cols: int, p: int) -> tuple:
    """(splits, index): every column split, and where it reads group sums.

    The splits cover each order of the column capacities, the orders in
    descending lexicographic order and the splits of each in
    `_labeled_splits` order. index[j, s] = splits[s, j] * cols + j, an
    int64, is where split s reads its column-j group sum in a grouping's
    (p, cols) sums, flattened. Both arrays are cached and read-only.
    """
    caps = partition_capacities(cols, p)
    seqs = sorted(set(permutations(caps)), reverse=True)
    splits = np.concatenate([_labeled_splits(cols, seq) for seq in seqs])
    index = np.ascontiguousarray((splits.astype(np.int64) * cols + np.arange(cols)).T)
    splits.flags.writeable = index.flags.writeable = False
    return splits, index


def oracle_enumeration_size(rows: int, cols: int, p: int) -> int:
    """Candidate count the brute-force oracle would examine."""
    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    # Row groups of equal size are unlabeled, and the column capacities
    # are taken in each of their distinct orders.
    relabelings = math.prod(math.factorial(row_caps.count(c)) for c in set(row_caps))
    seqs = _split_count(p, [col_caps.count(c) for c in set(col_caps)])
    return _split_count(rows, row_caps) // relabelings * seqs * _split_count(cols, col_caps)


def _group_sums(abs_w: np.ndarray, groupings: np.ndarray, p: int) -> np.ndarray:
    """sums[g, k, j]: |W| of column j over the rows of grouping g's group k.

    Each group adds its rows in row order, from 0.0: step i adds row i
    to the group of each grouping that holds it, over blocks of
    _BLOCK_ELEMENTS sums held with the groupings on the last axis.
    """
    cols = abs_w.shape[1]
    sums = np.zeros((p, cols, len(groupings)))
    groups = np.arange(p, dtype=groupings.dtype)[:, None, None]  # no cast per row
    step = max(1, _BLOCK_ELEMENTS // (p * cols))
    for lo in range(0, len(groupings), step):
        block = sums[:, :, lo:lo + step]
        labels = np.ascontiguousarray(groupings[lo:lo + step].T)
        for row, at in zip(abs_w[:, :, None], labels):
            np.add(block, row, out=block, where=at == groups)
    return sums.transpose(2, 0, 1)


def _table_rows(sums: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The table rows of some groupings: the retained |W| of each split.

    `index` is `_column_splits`'s: index[j, s] picks sums[g, k, j], with
    k the group of column j under split s. Each entry adds its |W|
    column by column, from 0.0.
    """
    flat = sums.reshape(len(sums), -1)
    rows = np.zeros((len(sums), index.shape[1]))
    for at in index:
        rows += np.take(flat, at, axis=1)
    return rows


def _row_bounds(sums: np.ndarray) -> np.ndarray:
    """bound[g] = sum_j max_k sums[g, k, j], added as a table entry is.

    cumsum adds column by column; from 0.0, as an entry starts, the first
    addition is exact.
    """
    return np.cumsum(sums.max(axis=1), axis=1)[:, -1]


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

    Only the table rows that can hold such a candidate are built (branch
    and bound over the row groupings). With sums[g, k, j] the |W| of
    column j over group k of grouping g, bound[g] = sum_j max_k
    sums[g, k, j] is added column by column from 0.0, as each entry of
    row g is, from terms no smaller than the entry's. Rounded addition
    is monotone, so bound[g] is at least every entry of row g, bit for
    bit. The rows are built in descending order of bound, in batches of
    1, 2, 4, ... rows, and each batch ends before the first row whose
    bound lies below the largest entry built so far minus the margin. No
    row left then can hold a candidate within the margin of the maximum,
    and building stops. The scan sees the candidates of the built rows
    in table order: all the candidates, in the order, that a scan of the
    whole table would see.

    Raises OracleBudgetError when the table has more than `budget`
    entries, and ValueError for a budget that is not a non-negative
    integer or a layer whose sum of |W| overflows.
    """
    budget = check_int(budget, 0, math.inf,
                       f"budget must be a non-negative integer, got {budget!r}")
    rows, cols = weights.rows, weights.cols
    p = check_int(p, 1, min(rows, cols), _P_RANGE.format(p, min(rows, cols), rows, cols))
    estimate = oracle_enumeration_size(rows, cols, p)
    if estimate > budget:
        raise OracleBudgetError(
            f"instance too large for oracle: about {estimate} candidate "
            f"assignments exceed the budget of {budget}",
            estimate=estimate,
        )

    abs_w = np.abs(weights.data)
    margin = _margin(abs_w)
    groupings = _row_groupings(rows, p)
    splits, index = _column_splits(cols, p)

    # Kept for the table rows: p * cols floats per grouping of rows labels.
    sums = _group_sums(abs_w, groupings, p)
    bound = _row_bounds(sums)
    # Rows by descending bound, ties to the lowest index; desc[:n] are
    # the n largest bounds, negated, and n = searchsorted(...) counts the
    # bounds at or above best - margin.
    order = np.argsort(-bound, kind="stable")
    desc = -bound[order]  # ascending
    built = []  # (groupings, their table rows), batch by batch
    best = -math.inf
    done = 0
    while True:
        stop = min(2 * done + 1, int(np.searchsorted(desc, margin - best, side="right")))
        if stop <= done:
            break
        g = order[done:stop]
        table = _table_rows(sums[g], index)
        best = max(best, float(table.max()))
        built.append((g, table))
        done = stop

    # Flat indices into the whole table, sorted, are the table order.
    near = []
    for g, table in built:
        r, s = np.nonzero(table >= best - margin)
        near.append(g[r] * len(splits) + s)
    near = np.concatenate(near)
    near.sort()
    best_loss = math.inf
    witness = None
    for idx in near:
        g, s = divmod(int(idx), len(splits))
        assignment = PartitionAssignment(p=p, row_of=groupings[g], col_of=splits[s])
        loss = weight_loss(weights, mask_of(assignment))
        if loss < best_loss:
            best_loss = loss
            witness = assignment

    return OracleResult(
        optimum_loss=best_loss, optimum_assignment=witness,
        enumerated=len(groupings) * len(splits),
    )

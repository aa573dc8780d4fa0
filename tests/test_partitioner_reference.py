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
labels, and a tracked weight within rounding of the one it adds up.

`reference_brute_force_partition` is the earlier oracle, kept as it was
with its candidate count `reference_enumeration_size` and its tuple
generator `_groupings`: pass 1 stores the retained |W| of every (row
grouping, column capacity order) pair in a dict, and pass 2 walks the
pairs again and scores every candidate near the best exactly. The oracle
in `partitioner` must give a bit-equal optimum, the same witness and the
same candidate count, and refuse the same instances with the same
estimate.

`reference_table_oracle` is the oracle that built the whole table of
row groupings by column splits before its scan, kept as it was. The
oracle in `partitioner` builds only the rows its bound cannot rule out,
and must give a bit-equal optimum, the same witness and the same
candidate count. `reference_labeled_splits` is the recursion that once
enumerated the splits, one array copy per split; `_labeled_splits` must
give the same array, bit for bit. `reference_group_sums` is the indexed
add (`np.add.at`) that once added each row into its group; `_group_sums`
must give the same sums, bit for bit, for any labelling of the rows.

`reference_refine_swaps` is the earlier refinement: a Python loop over
every pair of rows and every pair of columns on each pass, with every
gain summed again by a matrix product, kept as it was but for the grid
both share: gains are sums of `reference_grid`'s integers, exact, so
no gain is rounding. `refine_swaps` must apply the same swap sequence.
`reference_grid` scales |W| in one step where `_grid` takes two, and
must give the same grid, bit for bit.

`reference_best_swap` is the swap scan that scored every cross-partition
pair, one array block per ordered partition pair. `_best_swap` finds the
best swap in closed form from the best single moves, and must return
the same (gain, i, j) on integer gains below 2**51, ties included, on
one side or on both sides joined as `refine_swaps` joins them, with its
partitions' nodes listed in any order, and make the same swaps inside
`refine_swaps`.
"""

import math
import tracemalloc
from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprune import partitioner
from blockprune.core import (
    PartitionAssignment,
    PruneResult,
    WeightMatrix,
    mask_of,
    partition_capacities,
    result_from_assignment,
    validate_assignment,
    weight_loss,
)
from blockprune.partitioner import (
    _BLOCK_ELEMENTS,
    DEFAULT_ORACLE_BUDGET,
    OracleBudgetError,
    OracleResult,
    _best_swap,
    _column_splits,
    _construct,
    _grid,
    _group_sums,
    _labeled_splits,
    _row_bounds,
    _row_groupings,
    _table_rows,
    brute_force_partition,
    greedy_partition,
    multi_restart,
    oracle_enumeration_size,
    refine_swaps,
)
from blockprune.rng import SplitMix64, stream_array, stream_element


def _check_p(rows, cols, p):
    """The search's partition-count check, as it was before `check_int`."""
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


def reference_grid(data: np.ndarray) -> np.ndarray:
    """|data| times one power of two, rounded to integers.

    With 2**(e - 1) <= max|data| < 2**e and s the largest row or column
    sum of |data| / 2**e as numpy sums it, the power puts s in
    [2**48, 2**49).
    """
    abs_w = np.abs(data)
    e = math.frexp(abs_w.max())[1]
    unit = np.ldexp(abs_w, -e)
    line = max(unit.sum(axis=1).max(), unit.sum(axis=0).max())
    return np.rint(np.ldexp(abs_w, 49 - math.frexp(line)[1] - e))


def reference_refine_swaps(
    weights: WeightMatrix, result: PruneResult, max_passes: int = 100
) -> PruneResult:
    """Polish a result by greedily swapping node pairs across partitions.

    Each pass applies the single best loss-reducing swap of two rows or
    two columns that live in different partitions; swaps preserve group
    sizes, so feasibility is maintained. Stops when no swap improves or
    after max_passes swaps. Gains are summed on `reference_grid`'s
    integers, so every gain is exact. The returned loss never exceeds
    the input's.
    """
    p = result.assignment.p
    if p == 1 or max_passes < 1:
        return result
    q = reference_grid(weights.data)
    row_of = result.assignment.row_of.copy()
    col_of = result.assignment.col_of.copy()

    def one_hot(labels, n):
        m = np.zeros((len(labels), n))
        m[np.arange(len(labels)), labels] = 1.0
        return m

    for _ in range(max_passes):
        # row_gain[i, k]: retained weight of row i if it lived in partition k.
        row_gain = q @ one_hot(col_of, p)
        col_gain = q.T @ one_hot(row_of, p)

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
    # The grid rounds each |w|, so a swap that gains on it may lose a
    # little in the float sum: never get worse.
    return refined if refined.weight_loss <= result.weight_loss else result


def reference_best_swap(gain: np.ndarray, labels: np.ndarray, p: int) -> tuple:
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


def reference_enumeration_size(rows: int, cols: int, p: int) -> int:
    """Candidate count the brute-force oracle would examine."""
    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    seqs = len(set(permutations(col_caps)))
    return _grouping_count(rows, row_caps) * seqs * _split_count(cols, col_caps)


def reference_brute_force_partition(
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
    estimate = reference_enumeration_size(rows, cols, p)
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
    abs_w = np.abs(w.data)
    # Small layers take more restarts: there, equal losses are common.
    restarts = 2 if rows * cols > 10_000 else 6
    for p in range(1, min(8, rows, cols) + 1):
        for seed in SEEDS:
            want = reference_greedy(w, p, seed)
            assert_same(greedy_partition(w, p, seed), want)
            _, _, tracked = _construct(abs_w, p, np.array([seed], dtype=np.uint64))
            assert tracked[0] == pytest.approx(want.retained_abs_weight,
                                               rel=1e-12, abs=1e-300)
            assert_tracked_near(tracked[0], _greedy_assignment(abs_w, p, seed)[1], abs_w)
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
    if kind == "decimals":
        # Equal losses whose sums round apart in different orders, so a
        # candidate that ties the optimum can rank just below the best.
        rng = np.random.default_rng([rows, cols])
        return WeightMatrix(rng.choice([0.1, 0.2, 0.3, 0.6, 0.7], (rows, cols)))
    if kind == "tenths":
        # Fewer values, so more sums that are equal exactly.
        rng = np.random.default_rng([rows, cols])
        return WeightMatrix(rng.choice([0.1, 0.2, 0.3], (rows, cols)))
    if kind == "zeros":
        # Every candidate ties at zero retained weight.
        return WeightMatrix(np.zeros((rows, cols)))
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


def assert_tracked_near(got, want, abs_w):
    """The tracked weight against the column-order one, within rounding.

    The two add the same winning scores, but perhaps in other orders: a
    score from the matrix product or from a founding row's largest
    magnitudes may differ from its column-order sum by about cols eps
    times its row's sum of |W|, and each addition of the rows rounds by
    at most eps/2 of the total: so they differ by at most about
    (rows + cols) eps sum |W|. Twice that leaves headroom.
    """
    rows, cols = abs_w.shape
    assert abs(got - want) <= 2 * (rows + cols) * np.finfo(float).eps * abs_w.sum()


def assert_lockstep_matches(w, p, restarts, seed):
    abs_w = np.abs(w.data)
    row_of, col_of, tracked = _construct(abs_w, p, stream_array(seed, restarts))
    for r in range(restarts):
        want, want_tracked = _greedy_assignment(abs_w, p, stream_element(seed, r))
        assert (row_of[r] == want.row_of).all(), r
        assert (col_of[r] == want.col_of).all(), r
        assert_tracked_near(tracked[r], want_tracked, abs_w)
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
    (17, 13, "ties", 3, 32),
    (9, 6, "near_ties", 2, 1),
    # Founding runs in blocks of 16 restarts, the rest in blocks of 5.
    (6, 4096, "ties", 3, 40),
    (600, 6, "ties", 3, 40),  # the rest in blocks of 36 restarts and then 4
    # Above _BLOCK_ELEMENTS the rest run in blocks of an eighth of the
    # layer: 32 restarts and then 8.
    (768, 768, "decimals", 3, 40),
    # Scores that tie exactly but round apart in the matrix product, so
    # only rescoring in column order gives the right labels.
    *[(rows, cols, kind, p, 8)
      for rows, cols in [(40, 300), (64, 512), (200, 200), (30, 1000)]
      for kind in ("decimals", "tenths") for p in (2, 3)],
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


def test_construct_temporaries_stay_small_on_wide_layers():
    # Blocks after founding are sized by p * max(rows, cols): on a wide
    # layer the column indicators of a block, not its scores, are the
    # larger temporary.
    abs_w = np.abs(corpus_matrix(8, 4096, "gauss").data)
    tracemalloc.start()
    try:
        row_of, col_of, _ = _construct(abs_w, 3, stream_array(5, 600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The labels kept, and a few temporaries of _BLOCK_ELEMENTS floats.
    assert peak - row_of.nbytes - col_of.nbytes < 16 * _BLOCK_ELEMENTS * 8


def test_construct_temporaries_stay_an_eighth_of_a_large_layer():
    # Above _BLOCK_ELEMENTS a block after founding holds as many restarts
    # as fit an eighth of the layer in (restarts, p, max(rows, cols))
    # elements: 64 of the 512 here.
    rows = cols = 1024
    abs_w = np.abs(corpus_matrix(rows, cols, "gauss").data)
    tracemalloc.start()
    try:
        row_of, col_of, _ = _construct(abs_w, 2, stream_array(5, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Besides the labels kept: the row orders, 512 x 1024 int64s or four
    # eighths of the layer, and a few block temporaries of an eighth each.
    eighth = rows * cols // 8 * abs_w.itemsize
    assert peak - row_of.nbytes - col_of.nbytes < 16 * eighth


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
        assert nxt is not cur  # the never-worse guard never fired
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
    # Row sums of these magnitudes overflow a float. The grid scales
    # every entry below 1 before it sums a line, so its gains stay finite
    # and exact. The layer is integers times 8e307, not a power of two:
    # the grid rounds each entry by at most half a unit, where one
    # integer is about 2**44 units, so a swap that gains on the grid
    # never loses on the integers.
    ints = corpus_matrix(12, 10, "ties")
    w = WeightMatrix(ints.data * 8e307)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in (2, 3, 4):
            start = balanced_start(12, 10, p, p)
            base = result_from_assignment(w, start, seed=0, restarts=1)
            refined = refine_swaps(w, base)
            assert validate_assignment(refined.assignment, 12, 10).ok
            assert refined.weight_loss <= base.weight_loss
            assert (weight_loss(ints, mask_of(refined.assignment))
                    < weight_loss(ints, mask_of(start)))
            assert_same_refinement(w, base, 50)


GRID_LAYERS = {
    "uniform": lambda: corpus_matrix(64, 40, "uniform").data,
    "ties": lambda: corpus_matrix(17, 13, "ties").data,
    "all_max": lambda: np.full((9, 7), -1.0),
    "huge": lambda: corpus_matrix(12, 10, "ties").data * 8e307,
    "largest": lambda: np.full((3, 5), np.finfo(float).max),
    "subnormal": lambda: corpus_matrix(12, 10, "uniform").data * 1e-310,
    "one_large": lambda: np.where(np.eye(30, 20) > 0, 1e300, 1e-300),
    "wide": lambda: corpus_matrix(2, 3000, "gauss").data,
    "zero": lambda: np.zeros((4, 6)),
}


@pytest.mark.parametrize("kind", GRID_LAYERS)
def test_grid_line_sums_fill_the_headroom(kind):
    data = GRID_LAYERS[kind]()
    with np.errstate(over="ignore"):
        q = _grid(data)
    assert (q == reference_grid(data)).all()
    assert (q == np.rint(q)).all() and (q >= 0).all()
    # Exact integer line sums: at most 2**50, so every gain and swap sum
    # of refinement is exact, and as fine as the headroom allows.
    rows = [math.fsum(line) for line in q.tolist()]
    cols = [math.fsum(line) for line in q.T.tolist()]
    top = max(rows + cols)
    n = max(q.shape)
    assert top <= 2**50
    assert top == 0.0 if kind == "zero" else 2**48 - n <= top <= 2**49 + n


SWAP_KINDS = ["uniform", "integer_ties", "all_equal", "mixed_magnitudes",
              "tiny", "ulp_apart", "non_finite", "empty_partition"]


def swap_case(kind, n, p, seed):
    """Seeded (gain, labels) for one _best_swap call: integers below 2**51."""
    rng = np.random.default_rng([n, p, seed, SWAP_KINDS.index(kind)])
    labels = rng.integers(0, p, n)
    if kind == "uniform":
        gain = rng.integers(0, 2**50, (n, p))
    elif kind == "integer_ties":
        gain = rng.integers(0, 4, (n, p))
    elif kind == "all_equal":
        gain = np.full((n, p), 3)
    elif kind == "mixed_magnitudes":
        # 2**50 next to 0-2: a swap sum spans the whole range.
        gain = np.where(rng.random((n, p)) < 0.5, 2**50, 0) + rng.integers(0, 3, (n, p))
    elif kind == "tiny":
        # One unit, the grid's step, decides every swap.
        gain = rng.integers(0, 2, (n, p))
    elif kind == "ulp_apart":
        # The largest gains: a swap's sums reach 2**52, where adjacent
        # floats are one apart.
        gain = 2**51 - 1 - rng.integers(0, 5, (n, p))
    elif kind == "non_finite":
        # Most partitions empty: most bounds are -inf, -inf + -inf too.
        labels = rng.integers(0, 2, n) * (p - 1)
        gain = rng.integers(0, 10, (n, p))
    else:  # one partition, not always the last, has no nodes
        gain = rng.integers(0, 2**20, (n, p))
        gone = int(rng.integers(0, p))
        labels = np.where(labels == gone, (gone + 1) % p, labels)
    return gain.astype(np.float64), labels


def layout(labels, parts, rng=None):
    """`_best_swap`'s (order, held, starts, sizes) of the labels.

    `order` lists the nodes partition by partition; partition held[r],
    one of those that hold a node, is its run of sizes[r] nodes from
    starts[r]. Each run is in index order, or in a random order with
    `rng`: swaps keep every partition's size, so after some swaps
    refinement's layout has the same runs as a fresh one, each in
    another order.
    """
    held = [k for k in range(parts) if (labels == k).any()]
    runs = [np.flatnonzero(labels == k) for k in held]
    if rng is not None:
        runs = [rng.permutation(run) for run in runs]
    sizes = np.array([len(run) for run in runs])
    starts = np.cumsum(sizes) - sizes
    return np.concatenate(runs), np.array(held), starts, sizes


def two_sides(rows_case, cols_case):
    """(gain, labels) of two one-side cases as `refine_swaps` joins them.

    A row's gains fill columns 0..p-1 and a column's p..2p-1, with -inf
    elsewhere, and the column labels are offset by p.
    """
    (row_gain, row_of), (col_gain, col_of) = rows_case, cols_case
    p = row_gain.shape[1]
    gain = np.full((len(row_of) + len(col_of), 2 * p), -np.inf)
    gain[:len(row_of), :p] = row_gain
    gain[len(row_of):, p:] = col_gain
    return gain, np.concatenate([row_of, col_of + p])


def best_swap(gain, labels, rng=None):
    """`_best_swap` on a layout in index order, or in any order with `rng`."""
    return _best_swap(gain, labels, *layout(labels, gain.shape[1], rng))


@pytest.mark.parametrize("kind", SWAP_KINDS)
def test_best_swap_matches_full_scan(kind):
    won = 0
    for p in range(2, 9):
        for n in (1, 2, 3, 9, 40):
            for seed in range(6):
                gain, labels = swap_case(kind, n, p, seed)
                want = reference_best_swap(gain, labels, p)
                rng = np.random.default_rng(seed)
                assert best_swap(gain, labels) == want, (kind, n, p, seed)
                assert best_swap(gain, labels, rng) == want, (kind, n, p, seed)
                won += want[1] >= 0
                # Both sides in one scan, joined as refinement joins them:
                # no swap pairs the two sides, and the first side wins ties.
                both = two_sides((gain, labels), swap_case(kind, n + 1, p, seed))
                want = reference_best_swap(*both, 2 * p)
                assert best_swap(*both, rng) == want, (kind, n, p, seed)
    # Every kind but the all-equal gains makes swaps that gain.
    assert won > 0 or kind == "all_equal"


def test_best_swap_keeps_a_winner_that_rounds_low():
    # Found by a search over float gains near 2**52, where every sum
    # rounded and the winner's bound fell short of it. Scaled below 2**51
    # every sum is exact: divided by 8, swap (4, 5) beats (0, 5) by one;
    # divided by 16 the two tie and the lower pair wins.
    gain = np.array([[3377699720527886, 13510798882111500],
                     [7881299347898356, 13510798882111492],
                     [3377699720527887, 11],
                     [7881299347898419, 3377699720527880],
                     [3377699720527876, 13510798882111498],
                     [9007199254740991, 26]], dtype=np.float64)
    labels = np.arange(6) % 2
    for div, pair in ((8, (4, 5)), (16, (0, 5))):
        low = np.floor(gain / div)
        want = reference_best_swap(low, labels, 2)
        assert want[1:] == pair
        assert best_swap(low, labels) == want


def full_scan(gain, labels, *layout):
    """`reference_best_swap` with `_best_swap`'s arguments."""
    return reference_best_swap(gain, labels, gain.shape[1])


@pytest.mark.parametrize("k", [1, 5, 20])
def test_k_passes_at_1024_match_the_full_scan(k, monkeypatch):
    w = corpus_matrix(1024, 1024, "uniform")
    base = greedy_partition(w, 4, seed=k)
    got = refine_swaps(w, base, max_passes=k)
    monkeypatch.setattr(partitioner, "_best_swap", full_scan)
    want = refine_swaps(w, base, max_passes=k)
    assert want.weight_loss < base.weight_loss
    assert (got.assignment.row_of == want.assignment.row_of).all()
    assert (got.assignment.col_of == want.assignment.col_of).all()
    assert got.weight_loss == want.weight_loss


@pytest.mark.parametrize("kind", KINDS)
def test_row_swap_wins_a_tie_with_a_column_swap(kind):
    # A symmetric layer with row_of == col_of has the same gains on both
    # sides, so the best row and column swaps gain exactly the same.
    half = corpus_matrix(24, 24, kind).data
    w = WeightMatrix(half + half.T)
    for p in (2, 3, 5):
        start = balanced_start(24, 24, p, p)
        start = PartitionAssignment(p=p, row_of=start.row_of, col_of=start.row_of)
        base = result_from_assignment(w, start, seed=0, restarts=1)
        q = reference_grid(w.data)
        hot = (start.row_of[:, None] == np.arange(p)).astype(float)
        row_best = reference_best_swap(q @ hot, start.row_of, p)
        col_best = reference_best_swap(q.T @ hot, start.col_of, p)
        assert row_best == col_best and row_best[0] > 0.0, (kind, p)
        got = refine_swaps(w, base, max_passes=1)
        want = reference_refine_swaps(w, base, max_passes=1)
        assert (got.assignment.col_of == start.col_of).all(), (kind, p)
        assert (got.assignment.row_of != start.row_of).sum() == 2, (kind, p)
        assert (got.assignment.row_of == want.assignment.row_of).all(), (kind, p)
        assert (got.assignment.col_of == want.assignment.col_of).all(), (kind, p)


ORACLE_SHAPES = [(rows, cols, p) for rows in range(1, 9) for cols in range(1, 9)
                 for p in range(1, min(rows, cols) + 1)]


@pytest.mark.parametrize("kind", KINDS + ["ones"])
def test_oracle_matches_two_pass_reference(kind):
    # On an all-ones layer every candidate ties the best and is scored
    # exactly, and the enumeration order alone picks the witness; those
    # cases stay small to keep the run short.
    limit = 5_000 if kind == "ones" else 500_000
    checked = 0
    for rows, cols, p in ORACLE_SHAPES:
        if reference_enumeration_size(rows, cols, p) > limit:
            continue
        w = edge_matrix(rows, cols, kind)
        got = brute_force_partition(w, p)
        want = reference_brute_force_partition(w, p)
        case = (rows, cols, p)
        assert got.optimum_loss == want.optimum_loss, case
        assert (got.optimum_assignment.row_of == want.optimum_assignment.row_of).all(), case
        assert (got.optimum_assignment.col_of == want.optimum_assignment.col_of).all(), case
        assert got.enumerated == want.enumerated, case
        checked += 1
    assert checked > 100


def test_oracle_refuses_as_the_reference_does():
    for rows, cols, p in ORACLE_SHAPES:
        estimate = reference_enumeration_size(rows, cols, p)
        assert oracle_enumeration_size(rows, cols, p) == estimate
        w = corpus_matrix(rows, cols, "uniform")
        refused = []
        for oracle in (brute_force_partition, reference_brute_force_partition):
            with pytest.raises(OracleBudgetError) as exc:
                oracle(w, p, budget=estimate - 1)
            refused.append(exc.value.estimate)
        assert refused == [estimate, estimate], (rows, cols, p)


def reference_labeled_splits(n: int, caps: tuple, unordered: bool = False) -> np.ndarray:
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


def reference_table_oracle(
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


def compositions(n: int):
    """Every tuple of positive sizes that sums to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_labeled_splits_match_the_recursion():
    # The recursion takes about 10 us a split, so the sizes whose
    # enumeration is largest (many slots of one item at n = 8 and 9) are
    # left out; every slot structure still occurs at smaller n.
    checked = 0
    for n in range(1, 10):
        for caps in compositions(n):
            if _split_count(n, caps) > 5_000:
                continue
            for unordered in (False, True):
                got = _labeled_splits(n, caps, unordered)
                want = reference_labeled_splits(n, caps, unordered)
                assert got.dtype == np.min_scalar_type(len(caps) - 1), (n, caps, unordered)
                assert got.shape == want.shape, (n, caps, unordered)
                assert (got == want).all(), (n, caps, unordered)
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("rows,cols,p", [(1, 1, 1), (6, 6, 2), (8, 8, 3), (9, 4, 4),
                                         (10, 5, 5), (7, 7, 7)])
def test_cached_groupings_match_int64_labels(rows, cols, p):
    # The oracle caches its labels in the smallest type that holds p - 1;
    # they must be the int64 labels of the recursion, and the split index,
    # whose entries reach p * cols - 1, must be int64 like them.
    groupings = _row_groupings(rows, p)
    want = reference_labeled_splits(rows, partition_capacities(rows, p), unordered=True)
    assert groupings.dtype == np.uint8
    assert groupings.shape == want.shape and (groupings == want).all()
    splits, index = _column_splits(cols, p)
    seqs = sorted(set(permutations(partition_capacities(cols, p))), reverse=True)
    want = np.concatenate([reference_labeled_splits(cols, seq) for seq in seqs])
    assert splits.shape == want.shape and (splits == want).all()
    assert index.dtype == np.int64
    assert (index == (want * cols + np.arange(cols)).T).all()


@pytest.mark.parametrize("kind", KINDS + ["decimals", "ones", "zeros"])
def test_pruned_oracle_matches_the_full_table(kind):
    # On all-ones and all-zero layers every candidate of the largest link
    # count ties the best, so every row is built and those candidates
    # are scored exactly; those cases stay small to keep the run short.
    limit = 2_000 if kind in ("ones", "zeros") else 2_000_000
    checked = 0
    for rows, cols, p in ORACLE_SHAPES:
        if oracle_enumeration_size(rows, cols, p) > limit:
            continue
        w = edge_matrix(rows, cols, kind)
        got = brute_force_partition(w, p)
        want = reference_table_oracle(w, p)
        case = (rows, cols, p)
        assert got.optimum_loss == want.optimum_loss, case
        assert (got.optimum_assignment.row_of == want.optimum_assignment.row_of).all(), case
        assert (got.optimum_assignment.col_of == want.optimum_assignment.col_of).all(), case
        assert got.enumerated == want.enumerated, case
        checked += 1
    assert checked > 100


MAGNITUDES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(1e299, 1e300),
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300]),
)


@st.composite
def labelled_rows(draw):
    """(abs_w, groupings, p): magnitudes and any labellings of their rows."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 6))
    p = draw(st.integers(1, min(rows, cols)))
    abs_w = np.array(draw(st.lists(MAGNITUDES, min_size=rows * cols,
                                   max_size=rows * cols))).reshape(rows, cols)
    groupings = np.array(draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows),
        min_size=1, max_size=2 * cols)))
    return abs_w, groupings, p


@settings(max_examples=200, deadline=None)
@given(case=labelled_rows())
def test_row_bound_is_at_least_every_entry_of_its_row(case):
    # Any labelling of the rows, balanced or not, is bounded the same way.
    abs_w, groupings, p = case
    _, index = _column_splits(abs_w.shape[1], p)
    sums = _group_sums(abs_w, groupings, p)
    table = _table_rows(sums, index)
    bound = _row_bounds(sums)
    assert (table <= bound[:, None]).all()


def reference_group_sums(abs_w, groupings, p):
    """The group sums as one indexed add made them: row by row, from 0.0."""
    sums = np.zeros((len(groupings), p, abs_w.shape[1]))
    np.add.at(sums, (np.arange(len(groupings))[:, None], groupings), abs_w)
    return sums


@settings(max_examples=200, deadline=None)
@given(case=labelled_rows())
def test_group_sums_match_indexed_add(case):
    # Groups of any size, empty ones included, and sums that overflow.
    abs_w, groupings, p = case
    with np.errstate(over="ignore"):
        got = _group_sums(abs_w, groupings, p)
        want = reference_group_sums(abs_w, groupings, p)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows,cols,p", [(6, 6, 2), (8, 8, 3), (9, 4, 4), (16, 3, 2),
                                         (12, 2, 5)])
def test_group_sums_of_every_grouping_match_indexed_add(rows, cols, p):
    groupings = _row_groupings(rows, p)
    for kind in KINDS:
        abs_w = np.abs(corpus_matrix(rows, cols, kind).data)
        got = _group_sums(abs_w, groupings, p)
        assert got.tobytes() == reference_group_sums(abs_w, groupings, p).tobytes()


def test_oracle_builds_few_table_rows(monkeypatch):
    built = []
    table_rows = partitioner._table_rows

    def counting(sums, index):
        built.append(len(sums))
        return table_rows(sums, index)

    w = corpus_matrix(8, 8, "uniform")
    want = reference_table_oracle(w, 3)
    monkeypatch.setattr(partitioner, "_table_rows", counting)
    got = brute_force_partition(w, 3)
    assert len(_row_groupings(8, 3)) == 280
    assert 0 < sum(built) <= 28
    assert got.optimum_loss == want.optimum_loss
    assert (got.optimum_assignment.row_of == want.optimum_assignment.row_of).all()
    assert (got.optimum_assignment.col_of == want.optimum_assignment.col_of).all()


@pytest.mark.parametrize("kind,p", [("uniform", 4), ("ones", 2)])
def test_multi_restart_scores_each_distinct_near_assignment_once(kind, p, monkeypatch):
    w = edge_matrix(8, 8, kind)
    restarts, seed = 256, 0
    abs_w = np.abs(w.data)
    row_of, col_of, tracked = _construct(abs_w, p, stream_array(seed, restarts))
    near = np.flatnonzero(tracked >= tracked.max() - 1e-6 * max(abs_w.sum(), 1.0))
    distinct = len(np.unique(np.hstack([row_of[near], col_of[near]]), axis=0))
    assert len(near) > distinct > 1
    want = reference_multi_restart(w, p, restarts, seed)

    calls = []
    loss = partitioner.weight_loss

    def counting(weights, mask):
        calls.append(mask)
        return loss(weights, mask)

    monkeypatch.setattr(partitioner, "weight_loss", counting)
    assert_same(multi_restart(w, p, restarts, seed), want)
    assert len(calls) == distinct


@pytest.mark.parametrize("kind,p", [("uniform", 4), ("ones", 2)])
def test_greedy_partition_scores_no_restart(kind, p, monkeypatch):
    # One construction seed leaves one near restart, kept unscored.
    w = edge_matrix(8, 8, kind)
    calls = []
    loss = partitioner.weight_loss

    def counting(weights, mask):
        calls.append(mask)
        return loss(weights, mask)

    monkeypatch.setattr(partitioner, "weight_loss", counting)
    for seed in (0, 1, -1, 2**64 + 3):
        assert_same(greedy_partition(w, p, seed), reference_greedy(w, p, seed))
    assert calls == []

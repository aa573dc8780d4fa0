import math
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from blockprune import partitioner
from blockprune.core import (
    PartitionAssignment,
    WeightMatrix,
    mask_of,
    partition_capacities,
    validate_assignment,
    weight_loss,
)
from blockprune.generate import blockdiag_matrix, planted_assignment, uniform_matrix
from blockprune.partitioner import (
    MAX_RESTART_LABELS,
    OracleBudgetError,
    brute_force_partition,
    greedy_partition,
    multi_restart,
    oracle_enumeration_size,
    refine_swaps,
)
from blockprune.rng import stream_element


def naive_optimum(weights: WeightMatrix, p: int) -> float:
    """Independent reference: scan every labeled balanced assignment."""
    rows, cols = weights.rows, weights.cols
    rcaps = sorted(partition_capacities(rows, p))
    ccaps = sorted(partition_capacities(cols, p))
    best = float("inf")
    for row_of in product(range(p), repeat=rows):
        if sorted(np.bincount(row_of, minlength=p)) != rcaps:
            continue
        ro = np.array(row_of)
        for col_of in product(range(p), repeat=cols):
            if sorted(np.bincount(col_of, minlength=p)) != ccaps:
                continue
            a = PartitionAssignment(p=p, row_of=ro, col_of=np.array(col_of))
            best = min(best, weight_loss(weights, mask_of(a)))
    return best


class TestGreedy:
    def test_founder_takes_top_four_columns(self):
        # 7x10, p=3: first column capacity is ceil(10/3)=4. Give every
        # row its four largest magnitudes at 0-based columns {2,3,4,6}
        # (descending: 6, 2, 3, 4), so whichever row founds first claims
        # exactly that set.
        data = np.full((7, 10), 0.01)
        data += np.arange(7).reshape(-1, 1) * 0.001  # break cross-row ties
        data[:, 6] = 5.0
        data[:, 2] = 4.0
        data[:, 3] = 3.0
        data[:, 4] = -2.0
        w = WeightMatrix(data)
        for seed in range(5):
            res = greedy_partition(w, 3, seed=seed)
            first = np.flatnonzero(res.assignment.col_of == 0)
            assert set(first) == {2, 3, 4, 6}
            assert len(first) == 4

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_planted_blockdiag_recovered_from_every_seed(self, p, seed):
        rows, cols = 4 * p, 6 * p  # divisible, so every seed recovers
        w = blockdiag_matrix(rows, cols, p, seed=99)
        res = greedy_partition(w, p, seed=seed)
        assert res.weight_loss == 0.0
        planted_row, planted_col = planted_assignment(rows, cols, p)
        planted = mask_of(
            PartitionAssignment(p=p, row_of=planted_row, col_of=planted_col)
        )
        assert (res.mask.bits == planted.bits).all()

    def test_feasibility_and_metrics(self):
        w = uniform_matrix(9, 7, seed=5)
        res = greedy_partition(w, 3, seed=11)
        check = validate_assignment(res.assignment, 9, 7)
        assert check.ok
        assert res.connectedness == int(res.mask.bits.sum())
        assert res.ratio == res.connectedness / 63
        total = float(np.abs(w.data).sum())
        assert res.weight_loss + res.retained_abs_weight == pytest.approx(
            total, rel=1e-9
        )

    def test_retained_link_count_is_capacity_product_sum(self):
        for rows, cols, p, seed in [(9, 7, 3, 0), (10, 10, 2, 1), (11, 13, 4, 2)]:
            w = uniform_matrix(rows, cols, seed=seed)
            res = greedy_partition(w, p, seed=seed)
            rcaps = partition_capacities(rows, p)
            ccaps = partition_capacities(cols, p)
            assert res.connectedness == sum(r * c for r, c in zip(rcaps, ccaps))

    def test_loss_never_below_oracle(self):
        for seed in range(10):
            w = uniform_matrix(6, 6, seed=seed)
            res = greedy_partition(w, 2, seed=seed * 7)
            opt = brute_force_partition(w, 2).optimum_loss
            assert res.weight_loss >= opt

    def test_p_out_of_range(self):
        w = uniform_matrix(4, 6, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            greedy_partition(w, 5, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            greedy_partition(w, 0, seed=0)

    def test_p_equals_one_keeps_everything(self):
        w = uniform_matrix(5, 5, seed=1)
        res = greedy_partition(w, 1, seed=0)
        assert res.weight_loss == 0.0
        assert res.ratio == 1.0

    def test_scale_invariance_of_assignment(self):
        for seed in range(5):
            w = uniform_matrix(8, 8, seed=seed)
            scaled = WeightMatrix(w.data * 7.0)
            a = greedy_partition(w, 3, seed=seed).assignment
            b = greedy_partition(scaled, 3, seed=seed).assignment
            assert (a.row_of == b.row_of).all()
            assert (a.col_of == b.col_of).all()

    def test_deterministic(self):
        w = uniform_matrix(10, 10, seed=4)
        r1 = greedy_partition(w, 3, seed=123)
        r2 = greedy_partition(w, 3, seed=123)
        assert r1.weight_loss == r2.weight_loss
        assert (r1.assignment.row_of == r2.assignment.row_of).all()
        assert (r1.assignment.col_of == r2.assignment.col_of).all()

    def test_zero_matrix_is_still_feasible(self):
        w = WeightMatrix(np.zeros((6, 6)))
        res = greedy_partition(w, 3, seed=0)
        assert validate_assignment(res.assignment, 6, 6).ok
        assert res.weight_loss == 0.0


class TestMultiRestart:
    def test_single_restart_equals_greedy_on_stream_seed(self):
        w = uniform_matrix(7, 9, seed=2)
        direct = greedy_partition(w, 2, seed=stream_element(55, 0))
        multi = multi_restart(w, 2, restarts=1, seed=55)
        assert multi.weight_loss == direct.weight_loss
        assert (multi.assignment.row_of == direct.assignment.row_of).all()
        assert multi.seed == 55
        assert multi.restarts == 1

    def test_planted_recovery_with_restarts(self):
        w = blockdiag_matrix(12, 12, 3, seed=8)
        res = multi_restart(w, 3, restarts=8, seed=0)
        assert res.weight_loss == 0.0

    def test_never_worse_than_any_restart(self):
        w = uniform_matrix(8, 8, seed=3)
        multi = multi_restart(w, 3, restarts=16, seed=9)
        singles = [
            greedy_partition(w, 3, seed=stream_element(9, r)).weight_loss
            for r in range(16)
        ]
        assert multi.weight_loss == min(singles)

    def test_restarts_must_be_positive(self):
        w = uniform_matrix(4, 4, seed=0)
        with pytest.raises(ValueError, match="restarts"):
            multi_restart(w, 2, restarts=0, seed=0)

    def test_restarts_above_the_label_limit_rejected_before_allocating(self):
        # The benchmark's largest searches stay well inside the limit.
        assert 256 * (8 + 8) <= MAX_RESTART_LABELS
        assert 32 * (4096 + 4096) <= MAX_RESTART_LABELS
        w = uniform_matrix(8, 8, seed=0)
        for restarts in (MAX_RESTART_LABELS // 16 + 1, 10**15):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="limit"):
                multi_restart(w, 2, restarts=restarts, seed=0)
            assert time.perf_counter() - start < 0.1

    def test_deterministic_across_calls(self):
        w = uniform_matrix(9, 9, seed=6)
        a = multi_restart(w, 3, restarts=12, seed=77)
        b = multi_restart(w, 3, restarts=12, seed=77)
        assert a.weight_loss == b.weight_loss
        assert (a.assignment.row_of == b.assignment.row_of).all()
        assert (a.assignment.col_of == b.assignment.col_of).all()

    def test_256_restarts_at_oracle_sizes_within_a_second(self):
        # 8 calls on each criterion-3 shape: about 0.2 s with the restarts
        # run in lockstep, about 1.9 s with one Python construction each.
        layers = [(uniform_matrix(n, n, seed=10 * n + p), p)
                  for n in (6, 7, 8) for p in (2, 3)]
        start = time.perf_counter()
        for w, p in layers:
            for seed in range(8):
                multi_restart(w, p, 256, seed)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"48 searches of 256 restarts took {elapsed:.2f} s"


class TestRefineSwaps:
    def test_oracle_optimal_input_unchanged(self):
        w = uniform_matrix(6, 6, seed=13)
        orc = brute_force_partition(w, 2)
        from blockprune.core import result_from_assignment

        optimal = result_from_assignment(w, orc.optimum_assignment, seed=0, restarts=1)
        refined = refine_swaps(w, optimal)
        assert refined.weight_loss == optimal.weight_loss

    def test_restores_planted_after_cross_block_swap(self):
        w = blockdiag_matrix(8, 8, 2, seed=21)
        row_of, col_of = planted_assignment(8, 8, 2)
        row_of = row_of.copy()
        row_of[0], row_of[4] = row_of[4], row_of[0]  # swap across blocks
        from blockprune.core import result_from_assignment

        damaged = result_from_assignment(
            w,
            PartitionAssignment(p=2, row_of=row_of, col_of=col_of),
            seed=0,
            restarts=1,
        )
        assert damaged.weight_loss > 0.0
        repaired = refine_swaps(w, damaged)
        assert repaired.weight_loss == 0.0

    def test_never_increases_loss(self):
        for seed in range(8):
            w = uniform_matrix(8, 8, seed=seed)
            base = greedy_partition(w, 2, seed=seed)
            refined = refine_swaps(w, base)
            assert refined.weight_loss <= base.weight_loss
            assert validate_assignment(refined.assignment, 8, 8).ok

    def test_p1_passthrough(self):
        w = uniform_matrix(4, 4, seed=0)
        base = greedy_partition(w, 1, seed=0)
        assert refine_swaps(w, base) is base

    def test_25_passes_at_256_within_a_second(self):
        # About 3 ms on a 2-vCPU Xeon, where the best swap has a closed
        # form and a swap moves two gain columns; 5 ms with a gain GEMM
        # after each swap and a scan of the pairs near the best, 35 ms
        # scoring every cross-partition pair in array blocks, and 1.3-1.9
        # s with a Python loop over every node pair.
        w = uniform_matrix(256, 256, seed=5)
        base = greedy_partition(w, 4, seed=5)
        start = time.perf_counter()
        refined = refine_swaps(w, base, max_passes=25)
        elapsed = time.perf_counter() - start
        # Every one of the 25 passes made a swap, so the work was done.
        fewer = refine_swaps(w, base, max_passes=24)
        assert refined.weight_loss < fewer.weight_loss < base.weight_loss
        assert elapsed < 1.0, f"25 refine passes at 256x256 took {elapsed:.2f} s"

    def test_20_passes_at_2048_within_0_7_seconds(self):
        # About 0.05 s on a 2-vCPU Xeon, most of it the integer copy of
        # |W|, the first two gain products and the result's loss. A gain
        # GEMM after each swap took 0.1-0.2 s, and scoring every
        # cross-partition pair about 1.1 s.
        w = uniform_matrix(2048, 2048, seed=5)
        base = greedy_partition(w, 4, seed=5)
        start = time.perf_counter()
        refined = refine_swaps(w, base, max_passes=20)
        elapsed = time.perf_counter() - start
        fewer = refine_swaps(w, base, max_passes=19)
        assert refined.weight_loss < fewer.weight_loss < base.weight_loss
        assert elapsed < 0.7, f"20 refine passes at 2048x2048 took {elapsed:.2f} s"

    def test_peak_memory_is_about_one_layer(self):
        # |W| is one layer's worth, and so are the result's gathers of the
        # kept and pruned weights; |W| is freed before those start, so
        # the two are never held at once.
        w = uniform_matrix(1024, 1024, seed=5)
        base = greedy_partition(w, 4, seed=5)
        tracemalloc.start()
        try:
            refined = refine_swaps(w, base, max_passes=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refined.weight_loss < base.weight_loss
        assert peak < 1.25 * w.data.nbytes, f"peak {peak / w.data.nbytes:.2f} layers"

    def test_exact_ties_end_a_huge_pass_limit_at_once(self):
        # The swap of one column pair gains 1.1e-16 here, rounding of two
        # sums that are equal exactly; taking it undoes the last swap, and
        # the pair went to and fro until the pass limit.
        w = WeightMatrix(np.linspace(-1.0, 1.0, 16).reshape(4, 4))
        base = multi_restart(w, 4, 2, 0)
        start = time.perf_counter()
        refined = refine_swaps(w, base, max_passes=10**6)
        elapsed = time.perf_counter() - start
        assert refined.weight_loss == base.weight_loss
        assert elapsed < 1.0, f"refine on exact ties took {elapsed:.2f} s"


def test_refine_does_not_depend_on_blas_kernel(tmp_path):
    # Layers of few distinct decimals have many exactly tied swaps. A
    # float GEMM rounds their gains apart differently under each OpenBLAS
    # kernel, enough to pick another swap; on the grid every gain is
    # exact. A BLAS that ignores OPENBLAS_CORETYPE passes trivially.
    rng = np.random.default_rng(0)
    tenths = rng.choice(["0.1", "0.2", "0.3"], (200, 120))
    thousandths = [f"{v:.3f}" for v in rng.integers(-3, 4, 160 * 96) / 1000]
    layers = {"tenths": tenths, "thousandths": np.reshape(thousandths, (160, 96))}
    kernels = ["Prescott", "Haswell"]
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists() and "avx512f" in cpuinfo.read_text(errors="ignore").split():
        kernels.append("SkylakeX")
    src = str(Path(partitioner.__file__).parents[1])
    for name, values in layers.items():
        layer = tmp_path / f"{name}.csv"
        layer.write_text("".join(",".join(row) + "\n" for row in values))
        outs = []
        for kernel in kernels:
            out = tmp_path / f"{name}-{kernel}.json"
            env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from blockprune.cli import main; sys.exit(main(sys.argv[1:]))",
                 "prune", str(layer), "-p", "3", "--seed", "0", "--refine",
                 "--out", str(out), "--quiet"],
                env=env, check=True)
            outs.append(out.read_bytes())
        assert all(out == outs[0] for out in outs), (name, kernels)


class TestOracle:
    def test_planted_blockdiag_optimum_zero(self):
        w = blockdiag_matrix(6, 6, 2, seed=17)
        orc = brute_force_partition(w, 2)
        assert orc.optimum_loss == 0.0

    def test_two_by_two_diagonal(self):
        w = WeightMatrix(np.array([[5.0, 0.0], [0.0, 5.0]]))
        orc = brute_force_partition(w, 2)
        assert orc.optimum_loss == 0.0
        a = orc.optimum_assignment
        # diagonal pairing: each row shares its partition with its column
        assert (a.row_of == a.col_of).all()

    def test_two_by_two_hand_enumeration(self):
        w = WeightMatrix(np.array([[4.0, 3.0], [2.0, 1.0]]))
        orc = brute_force_partition(w, 2)
        assert orc.optimum_loss == 5.0
        assert orc.enumerated == 2

    def test_matches_naive_reference(self):
        cases = [(4, 4, 2), (5, 4, 2), (5, 5, 2), (6, 5, 3), (6, 6, 3)]
        for i, (rows, cols, p) in enumerate(cases):
            w = uniform_matrix(rows, cols, seed=i)
            orc = brute_force_partition(w, p)
            assert orc.optimum_loss == naive_optimum(w, p)
            assert orc.enumerated == oracle_enumeration_size(rows, cols, p)

    def test_witness_is_feasible_and_consistent(self):
        w = uniform_matrix(7, 6, seed=31)
        orc = brute_force_partition(w, 3)
        a = orc.optimum_assignment
        assert validate_assignment(a, 7, 6).ok
        assert weight_loss(w, mask_of(a)) == orc.optimum_loss

    def test_budget_exceeded(self):
        w = uniform_matrix(12, 12, seed=0)
        with pytest.raises(OracleBudgetError, match="too large") as exc:
            brute_force_partition(w, 4, budget=1000)
        assert exc.value.estimate > 1000

    def test_budget_refusal_is_quick_at_large_p(self):
        # The p! orders of the column capacities are counted, not listed.
        w = uniform_matrix(11, 11, seed=0)
        start = time.perf_counter()
        with pytest.raises(OracleBudgetError) as exc:
            brute_force_partition(w, 11)
        elapsed = time.perf_counter() - start
        assert exc.value.estimate == math.factorial(11)
        assert elapsed < 1.0, f"refusing p=11 took {elapsed:.2f} s"
        assert oracle_enumeration_size(40, 40, 40) == math.factorial(40)

    @pytest.mark.parametrize("budget", [float("nan"), 2.5, True, -1, "100"])
    def test_budget_must_be_a_non_negative_integer(self, budget):
        # A NaN budget once ran with no limit: estimate > nan is false.
        w = uniform_matrix(4, 4, seed=0)
        with pytest.raises(ValueError, match="budget") as exc:
            brute_force_partition(w, 2, budget=budget)
        assert not isinstance(exc.value, OracleBudgetError)

    def test_integer_budgets_are_accepted(self):
        w = uniform_matrix(4, 4, seed=0)
        size = oracle_enumeration_size(4, 4, 2)
        assert brute_force_partition(w, 2, budget=np.int64(size)).enumerated == size
        with pytest.raises(OracleBudgetError):
            brute_force_partition(w, 2, budget=0)

    def test_unequal_side_pairings_explored(self):
        # 3x4 with p=2: row caps (2,1), col caps (2,2). Put all the mass
        # where the single-row group must take one of the 2-column
        # groups; the oracle must consider both pairings.
        data = np.zeros((3, 4))
        data[2, 2] = 9.0
        data[2, 3] = 9.0
        data[0, 0] = data[0, 1] = data[1, 0] = data[1, 1] = 1.0
        w = WeightMatrix(data)
        orc = brute_force_partition(w, 2)
        assert orc.optimum_loss == 0.0


class TestOverflow:
    """A layer whose sum of |W| overflows is refused, not mis-ranked.

    Every margin and tracked weight is then inf, so no candidate was near
    the best: multi_restart and the oracle ended in tracebacks, and
    greedy_partition returned an infinite loss.
    """

    @pytest.mark.parametrize("search", [
        lambda w, p: greedy_partition(w, p, seed=0),
        lambda w, p: multi_restart(w, p, restarts=4, seed=0),
        brute_force_partition,
    ], ids=["greedy", "multi_restart", "oracle"])
    @pytest.mark.parametrize("shape,p", [((4, 4), 2), ((2, 2), 1)])
    def test_overflowing_layer_raises_value_error(self, search, shape, p):
        w = WeightMatrix(np.full(shape, 1e308))
        with pytest.raises(ValueError, match="overflows"):
            search(w, p)

    def test_largest_finite_sum_is_accepted(self):
        data = np.zeros((4, 4))
        data[1, 2] = np.finfo(float).max
        w = WeightMatrix(data)
        assert brute_force_partition(w, 2).optimum_loss == 0.0
        assert multi_restart(w, 2, restarts=4, seed=0).weight_loss == 0.0

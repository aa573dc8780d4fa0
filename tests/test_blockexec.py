import numpy as np
import pytest

from blockprune.blockexec import (
    BlockDecomposition,
    decompose,
    masked_matvec,
    partitioned_matvec,
)
from blockprune.core import (
    LinkMask,
    PartitionAssignment,
    WeightMatrix,
    partition_capacities,
)
from blockprune.generate import blockdiag_matrix, uniform_matrix
from blockprune.partitioner import greedy_partition, multi_restart
from blockprune.rng import uniform_array


def balanced_result(weights, p, seed=0):
    return multi_restart(weights, p, restarts=4, seed=seed)


class TestDecompose:
    def test_6x8_two_blocks_of_3x4(self):
        w = uniform_matrix(6, 8, seed=1)
        res = balanced_result(w, 2)
        d = decompose(w, res.assignment)
        assert [b.shape for b in d.blocks] == [(3, 4), (3, 4)]
        assert sum(b.size for b in d.blocks) == 24  # half of 48

    def test_p1_identity(self):
        w = uniform_matrix(5, 7, seed=2)
        res = balanced_result(w, 1)
        d = decompose(w, res.assignment)
        assert len(d.blocks) == 1
        assert (d.blocks[0] == w.data).all()
        assert (d.row_perm == np.arange(5)).all()
        assert (d.col_perm == np.arange(7)).all()

    def test_7x10_p3_block_shapes(self):
        w = uniform_matrix(7, 10, seed=3)
        res = balanced_result(w, 3)
        d = decompose(w, res.assignment)
        assert sorted((b.shape for b in d.blocks), reverse=True) == [
            (3, 4),
            (2, 3),
            (2, 3),
        ]

    def test_block_sizes_sum_to_connectedness(self):
        w = uniform_matrix(9, 11, seed=4)
        res = balanced_result(w, 3)
        d = decompose(w, res.assignment)
        assert sum(b.size for b in d.blocks) == res.connectedness

    def test_permutations_are_bijections(self):
        w = uniform_matrix(8, 6, seed=5)
        d = decompose(w, balanced_result(w, 2).assignment)
        assert sorted(d.row_perm) == list(range(8))
        assert sorted(d.col_perm) == list(range(6))

    def test_permuted_mask_is_block_diagonal(self):
        w = uniform_matrix(8, 8, seed=6)
        res = balanced_result(w, 2)
        d = decompose(w, res.assignment)
        permuted = res.mask.bits[np.ix_(d.row_perm, d.col_perm)]
        expect = np.zeros((8, 8), dtype=np.uint8)
        r0 = c0 = 0
        for b in d.blocks:
            expect[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = 1
            r0 += b.shape[0]
            c0 += b.shape[1]
        assert (permuted == expect).all()

    def test_infeasible_assignment_rejected(self):
        w = uniform_matrix(6, 6, seed=7)
        bad = PartitionAssignment(
            p=2,
            row_of=np.array([0, 0, 0, 0, 0, 1]),
            col_of=np.array([0, 0, 0, 1, 1, 1]),
        )
        with pytest.raises(ValueError, match="infeasible"):
            decompose(w, bad)


class TestMaskedMatvec:
    def test_full_mask_is_dense_product(self):
        w = uniform_matrix(5, 6, seed=8)
        x = uniform_array(9, 5)
        assert masked_matvec(w, LinkMask.full(5, 6), x) == pytest.approx(
            x @ w.data
        )

    def test_empty_mask_is_zero(self):
        w = uniform_matrix(5, 6, seed=8)
        x = uniform_array(9, 5)
        assert (masked_matvec(w, LinkMask.empty(5, 6), x) == 0.0).all()

    def test_hand_example(self):
        w = WeightMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        m = LinkMask(np.array([[1, 0], [0, 1]]))
        out = masked_matvec(w, m, np.array([1.0, 1.0]))
        assert out.tolist() == [1.0, 4.0]

    def test_length_mismatch(self):
        w = uniform_matrix(4, 3, seed=0)
        with pytest.raises(ValueError, match="length"):
            masked_matvec(w, LinkMask.full(4, 3), np.zeros(3))


class TestPartitionedMatvec:
    def test_p1_equals_dense(self):
        w = uniform_matrix(6, 6, seed=10)
        d = decompose(w, balanced_result(w, 1).assignment)
        x = uniform_array(1, 6)
        assert partitioned_matvec(d, x) == pytest.approx(x @ w.data)

    def test_planted_blocks_equal_unmasked_product(self):
        w = blockdiag_matrix(9, 12, 3, seed=11)
        res = balanced_result(w, 3)
        assert res.weight_loss == 0.0
        d = decompose(w, res.assignment)
        x = uniform_array(2, 9)
        assert partitioned_matvec(d, x) == pytest.approx(x @ w.data)

    def test_equivalence_with_masked_dense(self):
        rng = np.random.default_rng(12)
        for trial in range(100):
            rows = int(rng.integers(4, 20))
            cols = int(rng.integers(4, 20))
            p = int(rng.integers(2, 1 + min(5, rows, cols)))
            w = uniform_matrix(rows, cols, seed=trial)
            res = balanced_result(w, p, seed=trial)
            d = decompose(w, res.assignment)
            x = rng.normal(size=rows)
            want = masked_matvec(w, res.mask, x)
            got = partitioned_matvec(d, x)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-9)

    def test_length_mismatch(self):
        w = uniform_matrix(6, 4, seed=13)
        d = decompose(w, balanced_result(w, 2).assignment)
        with pytest.raises(ValueError, match="length"):
            partitioned_matvec(d, np.zeros(5))

    def test_roundtrip_permutation_identity(self):
        w = uniform_matrix(7, 9, seed=14)
        res = greedy_partition(w, 3, seed=1)
        d = decompose(w, res.assignment)
        x = np.arange(7, dtype=float)
        assert (x[d.row_perm][np.argsort(d.row_perm)] == x).all()


class TestBatchedInput:
    def setup_method(self):
        self.w = uniform_matrix(9, 11, seed=15)
        self.res = balanced_result(self.w, 3)
        self.x = 2.0 * uniform_array(16, 5 * 9).reshape(5, 9) - 1.0

    def test_masked_matches_single_rows(self):
        mask = self.res.mask
        batched = masked_matvec(self.w, mask, self.x)
        assert batched.shape == (5, 11)
        for t in range(5):
            np.testing.assert_allclose(
                batched[t], masked_matvec(self.w, mask, self.x[t]),
                rtol=1e-12, atol=1e-15,
            )

    def test_partitioned_matches_single_rows(self):
        d = decompose(self.w, self.res.assignment)
        batched = partitioned_matvec(d, self.x)
        assert batched.shape == (5, 11)
        for t in range(5):
            np.testing.assert_allclose(
                batched[t], partitioned_matvec(d, self.x[t]),
                rtol=1e-12, atol=1e-15,
            )

    def test_wrong_trailing_dimension_rejected(self):
        bad = np.zeros((5, 8))
        with pytest.raises(ValueError, match="length"):
            masked_matvec(self.w, self.res.mask, bad)
        with pytest.raises(ValueError, match="length"):
            partitioned_matvec(decompose(self.w, self.res.assignment), bad)


def reference_split(weights, assignment):
    """Blocks cut with one lexsort per side and one scan per partition."""
    row_perm = np.lexsort((np.arange(weights.rows), assignment.row_of))
    col_perm = np.lexsort((np.arange(weights.cols), assignment.col_of))
    blocks = []
    for k in range(assignment.p):
        rows_k = np.flatnonzero(assignment.row_of == k)
        cols_k = np.flatnonzero(assignment.col_of == k)
        blocks.append(weights.data[np.ix_(rows_k, cols_k)])
    return BlockDecomposition(p=assignment.p, row_perm=row_perm,
                              col_perm=col_perm, blocks=tuple(blocks))


def shuffled_assignment(rows, cols, p, seed):
    """A feasible assignment: each side's balanced sizes, labels shuffled."""
    rng = np.random.default_rng(seed)
    sides = []
    for n in (rows, cols):
        labels = rng.permutation(p)[np.repeat(np.arange(p), partition_capacities(n, p))]
        sides.append(rng.permutation(labels))
    return PartitionAssignment(p, *sides)


class TestSplitReference:
    @pytest.mark.parametrize("rows,cols,p", [
        (8, 8, 3), (7, 10, 3), (13, 5, 2), (6, 9, 1), (9, 6, 1),
        (6, 9, 6), (9, 4, 4), (12, 12, 12), (1, 1, 1)])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lexsort_and_scans(self, rows, cols, p, seed):
        w = WeightMatrix(np.random.default_rng(100 + seed).standard_normal((rows, cols)))
        a = shuffled_assignment(rows, cols, p, seed)
        got = decompose(w, a)
        want = reference_split(w, a)
        for field in ("row_perm", "col_perm"):
            g, h = getattr(got, field), getattr(want, field)
            assert g.dtype == h.dtype and np.array_equal(g, h)
        assert len(got.blocks) == len(want.blocks) == p
        for g, h in zip(got.blocks, want.blocks):
            assert g.shape == h.shape and g.tobytes() == h.tobytes()
        x = np.random.default_rng(seed).standard_normal((3, rows))
        for v in (x, x[0]):
            assert (partitioned_matvec(got, v).tobytes()
                    == partitioned_matvec(want, v).tobytes())

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprune.core import (
    LinkMask,
    PartitionAssignment,
    PruneResult,
    WeightMatrix,
    connectedness,
    connectedness_full,
    connectedness_ratio,
    mask_of,
    partition_capacities,
    result_from_assignment,
    retained_abs_weight,
    validate_assignment,
    weight_loss,
)


def two_partition_6x8() -> PartitionAssignment:
    # rows 0-2 / cols 0-3 in partition 0, the rest in partition 1
    return PartitionAssignment(
        p=2,
        row_of=np.array([0, 0, 0, 1, 1, 1]),
        col_of=np.array([0, 0, 0, 0, 1, 1, 1, 1]),
    )


class TestConnectedness:
    def test_full_6x8_mask_counts_48(self):
        assert connectedness(LinkMask.full(6, 8)) == 48

    def test_empty_mask_counts_0(self):
        assert connectedness(LinkMask.empty(6, 8)) == 0

    def test_two_partition_mask_counts_24(self):
        mask = mask_of(two_partition_6x8())
        assert connectedness(mask) == 24
        assert connectedness_ratio(mask) == 0.5

    def test_full_count(self):
        assert connectedness_full(6, 8) == 48
        assert connectedness_full(1, 1) == 1
        assert connectedness_full(7, 10) == 70

    def test_degenerate_layer_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            connectedness_full(0, 8)

    def test_ratio_extremes(self):
        assert connectedness_ratio(LinkMask.full(6, 8)) == 1.0
        assert connectedness_ratio(LinkMask.empty(6, 8)) == 0.0


class TestWeightLoss:
    def test_all_ones_mask_loses_nothing(self):
        w = WeightMatrix(np.arange(12, dtype=float).reshape(3, 4) - 5.0)
        assert weight_loss(w, LinkMask.full(3, 4)) == 0.0

    def test_all_zeros_mask_loses_everything(self):
        w = WeightMatrix(np.array([[1.0, -2.0], [3.0, 4.0]]))
        assert weight_loss(w, LinkMask.empty(2, 2)) == 10.0

    def test_hand_sum(self):
        w = WeightMatrix(np.array([[1.0, -2.0], [3.0, 4.0]]))
        m = LinkMask(np.array([[1, 0], [0, 1]]))
        assert weight_loss(w, m) == 5.0

    def test_dimension_mismatch(self):
        w = WeightMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="dimensions"):
            weight_loss(w, LinkMask.full(3, 2))

    @given(
        st.integers(2, 6),
        st.integers(2, 6),
        st.integers(0, 2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_loss_plus_retained_is_total(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        w = WeightMatrix(rng.normal(size=(rows, cols)))
        m = LinkMask(rng.integers(0, 2, size=(rows, cols)))
        total = float(np.abs(w.data).sum())
        got = weight_loss(w, m) + retained_abs_weight(w, m)
        assert got == pytest.approx(total, rel=1e-9)

    @given(st.integers(0, 2**32), st.integers(0, 11))
    @settings(max_examples=50, deadline=None)
    def test_loss_depends_on_magnitude_only(self, seed, flip):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(3, 4))
        m = LinkMask(rng.integers(0, 2, size=(3, 4)))
        flipped = data.copy()
        flipped[flip // 4, flip % 4] *= -1.0
        assert weight_loss(WeightMatrix(data), m) == weight_loss(
            WeightMatrix(flipped), m
        )


class TestCapacities:
    def test_spec_examples(self):
        assert partition_capacities(22, 5) == (5, 5, 4, 4, 4)
        assert partition_capacities(10, 3) == (4, 3, 3)
        assert partition_capacities(8, 2) == (4, 4)

    def test_exact_beyond_float_range(self):
        # Float division overflowed above 1.8e308 and rounded above 2**53.
        n = 10**400 + 1
        assert partition_capacities(n, 3) == (n // 3 + 1, n // 3 + 1, n // 3)
        assert partition_capacities(2**53 + 1, 1) == (2**53 + 1,)

    def test_more_partitions_than_nodes(self):
        with pytest.raises(ValueError, match="more partitions than nodes"):
            partition_capacities(3, 4)

    def test_zero_partitions(self):
        with pytest.raises(ValueError):
            partition_capacities(3, 0)

    @given(st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=100, deadline=None)
    def test_sum_and_balance(self, n, p):
        if p > n:
            n, p = p, n
        caps = partition_capacities(n, p)
        assert sum(caps) == n
        assert max(caps) - min(caps) <= 1
        assert list(caps) == sorted(caps, reverse=True)


class TestValidation:
    def test_balanced_two_partition_accepted(self):
        check = validate_assignment(two_partition_6x8(), 6, 8)
        assert check.ok
        assert check.violations == ()

    def test_overfull_partition_rejected(self):
        bad = PartitionAssignment(
            p=2,
            row_of=np.array([0, 0, 0, 0, 0, 1]),
            col_of=np.array([0, 0, 0, 0, 1, 1, 1, 1]),
        )
        check = validate_assignment(bad, 6, 8)
        assert not check.ok
        assert "upper bound" in check.first_violation

    def test_wrong_count_at_bounds_rejected(self):
        # 7 rows in 3 partitions must size (3,2,2); (3,3,1) breaks the
        # lower bound
        bad = PartitionAssignment(
            p=3,
            row_of=np.array([0, 0, 0, 1, 1, 1, 2]),
            col_of=np.array([0, 0, 0, 1, 1, 2, 2]),
        )
        check = validate_assignment(bad, 7, 7)
        assert not check.ok
        assert "bound" in check.first_violation

    @pytest.mark.parametrize("n", range(1, 7))
    def test_accepts_exactly_the_capacity_sizes(self, n):
        # Every label vector of n nodes in p <= n partitions, on each side:
        # a side passes exactly when its sorted sizes are the capacities.
        for p in range(1, n + 1):
            want = sorted(partition_capacities(n, p))
            balanced = np.arange(n) % p
            for labels in itertools.product(range(p), repeat=n):
                labels = np.array(labels)
                ok = sorted(np.bincount(labels, minlength=p).tolist()) == want
                rows = PartitionAssignment(p=p, row_of=labels, col_of=balanced)
                cols = PartitionAssignment(p=p, row_of=balanced, col_of=labels)
                assert validate_assignment(rows, n, n).ok == ok
                assert validate_assignment(cols, n, n).ok == ok

    def test_length_mismatch_reported(self):
        a = two_partition_6x8()
        check = validate_assignment(a, 7, 8)
        assert not check.ok
        assert "length" in check.first_violation

    def test_label_out_of_range_reported(self):
        bad = PartitionAssignment(
            p=2, row_of=np.array([0, 5]), col_of=np.array([0, 1])
        )
        check = validate_assignment(bad, 2, 2)
        assert not check.ok


class TestMaskOf:
    @given(st.integers(0, 2**32), st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_connectedness_is_blockwise_product_sum(self, seed, p):
        rng = np.random.default_rng(seed)
        rows, cols = p + int(rng.integers(0, 6)), p + int(rng.integers(0, 6))
        a = PartitionAssignment(
            p=p,
            row_of=rng.integers(0, p, size=rows),
            col_of=rng.integers(0, p, size=cols),
        )
        mask = mask_of(a)
        expect = sum(
            int((a.row_of == k).sum()) * int((a.col_of == k).sum())
            for k in range(p)
        )
        assert connectedness(mask) == expect
        res = result_from_assignment(
            WeightMatrix(np.ones((rows, cols))), a, seed=0, restarts=1
        )
        assert type(res.connectedness) is int and res.connectedness == expect
        assert res.ratio == connectedness_ratio(mask)
        assert (res.mask.bits == mask.bits).all()

    def test_divisible_dims_hit_exact_ratio(self):
        for p in (2, 3, 4, 5):
            rows, cols = 6 * p, 8 * p
            row_of = np.repeat(np.arange(p), rows // p)
            col_of = np.repeat(np.arange(p), cols // p)
            mask = mask_of(PartitionAssignment(p=p, row_of=row_of, col_of=col_of))
            assert connectedness_ratio(mask) == 1.0 / p


class TestTypes:
    def test_weights_must_be_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            WeightMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            WeightMatrix(np.array([[np.inf, 1.0]]))

    def test_mask_bits_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            LinkMask(np.array([[0, 2]]))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint64, np.int8,
                                       np.int64, np.float32, np.float64])
    def test_mask_accepts_zero_one_of_any_dtype(self, dtype):
        m = LinkMask(np.array([[0, 1], [1, 1]], dtype=dtype))
        assert m.bits.dtype == np.uint8
        assert m.bits.tolist() == [[0, 1], [1, 1]]

    @pytest.mark.parametrize("bad", [
        np.array([[0, 2]], dtype=np.uint8),
        np.array([[1, 2]], dtype=np.uint64),
        np.array([[0, -1]], dtype=np.int64),
        np.array([[1, -1]], dtype=np.int8),
        np.array([[0.5, 1.0]]),
        np.array([[1.0, np.nan]]),
        np.array([[np.inf, 0.0]]),
        np.array([[1 + 1j, 0]]),
    ])
    def test_mask_rejects_non_binary_values(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            LinkMask(bad)

    def test_values_are_locked(self):
        w = WeightMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            w.data[0, 0] = 3.0

    def test_construction_copies_input(self):
        src = np.ones((2, 2))
        w = WeightMatrix(src)
        src[0, 0] = 7.0
        assert w.data[0, 0] == 1.0

    def test_flat_values_row_major(self):
        w = WeightMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert list(w.values) == [1.0, 2.0, 3.0, 4.0]


def test_prune_result_stores_only_what_the_assignment_cannot_give():
    names = [f.name for f in dataclasses.fields(PruneResult)]
    assert names == [
        "assignment", "weight_loss", "retained_abs_weight", "seed", "restarts",
    ]

import numpy as np
import pytest

from blockprune.rng import (
    SplitMix64,
    batch_permutation,
    stream_array,
    stream_element,
    uniform_array,
)


# Reference outputs of the public-domain SplitMix64 algorithm for seed 0.
KNOWN_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_known_answer_seed0():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == KNOWN_SEED0


def test_stream_element_matches_sequential():
    rng = SplitMix64(42)
    seq = [rng.next_u64() for _ in range(10)]
    assert [stream_element(42, r) for r in range(10)] == seq


def test_stream_array_matches_scalar():
    arr = stream_array(42, 10)
    assert arr.dtype == np.uint64
    assert [int(v) for v in arr] == [stream_element(42, r) for r in range(10)]


def test_stream_array_offset():
    full = stream_array(7, 20)
    tail = stream_array(7, 12, offset=8)
    assert (full[8:] == tail).all()


def test_seed_wraps_to_64_bits():
    assert stream_element(2**64 + 5, 0) == stream_element(5, 0)


def test_uniform_array_range_and_determinism():
    u = uniform_array(123, 10000)
    assert ((u >= 0.0) & (u < 1.0)).all()
    assert (u == uniform_array(123, 10000)).all()
    # crude uniformity sanity
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_array_is_the_sequential_stream():
    # Reference: one draw at a time, (next_u64() >> 11) * 2**-53.
    for seed in (0, 5, 2**64 - 1):
        rng = SplitMix64(seed)
        seq = [(rng.next_u64() >> 11) * 2.0 ** -53 for _ in range(40)]
        assert uniform_array(seed, 40).tolist() == seq
        assert uniform_array(seed, 25, offset=15).tolist() == seq[15:]


def test_permutation_is_permutation_and_deterministic():
    for seed in (0, 1, 999):
        perm = SplitMix64(seed).permutation(50)
        assert sorted(perm) == list(range(50))
        assert (perm == SplitMix64(seed).permutation(50)).all()


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 2048])
def test_permutation_is_the_sequential_shuffle(seed, n):
    # Reference: Fisher-Yates with one next_below draw per position.
    ref = SplitMix64(seed)
    want = list(range(n))
    for i in range(n - 1, 0, -1):
        j = ref.next_below(i + 1)
        want[i], want[j] = want[j], want[i]
    rng = SplitMix64(seed)
    perm = rng.permutation(n)
    assert perm.dtype == np.int64
    assert perm.tolist() == want
    # The generator ends where the sequential draws left it.
    assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 257])
def test_batch_permutation_rows_are_the_sequential_shuffles(n):
    seeds = np.array([0, 1, 42, 2**63, 2**64 - 1, 42], dtype=np.uint64)
    perms = batch_permutation(seeds, n)
    assert perms.shape == (len(seeds), n) and perms.dtype == np.int64
    for seed, perm in zip(seeds.tolist(), perms):
        ref = SplitMix64(seed)
        want = list(range(n))
        for i in range(n - 1, 0, -1):
            j = ref.next_below(i + 1)
            want[i], want[j] = want[j], want[i]
        assert perm.tolist() == want


@pytest.mark.parametrize("n", [0, 1, 5])
def test_batch_permutation_of_no_seeds_is_empty(n):
    perms = batch_permutation(np.array([], dtype=np.uint64), n)
    assert perms.shape == (0, n) and perms.dtype == np.int64


def test_different_seeds_differ():
    assert stream_element(1, 0) != stream_element(2, 0)

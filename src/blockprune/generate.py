"""Seeded test-instance generators.

All distributions draw from the SplitMix64 stream of the given seed, so
a (dims, distribution, seed) triple always produces the same matrix on
any platform. Values get rounded to 32-bit on write, so generated files
are byte-stable too.
"""

from __future__ import annotations

import numpy as np

from .core import WeightMatrix, check_int, partition_capacities
from .rng import uniform_array

# Most links (rows * cols) generate accepts: 8192 x 8192, four times the
# paper's 4096 x 4096. A draw holds a few float64 arrays of this many
# entries, 0.5 GB each at the bound.
MAX_GENERATE_LINKS = 1 << 26


def uniform_matrix(rows: int, cols: int, seed: int) -> WeightMatrix:
    """Entries uniform in [-1, 1)."""
    u = uniform_array(seed, rows * cols)
    return WeightMatrix((2.0 * u - 1.0).reshape(rows, cols))


def gauss_matrix(rows: int, cols: int, seed: int) -> WeightMatrix:
    """Standard-normal entries via Box-Muller."""
    n = rows * cols
    u1 = uniform_array(seed, n)
    u2 = uniform_array(seed, n, offset=n)
    r = np.sqrt(-2.0 * np.log(1.0 - u1))  # 1-u1 keeps the log argument > 0
    z = r * np.cos(2.0 * np.pi * u2)
    return WeightMatrix(z.reshape(rows, cols))


def blockdiag_matrix(rows: int, cols: int, p: int, seed: int) -> WeightMatrix:
    """Planted block-diagonal support with exact zeros off-block.

    Blocks follow the balanced capacities (largest row group with the
    largest column group) on contiguous index ranges; on-block magnitudes
    are uniform in [0.5, 1.5) with random signs, so no surviving link is
    ever negligible. Ground truth for recovery tests.
    """
    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    n = rows * cols
    mag = 0.5 + uniform_array(seed, n).reshape(rows, cols)
    sign = np.where(uniform_array(seed, n, offset=n) < 0.5, -1.0, 1.0).reshape(
        rows, cols
    )
    data = np.zeros((rows, cols))
    r0 = c0 = 0
    for rc, cc in zip(row_caps, col_caps):
        data[r0 : r0 + rc, c0 : c0 + cc] = (
            mag[r0 : r0 + rc, c0 : c0 + cc] * sign[r0 : r0 + rc, c0 : c0 + cc]
        )
        r0 += rc
        c0 += cc
    return WeightMatrix(data)


def planted_assignment(rows: int, cols: int, p: int):
    """The (row_of, col_of) labels blockdiag_matrix plants."""
    row_of = np.repeat(np.arange(p), partition_capacities(rows, p))
    col_of = np.repeat(np.arange(p), partition_capacities(cols, p))
    return row_of, col_of


def generate(rows: int, cols: int, dist: str, seed: int) -> WeightMatrix:
    """Dispatch on a distribution name: uniform, gauss, or blockdiag:p.

    Raises ValueError, before drawing, for a layer of more than
    MAX_GENERATE_LINKS links.
    """
    for dim in (rows, cols):
        check_int(dim, 1, np.inf, "matrix dimensions must be >= 1")
    check_int(rows * cols, 1, MAX_GENERATE_LINKS,
              f"a {rows}x{cols} layer has {rows * cols} links, "
              f"more than the limit of {MAX_GENERATE_LINKS}")
    check_int(seed, -np.inf, np.inf, "seed must be an integer")
    if dist == "uniform":
        return uniform_matrix(rows, cols, seed)
    if dist == "gauss":
        return gauss_matrix(rows, cols, seed)
    if dist.startswith("blockdiag:"):
        try:
            p = int(dist.split(":", 1)[1])
        except ValueError as e:
            raise ValueError(f"bad partition count in {dist!r}") from e
        return blockdiag_matrix(rows, cols, p, seed)
    raise ValueError(f"unknown distribution {dist!r}")

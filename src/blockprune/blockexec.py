"""Block-diagonal execution of a pruned layer.

A feasible pruning makes the surviving links block-diagonal after sorting
rows and columns by partition. Each block can then run as an independent
dense sub-multiplication, one per compute unit; concatenating the block
outputs and undoing the column permutation must reproduce the masked
dense product exactly (up to accumulation-order rounding). That
equivalence is what makes the partitions independently executable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LinkMask, PartitionAssignment, WeightMatrix, validate_assignment


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Permutations plus the dense per-partition weight blocks.

    row_perm[k] / col_perm[k] give the original index of the node at
    permuted position k; positions are ordered by (partition, original
    index). Block k holds the retained weights of partition k.
    """

    p: int
    row_perm: np.ndarray
    col_perm: np.ndarray
    blocks: tuple

    @property
    def rows(self) -> int:
        return len(self.row_perm)

    @property
    def cols(self) -> int:
        return len(self.col_perm)


def decompose(
    weights: WeightMatrix, assignment: PartitionAssignment
) -> BlockDecomposition:
    """Extract the per-partition weight blocks of a feasible assignment."""
    check = validate_assignment(assignment, weights.rows, weights.cols)
    if not check.ok:
        raise ValueError(f"infeasible assignment: {check.first_violation}")
    row_perm = np.argsort(assignment.row_of, kind="stable")
    col_perm = np.argsort(assignment.col_of, kind="stable")
    # Partition k's nodes, in index order, are run k of each permutation.
    row_cuts, col_cuts = (np.cumsum(n)[:-1] for n in assignment.sizes)
    blocks = [weights.data[np.ix_(rows_k, cols_k)] for rows_k, cols_k in
              zip(np.split(row_perm, row_cuts), np.split(col_perm, col_cuts))]
    return BlockDecomposition(
        p=assignment.p,
        row_perm=row_perm,
        col_perm=col_perm,
        blocks=tuple(blocks),
    )


def masked_matvec(
    weights: WeightMatrix, mask: LinkMask, input: np.ndarray
) -> np.ndarray:
    """Reference semantics of the pruned layer: out = input @ (W * mask).

    Pure layer arithmetic, no bias or activation; out[j] sums
    input[i] * w[i, j] over surviving links only. `input` is one vector
    of length rows or a (..., rows) batch of them.
    """
    if (weights.rows, weights.cols) != (mask.rows, mask.cols):
        raise ValueError("weights and mask dimensions differ")
    x = np.asarray(input, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != weights.rows:
        raise ValueError(f"input length {x.shape} != rows {weights.rows}")
    return x @ (weights.data * mask.bits)


def partitioned_matvec(decomp: BlockDecomposition, input: np.ndarray) -> np.ndarray:
    """Run each block independently and reassemble the dense-order output.

    Blocks are mutually independent, so this models one sub-multiplication
    per compute unit; output positions are fixed by the permutations, so
    execution order cannot change the result. `input` is one vector of
    length rows or a (..., rows) batch of them.
    """
    x = np.asarray(input, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != decomp.rows:
        raise ValueError(f"input length {x.shape} != rows {decomp.rows}")
    x_perm = x[..., decomp.row_perm]
    pieces = []
    start = 0
    for block in decomp.blocks:
        m = block.shape[0]
        pieces.append(x_perm[..., start : start + m] @ block)
        start += m
    out = np.empty(x.shape[:-1] + (decomp.cols,), dtype=np.float64)
    out[..., decomp.col_perm] = np.concatenate(pieces, axis=-1)
    return out

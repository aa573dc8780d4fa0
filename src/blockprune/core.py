"""Domain types and metrics for balanced layer partitioning.

A dense layer is a rows x cols weight matrix: rows input nodes, cols
output nodes, one link per (i, j) pair. Pruning keeps only links whose
endpoints share a partition; the surviving links form a binary mask.
This module holds the value types (weights, masks, assignments, prune
results) and the scalar metrics defined on them: link count, retained
ratio, and cumulative absolute weight loss.

All types are immutable after construction (arrays are locked), so they
are safe to share across threads. Indices are 0-based throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


def check_int(value, lo, hi, message: str, above: str | None = None) -> int:
    """`value` as an int, if it is an integer in [lo, hi]; numpy integers
    are, bools are not. Else raises ValueError(`above`) for a value above
    hi, when `above` is given, and ValueError(`message`) for any other.
    """
    # An exact type test: the fast path, and one that no bool passes.
    if type(value) is not int and not isinstance(value, np.integer) or value < lo:
        raise ValueError(message)
    if value > hi:
        raise ValueError(above or message)
    return int(value)


def _locked(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Dense trained-layer weights, held in 64-bit floats.

    Weights may arrive from 32-bit storage; they are widened on load so
    magnitude sums are reproducible. Every value must be finite.
    """

    data: np.ndarray

    def __post_init__(self):
        try:
            a = np.array(self.data, dtype=np.float64, order="C")
        except OverflowError as e:  # a Python int past a float
            raise ValueError(f"weight matrix value does not fit a float: {e}") from e
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("weight matrix must be 2-D with positive dimensions")
        if not np.all(np.isfinite(a)):
            raise ValueError("weight matrix contains non-finite values")
        object.__setattr__(self, "data", _locked(a))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def values(self) -> np.ndarray:
        """Row-major flat view of the weights."""
        return self.data.reshape(-1)


@dataclass(frozen=True, eq=False)
class LinkMask:
    """Binary link matrix: 1 = link kept, 0 = link pruned."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError("mask must be 2-D with positive dimensions")
        if b.dtype.kind in "bu":
            binary = b.max() <= 1
        else:
            binary = ((b == 0) | (b == 1)).all()
        if not binary:
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "bits", _locked(np.array(b, dtype=np.uint8, order="C")))

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @classmethod
    def full(cls, rows: int, cols: int) -> "LinkMask":
        return cls(np.ones(connectedness_full(rows, cols), np.uint8).reshape(rows, cols))

    @classmethod
    def empty(cls, rows: int, cols: int) -> "LinkMask":
        return cls(np.zeros(connectedness_full(rows, cols), np.uint8).reshape(rows, cols))


@dataclass(frozen=True, eq=False)
class PartitionAssignment:
    """Maps every row and column node to exactly one of p partitions.

    Disjointness is structural: row_of / col_of are total functions, so a
    node cannot belong to two partitions. Balance (group sizes within the
    floor/ceil bounds) is checked by validate_assignment, not enforced
    here, so invalid assignments can be represented and reported on.
    """

    p: int
    row_of: np.ndarray
    col_of: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "p", check_int(self.p, 1, math.inf, "partition count must be >= 1"))
        try:
            r = np.array(self.row_of, dtype=np.int64)
            c = np.array(self.col_of, dtype=np.int64)
        except OverflowError as e:  # a Python int past int64, or an infinity
            raise ValueError(f"labels must fit a 64-bit integer: {e}") from e
        if r.ndim != 1 or c.ndim != 1:
            raise ValueError("row_of and col_of must be 1-D")
        object.__setattr__(self, "row_of", _locked(r))
        object.__setattr__(self, "col_of", _locked(c))

    @property
    def rows(self) -> int:
        return len(self.row_of)

    @property
    def cols(self) -> int:
        return len(self.col_of)

    @property
    def sizes(self) -> tuple:
        """(rows per partition, columns per partition), as int arrays."""
        return (np.bincount(self.row_of, minlength=self.p),
                np.bincount(self.col_of, minlength=self.p))


@dataclass(frozen=True, eq=False)
class PruneResult:
    """A pruning: the assignment plus the metrics that need the weights.

    Mask, connectedness and ratio follow from the assignment and are
    derived on access; `mask` builds a new rows x cols array each time.
    """

    assignment: PartitionAssignment
    weight_loss: float
    retained_abs_weight: float
    seed: int
    restarts: int

    @property
    def mask(self) -> LinkMask:
        return mask_of(self.assignment)

    @property
    def connectedness(self) -> int:
        """Surviving links: sum over partitions of rows_k * cols_k."""
        rows, cols = self.assignment.sizes
        return int(rows @ cols)

    @property
    def ratio(self) -> float:
        a = self.assignment
        return self.connectedness / connectedness_full(a.rows, a.cols)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of checking an assignment against the balance bounds."""

    ok: bool
    violations: tuple = field(default_factory=tuple)

    @property
    def first_violation(self) -> str | None:
        return self.violations[0] if self.violations else None


def connectedness(mask: LinkMask) -> int:
    """Number of surviving links (set bits) in the mask."""
    return int(mask.bits.sum())


def connectedness_full(rows: int, cols: int) -> int:
    """Link count of the unpruned layer: rows * cols."""
    message = "degenerate layer: dimensions must be >= 1"
    return check_int(rows, 1, math.inf, message) * check_int(cols, 1, math.inf, message)


def connectedness_ratio(mask: LinkMask) -> float:
    """Fraction of links surviving: C / C_full, in [0, 1]."""
    return connectedness(mask) / connectedness_full(mask.rows, mask.cols)


def _abs_sum(weights: WeightMatrix, selected: np.ndarray) -> float:
    """Sum of |w| over the selected entries, added in row-major order.

    Every weight metric goes through here, so equal selections always
    give bit-equal sums and exact comparisons between search and oracle
    are sound.
    """
    picked = weights.data[selected]
    return float(np.abs(picked, out=picked).sum())


def _check_dims(weights: WeightMatrix, mask):
    """`mask` is a LinkMask or a PartitionAssignment: both have rows and cols."""
    if (weights.rows, weights.cols) != (mask.rows, mask.cols):
        raise ValueError("weights and mask dimensions differ")


def weight_loss(weights: WeightMatrix, mask: LinkMask) -> float:
    """Cumulative absolute weight of pruned links."""
    _check_dims(weights, mask)
    return _abs_sum(weights, mask.bits == 0)


def retained_abs_weight(weights: WeightMatrix, mask: LinkMask) -> float:
    """Cumulative absolute weight of surviving links."""
    _check_dims(weights, mask)
    return _abs_sum(weights, mask.bits == 1)


def partition_capacities(n: int, p: int) -> tuple:
    """Balanced group sizes for n nodes in p partitions, largest first.

    The first n % p entries are ceil(n/p), the rest floor(n/p); only the
    multiset is meaningful, the non-increasing order is a canonical form.
    """
    # The result is a p-tuple, and Python builds none longer than sys.maxsize.
    # A p below that but past memory still ends in MemoryError.
    p = check_int(p, 1, sys.maxsize, "partition count must be >= 1",
                  "partition count is more than the longest tuple")
    check_int(n, -math.inf, math.inf, "node count must be an integer")
    n = check_int(n, p, math.inf, f"more partitions than nodes: p={p} > n={n}")
    hi, lo = -(-n // p), n // p
    k = n % p
    return (hi,) * k + (lo,) * (p - k)


def mask_of(assignment: PartitionAssignment) -> LinkMask:
    """Mask keeping exactly the links whose endpoints share a partition."""
    return LinkMask(assignment.row_of[:, None] == assignment.col_of[None, :])


def _check_side(labels: np.ndarray, n: int, p: int, name: str, out: list):
    if len(labels) != n:
        out.append(f"{name} assignment has length {len(labels)}, expected {n}")
        return
    if len(labels) and (labels.min() < 0 or labels.max() >= p):
        out.append(f"{name} labels must lie in [0, {p})")
        return
    lo, hi = math.floor(n / p), math.ceil(n / p)
    sizes = np.bincount(labels, minlength=p)
    for k in range(p):
        if sizes[k] > hi:
            out.append(
                f"{name} partition {k} holds {sizes[k]} nodes, "
                f"upper bound ceil({n}/{p})={hi} exceeded"
            )
            return
        if sizes[k] < lo:
            out.append(
                f"{name} partition {k} holds {sizes[k]} nodes, "
                f"lower bound floor({n}/{p})={lo} not met"
            )
            return


def validate_assignment(
    assignment: PartitionAssignment, rows: int, cols: int
) -> ValidationResult:
    """Check balance bounds on both sides; never raises.

    Accepts iff every partition's row and column counts sit within the
    floor/ceil bounds. The counts of a side sum to its n, so n mod p of
    them then sit at the upper bound. The first violation found is
    reported first.
    """
    violations: list = []
    _check_side(assignment.row_of, rows, assignment.p, "row", violations)
    _check_side(assignment.col_of, cols, assignment.p, "column", violations)
    return ValidationResult(ok=not violations, violations=tuple(violations))


def result_from_assignment(
    weights: WeightMatrix,
    assignment: PartitionAssignment,
    seed: int,
    restarts: int,
) -> PruneResult:
    """Assemble a PruneResult, computing its weight metrics anew.

    One comparison of the labels selects the kept entries, as `mask_of`
    does, and its complement the pruned ones; both are summed by
    `_abs_sum`, so the metrics are bit-equal to `weight_loss` and
    `retained_abs_weight` of the assignment's mask.
    """
    _check_dims(weights, assignment)
    kept = assignment.row_of[:, None] == assignment.col_of[None, :]
    return PruneResult(
        assignment=assignment,
        weight_loss=_abs_sum(weights, ~kept),
        retained_abs_weight=_abs_sum(weights, kept),
        seed=seed,
        restarts=restarts,
    )

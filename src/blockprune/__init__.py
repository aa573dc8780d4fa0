"""Balanced partitioning and pruning of dense layers.

Prunes a trained fully-connected weight matrix into p balanced, mutually
independent partitions with minimal cumulative absolute weight loss,
proves that running the resulting blocks independently matches masked
dense execution, and models the speedup and energy of running the blocks
in parallel on systolic-array accelerators that share one DMA bus.
"""

from .blockexec import BlockDecomposition, decompose, masked_matvec, partitioned_matvec
from .core import (
    LinkMask,
    PartitionAssignment,
    PruneResult,
    ValidationResult,
    WeightMatrix,
    connectedness,
    connectedness_full,
    connectedness_ratio,
    mask_of,
    partition_capacities,
    retained_abs_weight,
    validate_assignment,
    weight_loss,
)
from .partitioner import (
    OracleBudgetError,
    OracleResult,
    brute_force_partition,
    greedy_partition,
    multi_restart,
    refine_swaps,
)
from .perfmodel import (
    Calibration,
    CalibrationError,
    Job,
    SimConfig,
    SimReport,
    calibrate,
    per_copy_speedup,
    sa_matmul_cycles,
    scaling_speedup,
    simulate,
)

__all__ = [
    "BlockDecomposition",
    "Calibration",
    "CalibrationError",
    "Job",
    "LinkMask",
    "OracleBudgetError",
    "OracleResult",
    "PartitionAssignment",
    "PruneResult",
    "SimConfig",
    "SimReport",
    "ValidationResult",
    "WeightMatrix",
    "brute_force_partition",
    "calibrate",
    "connectedness",
    "connectedness_full",
    "connectedness_ratio",
    "decompose",
    "greedy_partition",
    "mask_of",
    "masked_matvec",
    "multi_restart",
    "partition_capacities",
    "partitioned_matvec",
    "per_copy_speedup",
    "refine_swaps",
    "retained_abs_weight",
    "sa_matmul_cycles",
    "scaling_speedup",
    "simulate",
    "validate_assignment",
    "weight_loss",
]

"""Matrix and result file formats.

Binary matrix layout (little-endian):

    bytes 0..3    magic "BPWM"
    bytes 4..7    uint32 version (currently 1)
    bytes 8..11   uint32 rows
    bytes 12..15  uint32 cols
    bytes 16..    rows * cols IEEE-754 32-bit floats, row-major

CSV matrices are plain decimal rows (optional exponent), one matrix row
per line. Either way values are stored in 32-bit precision (computation
happens in 64-bit after loading): writers round to nearest-even float32,
so a CSV written by this module reads back bit-identically to the binary
form. Results are JSON documents with a fixed key set.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .core import (
    PartitionAssignment, PruneResult, WeightMatrix, check_int, result_from_assignment)

MAGIC = b"BPWM"
VERSION = 1


def write_matrix_binary(path, weights: WeightMatrix):
    as32 = weights.data.astype(np.float32)
    header = MAGIC + struct.pack("<III", VERSION, weights.rows, weights.cols)
    Path(path).write_bytes(header + as32.tobytes(order="C"))


def write_matrix_csv(path, weights: WeightMatrix):
    as32 = weights.data.astype(np.float32)
    lines = []
    for row in as32:
        # repr of the float64 promotion round-trips the float32 exactly
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_matrix(path, weights: WeightMatrix):
    """Write CSV if the path ends in .csv, binary otherwise."""
    if str(path).endswith(".csv"):
        write_matrix_csv(path, weights)
    else:
        write_matrix_binary(path, weights)


def read_matrix(path) -> WeightMatrix:
    """Load a matrix, sniffing binary magic versus CSV text."""
    raw = Path(path).read_bytes()
    if raw[:4] == MAGIC:
        return _parse_binary(raw, path)
    return _parse_csv(raw, path)


def _parse_binary(raw: bytes, path) -> WeightMatrix:
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated binary matrix header")
    version, rows, cols = struct.unpack("<III", raw[4:16])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported matrix format version {version}")
    expected = 16 + rows * cols * 4
    if len(raw) != expected:
        raise ValueError(
            f"{path}: payload is {len(raw)} bytes, expected {expected} "
            f"for a {rows}x{cols} matrix"
        )
    # WeightMatrix widens this view into its own float64 array: one copy.
    return WeightMatrix(np.frombuffer(raw, dtype="<f4", offset=16).reshape(rows, cols))


def _parse_csv(raw: bytes, path) -> WeightMatrix:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not a matrix file ({e})") from e
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            vals = [float(tok) for tok in line.split(",")]
        except ValueError as e:
            raise ValueError(f"{path}:{ln}: bad number ({e})") from e
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValueError(
                f"{path}:{ln}: row has {len(vals)} values, expected {width}"
            )
        rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return WeightMatrix(rows)


def result_to_dict(result: PruneResult, refined: bool) -> dict:
    a = result.assignment
    return {
        "rows": a.rows,
        "cols": a.cols,
        "p": a.p,
        "seed": result.seed,
        "restarts": result.restarts,
        "row_partition": [int(v) for v in a.row_of],
        "col_partition": [int(v) for v in a.col_of],
        "weight_loss": result.weight_loss,
        "retained_abs_weight": result.retained_abs_weight,
        "connectedness": result.connectedness,
        "ratio": result.ratio,
        "refined": refined,
    }


def write_result(path, result: PruneResult, refined: bool):
    write_json(path, result_to_dict(result, refined))


def read_assignment(path, weights: WeightMatrix) -> tuple:
    """Load a result file's assignment, checked against the weights.

    Returns (assignment, seed, restarts). Labels are checked to lie in
    [0, p); balance is left to `validate_assignment`. The stored metrics
    are not read.
    """
    d = read_json(path)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: result must be a JSON object")
    required = {"rows", "cols", "p", "seed", "restarts",
                "row_partition", "col_partition"}
    missing = required - set(d)
    if missing:
        raise ValueError(f"{path}: missing result fields {sorted(missing)}")
    for key in ("rows", "cols", "p", "seed", "restarts"):
        check_int(d[key], -np.inf, np.inf,
                  f"{path}: {key} must be an integer, got {d[key]!r}")
    if (d["rows"], d["cols"]) != (weights.rows, weights.cols):
        raise ValueError(
            f"{path}: result is for a {d['rows']}x{d['cols']} layer, "
            f"weights are {weights.rows}x{weights.cols}"
        )
    rows, cols, p = d["row_partition"], d["col_partition"], d["p"]
    n = min(d["rows"], d["cols"])
    check_int(p, 1, n, f"{path}: p={p} out of range [1, {n}]")
    if not (isinstance(rows, list) and isinstance(cols, list)):
        raise ValueError(f"{path}: partitions must be JSON arrays")
    if len(rows) != d["rows"] or len(cols) != d["cols"]:
        raise ValueError(f"{path}: partition array lengths do not match dims")
    if any(type(v) is not int or not 0 <= v < p for v in rows + cols):
        raise ValueError(f"{path}: partition labels must be integers in [0, {p})")
    assignment = PartitionAssignment(
        p=p,
        row_of=np.array(rows, dtype=np.int64),
        col_of=np.array(cols, dtype=np.int64),
    )
    return assignment, d["seed"], d["restarts"]


def read_result(path, weights: WeightMatrix) -> PruneResult:
    """Load a result file and rebuild its metrics against the weights.

    The stored assignment is authoritative; mask and metrics are
    recomputed so a tampered file cannot smuggle inconsistent numbers.
    """
    assignment, seed, restarts = read_assignment(path, weights)
    return result_from_assignment(weights, assignment, seed=seed, restarts=restarts)


def write_json(path, payload: dict):
    """Canonical JSON writer: sorted keys, fixed separators, newline."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def read_json(path):
    """Parse a JSON file; any malformed document raises ValueError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError as e:
        raise ValueError(f"{path}: JSON nested too deeply") from e

"""Command-line surface: gen, prune, oracle, verify, simulate, calibrate.

Exit codes: 0 success, 2 validation or parse failure, 3 oracle budget
exceeded. All node indices printed or stored by these commands are
0-based. Every command is deterministic given its flags; seeds are echoed
into the output for audit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import blockexec, generate, matio, perfmodel
from .core import check_int, mask_of, validate_assignment
from .partitioner import (
    DEFAULT_ORACLE_BUDGET,
    DEFAULT_RESTARTS,
    OracleBudgetError,
    brute_force_partition,
    multi_restart,
    refine_swaps,
)
from .perfmodel import CalibrationError, SimConfig
from .rng import uniform_array

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3

# Trials per batched product in verify; bounds its memory for any --trials.
VERIFY_CHUNK = 128

# Most work verify accepts: trials * (rows * cols + VERIFY_TRIAL_COST).
# A trial costs about 0.11 ns per entry of the layer plus about 0.5 us
# (4096 entries' worth) on a 2-vCPU Xeon with one BLAS thread, so at the
# cap a 4096 x 4096 layer (4095 trials) or a 2 x 2 one (16.8 million
# trials) takes 7-10 s.
MAX_VERIFY_WORK = 1 << 36
VERIFY_TRIAL_COST = 4096

# Most accelerators calibrate accepts, summed over its targets.
MAX_CALIBRATE_COPIES = perfmodel.MAX_CALIBRATE_COPIES

# Most accelerators simulate --mode scaling accepts, the most jobs
# perfmodel builds into one workload.
MAX_SIMULATE_COPIES = perfmodel.MAX_WORKLOAD_JOBS


def _emit(args, payload: dict, human: str):
    if args.out:
        matio.write_json(args.out, payload)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif not args.quiet and human:
        print(human)


def cmd_gen(args) -> int:
    weights = generate.generate(args.rows, args.cols, args.dist, args.seed)
    matio.write_matrix(args.out_path, weights)
    if not args.quiet:
        print(
            f"wrote {args.rows}x{args.cols} {args.dist} matrix "
            f"(seed {args.seed}, {args.rows * args.cols} links) to {args.out_path}"
        )
    return EXIT_OK


def cmd_prune(args) -> int:
    if args.refine:
        check_int(args.max_passes, 1, math.inf, "--max-passes must be >= 1 with --refine")
    weights = matio.read_matrix(args.input)
    result = multi_restart(weights, args.p, args.restarts, args.seed)
    if args.refine:
        result = refine_swaps(weights, result, max_passes=args.max_passes)
    human = (
        f"pruned {weights.rows}x{weights.cols} into {args.p} partitions: "
        f"weight_loss={result.weight_loss:.6g} ratio={result.ratio:.6g} "
        f"(seed {args.seed}, {args.restarts} restarts)\n"
        + "\n".join(
            f"  partition {k}: {r} rows x {c} cols"
            for k, (r, c) in enumerate(zip(*result.assignment.sizes))
        )
    )
    _emit(args, matio.result_to_dict(result, refined=args.refine), human)
    return EXIT_OK


def cmd_oracle(args) -> int:
    weights = matio.read_matrix(args.input)
    if args.result:
        res = matio.read_result(args.result, weights)
        # A search loss compares with the optimum only at the same p and
        # balance; any other assignment can lose less than the optimum.
        if res.assignment.p != args.p:
            raise ValueError(
                f"{args.result}: result is for p={res.assignment.p}, "
                f"the oracle was asked for p={args.p}"
            )
        check = validate_assignment(res.assignment, weights.rows, weights.cols)
        if not check.ok:
            raise ValueError(f"{args.result}: infeasible assignment: {check.first_violation}")
    oracle = brute_force_partition(weights, args.p, budget=args.budget)
    payload = {
        "p": args.p,
        "optimum_loss": oracle.optimum_loss,
        "enumerated": oracle.enumerated,
        "row_partition": [int(v) for v in oracle.optimum_assignment.row_of],
        "col_partition": [int(v) for v in oracle.optimum_assignment.col_of],
    }
    human = (
        f"oracle optimum over {oracle.enumerated} candidates: "
        f"loss={oracle.optimum_loss:.6g}\n"
        f"witness rows={payload['row_partition']} "
        f"cols={payload['col_partition']}"
    )
    if args.result:
        gap = res.weight_loss - oracle.optimum_loss
        payload["search_loss"] = res.weight_loss
        payload["gap"] = gap
        human += f"\nsearch loss={res.weight_loss:.6g} gap={gap:.6g}"
    _emit(args, payload, human)
    return EXIT_OK


def cmd_verify(args) -> int:
    weights = matio.read_matrix(args.input)
    assignment, _, _ = matio.read_assignment(args.result, weights)
    payload = {
        "valid": True,
        "violations": [],
        "trials": args.trials,
        "tolerance": args.tolerance,
        "max_rel_error": None,
        "passed": False,
    }
    limit = MAX_VERIFY_WORK // (weights.rows * weights.cols + VERIFY_TRIAL_COST)
    # The blocks are cut only once every argument is accepted. Balance is
    # checked once: by `decompose`, or, after a refusal, to list every
    # violation, which outranks a refused argument.
    try:
        if not 0 < args.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {args.tolerance}")
        check_int(args.trials, 1, limit, "trials must be >= 1",
                  above=f"--trials is more than the limit of {limit} "
                        f"for a {weights.rows}x{weights.cols} layer")
        decomp = blockexec.decompose(weights, assignment)
    except ValueError:
        violations = list(validate_assignment(
            assignment, weights.rows, weights.cols).violations)
        if not violations:
            raise
        payload["valid"], payload["violations"] = False, violations
        _emit(args, payload, f"FAIL: infeasible assignment: {violations[0]}")
        return EXIT_INVALID

    mask = mask_of(assignment)
    rows = weights.rows
    floor = 1e-9 / args.tolerance  # absolute floor on the comparison scale
    worst = 0.0
    # Trial t's input is draws t*rows .. (t+1)*rows - 1 of the seed's stream.
    for start in range(0, args.trials, VERIFY_CHUNK):
        count = min(VERIFY_CHUNK, args.trials - start)
        u = uniform_array(args.seed, count * rows, offset=start * rows)
        x = 2.0 * u.reshape(count, rows) - 1.0
        want = blockexec.masked_matvec(weights, mask, x)
        got = blockexec.partitioned_matvec(decomp, x)
        denom = np.maximum(np.abs(want), floor)
        worst = float(np.maximum(worst, np.max(np.abs(got - want) / denom)))  # keeps NaN
    passed = worst <= args.tolerance
    payload["max_rel_error"] = worst if math.isfinite(worst) else None  # strict JSON
    payload["passed"] = passed
    status = "PASS" if passed else "FAIL"
    _emit(
        args,
        payload,
        f"{status}: {args.trials} trials, max relative error {worst:.3g} "
        f"(tolerance {args.tolerance:g})",
    )
    return EXIT_OK if passed else EXIT_INVALID


def _load_config(path) -> SimConfig:
    if path is None:
        return SimConfig()
    d = matio.read_json(path)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    d.pop("calibration", None)  # fitted configs carry fit metadata
    return SimConfig.from_dict(d)


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    base = perfmodel.simulate(
        config, perfmodel.baseline_workload(args.rows, args.cols)
    )
    payload = {
        "mode": args.mode,
        "layer": {
            "rows": args.rows,
            "cols": args.cols,
            "note": "stand-in layer dimensions, configurable via --rows/--cols",
        },
        "config": config.to_dict(),
        "baseline": base.to_dict(),
    }
    if args.mode == "partition":
        run = perfmodel.simulate(
            perfmodel.ensure_capacity(config, args.p),
            perfmodel.partitioned_workload(args.rows, args.cols, args.p),
        ).versus(base)
        payload["p"] = args.p
        payload["run"] = run.to_dict()
        human = (
            f"{args.p} partition blocks on {args.p} accelerators vs unpruned "
            f"single accelerator: speedup {run.speedup:.3f}, "
            f"energy ratio {run.energy_ratio:.3f}"
        )
    else:
        k = args.copies
        multi = perfmodel.simulate(
            perfmodel.ensure_capacity(config, k),
            perfmodel.replicated_workload(args.rows, args.cols, k),
        )
        run = multi.versus(base, k)
        payload["copies"] = k
        payload["run"] = multi.to_dict()  # the uncompared run
        human = (
            f"{k} identical jobs on {k} accelerators: throughput speedup "
            f"{run.speedup:.3f} vs one job on one accelerator"
        )
    payload["speedup"] = run.speedup
    payload["energy_ratio"] = run.energy_ratio
    _emit(args, payload, human)
    return EXIT_OK


def _parse_targets(text: str) -> list:
    targets = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k, v = part.split("=")
            targets.append((int(k), float(v)))
        except ValueError as e:
            raise ValueError(
                f"bad target {part!r}, expected ACCELERATORS=SPEEDUP"
            ) from e
    if not targets:
        raise ValueError("no calibration targets given")
    return targets


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    targets = _parse_targets(args.targets)
    try:
        fit = perfmodel.calibrate(
            config, targets, rows=args.rows, cols=args.cols
        )
        fitted, achieved, note = fit.config, fit.achieved, None
    except CalibrationError as e:
        fitted, achieved, note = e.best_config, e.achieved, str(e)
    converged = note is None
    achieved = {str(k): v for k, v in achieved.items()}
    payload = fitted.to_dict()
    payload["calibration"] = {
        "targets": {str(k): v for k, v in targets},
        "achieved": achieved,
        "converged": converged,
        "layer": {"rows": args.rows, "cols": args.cols},
    }
    if note:
        payload["calibration"]["note"] = note
    lines = [
        f"  {k} accelerators: achieved {achieved[str(k)]:.4f} (target {v})"
        for k, v in targets
    ]
    human = (
        f"calibrated contention_overhead={fitted.contention_overhead:.6g} "
        f"dma_fixed_overhead_cycles={fitted.dma_fixed_overhead_cycles}\n"
        + "\n".join(lines)
    )
    _emit(args, payload, human)
    if not converged:
        if not args.quiet:
            print(f"calibration did not converge: {note}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="64-bit seed for anything random (default 0)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")
    common.add_argument("--json", action="store_true",
                        help="print the JSON payload to stdout")

    parser = argparse.ArgumentParser(
        prog="blockprune",
        description=(
            "Prune a dense layer into balanced independent partitions, "
            "verify block execution, and model multi-accelerator speedup."
        ),
        epilog="All row/column indices in files and reports are 0-based.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="generate a test matrix file")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--dist", default="uniform",
                   help="uniform, gauss, or blockdiag:P (default uniform)")
    p.add_argument("--out", dest="out_path", required=True,
                   help="output path (.csv for text, anything else binary)")

    p = sub.add_parser("prune", parents=[common],
                       help="search for a minimum-loss balanced partition")
    p.add_argument("input", help="matrix file (binary or CSV)")
    p.add_argument("-p", type=int, required=True, help="partition count")
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--refine", action="store_true",
                   help="polish the best restart with pair swaps")
    p.add_argument("--max-passes", type=int, default=100,
                   help="swap limit for --refine (default 100)")
    p.add_argument("--out", help="write the result JSON here")

    p = sub.add_parser("oracle", parents=[common],
                       help="exact optimum by enumeration (small instances)")
    p.add_argument("input")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET,
                   help="candidate enumeration limit (default 1e7)")
    p.add_argument("--result", help="result JSON to compute the gap against")
    p.add_argument("--out")

    p = sub.add_parser("verify", parents=[common],
                       help="check a result: balance bounds and block equivalence")
    p.add_argument("input")
    p.add_argument("result")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--out")

    p = sub.add_parser("simulate", parents=[common],
                       help="estimate speedup/energy on shared-bus accelerators")
    p.add_argument("--config", help="simulator config JSON (defaults built in)")
    p.add_argument("--rows", type=int, default=4096)
    p.add_argument("--cols", type=int, default=4096)
    p.add_argument("-p", type=int, default=3,
                   help="partition count for partition mode (default 3)")
    p.add_argument("--mode", choices=("partition", "scaling"),
                   default="partition")
    p.add_argument("--copies", type=int, default=2,
                   help="replicated job count for scaling mode "
                        f"(default 2, at most {MAX_SIMULATE_COPIES})")
    p.add_argument("--out")

    p = sub.add_parser("calibrate", parents=[common],
                       help="fit bus contention parameters to speedup targets")
    p.add_argument("--config")
    p.add_argument("--targets", required=True,
                   help='comma list like "2=1.8,3=2.5" (at most '
                        f'{MAX_CALIBRATE_COPIES} accelerators in total)')
    p.add_argument("--rows", type=int, default=4096)
    p.add_argument("--cols", type=int, default=4096)
    p.add_argument("--out", help="write the fitted config JSON here")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Look the command up at call time, so a rebound cmd_* is the one run.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except OracleBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as e:  # json.JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

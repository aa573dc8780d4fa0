"""Spans around blockprune's public functions, installed from outside.

``install`` wraps each traced function once and puts the wrapper at
every name a ``blockprune`` module binds the original to (for example
``partitioner.result_from_assignment`` and ``core.mask_of``), so calls
are caught at the names their callers look them up by. Nothing under
``src/`` changes.

A span is (name, start, end, parent, op). Spans stay in flat integer
arrays while the ops run and are written once, at exit. A layer's self
time is its span minus the spans of its direct children; children of one
span never overlap, because the program is single-threaded.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (span name, owner, attribute). The owner is a module path under
# blockprune, or "rng.SplitMix64" for the permutation method.
TARGETS = [
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.prune", "cli", "cmd_prune"),
    ("cli.verify", "cli", "cmd_verify"),
    ("cli.oracle", "cli", "cmd_oracle"),
    ("cli.calibrate", "cli", "cmd_calibrate"),
    ("cli.simulate", "cli", "cmd_simulate"),
    ("partitioner.multi_restart", "partitioner", "multi_restart"),
    ("partitioner.greedy", "partitioner", "greedy_partition"),
    ("partitioner.refine", "partitioner", "refine_swaps"),
    ("partitioner.oracle", "partitioner", "brute_force_partition"),
    ("rng.permutation", "rng.SplitMix64", "permutation"),
    ("core.result_from_assignment", "core", "result_from_assignment"),
    ("core.mask_of", "core", "mask_of"),
    ("core.weight_loss", "core", "weight_loss"),
    ("core.retained_abs_weight", "core", "retained_abs_weight"),
    ("core.validate_assignment", "core", "validate_assignment"),
    ("blockexec.decompose", "blockexec", "decompose"),
    ("blockexec.masked_matvec", "blockexec", "masked_matvec"),
    ("blockexec.partitioned_matvec", "blockexec", "partitioned_matvec"),
    ("matio.read_matrix", "matio", "read_matrix"),
    ("matio.read_result", "matio", "read_result"),
    ("matio.write_result", "matio", "write_result"),
    ("matio.write_json", "matio", "write_json"),
    ("perfmodel.calibrate", "perfmodel", "calibrate"),
    ("perfmodel.simulate", "perfmodel", "simulate"),
]


class Tracer:
    """In-memory span store plus the counters observed at span ends."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_index = -1
        self.counters: dict = {}
        self.best_restart: dict = {}

    def count(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            parent = self.stack[-1]
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_index)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if observe is not None:
                observe(self, parent, args, result)
            return result

        return wrapper

    def write(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _observe_read_matrix(tracer, parent, args, result):
    tracer.count("matio.read_matrix.bytes", os.path.getsize(args[0]))


def _observe_greedy(tracer, parent, args, result):
    # Restarts of one multi_restart share its span as parent.
    tracer.count("restarts", 1)
    best = tracer.best_restart.get(parent)
    if best is not None and result.weight_loss < best:
        tracer.count("restart_improvements", 1)
    if best is None or result.weight_loss < best:
        tracer.best_restart[parent] = result.weight_loss


def _observe_refine(tracer, parent, args, result):
    tracer.count("refine.loss_in", args[1].weight_loss)
    tracer.count("refine.loss_out", result.weight_loss)


def _observe_oracle(tracer, parent, args, result):
    tracer.count("partitioner.oracle.enumerated", result.enumerated)


OBSERVERS = {
    "matio.read_matrix": _observe_read_matrix,
    "partitioner.greedy": _observe_greedy,
    "partitioner.refine": _observe_refine,
    "partitioner.oracle": _observe_oracle,
}


def install(tracer: Tracer):
    """Wrap every target and rebind it wherever blockprune binds it."""
    import blockprune  # noqa: F401  (loads every submodule)

    modules = [m for k, m in sys.modules.items()
               if k == "blockprune" or k.startswith("blockprune.")]
    for name, owner, attr in TARGETS:
        if owner == "rng.SplitMix64":
            cls = sys.modules["blockprune.rng"].SplitMix64
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
            continue
        original = getattr(sys.modules[f"blockprune.{owner}"], attr)
        wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
        bound = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{owner}.{attr} is bound nowhere")


# Per-layer metrics from spans: (metric, span name, kind). Kinds: "s" is
# inclusive seconds per op, "self_s" self seconds per op, "calls" calls
# per op.
SPAN_METRICS = [
    ("partitioner.greedy.calls", "partitioner.greedy", "calls"),
    ("partitioner.greedy.self_s", "partitioner.greedy", "self_s"),
    ("rng.permutation.s", "rng.permutation", "s"),
    ("core.result_from_assignment.s", "core.result_from_assignment", "s"),
    ("core.result_from_assignment.calls", "core.result_from_assignment", "calls"),
    ("core.mask_of.s", "core.mask_of", "s"),
    ("core.mask_of.calls", "core.mask_of", "calls"),
    ("core.weight_loss.s", "core.weight_loss", "s"),
    ("core.weight_loss.calls", "core.weight_loss", "calls"),
    ("core.retained_abs_weight.s", "core.retained_abs_weight", "s"),
    ("core.retained_abs_weight.calls", "core.retained_abs_weight", "calls"),
    ("partitioner.multi_restart.s", "partitioner.multi_restart", "s"),
    ("partitioner.refine.s", "partitioner.refine", "s"),
    ("partitioner.oracle.s", "partitioner.oracle", "s"),
    ("blockexec.decompose.s", "blockexec.decompose", "s"),
    ("blockexec.masked_matvec.s", "blockexec.masked_matvec", "s"),
    ("blockexec.masked_matvec.calls", "blockexec.masked_matvec", "calls"),
    ("blockexec.partitioned_matvec.s", "blockexec.partitioned_matvec", "s"),
    ("blockexec.partitioned_matvec.calls", "blockexec.partitioned_matvec", "calls"),
    ("cli.verify.self_s", "cli.verify", "self_s"),
    ("matio.read_matrix.s", "matio.read_matrix", "s"),
    ("matio.read_result.s", "matio.read_result", "s"),
    ("matio.write_result.s", "matio.write_result", "s"),
    ("cli.build_parser.s", "cli.build_parser", "s"),
    ("cli.prune.s", "cli.prune", "s"),
    ("cli.verify.s", "cli.verify", "s"),
    ("cli.oracle.s", "cli.oracle", "s"),
    ("cli.calibrate.s", "cli.calibrate", "s"),
    ("cli.simulate.s", "cli.simulate", "s"),
    ("perfmodel.calibrate.s", "perfmodel.calibrate", "s"),
    ("perfmodel.simulate.s", "perfmodel.simulate", "s"),
    ("perfmodel.simulate.calls", "perfmodel.simulate", "calls"),
]


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op figures of every span metric plus the observed ratios."""
    names = tracer.names
    name_id = np.frombuffer(tracer.name_id, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = (np.frombuffer(tracer.end, dtype=np.int64)
           - np.frombuffer(tracer.start, dtype=np.int64)).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    per_name = {
        "s": np.bincount(name_id, weights=dur, minlength=len(names)) / 1e9,
        "self_s": np.bincount(name_id, weights=dur - child,
                              minlength=len(names)) / 1e9,
        "calls": np.bincount(name_id, minlength=len(names)).astype(np.float64),
    }
    index = {name: k for k, name in enumerate(names)}
    out = {metric: float(per_name[kind][index[span]]) / n_ops
           for metric, span, kind in SPAN_METRICS}

    # Exact re-evaluations: weight_loss calls made directly by the oracle.
    oracle_id, loss_id = index["partitioner.oracle"], index["core.weight_loss"]
    loss_spans = name_id == loss_id
    exact = int(np.count_nonzero(
        loss_spans & has_parent & (name_id[np.where(has_parent, parent, 0)] == oracle_id)
    ))
    c = tracer.counters
    enumerated = c.get("partitioner.oracle.enumerated", 0.0)
    out["partitioner.oracle.enumerated"] = enumerated / n_ops
    out["partitioner.oracle.exact_evals"] = exact / n_ops
    out["partitioner.oracle.exact_eval_frac"] = exact / enumerated if enumerated else 0.0
    restarts = c.get("restarts", 0.0)
    out["partitioner.restart_improve_frac"] = (
        c.get("restart_improvements", 0.0) / restarts if restarts else 0.0
    )
    loss_in = c.get("refine.loss_in", 0.0)
    out["partitioner.refine.gain_frac"] = (
        (loss_in - c["refine.loss_out"]) / loss_in if loss_in else 0.0
    )
    out["matio.read_matrix.bytes"] = c.get("matio.read_matrix.bytes", 0.0) / n_ops
    return out

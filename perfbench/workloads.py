"""Workload definitions: seeded inputs, the CLI steps of each op, checks.

Inputs come from this file's own generator (numpy PCG64 seeded from
``(seed, workload, index)``) and are written by its own ``.bpwm``
writer, so a change to ``blockprune.generate`` or ``blockprune.matio``
cannot change a workload. Every op is a fixed list of ``blockprune``
CLI argument vectors; ``check_op`` judges the files they wrote.

Quality metrics are taken over the first ``quality_ops`` ops of a run
only. The closed loop always completes that many, so a faster or slower
program measures quality on the same inputs. Op ``i`` is of kind
``i % cycle`` (a layer distribution and partition count, or an oracle
shape), and a run stops only after a whole cycle, so every run times
each kind equally often.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BPWM_MAGIC = b"BPWM"
BPWM_VERSION = 1

CALIB_TARGETS = {2: 1.8, 3: 2.5}
# Simulated figures of a bus_model op, reported as per-layer metrics.
SIM_STATS = (
    "perfmodel.sim.speedup_p3",
    "perfmodel.sim.energy_ratio_p3",
    "perfmodel.sim.bus_util_p3",
    "perfmodel.calib.contention_overhead",
    "perfmodel.calib.dma_fixed_cycles",
)
# The criterion-3 recipe (uniform, n 6..8, p 2..3), with its (n, p)
# pairs taken in turn rather than drawn, so every seed times the same mix.
ORACLE_SHAPES = [(n, p) for n in (6, 7, 8) for p in (2, 3)]
SIM_DIM = 4096
# Every refine_medium layer needs more passes than this to converge (67-96
# were measured), so every op does the same refine work. Refining to
# convergence takes 3-5 s an op, too few ops per run to time steadily.
REFINE_PASSES = 25


@dataclass(frozen=True)
class Workload:
    name: str
    layer_dim: int  # square layer size of the generated inputs (0: none)
    corpus: int  # distinct inputs generated; ops cycle through them
    quality_ops: int  # quality is taken over ops 0..quality_ops-1
    cycle: int  # op i is of kind i % cycle; a run ends on a cycle boundary
    tail_pct: float  # the percentile reported as op_tail_s


# The heavy workloads run one cycle of four (dist, p) layers per run. The
# oracle corpus is large because an exact hit is a coin flip per instance.
# Each tail percentile is the highest with at least 10 ops beyond it at
# today's op rate; prune_large and refine_medium time too few ops for
# any, so their tail is the slowest op.
FULL = {
    "prune_large": Workload("prune_large", 2048, 4, 4, 4, 100.0),
    "refine_medium": Workload("refine_medium", 256, 4, 4, 4, 100.0),
    "oracle_corpus": Workload("oracle_corpus", 0, 288, 288, len(ORACLE_SHAPES), 95.0),
    "bus_model": Workload("bus_model", 0, 0, 1, 1, 90.0),
}

# Same ops at toy sizes, for the smoke test of the benchmark itself.
TINY = {
    "prune_large": Workload("prune_large", 48, 4, 4, 4, 100.0),
    "refine_medium": Workload("refine_medium", 24, 4, 4, 4, 100.0),
    "oracle_corpus": Workload("oracle_corpus", 0, 12, 12, len(ORACLE_SHAPES), 95.0),
    "bus_model": Workload("bus_model", 0, 0, 1, 1, 90.0),
}

TAGS = {name: k for k, name in enumerate(FULL)}


def _generator(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, TAGS[workload], index]))
    )


def write_bpwm(path: Path, data: np.ndarray):
    """Write the documented binary layout: magic, version, dims, f32 LE."""
    rows, cols = data.shape
    header = BPWM_MAGIC + struct.pack("<III", BPWM_VERSION, rows, cols)
    path.write_bytes(header + data.astype("<f4").tobytes(order="C"))


def _layer_spec(index: int) -> tuple:
    """(dist, p) of layer `index`: uniform/gauss alternate, p cycles 2..5."""
    return ("uniform" if index % 2 == 0 else "gauss"), 2 + index % 4


def make_inputs(wl: Workload, seed: int, indir: Path) -> dict:
    """Generate and write a workload's inputs; return their metadata.

    The metadata carries what the checks need (p, and the total |W| of
    the float32 values the program reads back).
    """
    indir.mkdir(parents=True, exist_ok=True)
    layers = []
    for j in range(wl.corpus):
        g = _generator(seed, wl.name, j)
        if wl.name == "oracle_corpus":
            n, p = ORACLE_SHAPES[j % len(ORACLE_SHAPES)]
            data = 2.0 * g.random((n, n)) - 1.0
        else:
            dist, p = _layer_spec(j)
            n = wl.layer_dim
            if dist == "uniform":
                data = 2.0 * g.random((n, n)) - 1.0
            else:
                data = g.standard_normal((n, n))
        path = indir / f"layer{j:03d}.bpwm"
        write_bpwm(path, data)
        stored = data.astype(np.float32).astype(np.float64)
        layers.append({
            "path": str(path),
            "n": n,
            "p": p,
            "total_abs": float(np.abs(stored).sum()),
        })
    return {"layers": layers}


def op_steps(workload: str, meta: dict, seed: int, i: int, outdir: Path) -> list:
    """CLI argument vectors of op `i`; outputs land in `outdir`."""
    def out(step):
        return str(outdir / f"op{i:05d}_{step}.json")

    if workload == "bus_model":
        calib = out("calibrate")
        steps = [["calibrate", "--targets",
                  ",".join(f"{k}={v}" for k, v in CALIB_TARGETS.items()),
                  "--rows", str(SIM_DIM), "--cols", str(SIM_DIM), "--out", calib]]
        for p in range(2, 9):
            steps.append(["simulate", "--config", calib, "-p", str(p),
                          "--rows", str(SIM_DIM), "--cols", str(SIM_DIM),
                          "--out", out(f"sim_p{p}")])
        for k in range(1, 5):
            steps.append(["simulate", "--config", calib, "--mode", "scaling",
                          "--copies", str(k), "--rows", str(SIM_DIM),
                          "--cols", str(SIM_DIM), "--out", out(f"scale_c{k}")])
        return steps

    layer = meta["layers"][i % len(meta["layers"])]
    base = ["prune", layer["path"], "-p", str(layer["p"]), "--seed", str(seed + i)]
    if workload == "prune_large":
        return [
            base + ["--restarts", "32", "--out", out("prune")],
            ["verify", layer["path"], out("prune"), "--trials", "100",
             "--seed", str(seed + i), "--out", out("verify")],
        ]
    if workload == "refine_medium":
        return [base + ["--restarts", "32", "--refine", "--max-passes",
                        str(REFINE_PASSES), "--out", out("prune")]]
    if workload == "oracle_corpus":
        return [
            base + ["--restarts", "256", "--out", out("prune")],
            ["oracle", layer["path"], "-p", str(layer["p"]),
             "--result", out("prune"), "--out", out("oracle")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _capacities(n: int, p: int) -> list:
    hi, lo = -(-n // p), n // p
    return [hi] * (n % p) + [lo] * (p - n % p)


def _check_prune(res: dict, layer: dict) -> list:
    """Balance, the exact structural ratio (criterion 1), loss bookkeeping."""
    n, p = layer["n"], layer["p"]
    errors = []
    caps = _capacities(n, p)
    for side in ("row_partition", "col_partition"):
        labels = np.asarray(res[side])
        if len(labels) != n or labels.min() < 0 or labels.max() >= p:
            errors.append(f"{side}: labels outside [0, {p}) or wrong length")
            continue
        sizes = sorted(np.bincount(labels, minlength=p).tolist(), reverse=True)
        if sizes != caps:
            errors.append(f"{side}: group sizes {sizes} are not balanced {caps}")
    links = sum(c * c for c in caps)
    if res["connectedness"] != links or res["ratio"] != links / (n * n):
        errors.append(
            f"ratio {res['ratio']!r} is not the structural {links}/{n * n}"
        )
    total = res["weight_loss"] + res["retained_abs_weight"]
    if not math.isclose(total, layer["total_abs"], rel_tol=1e-9):
        errors.append(f"loss + retained {total!r} != total |W| {layer['total_abs']!r}")
    return errors


def check_op(workload: str, meta: dict, i: int, outdir: Path,
             rcs: list, stdouts: list) -> tuple:
    """Judge op `i` from its exit codes, stdout and output files.

    Returns (errors, quality): a list of failed checks, and the op's
    quality figures (a dict of numbers).
    """
    errors = [f"step {s} exited {rc}" for s, rc in enumerate(rcs) if rc != 0]
    if errors:
        return errors, {}

    def load(step):
        return json.loads((outdir / f"op{i:05d}_{step}.json").read_text())

    if workload == "bus_model":
        fitted = load("calibrate")
        calib = fitted["calibration"]
        achieved = {int(k): v for k, v in calib["achieved"].items()}
        if not calib["converged"]:
            errors.append("calibration did not converge")
        for k, target in CALIB_TARGETS.items():
            got = load(f"scale_c{k}")["speedup"]
            if abs(got - target) > 0.05:
                errors.append(f"{k} accelerators: speedup {got} vs target {target}")
        p3 = load("sim_p3")
        if not (3.0 < p3["speedup"] < 9.0 and p3["energy_ratio"] < 1.0):
            errors.append(
                f"p=3 speedup {p3['speedup']} / energy {p3['energy_ratio']} out of range"
            )
        return errors, {
            "calib_max_rel_err": max(
                abs(achieved[k] - t) / t for k, t in CALIB_TARGETS.items()
            ),
            "perfmodel.sim.speedup_p3": p3["speedup"],
            "perfmodel.sim.energy_ratio_p3": p3["energy_ratio"],
            "perfmodel.sim.bus_util_p3":
                p3["run"]["bus_busy_cycles"] / p3["run"]["makespan_cycles"],
            "perfmodel.calib.contention_overhead": fitted["contention_overhead"],
            "perfmodel.calib.dma_fixed_cycles": fitted["dma_fixed_overhead_cycles"],
        }

    layer = meta["layers"][i % len(meta["layers"])]
    res = load("prune")
    errors += _check_prune(res, layer)
    quality = {"retained_frac": res["retained_abs_weight"] / layer["total_abs"]}
    if workload == "prune_large" and not stdouts[1].startswith("PASS"):
        errors.append(f"verify did not pass: {stdouts[1].strip()!r}")
    if workload == "oracle_corpus":
        orc = load("oracle")
        search, opt = orc["search_loss"], orc["optimum_loss"]
        if search != res["weight_loss"]:
            errors.append(f"oracle read search loss {search!r}, "
                          f"prune wrote {res['weight_loss']!r}")
        if search < opt:
            errors.append(f"search loss {search!r} below oracle optimum {opt!r}")
        quality["exact_hit"] = float(search == opt)
        quality["loss_ratio"] = search / opt
    return errors, quality


def end_to_end_quality(workload: str, quality: list) -> dict:
    """Quality metrics from the per-op figures of the quality prefix.

    A metric a workload does not exercise is absent from the result.
    """
    def mean(key):
        return sum(q[key] for q in quality) / len(quality)

    if workload == "bus_model":
        return {"calib_max_rel_err": mean("calib_max_rel_err")}
    out = {"retained_frac": mean("retained_frac")}
    if workload == "oracle_corpus":
        out["exact_hit_frac"] = mean("exact_hit")
        out["mean_loss_ratio"] = mean("loss_ratio")
    return out

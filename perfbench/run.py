"""blockprune benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up generates the workload's inputs
with the benchmark's own generator and starts the op-running process
(runner.py), which imports blockprune from ``src/``; this is repeated
and the median is reported as ``setup_s``. The runner then drives
``blockprune.cli.main`` in a closed loop for S seconds. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the same ops also run traced and the line
holds the per-layer metrics, after the traced outputs have been
byte-compared with the untraced ones. Metric names and units come from
BENCHMARK.json. Work files go to ``.perfbench/`` in the checkout.

Exit codes: 0 result printed, 1 the runner failed, 2 bad usage or no
``src/blockprune`` to benchmark.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads here or in the runner.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script's dir)
from probe import normalized, probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole run, set-up included
NOT_APPLICABLE = 1.0  # value of a quality metric a workload does not exercise
# Unscaled wall-clock figures, printed and recorded with every untraced
# run but not declared: on a shared VM their spread between runs exceeds
# any allowed bound (see probe.py and README.md, Steadiness).
RAW = (("raw_setup_s", "s"), ("raw_ops_per_s", "1/s"),
       ("raw_op_p50_s", "s"), ("raw_op_tail_s", "s"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="toy sizes, for the benchmark's own smoke test")
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for f in sorted((SRC / "blockprune").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    """One op-running process, started and held at its ready line."""

    def __init__(self, plan_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py"), str(plan_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.wait()
            raise RuntimeError(f"runner did not start (exit {self.proc.returncode})")

    def finish(self, command: str, timeout: float) -> int:
        try:
            self.proc.communicate(command + "\n", timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("runner overran the deadline and was stopped")
        return self.proc.returncode


def set_up(spec, seed: int, work: Path, plan: dict) -> tuple:
    """Generate inputs and start a runner, SETUP_REPEATS times.

    Returns (seconds per repeat, probe times around them, the live runner
    of the last repeat).
    """
    times, probes = [], []
    runner = None
    probe()  # the first call pays for numpy's lazy set-up
    for _ in range(SETUP_REPEATS):
        if runner is not None:
            runner.finish("quit", DEADLINE_S)
        probes.append(probe())
        t0 = time.perf_counter()
        plan["meta"] = workloads.make_inputs(spec, seed, work / "inputs")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        runner = Runner(plan_path)
        times.append(time.perf_counter() - t0)
    probes.append(probe())
    return times, probes, runner


def compare_outputs(work: Path) -> list:
    """Names of output files that differ between the two passes."""
    a, b = work / "out_untraced", work / "out_traced"
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [n for n in names
            if not (a / n).is_file() or not (b / n).is_file()
            or (a / n).read_bytes() != (b / n).read_bytes()]


def end_to_end(spec, result: dict, setup: tuple, declared: dict) -> tuple:
    u = result["untraced"]
    raw = u["op_s"]
    op_s = normalized(raw, u["probe_s"])
    setup_s = normalized(*setup)
    n = len(op_s)
    failed_ops = {f["op"] for f in u["failures"]}
    good = [q for i, q in enumerate(u["quality"][:spec.quality_ops])
            if i not in failed_ops]
    quality = workloads.end_to_end_quality(spec.name, good) if good else {}
    tail = percentile(op_s, spec.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": n / sum(op_s),
        "op_p50_s": statistics.median(op_s),
        "op_tail_s": tail,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - len(u["failures"]) / n,
    }
    not_applicable = [m for m in declared if m not in metrics and m not in quality]
    metrics.update(quality)
    metrics.update({m: NOT_APPLICABLE for m in not_applicable})
    notes = {
        "ops": n,
        "failed_ops": len(u["failures"]),
        "failed_frac": len(u["failures"]) / n,
        "op_tail_pct": spec.tail_pct,
        "op_tail_beyond": sum(1 for t in op_s if t > tail),
        "quality_ops": spec.quality_ops,
        "not_applicable": not_applicable,
        "probe_p50_s": statistics.median(u["probe_s"]),
        "raw_setup_s": statistics.median(setup[0]),
        "raw_ops_per_s": n / sum(raw),
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_tail_s": percentile(raw, spec.tail_pct),
        "op_s": raw,
        "probe_s": u["probe_s"],
    }
    return metrics, notes


def per_layer(result: dict, mismatched: list) -> tuple:
    """Span figures scaled to nominal speed by the traced pass's probes."""
    u, t = result["untraced"], result["traced"]
    [scale] = normalized([1.0], t["probe_s"])
    metrics = {k: v * scale if k.rsplit(".", 1)[1] in ("s", "self_s") else v
               for k, v in result["layers"].items()}
    metrics["bench.trace_overhead_frac"] = (
        sum(normalized(t["op_s"], t["probe_s"]))
        / sum(normalized(u["op_s"], u["probe_s"])) - 1.0
    )
    first = t["quality"][0] if t["quality"] else {}
    metrics.update({k: float(first.get(k, 0.0)) for k in workloads.SIM_STATS})
    notes = {
        "ops": len(t["op_s"]),
        "traced_failed_ops": len(t["failures"]),
        "outputs_differing": mismatched,
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockprune" / "cli.py").is_file():
        print(f"error: no blockprune sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}


    spec = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "quality_ops": spec.quality_ops,
        "cycle": spec.cycle,
        "src": str(SRC), "work": str(work),
        "result": str(work / "result.json"),
        "spans": str(WORK / "spans" / f"{args.workload}-seed{args.seed}.npz"),
    }
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    t_begin = time.perf_counter()
    try:
        setup_times, setup_probes, runner = set_up(spec, args.seed, work, plan)
        rc = runner.finish("go", DEADLINE_S - (time.perf_counter() - t_begin))
        if rc != 0:
            raise RuntimeError(f"runner exited {rc}")
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    failures = list(result["untraced"]["failures"])
    attempted = len(result["untraced"]["op_s"])
    if args.trace:
        mismatched = compare_outputs(work)
        failures += result["traced"]["failures"]
        failures += [{"op": None, "errors": [f"traced output differs: {name}"]}
                     for name in mismatched]
        attempted += len(result["traced"]["op_s"])
        metrics, notes = per_layer(result, mismatched)
    else:
        metrics, notes = end_to_end(spec, result,
                                    (setup_times, setup_probes), declared)

    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json"
        )
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "env": environment(args.seed), "notes": notes,
        "failures": failures, "metrics": metrics,
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for name, unit in declared.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        for name, unit in RAW:
            print(f"{args.workload} {name} = {notes[name]:.6g} {unit} (no bound)")
    print(f"{args.workload} notes "
          f"{json.dumps({k: v for k, v in notes.items() if k not in ('op_s', 'probe_s')})}")
    print(f"{args.workload} env {json.dumps(record['env'])}")
    for f in failures[:20]:
        print(f"{args.workload} FAILED op {f['op']}: {'; '.join(f['errors'])}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

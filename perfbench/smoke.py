"""Smoke test of the benchmark itself, at toy sizes (under a minute).

    python3 perfbench/smoke.py

Runs every workload with ``--tiny`` for one second, untraced and traced,
and checks each result line against BENCHMARK.json: the four keys, no
failed op, every declared metric with its unit, and no end-to-end
metric at 0. It reruns one workload to check that the quality metrics
repeat exactly for a seed. Last, it checks that a directory holding only
the benchmark (no ``src/``) exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUALITY = ("retained_frac", "exact_hit_frac", "mean_loss_ratio", "calib_max_rel_err")


def check(cond: bool, message: str):
    if not cond:
        raise SystemExit(f"FAIL: {message}")


def run(root: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result_line(proc, what: str) -> dict:
    check(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(line)}")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
          f"{what}: {line['failed']} of {line['attempted']} ops failed\n{proc.stdout}")
    return line


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{wl['name']} trace={trace}"
            line = result_line(run(ROOT, wl["name"], trace), what)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == want, f"{what}: metrics {got} != declared {want}")
            if trace == 0:
                zero = [k for k, v in line["metrics"].items() if v["value"] == 0]
                check(not zero, f"{what}: metrics at 0: {zero}")
            print(f"ok {what}")

    first, again = (result_line(run(ROOT, "oracle_corpus", 0, seed=11), "rerun")
                    for _ in range(2))
    for name in QUALITY:
        check(first["metrics"][name] == again["metrics"][name],
              f"{name} differs between two runs of one seed")
    print("ok quality repeats exactly for a seed")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "bus_model", 0)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "a directory without src/ did not fail")
    check(not proc.stdout.strip(), f"a directory without src/ printed {proc.stdout!r}")
    print("ok fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())

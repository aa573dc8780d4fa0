"""A mutation registry: each slow reference in tests/ must catch the faults it guards.

Each mutant is a file, an exact snippet that occurs in it once, the
snippet's replacement, and the test node ids that must fail once it is
applied. The runner copies src/, tests/ and pyproject.toml into a
temporary directory and first runs every named test on the unmutated
copy: they must pass, or no kill means anything. It then applies one
mutant at a time, runs its tests with -x, and reports it as killed (a
test failed, or the run timed out), survived (every test passed), or
stale (its snippet does not occur exactly once, so a refactor left the
registry behind). It exits 0 only when every mutant is killed.

Run it from anywhere with `python tools/mutants.py`. It takes about a
minute, so the test suite does not run it.

A change that replaces a path adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 600

PARTITIONER = "src/blockprune/partitioner.py"
REFERENCE = "tests/test_partitioner_reference.py"
PAIR_LOOP = f"{REFERENCE}::test_refine_matches_pair_loop_reference"
ROW_TIES = f"{REFERENCE}::test_row_swap_wins_a_tie_with_a_column_swap"
FULL_SCAN = f"{REFERENCE}::test_best_swap_matches_full_scan"
HEADROOM = f"{REFERENCE}::test_grid_line_sums_fill_the_headroom"


@dataclass(frozen=True)
class Mutant:
    name: str
    description: str
    path: str
    snippet: str
    replacement: str
    tests: tuple


MUTANTS = [
    # One best-swap scan over both sides, on a layout kept across passes.
    Mutant("column_pairs_win_ties",
           "the pair with the highest first node wins a tie, so column swaps beat rows",
           PARTITIONER,
           "k = int(np.argmin(lo * n + hi))",
           "k = int(np.argmin((n - lo) * n + hi))",
           (ROW_TIES,)),
    Mutant("lowest_tied_node_by_position",
           "the tied node first in its run wins, not the lowest node",
           PARTITIONER,
           "node[held] = np.minimum.reduceat(np.where(\n"
           "        d == np.repeat(top, sizes, axis=0), order[:, None], n), starts, axis=0)",
           "node[held] = order[np.minimum.reduceat(np.where(\n"
           "        d == np.repeat(top, sizes, axis=0), np.arange(n)[:, None], n), starts, axis=0)]",
           (FULL_SCAN, PAIR_LOOP)),
    Mutant("layout_not_updated",
           "a swap leaves the two nodes' places in the layout as they were",
           PARTITIONER,
           "        order[place[i]], order[place[j]] = j, i\n",
           "",
           (PAIR_LOOP,)),
    Mutant("column_labels_not_offset",
           "column labels share the rows' partition numbers 0..p-1",
           PARTITIONER,
           "result.assignment.col_of + p])",
           "result.assignment.col_of])",
           (PAIR_LOOP,)),
    Mutant("gain_update_wrong_side",
           "a swap moves the gains of its own side, not the other",
           PARTITIONER,
           "other = gain[rows:, p:] if j < rows else gain[:rows, :p]",
           "other = gain[:rows, :p] if j < rows else gain[rows:, p:]",
           (PAIR_LOOP,)),
    # The integer grid, the closed-form best swap and the group sums.
    Mutant("grid_scale_too_large",
           "the grid's scale is one power of two too large",
           PARTITIONER,
           "np.ldexp(q, 49 - math.frexp(s)[1], out=q)",
           "np.ldexp(q, 50 - math.frexp(s)[1], out=q)",
           (HEADROOM,)),
    Mutant("grid_rounded_down",
           "the grid rounds down, not to nearest",
           PARTITIONER,
           "return np.rint(q, out=q)",
           "return np.floor(q, out=q)",
           (HEADROOM,)),
    Mutant("update_sign_flipped",
           "a swap moves the other side's gains the wrong way",
           PARTITIONER,
           "        other[:, a % p] += moved\n        other[:, b % p] -= moved",
           "        other[:, a % p] -= moved\n        other[:, b % p] += moved",
           (PAIR_LOOP,)),
    Mutant("highest_tied_node_by_max",
           "the highest node of a partition that reaches its maximum wins",
           PARTITIONER,
           "np.minimum.reduceat(np.where(\n"
           "        d == np.repeat(top, sizes, axis=0), order[:, None], n)",
           "np.maximum.reduceat(np.where(\n"
           "        d == np.repeat(top, sizes, axis=0), order[:, None], -1)",
           (PAIR_LOOP,)),
    Mutant("highest_tied_node_by_reversed_ids",
           "the lowest of the reversed node ids wins, so the highest node",
           PARTITIONER,
           "node[held] = np.minimum.reduceat(np.where(\n"
           "        d == np.repeat(top, sizes, axis=0), order[:, None], n), starts, axis=0)",
           "node[held] = n - 1 - np.minimum.reduceat(np.where(\n"
           "        d == np.repeat(top, sizes, axis=0), n - 1 - order[:, None], n), starts, axis=0)",
           (PAIR_LOOP,)),
    Mutant("pair_tie_reversed",
           "the highest pair key wins a tie",
           PARTITIONER,
           "k = int(np.argmin(lo * n + hi))",
           "k = int(np.argmax(lo * n + hi))",
           (PAIR_LOOP,)),
    Mutant("columns_win_row_ties",
           "the last peak block wins, a column block whenever the sides tie",
           PARTITIONER,
           "k = int(np.argmin(lo * n + hi))",
           "k = len(a) - 1",
           (PAIR_LOOP, ROW_TIES)),
    Mutant("group_sums_reverse_rows",
           "group sums add their rows in reverse order",
           PARTITIONER,
           "for row, at in zip(abs_w[:, :, None], labels):",
           "for row, at in zip(abs_w[::-1, :, None], labels[::-1]):",
           (f"{REFERENCE}::test_group_sums_match_indexed_add",)),
    Mutant("group_block_skips_last",
           "each block of group sums skips its last grouping",
           PARTITIONER,
           "        block = sums[:, :, lo:lo + step]\n"
           "        labels = np.ascontiguousarray(groupings[lo:lo + step].T)",
           "        block = sums[:, :, lo:lo + step - 1]\n"
           "        labels = np.ascontiguousarray(groupings[lo:lo + step - 1].T)",
           (f"{REFERENCE}::test_group_sums_of_every_grouping_match_indexed_add[12-2-5]",)),
    Mutant("bounds_from_smallest_group",
           "a row bound adds each column's smallest group sum",
           PARTITIONER,
           "return np.cumsum(sums.max(axis=1), axis=1)[:, -1]",
           "return np.cumsum(sums.min(axis=1), axis=1)[:, -1]",
           (f"{REFERENCE}::test_oracle_matches_two_pass_reference",)),
]


def run_tests(tree: Path, tests) -> tuple:
    """(passed, seconds, tail of output) of pytest -x on `tests` in `tree`."""
    # No bytecode cache: a mutant and the original may share a size and an mtime.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
    tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-3:])
    return done.returncode == 0, time.perf_counter() - start, tail


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / name)

        tests = sorted({t for m in MUTANTS for t in m.tests})
        ok, seconds, tail = run_tests(tree, tests)
        print(f"baseline: {'passed' if ok else 'FAILED'} ({seconds:.1f} s)", flush=True)
        if not ok:
            print(tail)
            return 1

        bad = 0
        for m in MUTANTS:
            path = tree / m.path
            original = path.read_text()
            if original.count(m.snippet) != 1:
                status, seconds = "stale", 0.0
            else:
                path.write_text(original.replace(m.snippet, m.replacement))
                try:
                    survived, seconds, _ = run_tests(tree, m.tests)
                finally:
                    path.write_text(original)
                status = "survived" if survived else "killed"
            bad += status != "killed"
            print(f"{status:8}  {seconds:6.1f} s  {m.name}: {m.description}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
the measured runtimes. Every tolerance is pinned here, not configurable.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from blockprune.blockexec import decompose, masked_matvec, partitioned_matvec
from blockprune.cli import main
from blockprune.core import (
    PartitionAssignment,
    WeightMatrix,
    mask_of,
    partition_capacities,
)
from blockprune.generate import blockdiag_matrix, planted_assignment, uniform_matrix
from blockprune.matio import read_json
from blockprune.partitioner import brute_force_partition, greedy_partition, multi_restart
from blockprune.rng import SplitMix64


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class Stopwatch:
    def __init__(self, limit_s: float):
        self.limit = limit_s
        self.t0 = time.monotonic()

    def done(self) -> float:
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, f"ran {elapsed:.1f}s, limit {self.limit}s"
        return elapsed


def structural_ratio(n: int, p: int) -> Fraction:
    """Retained fraction forced by balanced capacities on an n x n layer."""
    caps = partition_capacities(n, p)
    return Fraction(sum(rc * cc for rc, cc in zip(caps, caps)), n * n)


def test_criterion_1_pruned_fraction(tmp_path):
    """512x512, p = 2..5: reported ratio is the exact balanced fraction."""
    sw = Stopwatch(10.0)
    m = tmp_path / "m.bpwm"
    assert run_cli("gen", "--rows", 512, "--cols", 512, "--seed", 1,
                   "--out", m, "--quiet") == 0
    ratios = {}
    for p in (2, 3, 4, 5):
        out = tmp_path / f"r{p}.json"
        assert run_cli("prune", m, "-p", p, "--seed", 1, "--out", out,
                       "--quiet") == 0
        d = read_json(out)
        got = Fraction(d["ratio"])  # 512^2 is a power of two: float is exact
        want = structural_ratio(512, p)
        assert got == want, f"p={p}: ratio {got} != structural {want}"
        if 512 % p == 0:
            assert got == Fraction(1, p)
        else:
            # 512 is not divisible by 3 or 5, so exactly 1/p is not
            # attainable by any balanced partition; the balanced fraction
            # is the nearest achievable value
            assert abs(float(got) - 1.0 / p) < 1e-5
        ratios[p] = float(got)
    elapsed = sw.done()
    print(f"\nPASS criterion 1: ratios {ratios} (exact balanced fractions; "
          f"1/2 and 1/4 exact, p=3,5 within 5e-6 of 1/p) [{elapsed:.1f}s]")


def test_criterion_2_planted_recovery():
    """50 planted block-diagonal instances recovered perfectly."""
    sw = Stopwatch(60.0)
    rng = SplitMix64(2024)
    recovered = 0
    for i in range(50):
        p = 2 + i % 4
        rows = p * (64 // p + rng.next_below(1 + (512 - 64) // p))
        cols = p * (64 // p + rng.next_below(1 + (512 - 64) // p))
        w = blockdiag_matrix(rows, cols, p, seed=rng.next_u64())
        res = multi_restart(w, p, restarts=8, seed=rng.next_u64())
        assert res.weight_loss == 0.0, f"instance {i}: loss {res.weight_loss}"
        planted_row, planted_col = planted_assignment(rows, cols, p)
        planted = mask_of(
            PartitionAssignment(p=p, row_of=planted_row, col_of=planted_col)
        )
        assert (res.mask.bits == planted.bits).all(), (
            f"instance {i}: mask differs from planted partition"
        )
        recovered += 1
    elapsed = sw.done()
    print(f"\nPASS criterion 2: {recovered}/50 planted partitions recovered "
          f"with zero loss [{elapsed:.1f}s]")


def test_criterion_3_oracle_dominance_and_gap():
    """Search loss never beats the exact optimum; gap fraction reported."""
    sw = Stopwatch(300.0)
    rng = SplitMix64(777)
    exact_hits = 0
    rel_gaps = []
    for i in range(200):
        n = 6 + rng.next_below(3)
        p = 2 + rng.next_below(2)
        w = uniform_matrix(n, n, seed=rng.next_u64())
        res = multi_restart(w, p, restarts=256, seed=rng.next_u64())
        opt = brute_force_partition(w, p).optimum_loss
        assert res.weight_loss >= opt, (
            f"instance {i} ({n}x{n}, p={p}): search {res.weight_loss!r} "
            f"below oracle {opt!r}"
        )
        if res.weight_loss == opt:
            exact_hits += 1
        rel_gaps.append((res.weight_loss - opt) / opt)
    elapsed = sw.done()
    # the dominance property is the pass/fail part; the gap is a report
    print(f"\nPASS criterion 3: dominance held on 200/200 instances; "
          f"exact-hit fraction {exact_hits / 200:.2f}, "
          f"mean relative gap {np.mean(rel_gaps):.4f} [{elapsed:.1f}s]")


def test_criterion_4_functional_equivalence():
    """Partitioned execution equals masked dense execution, 100 triples."""
    sw = Stopwatch(10.0)
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(100):
        rows = int(rng.integers(4, 24))
        cols = int(rng.integers(4, 24))
        p = int(rng.integers(2, 1 + min(5, rows, cols)))
        w = uniform_matrix(rows, cols, seed=trial)
        res = multi_restart(w, p, restarts=4, seed=trial)
        d = decompose(w, res.assignment)
        x = rng.normal(size=rows)
        want = masked_matvec(w, res.mask, x)
        got = partitioned_matvec(d, x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-9)
        scale = np.maximum(np.abs(want), 1e-9 / 1e-5)
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    elapsed = sw.done()
    print(f"\nPASS criterion 4: 100/100 triples equivalent, max scaled "
          f"error {worst:.2e} (tolerance 1e-5) [{elapsed:.1f}s]")


def test_criterion_5_bus_calibration(tmp_path):
    """Calibration reproduces the 2->1.8x and 3->2.5x scaling points."""
    sw = Stopwatch(30.0)
    fitted_path = tmp_path / "fitted.json"
    assert run_cli("calibrate", "--targets", "2=1.8,3=2.5",
                   "--out", fitted_path, "--quiet") == 0
    achieved = {}
    for copies, target in ((2, 1.8), (3, 2.5)):
        report = tmp_path / f"s{copies}.json"
        assert run_cli("simulate", "--config", fitted_path, "--mode",
                       "scaling", "--copies", copies, "--out", report,
                       "--quiet") == 0
        got = read_json(report)["speedup"]
        assert abs(got - target) <= 0.05, (
            f"{copies} accelerators: {got:.4f} vs target {target}"
        )
        achieved[copies] = got
    elapsed = sw.done()
    print(f"\nPASS criterion 5: calibrated scaling {achieved} within "
          f"+/-0.05 of (1.8, 2.5) [{elapsed:.1f}s]")


def test_criterion_6_partitioned_speedup_direction(tmp_path):
    """p=3 blocks on 3 accelerators: speedup in (3, 9), energy down."""
    from dataclasses import replace

    from blockprune.perfmodel import (
        SimConfig,
        baseline_workload,
        calibrate,
        ensure_capacity,
        partitioned_workload,
        simulate,
    )

    sw = Stopwatch(30.0)
    fitted = calibrate(SimConfig(), [(2, 1.8), (3, 2.5)]).config

    def partition_speedup(cfg):
        base = simulate(cfg, baseline_workload(4096, 4096))
        run = simulate(
            ensure_capacity(cfg, 3), partitioned_workload(4096, 4096, 3)
        ).versus(base)
        return run

    run = partition_speedup(fitted)
    assert 3.0 < run.speedup < 9.0, f"speedup {run.speedup}"
    assert run.energy_ratio < 1.0, f"energy ratio {run.energy_ratio}"

    sweep = []
    for gamma in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        s = partition_speedup(
            replace(fitted, contention_overhead=gamma)
        ).speedup
        sweep.append(s)
    assert all(a >= b for a, b in zip(sweep, sweep[1:])), (
        f"speedup not monotone in contention: {sweep}"
    )
    elapsed = sw.done()
    print(f"\nPASS criterion 6: calibrated p=3 speedup {run.speedup:.2f} in "
          f"(3, 9), energy ratio {run.energy_ratio:.2f} < 1, monotone sweep "
          f"{[round(s, 2) for s in sweep]} [{elapsed:.1f}s]")


def test_criterion_7_determinism(tmp_path):
    """Every command run twice with the same flags is byte-identical."""
    sw = Stopwatch(30.0)
    outputs = {}
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        m = d / "m.bpwm"
        mc = d / "m.csv"
        r = d / "r.json"
        o = d / "o.json"
        v = d / "v.json"
        s = d / "s.json"
        c = d / "c.json"
        assert run_cli("gen", "--rows", 8, "--cols", 8,
                       "--dist", "blockdiag:2", "--seed", 7, "--out", m,
                       "--quiet") == 0
        assert run_cli("gen", "--rows", 6, "--cols", 6, "--dist", "gauss",
                       "--seed", 7, "--out", mc, "--quiet") == 0
        assert run_cli("prune", m, "-p", 2, "--restarts", 16, "--seed", 7,
                       "--refine", "--out", r, "--quiet") == 0
        assert run_cli("oracle", m, "-p", 2, "--result", r, "--out", o,
                       "--quiet") == 0
        assert run_cli("verify", m, r, "--seed", 7, "--out", v,
                       "--quiet") == 0
        assert run_cli("simulate", "-p", 3, "--rows", 1024, "--cols", 1024,
                       "--out", s, "--quiet") == 0
        assert run_cli("calibrate", "--targets", "2=1.8,3=2.5", "--out", c,
                       "--quiet") == 0
        outputs[tag] = {
            p.name: p.read_bytes() for p in (m, mc, r, o, v, s, c)
        }
    assert outputs["first"] == outputs["second"]
    elapsed = sw.done()
    print(f"\nPASS criterion 7: {len(outputs['first'])} output files "
          f"byte-identical across repeated runs [{elapsed:.1f}s]")


def test_criterion_8_scale_invariance():
    """Multiplying weights by 7.0 never changes the chosen assignment."""
    sw = Stopwatch(10.0)
    rng = SplitMix64(88)
    for i in range(20):
        n = 6 + rng.next_below(6)
        p = 2 + rng.next_below(3)
        seed = rng.next_u64()
        w = uniform_matrix(n, n, seed=rng.next_u64())
        scaled = WeightMatrix(w.data * 7.0)
        a = greedy_partition(w, p, seed=seed).assignment
        b = greedy_partition(scaled, p, seed=seed).assignment
        assert (a.row_of == b.row_of).all(), f"instance {i}: rows differ"
        assert (a.col_of == b.col_of).all(), f"instance {i}: cols differ"
    elapsed = sw.done()
    print(f"\nPASS criterion 8: 20/20 assignments invariant under 7x "
          f"scaling [{elapsed:.1f}s]")

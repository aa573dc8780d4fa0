import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from blockprune import cli
from blockprune.cli import main
from blockprune.matio import read_json, read_matrix
from blockprune.rng import SplitMix64


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def matrix_6x8(tmp_path):
    path = tmp_path / "m.bpwm"
    assert run("gen", "--rows", 6, "--cols", 8, "--dist", "uniform",
               "--seed", 1, "--out", path, "--quiet") == 0
    return path


@pytest.fixture
def planted_8x8(tmp_path):
    path = tmp_path / "planted.bpwm"
    assert run("gen", "--rows", 8, "--cols", 8, "--dist", "blockdiag:2",
               "--seed", 2, "--out", path, "--quiet") == 0
    return path


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.bpwm", tmp_path / "b.bpwm"
        for path in (a, b):
            assert run("gen", "--rows", 6, "--cols", 8, "--seed", 3,
                       "--out", path, "--quiet") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_blockdiag_off_block_zero(self, tmp_path):
        path = tmp_path / "m.bpwm"
        assert run("gen", "--rows", 8, "--cols", 8, "--dist", "blockdiag:2",
                   "--seed", 0, "--out", path, "--quiet") == 0
        w = read_matrix(path)
        assert (w.data[:4, 4:] == 0.0).all()
        assert (w.data[4:, :4] == 0.0).all()

    def test_dims_give_full_connectedness(self, tmp_path):
        path = tmp_path / "m.csv"
        assert run("gen", "--rows", 6, "--cols", 8, "--out", path,
                   "--quiet") == 0
        w = read_matrix(path)
        assert w.rows * w.cols == 48

    def test_bad_dist_exits_2(self, tmp_path):
        assert run("gen", "--rows", 4, "--cols", 4, "--dist", "nope",
                   "--out", tmp_path / "x.bpwm", "--quiet") == 2

    def test_huge_blockdiag_layer_exits_2(self, tmp_path, capsys):
        # The balanced capacities once divided in floats and ended in an
        # OverflowError traceback.
        assert run("gen", "--rows", 10**400, "--cols", 4, "--dist",
                   "blockdiag:2", "--out", tmp_path / "x.bpwm") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestPrune:
    def test_ratio_half_for_p2(self, matrix_6x8, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("prune", matrix_6x8, "-p", 2, "--out", out) == 0
        assert "ratio=0.5" in capsys.readouterr().out
        d = read_json(out)
        assert d["ratio"] == 0.5
        assert d["connectedness"] == 24
        assert len(d["row_partition"]) == 6
        assert len(d["col_partition"]) == 8
        assert d["refined"] is False

    def test_p1_keeps_everything(self, matrix_6x8, tmp_path):
        out = tmp_path / "r.json"
        assert run("prune", matrix_6x8, "-p", 1, "--out", out, "--quiet") == 0
        d = read_json(out)
        assert d["ratio"] == 1.0
        assert d["weight_loss"] == 0.0

    def test_p5_prunes_80_percent(self, tmp_path):
        path = tmp_path / "m.bpwm"
        run("gen", "--rows", 10, "--cols", 10, "--seed", 4, "--out", path,
            "--quiet")
        out = tmp_path / "r.json"
        assert run("prune", path, "-p", 5, "--out", out, "--quiet") == 0
        assert read_json(out)["ratio"] == pytest.approx(0.2)

    def test_p_too_large_exits_2(self, matrix_6x8, tmp_path):
        assert run("prune", matrix_6x8, "-p", 7,
                   "--out", tmp_path / "r.json", "--quiet") == 2

    def test_refine_flag_recorded(self, matrix_6x8, tmp_path):
        out = tmp_path / "r.json"
        assert run("prune", matrix_6x8, "-p", 2, "--refine", "--out", out,
                   "--quiet") == 0
        assert read_json(out)["refined"] is True

    @pytest.mark.parametrize("passes", [0, -1])
    def test_refine_without_passes_exits_2(self, matrix_6x8, tmp_path, capsys,
                                           passes):
        out = tmp_path / "r.json"
        assert run("prune", matrix_6x8, "-p", 2, "--refine", "--max-passes",
                   passes, "--out", out, "--quiet") == 2
        assert "--max-passes" in capsys.readouterr().err
        assert not out.exists()

    def test_restarts_past_the_label_limit_exit_2(self, matrix_6x8, tmp_path, capsys):
        # Unchecked, the label arrays asked for 7 PiB and the run ended in
        # a traceback.
        out = tmp_path / "r.json"
        assert run("prune", matrix_6x8, "-p", 2, "--restarts", 10**15,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "limit" in err
        assert not out.exists()


class TestOracle:
    def test_planted_gap_zero(self, planted_8x8, tmp_path):
        res = tmp_path / "r.json"
        assert run("prune", planted_8x8, "-p", 2, "--restarts", 8,
                   "--out", res, "--quiet") == 0
        report = tmp_path / "o.json"
        assert run("oracle", planted_8x8, "-p", 2, "--result", res,
                   "--out", report, "--quiet") == 0
        d = read_json(report)
        assert d["optimum_loss"] == 0.0
        assert d["gap"] == 0.0

    def test_hand_instance(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("4,3\n2,1\n")
        report = tmp_path / "o.json"
        assert run("oracle", path, "-p", 2, "--out", report, "--quiet") == 0
        assert read_json(report)["optimum_loss"] == 5.0

    def test_gap_nonnegative(self, matrix_6x8, tmp_path):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        report = tmp_path / "o.json"
        assert run("oracle", matrix_6x8, "-p", 2, "--result", res,
                   "--out", report, "--quiet") == 0
        assert read_json(report)["gap"] >= 0.0

    def test_budget_exceeded_exits_3(self, tmp_path):
        path = tmp_path / "m.bpwm"
        run("gen", "--rows", 16, "--cols", 16, "--seed", 0, "--out", path,
            "--quiet")
        assert run("oracle", path, "-p", 4, "--quiet") == 3
        res = tmp_path / "r.json"
        run("prune", path, "-p", 4, "--restarts", 1, "--out", res, "--quiet")
        assert run("oracle", path, "-p", 4, "--result", res, "--quiet") == 3

    def test_result_for_another_p_exits_2(self, tmp_path, capsys):
        # A p = 2 result loses less than the p = 3 optimum of this layer.
        path = tmp_path / "m.bpwm"
        run("gen", "--rows", 7, "--cols", 7, "--seed", 3, "--out", path,
            "--quiet")
        res = tmp_path / "r2.json"
        run("prune", path, "-p", 2, "--out", res, "--quiet")
        assert run("oracle", path, "-p", 3, "--result", res) == 2
        captured = capsys.readouterr()
        assert "gap" not in captured.out
        assert captured.err.startswith("error:")
        assert "p=2" in captured.err and "p=3" in captured.err

    def test_infeasible_result_exits_2(self, matrix_6x8, tmp_path, capsys):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        d = json.loads(res.read_text())
        d["row_partition"] = [0] * 6  # loses nothing, but is not balanced
        d["col_partition"] = [0] * 8
        res.write_text(json.dumps(d))
        assert run("oracle", matrix_6x8, "-p", 2, "--result", res) == 2
        captured = capsys.readouterr()
        assert "gap" not in captured.out
        assert captured.err.startswith("error:") and "infeasible" in captured.err


class TestVerify:
    def test_valid_result_passes(self, matrix_6x8, tmp_path):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        report = tmp_path / "v.json"
        assert run("verify", matrix_6x8, res, "--out", report,
                   "--quiet") == 0
        d = read_json(report)
        assert d["passed"] is True
        assert d["max_rel_error"] <= 1e-5

    def test_tampered_balance_fails(self, matrix_6x8, tmp_path):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        d = json.loads(res.read_text())
        d["row_partition"] = [0] * 5 + [1]  # 5 rows in partition 0
        res.write_text(json.dumps(d))
        report = tmp_path / "v.json"
        assert run("verify", matrix_6x8, res, "--out", report,
                   "--quiet") == 2
        v = read_json(report)
        assert v["valid"] is False
        assert any("bound" in s for s in v["violations"])

    def test_balance_is_checked_once(self, matrix_6x8, tmp_path, monkeypatch):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        calls = []
        real = cli.validate_assignment

        def counted(*args):
            calls.append(args)
            return real(*args)

        # Rebind every name the check is reached by.
        monkeypatch.setattr(cli, "validate_assignment", counted)
        monkeypatch.setattr(cli.blockexec, "validate_assignment", counted)
        assert run("verify", matrix_6x8, res, "--quiet") == 0
        assert len(calls) == 1

    def test_p1_result_passes(self, matrix_6x8, tmp_path):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 1, "--out", res, "--quiet")
        assert run("verify", matrix_6x8, res, "--quiet") == 0

    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trials_is_not_a_pass(self, matrix_6x8, tmp_path, capsys, trials):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        assert run("verify", matrix_6x8, res, "--trials", trials) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "trials" in captured.err

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0"])
    def test_tolerance_must_be_positive_and_finite(self, matrix_6x8, tmp_path,
                                                   capsys, tolerance):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        assert run("verify", matrix_6x8, res, "--tolerance", tolerance) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error:") and "tolerance" in captured.err

    def test_trials_draw_the_sequential_stream_across_chunks(
            self, matrix_6x8, tmp_path, monkeypatch):
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        seen = []
        real = cli.blockexec.masked_matvec

        def spy(weights, mask, x):
            seen.append(x)
            return real(weights, mask, x)

        monkeypatch.setattr(cli, "VERIFY_CHUNK", 3)
        monkeypatch.setattr(cli.blockexec, "masked_matvec", spy)
        assert run("verify", matrix_6x8, res, "--trials", 7, "--seed", 9,
                   "--quiet") == 0
        assert [len(x) for x in seen] == [3, 3, 1]
        rng = SplitMix64(9)
        want = [2.0 * ((rng.next_u64() >> 11) * 2.0 ** -53) - 1.0
                for _ in range(7 * 6)]
        assert np.concatenate(seen).ravel().tolist() == want

    def test_trials_above_the_cap_exit_2_quickly(self, matrix_6x8, tmp_path,
                                                 capsys):
        # Unbounded, --trials 10**400 looped over chunks of 128 trials
        # until it was killed.
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        limit = cli.MAX_VERIFY_WORK // (6 * 8 + cli.VERIFY_TRIAL_COST)
        start = time.perf_counter()
        for trials in (limit + 1, 10**400):
            assert run("verify", matrix_6x8, res, "--trials", trials) == 2
            captured = capsys.readouterr()
            assert "PASS" not in captured.out
            assert captured.err.startswith("error:")
            assert f"limit of {limit} for a 6x8 layer" in captured.err
        assert time.perf_counter() - start < 1.0

    def test_refused_arguments_cut_no_blocks(self, matrix_6x8, tmp_path, capsys,
                                             monkeypatch):
        # verify once cut the blocks before it checked its arguments, so a
        # refused --trials on a large layer did that work for nothing.
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(res.read_text()),
                                   "row_partition": [0] * 5 + [1]}))

        def refused(*args):
            raise AssertionError("decompose called")

        monkeypatch.setattr(cli.blockexec, "decompose", refused)
        limit = cli.MAX_VERIFY_WORK // (6 * 8 + cli.VERIFY_TRIAL_COST)
        for argv, line in (
                (("--trials", limit + 1),
                 f"--trials is more than the limit of {limit} for a 6x8 layer"),
                (("--tolerance", "nan"), "tolerance must be positive and finite, got nan")):
            capsys.readouterr()
            assert run("verify", matrix_6x8, res, *argv) == 2
            assert capsys.readouterr() == ("", f"error: {line}\n")
            # An infeasible result outranks the refused argument.
            report = tmp_path / "v.json"
            assert run("verify", matrix_6x8, bad, *argv, "--out", report) == 2
            violation = "row partition 0 holds 5 nodes, upper bound ceil(6/2)=3 exceeded"
            assert capsys.readouterr() == (f"FAIL: infeasible assignment: {violation}\n", "")
            d = json.loads(report.read_text(), parse_constant=float)
            trials, tolerance = (limit + 1, "1e-05") if argv[0] == "--trials" else (100, "nan")
            assert str(d.pop("tolerance")) == tolerance
            assert d == {"valid": False, "violations": [violation], "trials": trials,
                         "max_rel_error": None, "passed": False}

    def test_trial_cap_admits_the_benchmark_counts(self):
        # 100 trials at 2048 x 2048, and 4095 at the paper's 4096 x 4096.
        for n, trials in ((2048, 100), (4096, 4095)):
            assert trials * (n * n + cli.VERIFY_TRIAL_COST) <= cli.MAX_VERIFY_WORK

    def test_dim_mismatch_exits_2(self, matrix_6x8, tmp_path):
        other = tmp_path / "other.bpwm"
        run("gen", "--rows", 5, "--cols", 5, "--seed", 9, "--out", other,
            "--quiet")
        res = tmp_path / "r.json"
        run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
        assert run("verify", other, res, "--quiet") == 2


class TestSimulate:
    def test_p1_speedup_one(self, tmp_path):
        report = tmp_path / "s.json"
        assert run("simulate", "-p", 1, "--rows", 512, "--cols", 512,
                   "--out", report, "--quiet") == 0
        assert read_json(report)["speedup"] == 1.0

    def test_partition_mode_reports_ratio(self, tmp_path):
        report = tmp_path / "s.json"
        assert run("simulate", "-p", 3, "--out", report, "--quiet") == 0
        d = read_json(report)
        assert d["mode"] == "partition"
        assert d["speedup"] > 1.0
        assert d["energy_ratio"] < 1.0
        assert d["layer"]["rows"] == 4096

    def test_scaling_mode(self, tmp_path):
        report = tmp_path / "s.json"
        assert run("simulate", "--mode", "scaling", "--copies", 2,
                   "--out", report, "--quiet") == 0
        d = read_json(report)
        assert 1.0 < d["speedup"] < 2.0

    def test_20000_copies_within_ten_seconds(self, tmp_path):
        # About 0.3 s with the sorted request list; scanning every
        # pending request per grant ran past 20 s.
        report = tmp_path / "s.json"
        start = time.perf_counter()
        assert run("simulate", "--mode", "scaling", "--copies", 20000,
                   "--out", report, "--quiet") == 0
        elapsed = time.perf_counter() - start
        assert 0.0 < read_json(report)["speedup"] < 20000
        assert elapsed < 10.0, f"20000 copies took {elapsed:.2f} s"

    def test_copies_above_the_cap_exit_2_quickly(self, capsys):
        # Uncapped, 10**14 copies built one job each and never returned.
        start = time.perf_counter()
        for copies in (cli.MAX_SIMULATE_COPIES + 1, 10**14):
            assert run("simulate", "--mode", "scaling", "--copies", copies) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"limit of {cli.MAX_SIMULATE_COPIES}" in err
        assert time.perf_counter() - start < 1.0

    def test_partitions_above_the_cap_exit_2_quickly(self, capsys):
        n = cli.MAX_SIMULATE_COPIES + 1
        start = time.perf_counter()
        assert run("simulate", "-p", n, "--rows", n, "--cols", n) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"limit of {cli.MAX_SIMULATE_COPIES}" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ("-p", 3, "--rows", 10**400, "--cols", 4),
        ("--mode", "scaling", "--copies", 3, "--rows", 4, "--cols", 10**400),
    ])
    def test_layer_too_large_for_a_float_exits_2(self, capsys, argv):
        # Once an OverflowError traceback from `bytes / bandwidth`.
        assert run("simulate", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite float" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("copies", [0, -1])
    def test_no_copies_exits_2(self, capsys, copies):
        assert run("simulate", "--mode", "scaling", "--copies", copies,
                   "--quiet") == 2
        assert "copy" in capsys.readouterr().err

    def test_config_file_roundtrip(self, tmp_path):
        report = tmp_path / "c.json"
        assert run("calibrate", "--targets", "2=1.8,3=2.5",
                   "--out", report, "--quiet") == 0
        sim_report = tmp_path / "s.json"
        assert run("simulate", "--config", report, "-p", 3,
                   "--out", sim_report, "--quiet") == 0
        assert read_json(sim_report)["speedup"] > 3.0

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert run("simulate", "--config", cfg, "--quiet") == 2

    @pytest.mark.parametrize("field, value", [
        *[(field, 10**400) for field in (
            "accel_clock_hz", "contention_overhead",
            "bus_bandwidth_bytes_per_cycle", "e_mac_pj", "e_dram_byte_pj",
            "p_static_mw")],
        ("e_mac_pj", 10**302),
        ("e_mac_pj", 1e305),
        ("sa_dim", 10**400),
    ], ids=lambda v: f"10**{len(str(v)) - 1}" if isinstance(v, int) else str(v))
    def test_config_value_too_large_for_a_float_exits_2(self, tmp_path, capsys,
                                                        field, value):
        # Once an OverflowError traceback, or for 1e305 an exit 0 with an
        # infinite energy and a NaN energy ratio in the report, or for
        # sa_dim an exit 0 with zero busy cycles.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        report = tmp_path / "s.json"
        for mode in ("partition", "scaling"):
            assert run("simulate", "--config", cfg, "--mode", mode,
                       "--out", report) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "finite float" in err
            assert "Traceback" not in err
            assert not report.exists()

    def test_accelerators_above_the_cap_exit_2_quickly(self, tmp_path, capsys):
        # Uncapped, 10**7 accelerators took 49 s and wrote 220 MB.
        cfg = tmp_path / "cfg.json"
        report = tmp_path / "s.json"
        for n in (cli.MAX_SIMULATE_COPIES + 1, 10**7):
            cfg.write_text(json.dumps({"num_accelerators": n}))
            start = time.perf_counter()
            assert run("simulate", "--config", cfg, "--rows", 64, "--cols", 64,
                       "--out", report) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"limit of {cli.MAX_SIMULATE_COPIES}" in err
            assert not report.exists()

    def test_accelerators_at_the_cap_are_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_accelerators": cli.MAX_SIMULATE_COPIES}))
        report = tmp_path / "s.json"
        assert run("simulate", "--config", cfg, "--rows", 64, "--cols", 64,
                   "--out", report, "--quiet") == 0
        d = read_json(report)
        assert len(d["baseline"]["accel_busy_cycles"]) == cli.MAX_SIMULATE_COPIES


class TestCalibrate:
    def test_writes_fitted_config(self, tmp_path):
        out = tmp_path / "fitted.json"
        assert run("calibrate", "--targets", "2=1.8,3=2.5", "--out", out,
                   "--quiet") == 0
        d = read_json(out)
        assert d["calibration"]["converged"] is True
        for k, target in (("2", 1.8), ("3", 2.5)):
            assert abs(d["calibration"]["achieved"][k] - target) <= 0.05

    def test_unreachable_targets_exit_2_with_best_effort(self, tmp_path):
        out = tmp_path / "fitted.json"
        assert run("calibrate", "--targets", "2=2.5", "--out", out,
                   "--quiet") == 2
        d = read_json(out)
        assert d["calibration"]["converged"] is False

    @pytest.mark.parametrize("dim", ["--rows", "--cols"])
    def test_layer_too_large_for_a_float_exits_2(self, capsys, dim):
        assert run("calibrate", "--targets", "2=1.8", dim, 10**400) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite float" in err
        assert "Traceback" not in err

    def test_bad_target_spec_exits_2(self):
        assert run("calibrate", "--targets", "nonsense", "--quiet") == 2

    @pytest.mark.parametrize("targets", [
        f"{cli.MAX_CALIBRATE_COPIES + 1}=2",
        f"2=1.8,{cli.MAX_CALIBRATE_COPIES - 1}=2",
        pytest.param(",".join(f"{cli.MAX_SIMULATE_COPIES - i}=2"
                              for i in range(16)), id="distinct"),
    ])
    def test_copies_above_the_cap_exit_2_quickly(self, targets, capsys):
        # One more accelerator than the cap, in one target or summed over
        # two; or 16 distinct counts near the per-workload cap, which must
        # be refused before a million jobs are built (about 3 s). Uncapped,
        # 20000=2 fitted for 106 s.
        start = time.perf_counter()
        assert run("calibrate", "--targets", targets) == 2
        assert time.perf_counter() - start < 1.0
        assert f"limit of {cli.MAX_CALIBRATE_COPIES}" in capsys.readouterr().err


def _json_commands(d, matrix):
    """(name, argv) of each command that writes a report, writing `d / name`."""
    res = d / "prune.json"
    return [
        ("prune", ("prune", matrix, "-p", 2, "--restarts", 4)),
        ("oracle", ("oracle", matrix, "-p", 2, "--result", res)),
        ("verify", ("verify", matrix, res, "--trials", 3)),
        ("simulate", ("simulate", "-p", 3, "--rows", 512, "--cols", 512)),
        ("scaling", ("simulate", "--mode", "scaling", "--copies", 3)),
        ("calibrate", ("calibrate", "--targets", "2=1.8,3=2.5")),
    ]


def test_json_prints_exactly_the_out_file(matrix_6x8, tmp_path, capsys):
    # --json prints the payload --out writes, and nothing else.
    for name, argv in _json_commands(tmp_path, matrix_6x8):
        out = tmp_path / f"{name}.json"
        assert run(*argv, "--json", "--out", out) == 0, name
        printed = capsys.readouterr().out
        assert json.loads(printed) == read_json(out), name
        assert printed == out.read_text(), name


VALID_RESULT_6X8 = {
    "rows": 6, "cols": 8, "p": 2, "seed": 0, "restarts": 1,
    "row_partition": [0, 0, 0, 1, 1, 1],
    "col_partition": [0, 0, 0, 0, 1, 1, 1, 1],
}
BAD_FILES = {
    "result: fractional p": {**VALID_RESULT_6X8, "p": 2.5},
    "result: fractional label":
        {**VALID_RESULT_6X8, "row_partition": [0.7, 0, 0, 1, 1, 1]},
    "result: null label":
        {**VALID_RESULT_6X8, "col_partition": [0, 0, 0, 0, 1, 1, 1, None]},
    "result: bool label":
        {**VALID_RESULT_6X8, "row_partition": [True, 0, 0, 1, 1, 1]},
    "result: non-list partition": {**VALID_RESULT_6X8, "row_partition": 6},
    "result: string seed": {**VALID_RESULT_6X8, "seed": "7"},
    "result: null restarts": {**VALID_RESULT_6X8, "restarts": None},
    "result: non-object": [VALID_RESULT_6X8],
    # One node per label passes every per-partition bound, so a huge p
    # once sent verify through an O(p) loop that ran for minutes.
    "result: p far above min(rows, cols)": {
        **VALID_RESULT_6X8, "p": 20000000,
        "row_partition": list(range(6)), "col_partition": list(range(8))},
    "result: p above min(rows, cols)": {**VALID_RESULT_6X8, "p": 7},
    "result: zero p": {**VALID_RESULT_6X8, "p": 0},
    "config: non-object": [1],
    "config: string field": {"num_accelerators": "x"},
    "config: float in int field": {"sa_dim": 32.5},
    "config: null field": {"e_mac_pj": None},
    "config: non-finite field": {"accel_clock_hz": float("inf")},
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_malformed_file_exits_2_with_message(matrix_6x8, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_FILES[case]))
    if case.startswith("result"):
        commands = [("verify", matrix_6x8, bad),
                    ("oracle", matrix_6x8, "-p", 2, "--result", bad)]
    else:
        commands = [("simulate", "--config", bad),
                    ("calibrate", "--config", bad, "--targets", "2=1.8")]
    for argv in commands:
        assert run(*argv) == 2, argv
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error: "), argv


@pytest.mark.parametrize("kind", ["result", "config"])
def test_deeply_nested_json_exits_2_with_message(matrix_6x8, tmp_path, capsys,
                                                 kind):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    if kind == "result":
        commands = [("verify", matrix_6x8, nested),
                    ("oracle", matrix_6x8, "-p", 2, "--result", nested)]
    else:
        commands = [("simulate", "--config", nested),
                    ("calibrate", "--config", nested, "--targets", "2=1.8")]
    for argv in commands:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err, argv
        assert "Traceback" not in err


@pytest.mark.parametrize("targets", ["2=nan", "2=inf", "2=1.8,3=nan", "2=-inf"])
def test_non_finite_calibration_target_exits_2(tmp_path, capsys, targets):
    out = tmp_path / "fitted.json"
    assert run("calibrate", "--targets", targets, "--out", out, "--quiet") == 2
    assert capsys.readouterr().err.startswith("error: invalid target")
    assert not out.exists()


def test_overflowing_layer_exits_2(tmp_path, capsys):
    # Its sum of |W| is inf, so no candidate was near the best: oracle
    # ended in an AttributeError and prune in an IndexError, exit 1.
    big = tmp_path / "big.csv"
    big.write_text("1e308,1e308,1e308,1e308\n" * 4)
    small = tmp_path / "small.csv"
    small.write_text("1e308,1e308\n" * 2)
    out = tmp_path / "o.json"
    for argv in [("oracle", big, "-p", 2), ("prune", big, "-p", 2),
                 ("prune", big, "-p", 2, "--refine"),
                 ("prune", small, "-p", 1), ("oracle", small, "-p", 1)]:
        assert run(*argv, "--out", out) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err, argv
        assert "Traceback" not in err
        assert not out.exists()


def test_verify_of_a_layer_whose_products_overflow_fails(tmp_path, capsys):
    # inf - inf is NaN, and max(0.0, nan) kept 0.0: exit 0, "passed": true.
    big = tmp_path / "big.csv"
    big.write_text("1e308,1e308,1e308,1e308\n" * 4)
    res = tmp_path / "r.json"
    res.write_text(json.dumps({
        "rows": 4, "cols": 4, "p": 2, "seed": 0, "restarts": 1,
        "row_partition": [0, 0, 1, 1], "col_partition": [0, 0, 1, 1]}))
    report = tmp_path / "v.json"
    assert run("verify", big, res, "--out", report) == 2
    assert capsys.readouterr().out.startswith("FAIL:")
    d = json.loads(report.read_text(), parse_constant=lambda name: pytest.fail(name))
    assert d["passed"] is False and d["max_rel_error"] is None


# Each range refusal, as its full stderr line; `limit` is verify's trial
# limit for a 6 x 8 layer.
REFUSALS = [
    (("prune", "{m}", "-p", 0),
     "partition count 0 out of range [1, 6] for a 6x8 layer"),
    (("prune", "{m}", "-p", 7),
     "partition count 7 out of range [1, 6] for a 6x8 layer"),
    (("prune", "{m}", "-p", 2, "--restarts", 10**15),
     "1000000000000000 restarts of a 6x8 layer keep 14000000000000000 labels, "
     "more than the limit of 33554432"),
    (("prune", "{m}", "-p", 2, "--refine", "--max-passes", 0),
     "--max-passes must be >= 1 with --refine"),
    (("verify", "{m}", "{r}", "--trials", 0), "trials must be >= 1"),
    (("verify", "{m}", "{r}", "--trials", "{limit+1}"),
     "--trials is more than the limit of 16582885 for a 6x8 layer"),
    (("simulate", "--mode", "scaling", "--copies", 65537),
     "65537 copies is more than the limit of 65536"),
    (("simulate", "-p", 65537), "65537 partitions is more than the limit of 65536"),
    (("calibrate", "--targets", "2=1.8,511=2"),
     "targets ask for 513 accelerators in total, more than the limit of 512"),
    (("gen", "--rows", 0, "--cols", 4, "--out", "{m}"), "matrix dimensions must be >= 1"),
    (("gen", "--rows", 10**9, "--cols", 10**9, "--out", "{m}"),
     "a 1000000000x1000000000 layer has 1000000000000000000 links, "
     "more than the limit of 67108864"),
    (("simulate", "--config", "{c:1.5}"),
     "config field sa_dim must be a finite int, got 1.5"),
    (("simulate", "--config", "{c:0}"), "systolic array dimension must be >= 1"),
    # Two fields of the wrong type: the first in the file is named.
    (("simulate", "--config", "{c:two}"),
     "config field accel_clock_hz must be a finite float, got 'x'"),
    (("verify", "{m}", "{r:0}"), "{r:0}: p=0 out of range [1, 6]"),
    (("verify", "{m}", "{r:2.5}"), "{r:2.5}: p must be an integer, got 2.5"),
]


@pytest.mark.parametrize("argv, line", REFUSALS, ids=[
    " ".join(str(a) for a in argv)[:40] for argv, _ in REFUSALS])
def test_range_refusal_message(matrix_6x8, tmp_path, capsys, argv, line):
    res = tmp_path / "r.json"
    run("prune", matrix_6x8, "-p", 2, "--out", res, "--quiet")
    limit = cli.MAX_VERIFY_WORK // (6 * 8 + cli.VERIFY_TRIAL_COST)
    fill = {"{m}": matrix_6x8, "{r}": res, "{limit+1}": limit + 1}
    for tag, text in (("1.5", '{"sa_dim": 1.5}'), ("0", '{"sa_dim": 0}'), (
            "two", '{"accel_clock_hz": "x", "num_accelerators": "y"}')):
        cfg = tmp_path / f"config_{tag}.json"
        cfg.write_text(text)
        fill[f"{{c:{tag}}}"] = cfg
    for p in (0, 2.5):
        bad = tmp_path / f"p_{p}.json"
        bad.write_text(json.dumps({**VALID_RESULT_6X8, "p": p}))
        fill[f"{{r:{p}}}"] = bad
    for key, value in fill.items():
        line = line.replace(key, str(value))
    capsys.readouterr()
    assert run(*[fill.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n"
    assert captured.out == ""


def test_commands_rebound_after_the_first_call_are_run(matrix_6x8, monkeypatch):
    # The parser is built once per process; the command is looked up by
    # name on every call, so wrappers installed later still catch it.
    assert run("prune", matrix_6x8, "-p", 2, "--quiet") == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_prune", lambda args: seen.append(args.p) or 0)
    assert run("prune", matrix_6x8, "-p", 2, "--quiet") == 0
    assert seen == [2]


class TestDeterminism:
    def test_every_command_twice_is_byte_identical(self, tmp_path):
        outs = {}
        for tag in ("x", "y"):
            d = tmp_path / tag
            d.mkdir()
            m = d / "m.bpwm"
            run("gen", "--rows", 8, "--cols", 8, "--dist", "blockdiag:2",
                "--seed", 5, "--out", m, "--quiet")
            r = d / "r.json"
            run("prune", m, "-p", 2, "--restarts", 8, "--seed", 5,
                "--out", r, "--quiet")
            o = d / "o.json"
            run("oracle", m, "-p", 2, "--result", r, "--out", o, "--quiet")
            v = d / "v.json"
            run("verify", m, r, "--seed", 5, "--out", v, "--quiet")
            s = d / "s.json"
            run("simulate", "-p", 3, "--rows", 1024, "--cols", 1024,
                "--out", s, "--quiet")
            c = d / "c.json"
            run("calibrate", "--targets", "2=1.8,3=2.5", "--out", c,
                "--quiet")
            outs[tag] = [p.read_bytes() for p in (m, r, o, v, s, c)]
        assert outs["x"] == outs["y"]

    def test_prune_does_not_depend_on_blas_threads(self, tmp_path):
        # The search scores rows with a matrix product; its labels, and
        # so the --out bytes, must not depend on how BLAS splits it.
        layer = tmp_path / "decimals.csv"
        values = np.random.default_rng(0).choice(["0.1", "0.2", "0.3", "0.6", "0.7"],
                                                 (300, 257))
        layer.write_text("".join(",".join(row) + "\n" for row in values))
        src = str(Path(cli.__file__).parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"r{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from blockprune.cli import main; sys.exit(main(sys.argv[1:]))",
                 "prune", str(layer), "-p", "3", "--seed", "1", "--restarts", "16",
                 "--out", str(out), "--quiet"],
                env=env, check=True)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

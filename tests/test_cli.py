import json
import time

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

    def test_bad_target_spec_exits_2(self):
        assert run("calibrate", "--targets", "nonsense", "--quiet") == 2

    @pytest.mark.parametrize("targets", [
        f"{cli.MAX_CALIBRATE_COPIES + 1}=2",
        f"2=1.8,{cli.MAX_CALIBRATE_COPIES - 1}=2",
    ])
    def test_copies_above_the_cap_exit_2_quickly(self, targets, capsys):
        # One more accelerator than the cap, in one target or summed over
        # two. Uncapped, 20000=2 fitted for 106 s.
        start = time.perf_counter()
        assert run("calibrate", "--targets", targets) == 2
        assert time.perf_counter() - start < 1.0
        assert f"limit of {cli.MAX_CALIBRATE_COPIES}" in capsys.readouterr().err


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

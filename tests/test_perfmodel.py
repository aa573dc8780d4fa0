import math
import time
from dataclasses import replace

import pytest

from blockprune import perfmodel
from blockprune.perfmodel import (
    CalibrationError,
    Job,
    SimConfig,
    baseline_workload,
    calibrate,
    ensure_capacity,
    partitioned_workload,
    replicated_workload,
    sa_matmul_cycles,
    scaling_speedup,
    simulate,
)


class TestSaMatmulCycles:
    def test_single_tile(self):
        assert sa_matmul_cycles(32, 32, 32, 32) == 94  # 32 + 62

    def test_four_tiles(self):
        assert sa_matmul_cycles(64, 32, 64, 32) == 376  # 4 * 94

    def test_halving_a_large_cube_is_about_8x(self):
        big = sa_matmul_cycles(4096, 4096, 4096, 32)
        small = sa_matmul_cycles(2048, 2048, 2048, 32)
        assert big / small == pytest.approx(8.0, rel=0.02)

    def test_vector_job(self):
        # M=1 still occupies one tile row
        assert sa_matmul_cycles(1, 100, 32, 32) == 162

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            sa_matmul_cycles(0, 1, 1, 32)

    def test_tile_count_is_exact_past_2_to_the_53(self):
        # Float ceilings once rounded 2**53 + 1 down and came out 3 short.
        assert sa_matmul_cycles(2**53 + 1, 1, 1, 2) == (2**52 + 1) * 3

    def test_array_past_a_float_is_one_tile(self):
        # Float ceilings once gave 1 / 10**400 == 0.0 and so zero tiles.
        s = 10**400
        assert sa_matmul_cycles(1, 1, 1, s) == 1 + 2 * s - 2


class TestSimulate:
    def test_single_job_against_itself(self):
        cfg = SimConfig()
        rep = simulate(cfg, baseline_workload(256, 256))
        again = rep.versus(simulate(cfg, baseline_workload(256, 256)))
        assert again.speedup == 1.0
        assert again.energy_ratio == 1.0

    def test_single_job_pays_no_contention(self):
        lo = replace(SimConfig(), contention_overhead=0.0)
        hi = replace(SimConfig(), contention_overhead=5.0)
        a = simulate(lo, baseline_workload(512, 512))
        b = simulate(hi, baseline_workload(512, 512))
        assert a.makespan_cycles == b.makespan_cycles

    def test_work_conservation(self):
        cfg = SimConfig()
        rep = simulate(cfg, replicated_workload(1024, 1024, 3))
        assert rep.makespan_cycles >= rep.bus_busy_cycles
        assert rep.makespan_cycles >= max(rep.accel_busy_cycles)

    def test_deterministic(self):
        cfg = SimConfig()
        jobs = partitioned_workload(1000, 1000, 3)
        a = simulate(cfg, jobs)
        b = simulate(cfg, jobs)
        assert a == b

    def test_sublinear_and_nondecreasing_scaling(self):
        cfg = replace(SimConfig(), contention_overhead=0.4)
        speedups = [scaling_speedup(cfg, 2048, 2048, k) for k in (1, 2, 3, 4)]
        assert speedups[0] == 1.0
        for k, s in enumerate(speedups, start=1):
            if k >= 2:
                assert s < k
        assert speedups == sorted(speedups)

    def test_more_bandwidth_never_slower(self):
        base = SimConfig()
        wide = replace(base, bus_bandwidth_bytes_per_cycle=2 * 1100.0)
        jobs = replicated_workload(2048, 2048, 3)
        assert (
            simulate(wide, jobs).makespan_cycles
            <= simulate(base, jobs).makespan_cycles
        )

    def test_more_contention_never_faster(self):
        jobs = replicated_workload(2048, 2048, 3)
        prev = None
        for gamma in (0.0, 0.2, 0.5, 1.0, 2.0):
            span = simulate(
                replace(SimConfig(), contention_overhead=gamma), jobs
            ).makespan_cycles
            if prev is not None:
                assert span >= prev
            prev = span

    def test_chained_jobs_serialize_on_one_accelerator(self):
        cfg = SimConfig()
        one = simulate(cfg, [Job(0, 1, 512, 512)])
        two = simulate(cfg, [Job(0, 1, 512, 512), Job(0, 1, 512, 512)])
        assert two.makespan_cycles > one.makespan_cycles
        assert two.accel_busy_cycles[0] == 2 * one.accel_busy_cycles[0]

    def test_energy_positive_and_decomposed(self):
        rep = simulate(SimConfig(), baseline_workload(128, 128))
        assert rep.energy_total_pj > 0
        assert rep.energy_total_pj == pytest.approx(
            rep.energy_mac_pj + rep.energy_dram_pj + rep.energy_static_pj
        )

    def test_bad_accelerator_id_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            simulate(SimConfig(num_accelerators=2), [Job(5, 1, 8, 8)])

    def test_empty_workload(self):
        rep = simulate(SimConfig(), [])
        assert rep.makespan_cycles == 0.0
        assert rep.energy_total_pj == 0.0

    @pytest.mark.parametrize("job", [
        Job(0, 1, 10**400, 4),  # bytes and cycles
        Job(0, 10**200, 1, 10**200),  # compute cycles
    ])
    def test_job_too_large_for_a_float_is_rejected(self, job):
        # Once an OverflowError from `bytes / bandwidth`.
        with pytest.raises(ValueError, match="do not fit a finite float"):
            simulate(SimConfig(), [job])

    def test_cycles_too_large_for_a_float_are_rejected(self):
        cfg = replace(SimConfig(), sa_dim=10**308)  # 2s - 2 fill cycles
        with pytest.raises(ValueError, match="do not fit a finite float"):
            simulate(cfg, baseline_workload(4, 4))

    def test_overflowing_makespan_is_rejected(self):
        slow_bus = replace(SimConfig(), bus_bandwidth_bytes_per_cycle=1e-301)
        with pytest.raises(ValueError, match="makespan does not fit"):
            simulate(slow_bus, baseline_workload(4096, 4096))
        with pytest.raises(ValueError, match="makespan does not fit"):
            simulate(slow_bus, [Job(0, 1, 4096, 4096)] * 2)  # event loop

    def test_fixed_overhead_too_large_for_a_float_is_rejected(self):
        cfg = replace(SimConfig(), dma_fixed_overhead_cycles=10**400)
        with pytest.raises(ValueError, match="fit a finite float"):
            simulate(cfg, baseline_workload(4, 4))


class TestWorkloadCap:
    def test_copies_above_the_cap_are_rejected_quickly(self):
        # Uncapped, scaling_speedup(SimConfig(), 64, 64, 10**14) built one
        # job per copy and never returned.
        start = time.perf_counter()
        for copies in (perfmodel.MAX_WORKLOAD_JOBS + 1, 10**14):
            with pytest.raises(ValueError, match="limit of 65536"):
                replicated_workload(64, 64, copies)
            with pytest.raises(ValueError, match="limit of 65536"):
                scaling_speedup(SimConfig(), 64, 64, copies)
            with pytest.raises(ValueError, match="limit of 65536"):
                calibrate(SimConfig(), [(copies, 2.0)])
        assert time.perf_counter() - start < 1.0

    def test_copies_at_the_cap_are_accepted(self):
        jobs = replicated_workload(4, 4, perfmodel.MAX_WORKLOAD_JOBS)
        assert len(jobs) == perfmodel.MAX_WORKLOAD_JOBS

    def test_partitions_above_the_cap_are_rejected(self):
        n = perfmodel.MAX_WORKLOAD_JOBS + 1
        with pytest.raises(ValueError, match="limit of 65536"):
            partitioned_workload(n, n, n)


class TestVersus:
    @pytest.mark.parametrize("rows, cols", [(7, 9), (512, 300), (4096, 4096)])
    def test_per_copy_ratios_match_the_inline_formulas(self, rows, cols):
        # Per copy: k * base / multi and multi / (k * base), bit for bit.
        cfg = calibrate(SimConfig(), [(2, 1.8), (3, 2.5)]).config
        base = simulate(cfg, baseline_workload(rows, cols))
        for k in range(1, 9):
            multi = simulate(ensure_capacity(cfg, k),
                             replicated_workload(rows, cols, k))
            run = multi.versus(base, k)
            speedup = k * base.makespan_cycles / multi.makespan_cycles
            energy = multi.energy_total_pj / (k * base.energy_total_pj)
            assert run.speedup.hex() == speedup.hex()
            assert run.energy_ratio.hex() == energy.hex()


class TestPartitionSpeedup:
    def test_p3_beats_p_but_not_p_squared(self):
        cfg = calibrate(SimConfig(), [(2, 1.8), (3, 2.5)]).config
        base = simulate(cfg, baseline_workload(4096, 4096))
        run = simulate(
            ensure_capacity(cfg, 3), partitioned_workload(4096, 4096, 3)
        ).versus(base)
        assert 3.0 < run.speedup < 9.0
        assert run.energy_ratio < 1.0

    def test_speedup_monotone_in_contention(self):
        prev = None
        for gamma in (0.0, 0.3, 0.6, 1.2, 2.4):
            cfg = replace(SimConfig(), contention_overhead=gamma)
            base = simulate(cfg, baseline_workload(4096, 4096))
            run = simulate(
                ensure_capacity(cfg, 3), partitioned_workload(4096, 4096, 3)
            ).versus(base)
            if prev is not None:
                assert run.speedup <= prev
            prev = run.speedup


class TestCalibrate:
    def test_ideal_targets_fit_zero_contention(self):
        # with a bus fast enough that transfer time is negligible,
        # linear scaling is reachable and the fit needs no contention
        cfg = replace(
            SimConfig(),
            bus_bandwidth_bytes_per_cycle=1e9,
            dma_fixed_overhead_cycles=0,
        )
        fitted = calibrate(cfg, [(2, 2.0), (3, 3.0)]).config
        assert fitted.contention_overhead == pytest.approx(0.0, abs=1e-3)

    def test_measured_targets_hit_within_tolerance(self):
        fitted = calibrate(SimConfig(), [(2, 1.8), (3, 2.5)]).config
        assert abs(scaling_speedup(fitted, 4096, 4096, 2) - 1.8) <= 0.05
        assert abs(scaling_speedup(fitted, 4096, 4096, 3) - 2.5) <= 0.05

    def test_roundtrip_identifies_contention(self):
        truth = replace(
            SimConfig(), contention_overhead=0.3, dma_fixed_overhead_cycles=64
        )
        targets = [
            (k, scaling_speedup(truth, 4096, 4096, k)) for k in (2, 3)
        ]
        fitted = calibrate(SimConfig(), targets).config
        assert fitted.contention_overhead == pytest.approx(0.3, rel=0.01)

    def test_unreachable_targets_raise_with_best_effort(self):
        with pytest.raises(CalibrationError) as exc:
            calibrate(SimConfig(), [(2, 2.5)])
        err = exc.value
        assert err.max_rel_error > 0.03
        assert isinstance(err.best_config, SimConfig)
        assert 2 in err.achieved

    def test_scores_each_search_step_as_one_batch(self, monkeypatch):
        # The grid is one batch and each pattern-search round (at most
        # 240) another, and a batch runs each distinct copy count once,
        # the one-copy baseline included. Simulating candidate by
        # candidate made 1,415 simulate calls for these targets.
        calls = []
        real = perfmodel._first_round

        def counting(transfer, compute, gamma, fixed):
            calls.append(len(transfer))
            return real(transfer, compute, gamma, fixed)

        def no_simulate(*args):
            raise AssertionError("calibrate simulated a candidate alone")

        monkeypatch.setattr(perfmodel, "_first_round", counting)
        monkeypatch.setattr(perfmodel, "simulate", no_simulate)
        calibrate(SimConfig(), [(2, 1.8), (3, 2.5), (3, 2.4)])
        assert sorted(set(calls)) == [1, 2, 3]
        for copies in (1, 2, 3):
            assert 0 < calls.count(copies) <= 1 + 240

    @pytest.mark.parametrize("targets", [[(513, 2.0)], [(2, 1.8), (511, 2.0)]],
                             ids=["513", "2+511"])
    def test_copies_above_the_cap_are_rejected_quickly(self, targets):
        # One accelerator more than the cap, in one target or summed over
        # two; the cap bounds every batch the fit builds.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit of 512"):
            calibrate(SimConfig(), targets)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("targets", [[(512, 1.0000001)], [(2, 1.01)] * 256],
                             ids=["512-copies", "256-targets"])
    def test_slowest_cli_target_lists_within_1_5_s(self, targets):
        # The largest target lists the CLI accepts (512 accelerators in
        # total). About 0.07 and 0.01 s; one simulation per candidate
        # took 4.9 and 5.9 s.
        start = time.perf_counter()
        try:
            calibrate(SimConfig(), targets)
        except CalibrationError:
            pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.5, f"calibrate took {elapsed:.2f} s"

    def test_overflowing_makespan_is_rejected(self):
        # Transfers too slow for a float once fitted "converged" with a
        # NaN speedup: inf / inf.
        slow_bus = replace(SimConfig(), bus_bandwidth_bytes_per_cycle=1e-301)
        with pytest.raises(ValueError, match="makespan does not fit"):
            calibrate(slow_bus, [(2, 1.8)])

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError, match="target"):
            calibrate(SimConfig(), [])


class TestConfig:
    def test_roundtrip_dict(self):
        cfg = SimConfig()
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            SimConfig.from_dict({"bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(num_accelerators=0).validate()
        with pytest.raises(ValueError):
            SimConfig(bus_bandwidth_bytes_per_cycle=0).validate()
        with pytest.raises(ValueError):
            SimConfig(contention_overhead=-0.1).validate()
        SimConfig(dma_fixed_overhead_cycles=0).validate()  # zero allowed

    @pytest.mark.parametrize("field", ["accel_clock_hz", "contention_overhead",
                                       "bus_bandwidth_bytes_per_cycle", "e_mac_pj",
                                       "e_dram_byte_pj", "p_static_mw"])
    def test_float_field_too_large_for_a_float_rejected(self, field):
        # An int passes `x < inf`; once an OverflowError in simulate.
        cfg = replace(SimConfig(), **{field: 10**400})
        with pytest.raises(ValueError, match=f"{field} must fit a finite float"):
            cfg.validate()
        with pytest.raises(ValueError, match="finite float"):
            simulate(cfg, baseline_workload(64, 64))

    def test_int_valued_float_fields_accepted(self):
        cfg = SimConfig(accel_clock_hz=200_000_000, e_mac_pj=5, p_static_mw=50)
        cfg.validate()
        rep = simulate(cfg, baseline_workload(64, 64))
        assert rep.energy_mac_pj == 64 * 64 * 5  # an exact int
        assert isinstance(rep.energy_mac_pj, int)

    @pytest.mark.parametrize("config", [
        {"e_mac_pj": 1e305},  # a float product past the largest float
        {"e_mac_pj": 10**302},  # an exact int product too large to add
        {"p_static_mw": 1e300},  # 1e9 pJ per mJ
    ], ids=["float", "int", "static"])
    def test_energy_too_large_for_a_float_is_rejected(self, config):
        # e_mac_pj=1e305 once gave an infinite energy and a NaN ratio.
        cfg = replace(SimConfig(), **config)
        cfg.validate()
        with pytest.raises(ValueError, match="energy does not fit a finite float"):
            simulate(cfg, baseline_workload(4096, 4096))

    def test_macs_too_large_for_a_float_are_rejected(self):
        # Bytes and cycles fit a float, but not the MACs the energy charges.
        job = Job(0, 10**154, 100, 10**154)
        with pytest.raises(ValueError, match="energy does not fit a finite float"):
            simulate(SimConfig(), [job])

    def test_accelerators_above_the_workload_cap_rejected(self):
        for n in (perfmodel.MAX_WORKLOAD_JOBS + 1, 10**7, 10**400):
            with pytest.raises(ValueError, match="limit of 65536"):
                SimConfig(num_accelerators=n).validate()
        SimConfig(num_accelerators=perfmodel.MAX_WORKLOAD_JOBS).validate()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["contention_overhead",
                                       "bus_bandwidth_bytes_per_cycle"])
    def test_non_finite_bus_parameters_rejected(self, field, value):
        # An infinite contention once gave a makespan of 0.0 (inf * 0 is
        # nan, and max(0.0, nan) keeps 0.0) with no error.
        cfg = replace(SimConfig(), **{field: value})
        with pytest.raises(ValueError, match="finite"):
            cfg.validate()
        with pytest.raises(ValueError, match="finite"):
            simulate(cfg, baseline_workload(64, 64))

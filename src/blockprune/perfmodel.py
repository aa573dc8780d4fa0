"""Performance and energy model of accelerators sharing one DMA bus.

Each accelerator is a square systolic array fed over a single shared bus
by one DMA engine. A job is one M x K by K x N multiplication whose
inputs and weights must be transferred before compute starts. Transfers
serialize on the bus and pay a contention penalty that grows with the
number of requests waiting when a transfer is granted; compute on
different accelerators overlaps freely. The simulator is a deterministic
single-threaded event loop.

Two parameters are deliberately free: the contention penalty multiplier
and the fixed per-transfer DMA overhead. `calibrate` fits them so the
replicated-workload scaling experiment reproduces measured speedups.

Energy constants in the default configuration are placeholder estimates
(not measurements); results meant to be trusted are ratios between runs
of the same configuration.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import asdict, dataclass, fields, replace

CYCLES_FILL_DRAIN = 2  # pipeline fill + drain, (s - 1) each


@dataclass(frozen=True)
class SimConfig:
    """Accelerator, bus, and energy parameters.

    contention_overhead and dma_fixed_overhead_cycles are the calibrated
    free parameters; the energy constants are placeholders, meaningful
    only inside ratios.
    """

    num_accelerators: int = 4
    accel_clock_hz: float = 200e6
    sa_dim: int = 32
    bytes_per_element: int = 4
    bus_bandwidth_bytes_per_cycle: float = 1100.0
    dma_fixed_overhead_cycles: int = 64
    contention_overhead: float = 0.3
    e_mac_pj: float = 4.6
    e_dram_byte_pj: float = 20.0
    p_static_mw: float = 50.0

    def validate(self):
        # Written as `not lo < x < inf`, each check also rejects NaN.
        if self.num_accelerators < 1:
            raise ValueError("need at least one accelerator")
        if not 0 < self.accel_clock_hz < math.inf:
            raise ValueError("accelerator clock must be positive and finite")
        if self.sa_dim < 1:
            raise ValueError("systolic array dimension must be >= 1")
        if self.bytes_per_element < 1:
            raise ValueError("bytes per element must be >= 1")
        if not 0 < self.bus_bandwidth_bytes_per_cycle < math.inf:
            raise ValueError("bus bandwidth must be positive and finite")
        if self.dma_fixed_overhead_cycles < 0:
            raise ValueError("DMA fixed overhead cannot be negative")
        if not 0 <= self.contention_overhead < math.inf:
            raise ValueError("contention overhead must be finite and non-negative")
        if not (0 < self.e_mac_pj < math.inf and 0 < self.e_dram_byte_pj < math.inf
                and 0 < self.p_static_mw < math.inf):
            raise ValueError("energy constants must be positive and finite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        kinds = {f.name: type(f.default) for f in fields(cls)}
        extra = set(d) - set(kinds)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        for name, value in d.items():
            # An int field takes an int; a float field an int or finite float.
            if isinstance(value, bool) or not isinstance(value, (int, kinds[name])) or (
                    isinstance(value, float) and not math.isfinite(value)):
                raise ValueError(f"config field {name} must be a finite "
                                 f"{kinds[name].__name__}, got {value!r}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class Job:
    """One M x K by K x N multiplication bound to an accelerator."""

    accelerator: int
    m: int
    k: int
    n: int

    def transfer_bytes(self, bytes_per_element: int) -> int:
        # Inputs (M*K) and weights (K*N) cross the bus for every job;
        # weights are not cached between jobs.
        return (self.m * self.k + self.k * self.n) * bytes_per_element

    def macs(self) -> int:
        return self.m * self.k * self.n


@dataclass(frozen=True)
class SimReport:
    """Simulated cycles and energy, optionally relative to a baseline."""

    accel_busy_cycles: tuple
    bus_busy_cycles: float
    makespan_cycles: float
    energy_mac_pj: float
    energy_dram_pj: float
    energy_static_pj: float
    energy_total_pj: float
    speedup: float | None = None
    energy_ratio: float | None = None

    def versus(self, baseline: "SimReport") -> "SimReport":
        """Attach speedup and energy ratio relative to a baseline run."""
        return replace(
            self,
            speedup=baseline.makespan_cycles / self.makespan_cycles,
            energy_ratio=self.energy_total_pj / baseline.energy_total_pj,
        )

    def to_dict(self) -> dict:
        return asdict(self)


class CalibrationError(ValueError):
    """Targets could not be met; carries the best-effort fit."""

    def __init__(self, message: str, best_config: SimConfig,
                 achieved: dict, max_rel_error: float):
        super().__init__(message)
        self.best_config = best_config
        self.achieved = achieved
        self.max_rel_error = max_rel_error


def sa_matmul_cycles(m: int, k: int, n: int, s: int) -> int:
    """Cycles for an M x K by K x N product on an s x s systolic array.

    The output is tiled into ceil(M/s) * ceil(N/s) passes; each pass
    streams K accumulation beats through the array plus 2s - 2 cycles of
    pipeline fill and drain.
    """
    if min(m, k, n, s) < 1:
        raise ValueError("matmul dimensions and array size must be >= 1")
    tiles = math.ceil(m / s) * math.ceil(n / s)
    return tiles * (k + CYCLES_FILL_DRAIN * s - 2)


def simulate(config: SimConfig, workload: list) -> SimReport:
    """Run the workload through the shared-bus event loop.

    Per accelerator, jobs run in workload order; a job's DMA request is
    issued at t=0 for the first job and at the previous job's compute
    completion otherwise. The bus serves one request at a time, earliest
    request first (ties to the lower accelerator id). Service time is
    dma_fixed_overhead_cycles + bytes/bandwidth * (1 + contention_overhead
    * q), where q counts the other requests waiting at the grant instant.
    Compute begins when the transfer completes.

    Requests wait in a list sorted by (request time, accelerator), so a
    run of k jobs costs O(k log k) comparisons.
    """
    config.validate()
    queues: list = [[] for _ in range(config.num_accelerators)]
    for job in workload:
        if not 0 <= job.accelerator < config.num_accelerators:
            raise ValueError(
                f"job accelerator {job.accelerator} out of range "
                f"[0, {config.num_accelerators})"
            )
        queues[job.accelerator].append(job)

    # (request_time, accelerator), kept sorted; one outstanding request
    # per accelerator because jobs on it are chained.
    pending = [(0.0, a) for a, q in enumerate(queues) if q]
    position = [0] * config.num_accelerators

    busy = [0.0] * config.num_accelerators
    bus_busy = 0.0
    bus_free = 0.0
    makespan = 0.0

    while pending:
        rt, accel = pending.pop(0)
        grant = max(bus_free, rt)
        # Requests still waiting at the grant instant, ties included.
        queue_len = bisect_right(pending, (grant, math.inf))
        job = queues[accel][position[accel]]

        service = config.dma_fixed_overhead_cycles + (
            job.transfer_bytes(config.bytes_per_element)
            / config.bus_bandwidth_bytes_per_cycle
        ) * (1.0 + config.contention_overhead * queue_len)
        transfer_done = grant + service
        compute = sa_matmul_cycles(job.m, job.k, job.n, config.sa_dim)
        compute_done = transfer_done + compute

        bus_busy += service
        bus_free = transfer_done
        busy[accel] += compute
        makespan = max(makespan, compute_done)

        position[accel] += 1
        if position[accel] < len(queues[accel]):
            insort(pending, (compute_done, accel))

    total_macs = sum(job.macs() for job in workload)
    total_bytes = sum(job.transfer_bytes(config.bytes_per_element) for job in workload)
    active = sum(1 for q in queues if q)
    seconds = makespan / config.accel_clock_hz
    e_mac = total_macs * config.e_mac_pj
    e_dram = total_bytes * config.e_dram_byte_pj
    # mW * s = mJ = 1e9 pJ
    e_static = config.p_static_mw * 1e9 * seconds * active

    return SimReport(
        accel_busy_cycles=tuple(busy),
        bus_busy_cycles=bus_busy,
        makespan_cycles=makespan,
        energy_mac_pj=e_mac,
        energy_dram_pj=e_dram,
        energy_static_pj=e_static,
        energy_total_pj=e_mac + e_dram + e_static,
    )


def baseline_workload(rows: int, cols: int) -> list:
    """The unpruned layer as a single inference job on accelerator 0."""
    return [Job(accelerator=0, m=1, k=rows, n=cols)]


def partitioned_workload(rows: int, cols: int, p: int) -> list:
    """One job per partition block, block k on accelerator k.

    Block shapes come from the balanced capacities with row and column
    capacities paired largest-with-largest, matching the search's
    founding order.
    """
    from .core import partition_capacities

    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    return [
        Job(accelerator=k, m=1, k=row_caps[k], n=col_caps[k]) for k in range(p)
    ]


def replicated_workload(rows: int, cols: int, copies: int) -> list:
    """`copies` identical full-layer jobs, one per accelerator."""
    if copies < 1:
        raise ValueError("need at least one copy")
    return [Job(accelerator=a, m=1, k=rows, n=cols) for a in range(copies)]


def ensure_capacity(config: SimConfig, accelerators: int) -> SimConfig:
    """Copy of the config with at least the given accelerator count."""
    if config.num_accelerators >= accelerators:
        return config
    return replace(config, num_accelerators=accelerators)


def per_copy_speedup(copies: int, base: SimReport, multi: SimReport) -> float:
    """Throughput speedup of `copies` replicated jobs over one job.

    Normalized per copy: k * makespan(1 copy) / makespan(k copies), so a
    perfectly scaling system scores exactly k.
    """
    return copies * base.makespan_cycles / multi.makespan_cycles


def scaling_speedup(config: SimConfig, rows: int, cols: int, copies: int) -> float:
    """Throughput speedup of k replicated jobs on k accelerators."""
    base = simulate(ensure_capacity(config, 1), baseline_workload(rows, cols))
    multi = simulate(
        ensure_capacity(config, copies), replicated_workload(rows, cols, copies)
    )
    return per_copy_speedup(copies, base, multi)


@dataclass(frozen=True)
class Calibration:
    """A fitted config and the scaling speedups it achieves per target."""

    config: SimConfig
    achieved: dict
    max_rel_error: float


def calibrate(
    config: SimConfig,
    targets: list,
    rows: int = 4096,
    cols: int = 4096,
    tolerance: float = 0.03,
) -> Calibration:
    """Fit contention_overhead and dma_fixed_overhead_cycles to targets.

    `targets` is a list of (accelerator_count, speedup) pairs measured on
    the replicated-workload experiment with a rows x cols layer. A coarse
    grid over the two parameters is followed by local grid refinement
    that repeatedly halves the search span (bisection on each axis).
    Each distinct candidate is simulated once.

    Returns the fitted config, with the speedup achieved for each target
    count and the max relative error over targets, once that error is
    within `tolerance`; otherwise raises CalibrationError carrying the
    best-effort fit.
    """
    if not targets:
        raise ValueError("need at least one calibration target")
    for copies, target in targets:
        if copies < 1 or not 0 < target < math.inf:
            raise ValueError(f"invalid target ({copies}, {target})")
    config.validate()

    base_jobs = baseline_workload(rows, cols)
    runs = [(copies, target, replicated_workload(rows, cols, copies))
            for copies, target in targets]
    # A lone job never waits for the bus, so its run depends on the fixed
    # overhead alone: one baseline per fixed value serves every gamma.
    baselines = {}
    # The search revisits candidates as its span halves. A revisit cannot
    # beat the best error, so its cached result leaves the path unchanged.
    seen = {}

    def objective(gamma: float, fixed: float):
        cycles = int(round(fixed))
        if (gamma, cycles) in seen:
            return seen[gamma, cycles]
        cand = replace(config, contention_overhead=gamma,
                       dma_fixed_overhead_cycles=cycles)
        if cycles not in baselines:
            baselines[cycles] = simulate(cand, base_jobs)
        achieved = {}
        worst = 0.0
        for copies, target, jobs in runs:
            multi = simulate(ensure_capacity(cand, copies), jobs)
            got = per_copy_speedup(copies, baselines[cycles], multi)
            achieved[copies] = got
            worst = max(worst, abs(got - target) / target)
        seen[gamma, cycles] = achieved, worst
        return achieved, worst

    best = None  # (err, gamma, fixed, achieved)
    gammas = [i * 0.1 for i in range(41)]  # 0 .. 4
    fixeds = [0.0] + [10.0 ** (e / 2.0) for e in range(0, 13)]  # 1 .. 1e6
    for g in gammas:
        for f in fixeds:
            achieved, err = objective(g, f)
            if best is None or err < best[0]:
                best = (err, g, f, achieved)

    # Pattern search around the grid optimum; the span halves only on
    # rounds with no improvement so long shallow valleys can be tracked.
    span_g, span_f = 0.1, max(best[2] / 2.0, 64.0)
    for _ in range(240):
        err0, g0, f0, _ = best
        for dg in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for df in (-1.0, -0.5, 0.0, 0.5, 1.0):
                if dg == 0.0 and df == 0.0:
                    continue
                g = max(0.0, g0 + dg * span_g)
                f = max(0.0, f0 + df * span_f)
                achieved, err = objective(g, f)
                if err < best[0]:
                    best = (err, g, f, achieved)
        if best[0] >= err0:
            span_g *= 0.5
            span_f *= 0.5
        if span_g < 1e-7 and span_f < 0.25:
            break

    err, g, f, achieved = best
    fitted = replace(
        config,
        contention_overhead=g,
        dma_fixed_overhead_cycles=int(round(f)),
    )
    if err > tolerance:
        raise CalibrationError(
            f"targets not reachable within {tolerance:.0%} "
            f"(best max relative error {err:.4f})",
            best_config=fitted,
            achieved=achieved,
            max_rel_error=err,
        )
    return Calibration(fitted, achieved, err)

"""Performance and energy model of accelerators sharing one DMA bus.

Each accelerator is a square systolic array fed over a single shared bus
by one DMA engine. A job is one M x K by K x N multiplication whose
inputs and weights must be transferred before compute starts. Transfers
serialize on the bus and pay a contention penalty that grows with the
number of requests waiting when a transfer is granted; compute on
different accelerators overlaps freely. The simulator is deterministic:
`simulate` runs every workload through one event loop. `calibrate`
scores batches of candidate parameters on replicated workloads, whose
requests all arrive at t = 0, through `_first_round`, the event loop's
closed form for one round of grants in accelerator order.

Two parameters are deliberately free: the contention penalty multiplier
and the fixed per-transfer DMA overhead. `calibrate` fits them so the
replicated-workload scaling experiment reproduces measured speedups.

Energy constants in the default configuration are placeholder estimates
(not measurements); results meant to be trusted are ratios between runs
of the same configuration.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right, insort
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .core import check_int, partition_capacities

CYCLES_FILL_DRAIN = 2  # pipeline fill + drain, (s - 1) each

# Most jobs a built workload holds: copies of `replicated_workload`,
# blocks of `partitioned_workload`. It bounds the time and memory of
# every caller: 65,536 copies build and simulate in about 0.45 s and
# 31 MB on a 2-vCPU Xeon.
MAX_WORKLOAD_JOBS = 1 << 16

# Most accelerators `calibrate` accepts, summed over its targets. Every
# batch of fit candidates runs each target's copies, so the cost grows
# with the sum; at this cap the slowest target lists tried take 0.01-0.07 s,
# and one `_first_round` array holds at most 574 x 512 services (2.35 MB).
MAX_CALIBRATE_COPIES = 512

# Largest relative error over its targets at which a fit converges.
CALIBRATE_TOLERANCE = 0.03


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

    def validate(self, first=()):
        # Types first, the fields named in `first` (a file's order) before
        # the rest: an int field takes an integer, a float field an integer
        # or a finite float; numpy scalars are both, bools neither.
        for name in dict.fromkeys([*first, *_FIELD_KINDS]):
            value, kind = getattr(self, name), _FIELD_KINDS[name]
            number = isinstance(value, (int, np.integer)) or kind is float and (
                isinstance(value, (float, np.floating)) and math.isfinite(value))
            if isinstance(value, bool) or not number:
                raise ValueError(f"config field {name} must be a finite "
                                 f"{kind.__name__}, got {value!r}")
        # No workload holds more jobs, so a further accelerator is never busy.
        n = self.num_accelerators
        check_int(n, 1, MAX_WORKLOAD_JOBS, "need at least one accelerator",
                  f"{n} accelerators is more than the limit of {MAX_WORKLOAD_JOBS}")
        if self.accel_clock_hz <= 0:
            raise ValueError("accelerator clock must be positive and finite")
        check_int(self.sa_dim, 1, math.inf, "systolic array dimension must be >= 1")
        check_int(self.bytes_per_element, 1, math.inf, "bytes per element must be >= 1")
        if self.bus_bandwidth_bytes_per_cycle <= 0:
            raise ValueError("bus bandwidth must be positive and finite")
        check_int(self.dma_fixed_overhead_cycles, 0, math.inf,
                  "DMA fixed overhead cannot be negative")
        if self.contention_overhead < 0:
            raise ValueError("contention overhead must be finite and non-negative")
        if min(self.e_mac_pj, self.e_dram_byte_pj, self.p_static_mw) <= 0:
            raise ValueError("energy constants must be positive and finite")
        # Only a Python int may be too large for a float; the bus adds the
        # fixed overhead to times.
        for name, kind in _FIELD_KINDS.items():
            value = getattr(self, name)
            if ((kind is float or name == "dma_fixed_overhead_cycles")
                    and isinstance(value, int) and value > sys.float_info.max):
                raise ValueError(f"config field {name} must fit a finite float")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        extra = set(d) - set(_FIELD_KINDS)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        cfg = cls(**d)
        cfg.validate(first=d)
        return cfg


_FIELD_KINDS = {f.name: type(f.default) for f in fields(SimConfig)}


@dataclass(frozen=True)
class Job:
    """One M x K by K x N multiplication bound to an accelerator."""

    accelerator: int
    m: int
    k: int
    n: int

    def __post_init__(self):  # as ints: a str size would repeat, a numpy one wrap
        for name in ("accelerator", "m", "k", "n"):  # sizes are checked where used
            object.__setattr__(self, name, check_int(
                getattr(self, name), -math.inf, math.inf, "job fields must be ints"))

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

    def versus(self, baseline: "SimReport", copies: int = 1) -> "SimReport":
        """Attach speedup and energy ratio relative to a baseline run.

        Both are per copy when this run is `copies` replicated jobs and
        the baseline one of them: ideal scaling has speedup `copies`, and
        `copies` jobs at the baseline's energy each have ratio 1. Raises
        ValueError where a ratio would divide by a zero makespan or energy.
        """
        copies = _check_copies(copies)
        if not baseline.energy_total_pj:
            raise ValueError("no energy ratio against a zero baseline energy")
        return replace(
            self,
            speedup=per_copy_speedup(
                copies, baseline.makespan_cycles, self.makespan_cycles),
            energy_ratio=self.energy_total_pj / (
                copies * baseline.energy_total_pj),
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
    m, k, n, s = (check_int(dim, 1, math.inf, "matmul dimensions and array size "
                            "must be >= 1") for dim in (m, k, n, s))
    if max(m, n) > sys.float_info.max:  # every time is computed as a float
        raise ValueError("matmul dimensions do not fit a finite float")
    tiles = -(-m // s) * -(-n // s)
    return tiles * (k + CYCLES_FILL_DRAIN * s - 2)


def _job_costs(config: SimConfig, jobs: list) -> tuple:
    """Transfer and compute times of each job, and its bytes and MACs.

    Returns (transfer, compute, total_bytes, total_macs): the bus time
    bytes/bandwidth of each job before contention and its compute cycles,
    as float lists, and the integer totals the energy model charges.
    Raises ValueError where a time does not fit a finite float, in place
    of an OverflowError.
    """
    nbytes = [job.transfer_bytes(config.bytes_per_element) for job in jobs]
    total_bytes = sum(nbytes)
    total_macs = sum(job.macs() for job in jobs)
    try:
        transfer = [b / config.bus_bandwidth_bytes_per_cycle for b in nbytes]
        compute = [float(sa_matmul_cycles(job.m, job.k, job.n, config.sa_dim))
                   for job in jobs]
    except OverflowError:
        raise ValueError(
            "job too large: its bytes or cycles do not fit a finite float"
        ) from None
    return transfer, compute, total_bytes, total_macs


def _first_round(transfer, compute, gamma, fixed) -> tuple:
    """Makespan and bus busy time of one round of grants, per candidate.

    Only `calibrate` uses this closed form, to score its batches;
    `simulate` runs the event loop, which gives the same floats. When no
    accelerator holds two jobs, every request arrives at t = 0 and the
    bus grants them in accelerator order; `transfer` and `compute` list
    the k >= 1 jobs in that order. The i-th grant sees k - 1 - i
    requests waiting, so it takes fixed + transfer_i * (1 + gamma *
    (k - 1 - i)) cycles, and the transfers end at the running sum of
    those services, added in the event loop's order. `gamma` and `fixed`
    hold the contention and fixed overheads of each candidate.
    """
    transfer = np.asarray(transfer, dtype=float)
    compute = np.asarray(compute, dtype=float)
    gamma = np.asarray(gamma, dtype=float)[:, None]
    fixed = np.asarray(fixed, dtype=float)[:, None]
    waiting = np.arange(len(transfer) - 1, -1, -1, dtype=float)
    service = fixed + transfer * (1.0 + gamma * waiting)
    done = np.add.accumulate(service, axis=1)
    makespan = np.maximum.reduce(done + compute, axis=1)
    return makespan, done[:, -1]


def simulate(config: SimConfig, workload: list) -> SimReport:
    """Run the workload through the shared bus.

    Per accelerator, jobs run in workload order; a job's DMA request is
    issued at t=0 for the first job and at the previous job's compute
    completion otherwise. The bus serves one request at a time, earliest
    request first (ties to the lower accelerator id). Service time is
    dma_fixed_overhead_cycles + bytes/bandwidth * (1 + contention_overhead
    * q), where q counts the other requests waiting at the grant instant.
    Compute begins when the transfer completes.

    Every workload goes through one event loop. Its waiting requests sit
    in a list sorted by (request time, accelerator) and are taken from a
    head index, so a run of k jobs costs O(k log k) comparisons.
    """
    config.validate()
    accels = [job.accelerator for job in workload]
    for accel in accels:
        if not 0 <= accel < config.num_accelerators:
            raise ValueError(
                f"job accelerator {accel} out of range "
                f"[0, {config.num_accelerators})"
            )
    transfer, compute, total_bytes, total_macs = _job_costs(config, workload)
    busy = [0.0] * config.num_accelerators
    for accel, cycles in zip(accels, compute):
        busy[accel] += cycles

    active = len(set(accels))
    makespan, bus_busy = _event_loop(config, accels, transfer, compute)
    if not math.isfinite(makespan):
        raise ValueError("simulated makespan does not fit a finite float")

    seconds = makespan / config.accel_clock_hz
    try:
        # Exact ints while both factors are ints.
        e_mac = total_macs * config.e_mac_pj
        e_dram = total_bytes * config.e_dram_byte_pj
        # mW * s = mJ = 1e9 pJ
        e_static = config.p_static_mw * 1e9 * seconds * active
        e_total = e_mac + e_dram + e_static
    except OverflowError:  # an int too large for a float
        e_total = math.inf
    # The parts are non-negative, so a non-finite part makes the total so.
    if not math.isfinite(e_total):
        raise ValueError("simulated energy does not fit a finite float")

    return SimReport(
        accel_busy_cycles=tuple(busy),
        bus_busy_cycles=bus_busy,
        makespan_cycles=makespan,
        energy_mac_pj=e_mac,
        energy_dram_pj=e_dram,
        energy_static_pj=e_static,
        energy_total_pj=e_total,
    )


def _event_loop(config: SimConfig, accels: list, transfer: list,
                compute: list) -> tuple:
    """(makespan, bus busy time) of jobs that may chain on an accelerator."""
    queues: list = [[] for _ in range(config.num_accelerators)]
    for i, accel in enumerate(accels):
        queues[accel].append(i)

    # (request_time, accelerator), kept sorted from `head` on, where the
    # next grant's request sits; one outstanding request per accelerator
    # because jobs on it are chained.
    pending = [(0.0, a) for a, q in enumerate(queues) if q]
    position = [0] * config.num_accelerators

    bus_busy = 0.0
    bus_free = 0.0
    makespan = 0.0

    head = 0
    while head < len(pending):
        rt, accel = pending[head]
        head += 1
        grant = max(bus_free, rt)
        # Requests still waiting at the grant instant, ties included.
        queue_len = bisect_right(pending, (grant, math.inf), head) - head
        job = queues[accel][position[accel]]

        service = config.dma_fixed_overhead_cycles + transfer[job] * (
            1.0 + config.contention_overhead * queue_len)
        transfer_done = grant + service
        compute_done = transfer_done + compute[job]

        bus_busy += service
        bus_free = transfer_done
        makespan = max(makespan, compute_done)

        position[accel] += 1
        if position[accel] < len(queues[accel]):
            insort(pending, (compute_done, accel), head)
    return makespan, bus_busy


def baseline_workload(rows: int, cols: int) -> list:
    """The unpruned layer as a single inference job on accelerator 0."""
    return [Job(accelerator=0, m=1, k=rows, n=cols)]


def partitioned_workload(rows: int, cols: int, p: int) -> list:
    """One job per partition block, block k on accelerator k.

    Block shapes come from the balanced capacities with row and column
    capacities paired largest-with-largest, matching the search's
    founding order.
    """
    p = check_int(p, 1, MAX_WORKLOAD_JOBS, "partition count must be >= 1",
                  above=f"{p} partitions is more than the limit of {MAX_WORKLOAD_JOBS}")
    row_caps = partition_capacities(rows, p)
    col_caps = partition_capacities(cols, p)
    return [
        Job(accelerator=k, m=1, k=row_caps[k], n=col_caps[k]) for k in range(p)
    ]


def _check_copies(copies) -> int:
    return check_int(copies, 1, MAX_WORKLOAD_JOBS, "need at least one copy",
                     f"{copies} copies is more than the limit of {MAX_WORKLOAD_JOBS}")


def replicated_workload(rows: int, cols: int, copies: int) -> list:
    """`copies` identical full-layer jobs, one per accelerator."""
    copies = _check_copies(copies)
    return [Job(accelerator=a, m=1, k=rows, n=cols) for a in range(copies)]


def ensure_capacity(config: SimConfig, accelerators: int) -> SimConfig:
    """Copy of the config with at least the given accelerator count."""
    if config.num_accelerators >= accelerators:
        return config
    return replace(config, num_accelerators=accelerators)


def per_copy_speedup(copies, base, multi):
    """Throughput speedup of `copies` replicated jobs over one job.

    Normalized per copy: k * makespan(1 copy) / makespan(k copies), so a
    perfectly scaling system scores exactly k. `base` and `multi` are the
    two makespans, as floats or as arrays of them.
    """
    try:
        return copies * base / multi
    except (ArithmeticError, TypeError) as e:
        raise ValueError(f"no per-copy speedup: {e}") from None


def scaling_speedup(config: SimConfig, rows: int, cols: int, copies: int) -> float:
    """Throughput speedup of k replicated jobs on k accelerators."""
    copies = _check_copies(copies)  # before it sizes the config
    base = simulate(config, baseline_workload(rows, cols))
    multi = simulate(
        ensure_capacity(config, copies), replicated_workload(rows, cols, copies)
    )
    return multi.versus(base, copies).speedup


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
) -> Calibration:
    """Fit contention_overhead and dma_fixed_overhead_cycles to targets.

    `targets` is a list of (accelerator_count, speedup) pairs measured on
    the replicated-workload experiment with a rows x cols layer. A coarse
    grid over the two parameters is followed by a pattern search (Hooke
    and Jeeves) that halves its span on each round with no improvement.
    The grid, and each round's 24 neighbours, are scored as one batch
    through `_first_round`: every replicated request arrives at t = 0, so
    no candidate needs the event loop. The winner of a batch is its first
    minimum, as a scan in grid or step order with a strict `<` finds it.

    The targets may ask for at most MAX_CALIBRATE_COPIES accelerators in
    total. Returns the fitted config, with the speedup achieved for each
    target count and the max relative error over targets, once that error
    is within CALIBRATE_TOLERANCE; otherwise raises CalibrationError
    carrying the best-effort fit.
    """
    if not targets:
        raise ValueError("need at least one calibration target")
    for copies, target in targets:
        check_int(copies, 1, math.inf, f"invalid target ({copies}, {target})")
        number = isinstance(target, (int, float, np.integer, np.floating))
        if isinstance(target, bool) or not number or not 0 < target < math.inf or (
                isinstance(target, int) and target > sys.float_info.max):
            raise ValueError(f"invalid target ({copies}, {target})")
    config.validate()

    # One copy is also the single-job baseline, so counts[0] == 1.
    counts = sorted({1} | {copies for copies, _ in targets})
    _check_copies(counts[-1])  # names a count past 65536 before the total can
    total = sum(copies for copies, _ in targets)
    check_int(total, 1, MAX_CALIBRATE_COPIES, f"targets ask for {total} accelerators "
              f"in total, more than the limit of {MAX_CALIBRATE_COPIES}")
    # Every copy is the baseline's one job, so the workloads share its times.
    (transfer,), (compute,), _, _ = _job_costs(config, baseline_workload(rows, cols))
    times = [([transfer] * k, [compute] * k) for k in counts]
    column = [counts.index(k) for k, _ in targets]
    target_copies = np.array([k for k, _ in targets], dtype=float)
    wanted = np.array([float(target) for _, target in targets])

    # A makespan past the largest float is reported after the search.
    @np.errstate(over="ignore", invalid="ignore")
    def best_of(gamma, fixed):
        """(err, gamma, fixed, speedups) of a batch's first minimum, the
        candidate a scan in batch order with a strict `<` keeps."""
        cycles = np.rint(fixed)  # half to even, as int(round(f))
        spans = np.stack([_first_round(transfer, compute, gamma, cycles)[0]
                          for transfer, compute in times], axis=1)
        got = per_copy_speedup(target_copies, spans[:, :1], spans[:, column])
        # fmax skips NaN as `max(worst, err)` did, one target at a time.
        worst = np.fmax.reduce(np.abs(got - wanted) / wanted, axis=1,
                               initial=0.0)
        i = int(np.argmin(worst))
        return float(worst[i]), float(gamma[i]), float(fixed[i]), got[i]

    gammas = [i * 0.1 for i in range(41)]  # 0 .. 4
    fixeds = [0.0] + [10.0 ** (e / 2.0) for e in range(0, 13)]  # 1 .. 1e6
    best = best_of(np.repeat(gammas, len(fixeds)),
                     np.tile(fixeds, len(gammas)))

    # Pattern search around the grid optimum; the span halves only on
    # rounds with no improvement so long shallow valleys can be tracked.
    steps = [(dg, df) for dg in (-1.0, -0.5, 0.0, 0.5, 1.0)
             for df in (-1.0, -0.5, 0.0, 0.5, 1.0) if dg != 0.0 or df != 0.0]
    step_g, step_f = np.array(steps).T
    span_g, span_f = 0.1, max(best[2] / 2.0, 64.0)
    for _ in range(240):
        err0, g0, f0, _ = best
        cand = best_of(np.maximum(0.0, g0 + step_g * span_g),
                         np.maximum(0.0, f0 + step_f * span_f))
        if cand[0] < err0:
            best = cand
        else:
            span_g *= 0.5
            span_f *= 0.5
        if span_g < 1e-7 and span_f < 0.25:
            break

    err, g, f, got = best
    if not np.isfinite(got).all():
        raise ValueError("simulated makespan does not fit a finite float")
    achieved = {k: float(x) for (k, _), x in zip(targets, got)}
    fitted = replace(
        config,
        contention_overhead=g,
        dma_fixed_overhead_cycles=int(round(f)),
    )
    if err > CALIBRATE_TOLERANCE:
        raise CalibrationError(
            f"targets not reachable within {CALIBRATE_TOLERANCE:.0%} "
            f"(best max relative error {err:.4f})",
            best_config=fitted,
            achieved=achieved,
            max_rel_error=err,
        )
    return Calibration(fitted, achieved, err)

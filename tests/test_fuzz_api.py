"""Fuzz the library: every public callable returns or raises ValueError.

For each callable in `blockprune.__all__`, hypothesis draws its count,
size, seed and budget arguments from the edge values the CLI fuzz uses:
ints past a float or past 64 bits, 1e305, NaN, infinities, bools, floats
and strings for ints, negatives, zero and empty arrays, among valid
ones. Object arguments (layers, masks, assignments, configs, workloads)
are valid objects or ones with an edge value in a field. A call may
return anything, or raise ValueError or a subclass of it
(`OracleBudgetError`, `CalibrationError`); any other exception fails.

Array elements stay within int64 and float64; the probe table checks
that the constructors refuse a Python int past those with ValueError.
Layers stay at most 6 x 7, so every example runs in milliseconds.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import blockprune
from blockprune import (
    BlockDecomposition,
    Calibration,
    CalibrationError,
    Job,
    LinkMask,
    OracleBudgetError,
    OracleResult,
    PartitionAssignment,
    PruneResult,
    SimConfig,
    SimReport,
    ValidationResult,
    WeightMatrix,
    brute_force_partition,
    calibrate,
    connectedness,
    connectedness_full,
    connectedness_ratio,
    decompose,
    greedy_partition,
    mask_of,
    masked_matvec,
    multi_restart,
    partition_capacities,
    partitioned_matvec,
    per_copy_speedup,
    refine_swaps,
    retained_abs_weight,
    sa_matmul_cycles,
    scaling_speedup,
    simulate,
    validate_assignment,
    weight_loss,
)
from blockprune.perfmodel import ensure_capacity

EDGE = [10**400, 2**64 + 1, 1e305, math.nan, math.inf, -math.inf, True, False,
        2.5, 2.0, "2", "", -1, 0, np.array([]), np.int64(-3)]
INTS = st.sampled_from(EDGE + [1, 2, 3, np.int64(2)])
FLOATS = st.sampled_from([10**400, 1e305, math.nan, math.inf, -math.inf, True,
                          0.0, -1.0, 0, 3, 1.5, 1.8, "1.8", np.array([]),
                          np.float64(2.5)])
# Job fields are ints; the sizes reach past a float alone or in a product.
JOB_INTS = st.sampled_from([-1, 0, 1, 2, 5, 10**154, 10**200, 10**400])
ARRAYS = st.sampled_from([
    np.array([]), np.zeros((0, 3)), np.array([1.0, -2.0]), np.array([[np.nan]]),
    np.array([[np.inf, 1.0]]), np.array([[1e305, -1e305]]), np.array([["x"]]),
    np.array([[True, False]]), np.array([[0, 1], [1, 0]]), np.array([[2, 1]]),
    np.array([[0.5]]), np.full((2, 3), 1.5), np.ones((4, 4))])
LABELS = st.sampled_from([
    np.array([]), np.array([0, 1]), np.array([0, 0, 1, 1]), np.array([1, 0, 0]),
    np.array([-1, 5]), np.array([1.5, 0.0]), np.array([np.nan]),
    np.array([[0, 1]]), np.array(["x"])])

LAYERS = [
    WeightMatrix(np.arange(1.0, 7.0).reshape(2, 3)),
    WeightMatrix(np.linspace(-1.0, 1.0, 16).reshape(4, 4)),
    WeightMatrix(np.sin(np.arange(42.0)).reshape(6, 7)),
    WeightMatrix(np.zeros((3, 3))),
    WeightMatrix(np.full((2, 2), 1e308)),  # its sum of |W| overflows
]
FINITE = LAYERS[:4]
WEIGHTS = st.sampled_from(LAYERS)


@st.composite
def assignments(draw):
    """A balanced assignment of a finite layer, or one with drawn labels."""
    w = draw(st.sampled_from(FINITE))
    if draw(st.booleans()):
        p = draw(st.integers(1, min(w.rows, w.cols)))
        return w, PartitionAssignment(p, np.arange(w.rows) % p, np.arange(w.cols) % p)
    p = draw(st.sampled_from([1, 2, 3, np.int64(2)]))
    return w, PartitionAssignment(p, draw(LABELS.filter(lambda a: a.dtype.kind in "if"
                                                        and a.ndim == 1
                                                        and not np.isnan(a).any())),
                                  np.arange(w.cols) % p)


@st.composite
def masks(draw):
    w = draw(WEIGHTS)
    rows, cols = draw(st.sampled_from([(w.rows, w.cols), (1, 1), (w.cols, w.rows)]))
    bits = np.arange(rows * cols).reshape(rows, cols) % 2
    return w, LinkMask(bits)


@st.composite
def configs(draw):
    """A config with at most one field replaced by an edge value."""
    if draw(st.booleans()):
        return SimConfig()
    field = draw(st.sampled_from([f for f in SimConfig.__dataclass_fields__]))
    value = draw(INTS | FLOATS | st.sampled_from([None, [1], {"a": 1}, 10**302]))
    return SimConfig(**{field: value})


@st.composite
def jobs(draw):
    return [Job(draw(st.sampled_from([0, 1, 2, -1, 10**400])), 1, draw(JOB_INTS),
                draw(JOB_INTS)) for _ in range(draw(st.integers(0, 3)))]


@st.composite
def reports(draw):
    """Two simulated runs, either of them possibly the empty workload."""
    cfg = SimConfig()
    sizes = st.sampled_from([0, 1, 3])
    a, b = (simulate(cfg, [Job(i, 1, 64, 64) for i in range(draw(sizes))])
            for _ in range(2))
    return a, b


@st.composite
def targets(draw):
    return draw(st.lists(st.tuples(INTS, FLOATS)
                         | st.sampled_from([(2, 1.8), (3, 2.5), (1, 1.0)]),
                         max_size=3))


@st.composite
def results(draw):
    w = draw(st.sampled_from(FINITE))
    return w, multi_restart(w, draw(st.integers(1, min(w.rows, w.cols))), 2, 0)


@st.composite
def decompositions(draw):
    w = draw(st.sampled_from(FINITE))
    p = draw(st.integers(1, min(w.rows, w.cols)))
    a = PartitionAssignment(p, np.arange(w.rows) % p, np.arange(w.cols) % p)
    return decompose(w, a)


SIZES = INTS | st.sampled_from([1, 2, 7, 64])
VECTORS = ARRAYS | st.sampled_from([np.ones(2), np.ones(4), np.ones(6),
                                    np.ones((3, 6)), np.float64(1.0)])
ANY = INTS | FLOATS | st.none()

# name -> strategy of (callable, args)
CALLS = {
    "BlockDecomposition": st.tuples(st.just(BlockDecomposition),
                                    st.tuples(ANY, ANY, ANY, ANY)),
    "Calibration": st.tuples(st.just(Calibration), st.tuples(configs(), ANY, ANY)),
    "CalibrationError": st.tuples(st.just(CalibrationError),
                                  st.tuples(st.text(max_size=3), configs(), ANY, ANY)),
    "Job": st.tuples(st.just(Job), st.tuples(INTS, INTS, INTS, INTS)),
    "LinkMask": st.tuples(st.just(LinkMask), st.tuples(ARRAYS)),
    "OracleBudgetError": st.tuples(st.just(OracleBudgetError),
                                   st.tuples(st.text(max_size=3), ANY)),
    "OracleResult": st.tuples(st.just(OracleResult), st.tuples(ANY, ANY, ANY)),
    "PartitionAssignment": st.tuples(st.just(PartitionAssignment),
                                     st.tuples(INTS, LABELS, LABELS)),
    "PruneResult": st.tuples(st.just(PruneResult),
                             assignments().map(lambda wa: (wa[1], 0.0, 1.0, -1, 2))),
    "SimConfig": st.tuples(st.just(SimConfig.from_dict),
                           configs().map(lambda c: (c.__dict__,))),
    "SimReport": st.tuples(st.just(SimReport.versus),
                           st.tuples(reports(), INTS).map(lambda t: (*t[0], t[1]))),
    "ValidationResult": st.tuples(st.just(ValidationResult), st.tuples(ANY, ANY)),
    "WeightMatrix": st.tuples(st.just(WeightMatrix), st.tuples(ARRAYS)),
    "brute_force_partition": st.tuples(st.just(brute_force_partition),
                                       st.tuples(WEIGHTS, INTS, INTS)),
    "calibrate": st.tuples(st.just(calibrate),
                           st.tuples(configs(), targets(), SIZES, SIZES)),
    "connectedness": st.tuples(st.just(connectedness),
                               masks().map(lambda wm: (wm[1],))),
    "connectedness_full": st.tuples(st.just(connectedness_full),
                                    st.tuples(SIZES, SIZES)),
    "connectedness_ratio": st.tuples(st.just(connectedness_ratio),
                                     masks().map(lambda wm: (wm[1],))),
    "decompose": st.tuples(st.just(decompose), assignments()),
    "greedy_partition": st.tuples(st.just(greedy_partition),
                                  st.tuples(WEIGHTS, INTS, INTS)),
    "mask_of": st.tuples(st.just(mask_of), assignments().map(lambda wa: (wa[1],))),
    "masked_matvec": st.tuples(st.just(masked_matvec),
                               st.tuples(masks(), VECTORS).map(lambda t: (*t[0], t[1]))),
    "multi_restart": st.tuples(st.just(multi_restart),
                               st.tuples(WEIGHTS, INTS, INTS, INTS)),
    "partition_capacities": st.tuples(st.just(partition_capacities),
                                      st.tuples(SIZES, INTS)),
    "partitioned_matvec": st.tuples(st.just(partitioned_matvec),
                                    st.tuples(decompositions(), VECTORS)),
    "per_copy_speedup": st.tuples(st.just(per_copy_speedup),
                                  st.tuples(INTS, FLOATS, FLOATS)),
    "refine_swaps": st.tuples(st.just(refine_swaps),
                              st.tuples(results(), INTS).map(lambda t: (*t[0], t[1]))),
    "retained_abs_weight": st.tuples(st.just(retained_abs_weight), masks()),
    "sa_matmul_cycles": st.tuples(st.just(sa_matmul_cycles),
                                  st.tuples(INTS, INTS, INTS, INTS)),
    "scaling_speedup": st.tuples(st.just(scaling_speedup),
                                 st.tuples(configs(), SIZES, SIZES, INTS)),
    "simulate": st.tuples(st.just(simulate), st.tuples(configs(), jobs())),
    "validate_assignment": st.tuples(
        st.just(validate_assignment),
        st.tuples(assignments(), SIZES, SIZES).map(lambda t: (t[0][1], t[1], t[2]))),
    "weight_loss": st.tuples(st.just(weight_loss), masks()),
}


def test_every_public_callable_is_fuzzed():
    public = {name for name in blockprune.__all__
              if callable(getattr(blockprune, name))}
    assert public == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=25, deadline=1000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_call_returns_or_raises_value_error(name, data):
    fn, args = data.draw(CALLS[name])
    try:
        fn(*args)
    except ValueError:
        pass


_W = LAYERS[1]

# Inputs that once ended in TypeError, OverflowError or ZeroDivisionError,
# or were accepted although they are not whole numbers in range.
PROBES = {
    "calibrate: int target past a float":
        lambda: calibrate(SimConfig(), [(2, 10**400)]),
    "calibrate: fractional count": lambda: calibrate(SimConfig(), [(2.5, 1.8)]),
    "calibrate: string speedup": lambda: calibrate(SimConfig(), [(2, "1.8")]),
    "multi_restart: fractional restarts": lambda: multi_restart(_W, 2, 2.5, 0),
    "multi_restart: float p": lambda: multi_restart(_W, 2.0, 2, 0),
    "multi_restart: float seed": lambda: multi_restart(_W, 2, 2, 0.5),
    "greedy_partition: float seed": lambda: greedy_partition(_W, 2, 1.0),
    "PartitionAssignment: fractional p": lambda: PartitionAssignment(1.5, [0], [0]),
    "PartitionAssignment: NaN p": lambda: PartitionAssignment(math.nan, [0], [0]),
    "partition_capacities: bool p": lambda: partition_capacities(4, True),
    "Job: fractional size": lambda: simulate(SimConfig(), [Job(0, 1.5, 2, 2)]),
    "Job: string size": lambda: Job(0, "2", 2, 2),
    "Job: numpy size beside one past a float":
        lambda: simulate(SimConfig(), [Job(0, np.int64(1), 10**400, 1)]),
    "partition_capacities: p past an index":
        lambda: partition_capacities(2**64 + 1, 2**64 + 1),
    "sa_matmul_cycles: fractional size": lambda: sa_matmul_cycles(1.5, 2, 2, 2),
    "sa_matmul_cycles: size past a float": lambda: sa_matmul_cycles(10**400, 1, 1, 1),
    "SimConfig: fractional bytes per element":
        lambda: simulate(SimConfig(bytes_per_element=1.5), [Job(0, 1, 2, 2)]),
    "refine_swaps: fractional passes":
        lambda: refine_swaps(_W, multi_restart(_W, 2, 2, 0), max_passes=2.5),
    "validate_assignment: fractional p": lambda: validate_assignment(
        PartitionAssignment(2.5, [0, 1], [0, 1]), 2, 2),
    "per_copy_speedup: zero makespan": lambda: per_copy_speedup(1, 1.0, 0.0),
    "SimReport.versus: empty workload": lambda: simulate(SimConfig(), []).versus(
        simulate(SimConfig(), [])),
    "WeightMatrix: int past a float": lambda: WeightMatrix([[10**400]]),
    "PartitionAssignment: label past int64":
        lambda: PartitionAssignment(2, [10**400], [0]),
    "PartitionAssignment: infinite label":
        lambda: PartitionAssignment(2, [math.inf], [0]),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_raises_value_error(probe):
    with pytest.raises(ValueError):
        PROBES[probe]()


def test_empty_workload_still_simulates():
    report = simulate(SimConfig(), [])
    assert report.makespan_cycles == 0.0 and report.energy_total_pj == 0.0


def test_numpy_scalars_are_numbers():
    # Config fields, job sizes, copy counts and calibration targets may be
    # numpy scalars, as a caller's arrays hand them out.
    jobs = [Job(a, 1, 64, 64) for a in range(3)]
    cfg = SimConfig(num_accelerators=np.int64(2), sa_dim=np.int64(32))
    assert simulate(ensure_capacity(cfg, np.int64(4)), jobs) == simulate(SimConfig(), jobs)
    assert simulate(SimConfig(accel_clock_hz=np.float32(2e8)), jobs).makespan_cycles > 0
    numpy_job = Job(np.int64(0), np.int64(1), np.int64(64), np.int64(64))
    assert simulate(SimConfig(), [numpy_job]) == simulate(SimConfig(), jobs[:1])
    assert (calibrate(SimConfig(), [(np.int64(3), np.int64(2))])
            == calibrate(SimConfig(), [(3, 2)]))
    assert (calibrate(SimConfig(), [(2, np.float32(1.8)), (3, 2.5)]).achieved
            == calibrate(SimConfig(), [(2, float(np.float32(1.8))), (3, 2.5)]).achieved)


@pytest.mark.parametrize("target", [np.float32(np.inf), np.float32(np.nan),
                                    np.int64(0), np.bool_(True)])
def test_numpy_target_out_of_range_is_refused(target):
    with pytest.raises(ValueError, match="invalid target"):
        calibrate(SimConfig(), [(2, target)])

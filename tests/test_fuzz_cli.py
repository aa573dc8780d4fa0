"""Fuzz the command line: any input ends in exit 0, 2 or 3, never a traceback.

Arguments take edge values (zero, negative, non-finite, 2**64, and
layer sizes and trial counts of 10**400), and the matrix, result and
config files are valid, truncated, garbage (random bytes, or JSON nested
too deeply to parse), missing, or valid JSON with one field replaced by
an arbitrary JSON value, 10**400 and 1e305 among them. Sizes stay tiny so every example runs in
milliseconds.

A second test draws the matrix entries themselves: CSV layers of
entries near +-1.8e308 (whose sum of |W| overflows), subnormals and
zeros, or of zeros alone, for prune, oracle and verify.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockprune.cli import main

INTS = st.sampled_from(["-1", "0", "1", "2", "3", "7"])
DIMS = st.sampled_from(["-1", "0", "1", "2", "3", "7", str(10**400)])
TRIALS = st.sampled_from(["-1", "0", "1", "7", str(10**400)])
SEEDS = st.sampled_from(["-1", "0", "5", str(2**64 + 1)])
TOLERANCES = st.sampled_from(["-1", "0", "1e-300", "1e-5", "inf", "nan"])
TARGETS = st.sampled_from(
    ["", ",", "2=1.8", "1=1", "0=1", "2=-1", "x", "2=nan", "2=inf",
     "3=2.5,2=1.8", "2=1.8=3"]
)
DISTS = st.sampled_from(
    ["uniform", "gauss", "blockdiag:2", "blockdiag:0", "blockdiag:x", "nope"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([10**400, 1e305]),  # past a float, or a product of one
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    quiet = ["--quiet"]
    assert main(["gen", "--rows", "6", "--cols", "7", "--seed", "1",
                 "--out", str(d / "valid.bpwm")] + quiet) == 0
    assert main(["prune", str(d / "valid.bpwm"), "-p", "2", "--restarts", "2",
                 "--out", str(d / "valid_result.json")] + quiet) == 0
    (d / "valid_config.json").write_text(json.dumps({"num_accelerators": 2}))
    return d


@st.composite
def input_file(draw, work, kind):
    """Path of a file of `kind` (matrix, result, config) in some state."""
    valid = (work / {"matrix": "valid.bpwm", "result": "valid_result.json",
                     "config": "valid_config.json"}[kind]).read_bytes()
    state = draw(st.sampled_from(["valid", "truncated", "garbage", "missing",
                                  "field"]))
    path = work / f"fuzz_{kind}"
    if state == "missing":
        return str(work / "no_such_file")
    if state == "valid":
        data = valid
    elif state == "truncated":
        data = valid[: draw(st.integers(0, len(valid) - 1))]
    elif state == "garbage":
        data = draw(st.binary(max_size=40) | st.just(b"[" * 100000))
    elif kind == "matrix":  # "field": one value of the CSV form replaced
        data = draw(st.sampled_from(
            [b"1,2\n3\n", b"nan,1\n", b"1e400\n", b"\n\n", b"BPWM\x01"]))
    else:  # "field": one key of the JSON object replaced
        doc = json.loads(valid)
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        doc[key] = draw(JSON_VALUES)
        data = json.dumps(doc).encode()
    path.write_bytes(data)
    return str(path)


@st.composite
def command(draw, work):
    out = ["--out", str(work / "out.json")]
    name = draw(st.sampled_from(
        ["gen", "prune", "oracle", "verify", "simulate", "calibrate"]))
    if name == "gen":
        return ["gen", "--rows", draw(DIMS), "--cols", draw(DIMS),
                "--dist", draw(DISTS), "--seed", draw(SEEDS),
                "--out", str(work / "out.bpwm")]
    if name == "prune":
        argv = ["prune", draw(input_file(work, "matrix")), "-p", draw(INTS),
                "--restarts", draw(INTS), "--seed", draw(SEEDS)]
        if draw(st.booleans()):
            argv += ["--refine", "--max-passes", draw(INTS)]
        return argv + out
    if name == "oracle":
        argv = ["oracle", draw(input_file(work, "matrix")), "-p", draw(INTS),
                "--budget", draw(st.sampled_from(["-1", "0", "100000"]))]
        if draw(st.booleans()):
            argv += ["--result", draw(input_file(work, "result"))]
        return argv + out
    if name == "verify":
        return ["verify", draw(input_file(work, "matrix")),
                draw(input_file(work, "result")), "--trials", draw(TRIALS),
                "--tolerance", draw(TOLERANCES), "--seed", draw(SEEDS)] + out
    config = ["--config", draw(input_file(work, "config"))] if draw(
        st.booleans()) else []
    dims = ["--rows", draw(DIMS), "--cols", draw(DIMS)]
    if name == "simulate":
        return ["simulate", *config, *dims, "-p", draw(INTS),
                "--mode", draw(st.sampled_from(["partition", "scaling"])),
                "--copies", draw(INTS)] + out
    return ["calibrate", *config, *dims, "--targets", draw(TARGETS)] + out


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_input_exits_0_2_or_3_without_traceback(work, data):
    argv = data.draw(command(work))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv + ["--quiet"])
        except SystemExit as e:  # argparse rejects malformed arguments
            rc = e.code
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv



ENTRIES = st.sampled_from(
    ["0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1", "-1",
     "1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308",
     "1.8e308"]  # the last is past a float
)


@st.composite
def valued_command(draw, work):
    """prune, oracle or verify on a CSV layer of edge-valued entries."""
    rows, cols = draw(st.sampled_from([(1, 1), (2, 2), (3, 2), (4, 4), (6, 7)]))
    if draw(st.booleans()):
        entries = ["0"] * (rows * cols)
    else:
        entries = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    layer = work / "values.csv"
    layer.write_text("".join(",".join(entries[i * cols:(i + 1) * cols]) + "\n"
                             for i in range(rows)))
    p = draw(st.integers(1, min(rows, cols)))
    out = ["--out", str(work / "out.json")]
    name = draw(st.sampled_from(["prune", "oracle", "verify"]))
    if name == "prune":
        argv = ["prune", str(layer), "-p", str(p), "--restarts", draw(INTS)]
        if draw(st.booleans()):
            argv.append("--refine")
        return argv + out
    if name == "oracle":
        return ["oracle", str(layer), "-p", str(p)] + out
    result = work / "values_result.json"
    result.write_text(json.dumps({
        "rows": rows, "cols": cols, "p": p, "seed": 0, "restarts": 1,
        "row_partition": [i % p for i in range(rows)],
        "col_partition": [j % p for j in range(cols)],
    }))
    return ["verify", str(layer), str(result), "--trials", "3"] + out


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_matrix_values_exit_0_2_or_3_without_traceback(work, data):
    argv = data.draw(valued_command(work))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv + ["--quiet"])
        except SystemExit as e:
            rc = e.code
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv

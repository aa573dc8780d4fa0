"""The op-running process: a closed loop of ``blockprune.cli.main`` calls.

Started by run.py with a plan file. It imports blockprune, prints
``ready`` and waits for one line on stdin: ``go`` runs the plan,
anything else exits. One caller, no threads: each op starts when the
previous one has finished.

The untraced pass runs ops until ``seconds`` have passed, at least
``quality_ops`` ops are done and the last op closes a ``cycle``; its
timings and peak memory are the end-to-end figures. The speed probe
(probe.py) runs before every op and after the last one, outside the
timed intervals. With tracing on, the same ops then run again with
spans recorded, writing their outputs to a second directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from probe import probe


def run_op(cli, steps: list) -> tuple:
    """Run one op's CLI steps; return (seconds, exit codes, stdouts, error)."""
    rcs, stdouts = [], []
    error = None
    t0 = time.perf_counter()
    for argv in steps:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # an op that raises is a failed op, not a crash
            rc, error = -1, f"{type(e).__name__}: {e}"
        rcs.append(rc)
        stdouts.append(buf.getvalue())
        if rc != 0:
            break
    return time.perf_counter() - t0, rcs, stdouts, error


def run_pass(cli, workloads, plan: dict, outdir: Path, n_ops, tracer=None) -> dict:
    """Run ops 0.. in a closed loop; `n_ops` None means run by the clock."""
    outdir.mkdir(parents=True, exist_ok=True)
    wl, meta, seed = plan["workload"], plan["meta"], plan["seed"]
    op_s, probe_s, failures, quality = [], [], [], []
    t_start = time.perf_counter()
    i = 0
    while (i < n_ops if n_ops is not None else
           i < plan["quality_ops"] or i % plan["cycle"]
           or time.perf_counter() - t_start < plan["seconds"]):
        steps = workloads.op_steps(wl, meta, seed, i, outdir)
        if tracer is not None:
            tracer.op_index = i
        probe_s.append(probe())
        dt, rcs, stdouts, error = run_op(cli, steps)
        try:
            errors, q = workloads.check_op(wl, meta, i, outdir, rcs, stdouts)
        except (OSError, ValueError, KeyError, TypeError) as e:
            # missing or malformed output files fail the op
            errors, q = [f"output unreadable: {type(e).__name__}: {e}"], {}
        if error:
            errors.append(error)
        op_s.append(dt)
        if errors:
            failures.append({"op": i, "errors": errors})
        quality.append(q)
        i += 1
    probe_s.append(probe())
    return {"op_s": op_s, "probe_s": probe_s, "failures": failures, "quality": quality}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    from blockprune import cli
    import workloads
    import tracing

    for _ in range(3):  # the first calls pay for numpy's lazy set-up
        probe()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    work = Path(plan["work"])
    result = {"untraced": run_pass(cli, workloads, plan, work / "out_untraced", None)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        n = len(result["untraced"]["op_s"])
        result["traced"] = run_pass(cli, workloads, plan, work / "out_traced", n, tracer)
        result["layers"] = tracing.layer_metrics(tracer, n)
        tracer.write(plan["spans"])
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

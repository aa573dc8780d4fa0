"""Machine-speed probe: scales measured times to a fixed machine speed.

A shared VM runs the same code up to twice as fast at some moments as at
others, in phases that last seconds to minutes. Raw op times then report
the phase more than the program. The benchmark therefore times this fixed
probe (interpreter loop plus small numpy calls, the same mix the program
runs) between the timed intervals of a run, and reports each interval as
``measured * PROBE_NOMINAL_S / median probe``: its duration on a machine
where the probe takes ``PROBE_NOMINAL_S``. The probe is part of
the benchmark, so a change to the program cannot move it. Raw times are
recorded next to every normalized one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_NOMINAL_S = 0.0025  # about the probe's time on a 2-vCPU Xeon VM


def probe() -> float:
    """Seconds the probe takes now."""
    t0 = time.perf_counter()
    x = 0
    for k in range(20000):
        x += k * k
    # 32 KB arrays stay below malloc's mmap threshold, so no page faults
    a = np.arange(4000.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def normalized(times: list, probes: list) -> list:
    """Scale every interval by the median probe of the same run.

    The median ignores the odd probe that a page fault or a preemption
    slows tenfold; the phases it corrects for last longer than an op.
    """
    scale = PROBE_NOMINAL_S / statistics.median(probes)
    return [t * scale for t in times]

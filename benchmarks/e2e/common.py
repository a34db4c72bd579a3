"""Helpers shared by the simulation loop (``worker.py``) and the serving
harness (``serve_load.py``)."""

from __future__ import annotations

import pathlib
import resource
import statistics
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
#: Traces, the server's journal and checkpoint scratch (git-ignored).
OUT_DIR = HERE / "out"
#: The recorded full-suite result (``run.py --out``), seed 11.
BASELINE = HERE / "baseline.json"
#: A run whose drift probes, taken on the two sides of its measured part,
#: disagree by more than this is marked noisy.
DRIFT_LIMIT = 0.05


def drift_probe() -> float:
    """Seconds for a fixed pure-numpy job (a 5-point stencil over 96x96
    float64): the host-speed yardstick timed on the two sides of every
    measurement.  The fastest of three short passes, so that a burst from
    another tenant during the probe itself is not read as a change of
    the host's pace.

    The arrays fit in L2 and every ufunc writes into a preallocated
    buffer: a probe that allocates, or streams from memory, measures the
    heap's state and page placement (up to 33 % faster after a
    simulation has grown the heap), not the host.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
    b = np.zeros_like(a)
    inner = b[1:-1, 1:-1]
    passes = []
    for iterations in (40, 1300, 1300, 1300):  # the first faults pages in
        start = perf_counter()
        for _ in range(iterations):
            np.add(a[1:-1, 1:-1], a[:-2, 1:-1], out=inner)
            np.add(inner, a[2:, 1:-1], out=inner)
            np.add(inner, a[1:-1, :-2], out=inner)
            np.add(inner, a[1:-1, 2:], out=inner)
            np.multiply(b, 0.2, out=a)
        passes.append(perf_counter() - start)
    return min(passes[1:])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def quartile_spread(values) -> float:
    """Interquartile range over the median (0.0 below two samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Checks:
    """Operations attempted / failed; an operation is one repetition's
    correctness check, one reference comparison or one HTTP request."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.errors.append(what)
        return ok


def write_trace(tracer, args) -> None:
    if tracer is None:
        return
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_chrome(
        OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    )



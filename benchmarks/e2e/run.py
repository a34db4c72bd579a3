#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the repro stack (BENCHMARK.json).

One workload, as the benchmark contract runs it::

    python3 benchmarks/e2e/run.py --workload focus_2d --seed 11 \\
        --seconds 12 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.

The whole suite (no ``--workload``)::

    python3 benchmarks/e2e/run.py --seed 11 [--smoke] [--out FILE]

makes the same run of every workload three times untraced, round-robin
across the workloads, then once traced, and writes medians, quartiles and
the per-layer numbers to ``benchmarks/e2e/out/`` (or ``--out``) for
``compare.py``.  ``baseline.json`` is such a file.

This process never imports ``repro``: each run is a fresh ``worker.py``
child with ``src/`` on PYTHONPATH and BLAS pinned to one thread.  Metric
names, units, directions and bounds are read from BENCHMARK.json, which
is the only place they are written down.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fresh-process set-ups timed per run besides the measured child's own
#: (setup_s is the median of them all).  One: the contract's 158 runs
#: share 57 minutes, and a set-up costs 1-2 s of every run.
SETUP_PROBES = 1
#: Untraced runs of each workload in the whole suite.
SUITE_RUNS = 3
CHILD_TIMEOUT_S = 170.0

#: A per-layer metric whose seam did not resolve has no number; the
#: contract line needs one, so it carries this and the seam is named in
#: ``missing_seams`` above it.
UNRESOLVED = -1.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src]
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(workload: str, seed: int, scale: float, trace: int,
                 setup_only: bool = False) -> dict:
    """Run one ``worker.py`` child to completion; its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--scale", repr(scale), "--spawned-at", repr(perf_counter()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # Its own process group: on a timeout the child's own children (dist
    # ranks, the serve process) are stopped with it.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(
            f"worker for {workload} exited with {proc.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, scale: float, trace: int) -> dict:
    """One run of one workload: set-up probes, then the measured child.
    A traced run reports no set-up time and so takes no probes."""
    began = perf_counter()
    setups = [
        spawn_worker(workload, seed, scale, trace, setup_only=True)["setup_s"]
        for _ in range(0 if trace else SETUP_PROBES)
    ]
    result = spawn_worker(workload, seed, scale, trace)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    if trace:
        result["bench.total_seconds"] = perf_counter() - began
    return result


def select_metrics(spec: dict, result: dict, trace: int) -> dict:
    """``{name: (value, unit)}`` for the metrics the contract asks of this
    run.  A per-layer metric the run did not produce belongs to a layer
    this workload does not pass through: it did no work, 0.  None marks
    an unresolved seam."""
    return {
        entry["name"]: (result.get(entry["name"], 0.0), entry["unit"])
        for entry in spec["per_layer" if trace else "end_to_end"]
    }


def print_metrics(workload: str, metrics: dict, result: dict) -> None:
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload:<14}{name:<48}{shown:>16} {unit}")
    if result["missing_seams"]:
        print(f"{workload:<14}missing_seams: {result['missing_seams']}")
    for error in result["errors"]:
        print(f"{workload:<14}FAILED: {error}")


def contract_run(spec: dict, args) -> int:
    result = measure(args.workload, args.seed, args.scale, args.trace)
    metrics = select_metrics(spec, result, args.trace)
    print_metrics(args.workload, metrics, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {
                "value": UNRESOLVED if value is None else value, "unit": unit,
            }
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if result["failed"] == 0 else 1


# -- the whole suite -------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def suite_run(spec: dict, args) -> int:
    began = perf_counter()
    names = [w["name"] for w in spec["workloads"]]
    scale = 0.1 if args.smoke else args.scale
    runs: dict[str, list[dict]] = {n: [] for n in names}

    # Round-robin: a slow minute on a shared host lands on one run of
    # every workload, not on all runs of one.
    for _ in range(0 if args.smoke else SUITE_RUNS):
        for name in names:
            runs[name].append(measure(name, args.seed, scale, 0))
    traced = {name: measure(name, args.seed, scale, 1) for name in names}
    if args.smoke:
        # plumbing, not numbers: the traced run's two untraced
        # repetitions stand in for the untraced pass
        runs = {name: [traced[name]] for name in names}

    report = {"meta": None, "seed": args.seed, "scale": scale,
              "smoke": args.smoke, "workloads": {}}
    failed = 0
    for name, why in ((w["name"], w["why"]) for w in spec["workloads"]):
        all_runs = [traced[name]] if args.smoke else runs[name] + [traced[name]]
        attempted = sum(r["attempted"] for r in all_runs)
        failures = sum(r["failed"] for r in all_runs)
        errors = [e for r in all_runs for e in r["errors"]]
        digests = {r["digest"] for r in all_runs}
        if name == "dist_r2":  # same inputs, so the same result
            digests.add(traced["focus_2d"]["digest"])
        attempted += 1
        if len(digests) != 1:
            failures += 1
            errors.append(
                f"digest differs between passes (or from focus_2d): "
                f"{sorted(digests)}"
            )
        failed += failures
        end_to_end = {}
        for entry in spec["end_to_end"]:
            values = [r[entry["name"]] for r in runs[name]]
            q1, median, q3 = quartiles(values)
            end_to_end[entry["name"]] = {
                **entry, "median": median, "q1": q1, "q3": q3,
                "n": len(values), "values": values,
            }
        per_layer = {
            metric: value for metric, (value, _unit)
            in select_metrics(spec, traced[name], 1).items()
        }
        report["workloads"][name] = {
            "why": why,
            "inputs": traced[name]["inputs"],
            "digest": traced[name]["digest"],
            "noisy": any(r["noisy"] for r in all_runs),
            "loadavg_1m": max(r["loadavg_1m"] for r in all_runs),
            "attempted": attempted,
            "failed": failures,
            "failed_share": failures / attempted,
            "errors": errors,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "missing_seams": traced[name]["missing_seams"],
        }
        report["meta"] = traced[name]["meta"]
    report["total_seconds"] = perf_counter() - began

    print_suite(spec, report)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out = pathlib.Path(args.out) if args.out else (
        out_dir / f"suite-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    )
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def print_suite(spec: dict, report: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, w in report["workloads"].items():
        flag = "  NOISY" if w["noisy"] else ""
        print(f"\n== {name}: {w['attempted']} operations, {w['failed']} failed"
              f" (failed_share {w['failed_share']:.3g}){flag}")
        for metric, e in w["end_to_end"].items():
            print(f"  {metric:<46}{e['median']:>14.6g} {e['unit']:<8}"
                  f"[{e['q1']:.6g} .. {e['q3']:.6g}] n={e['n']}")
        for metric, value in w["per_layer"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {metric:<46}{shown:>14} {units[metric]}")
        if w["missing_seams"]:
            print(f"  missing_seams: {w['missing_seams']}")
        for error in w["errors"]:
            print(f"  FAILED: {error}")
    print(f"\nbench.total_seconds {report['total_seconds']:.1f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", default=None,
                        help="run this one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="suite: one-tenth length, the traced pass only")
    parser.add_argument("--out", default=None, help="suite: result file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"{ROOT} is not a checkout of the repository: src/repro or "
              "BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    # The workloads are sized for run_seconds; another length scales the
    # simulations' steps and the request counts with it.
    args.scale = (
        1.0 if args.seconds is None else args.seconds / spec["run_seconds"]
    )
    if args.workload is None:
        return suite_run(spec, args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return contract_run(spec, args)


if __name__ == "__main__":
    sys.exit(main())

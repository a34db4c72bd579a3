"""Command-line entry point: ``simcov-repro <experiment>``.

Regenerates any table/figure of the paper and writes CSV under
``results/``.  ``simcov-repro all`` runs everything.

``simcov-repro run`` instead executes a single simulation on a chosen
backend (``sequential``, the multi-process ``dist`` runtime, or — with
``--ensemble N`` / ``--sweep`` — the batched ``ensemble``) and prints the
final step's statistics, e.g.::

    simcov-repro run --backend dist --nranks 4 --dim 64 64 --steps 50

``--trace PATH`` records structured telemetry (phase/barrier spans,
comm counters, occupancy gauges) to PATH — ``--trace-format jsonl``
(default) for the archival event log, ``chrome`` for a Perfetto /
``chrome://tracing`` timeline with one lane per rank::

    simcov-repro run --backend dist --nranks 4 --trace out.json \
        --trace-format chrome
    simcov-repro trace report out.json

``simcov-repro serve`` starts the SIMCoV-as-a-service job server
(:mod:`repro.serve`); ``submit`` posts a run to it and ``status`` lists
jobs / streams metrics.  ``--trace PATH`` on serve records the server's
telemetry (plus periodic metrics snapshots) to PATH::

    simcov-repro serve --port 8642 --workers 4 --cache-dir /tmp/cache
    simcov-repro submit --config small_2d --steps 50 --watch
    simcov-repro status
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.engine.driver import DRIVERS, build_driver
from repro.experiments.configs import (
    format_run_configs,
    format_table1,
    get_run_config,
)
from repro.experiments.correctness import (
    TRACKED_STATS,
    format_table2,
    run_correctness,
)
from repro.experiments.plotting import ascii_series, hbar_chart, write_csv
from repro.experiments.profiling import format_fig4, run_profiling
from repro.experiments.scaling import (
    format_scaling,
    run_foi_scaling,
    run_strong_scaling,
    run_weak_scaling,
)
from repro.experiments.signals import abort_on_signals


def _cmd_table1(outdir: str) -> None:
    print(format_table1())


def _cmd_fig4(outdir: str) -> None:
    rows = run_profiling()
    print(format_fig4(rows))
    print()
    print(
        hbar_chart(
            [
                (r.variant.label, {
                    "update": r.update_seconds, "reduce": r.reduce_seconds,
                })
                for r in rows
            ],
            title="Fig 4 — runtime breakdown (stacked)",
        )
    )
    write_csv(
        f"{outdir}/fig4_optimization_breakdown.csv",
        [
            {
                "variant": r.variant.value,
                "update_seconds": r.update_seconds,
                "reduce_seconds": r.reduce_seconds,
                "total_seconds": r.total_seconds,
            }
            for r in rows
        ],
    )


def _cmd_correctness(outdir: str, table_only: bool = False) -> None:
    result = run_correctness()
    if not table_only:
        for stat, display in TRACKED_STATS:
            cm, cmin, cmax, gm, gmin, gmax = result.fig5_bands(stat)
            print(
                ascii_series(
                    {"CPU": (result.steps, cm), "GPU": (result.steps, gm)},
                    title=f"Fig 5 — {display} (mean of 5 trials)",
                )
            )
            print()
            rows = [
                {
                    "step": int(s),
                    "cpu_mean": cm[i], "cpu_min": cmin[i], "cpu_max": cmax[i],
                    "gpu_mean": gm[i], "gpu_min": gmin[i], "gpu_max": gmax[i],
                }
                for i, s in enumerate(result.steps)
            ]
            write_csv(f"{outdir}/fig5_{stat}.csv", rows)
    print(format_table2(result))
    write_csv(
        f"{outdir}/table2_peak_agreement.csv",
        [
            {"stat": name, **vals}
            for name, vals in result.table2.items()
        ],
    )


def _scaling(outdir: str, which: str) -> None:
    runner = {
        "fig6": run_strong_scaling,
        "fig7": run_weak_scaling,
        "fig8": run_foi_scaling,
    }[which]
    titles = {
        "fig6": "Fig 6 — Strong Scaling (10,000^2, 16 FOI)",
        "fig7": "Fig 7 — Weak Scaling (10,000^2..40,000^2, FOI 16..256)",
        "fig8": "Fig 8 — FOI Scaling (20,000^2, {16 GPUs, 512 cores})",
    }
    rows = runner()
    print(format_scaling(rows, titles[which]))
    print()
    xs = np.array(
        [r.foi for r in rows] if which == "fig8" else [r.gpus for r in rows],
        dtype=float,
    )
    print(
        ascii_series(
            {
                "CPU": (xs, np.array([r.cpu_seconds for r in rows])),
                "GPU": (xs, np.array([r.gpu_seconds for r in rows])),
            },
            logx=True,
            logy=True,
            title=titles[which] + "  [log-log]",
        )
    )
    write_csv(
        f"{outdir}/{which}_scaling.csv",
        [
            {
                "label": r.label, "gpus": r.gpus, "cores": r.cores,
                "dim_x": r.dim[0], "dim_y": r.dim[1], "foi": r.foi,
                "cpu_seconds": r.cpu_seconds, "gpu_seconds": r.gpu_seconds,
                "speedup": r.speedup, "paper_speedup": r.paper_speedup,
            }
            for r in rows
        ],
    )


def _cmd_report(outdir: str) -> None:
    from repro.experiments.report import write_report

    path = write_report(os.path.join(outdir, "REPORT.md"))
    print(f"report written to {path}")


def _parse_fault(spec: str):
    """``rank:step:phase:mode[:repeat]`` -> FaultSpec (chaos demos)."""
    from repro.dist import FAULT_MODES, FaultSpec

    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise argparse.ArgumentTypeError(
            "--inject-fault takes rank:step:phase:mode[:repeat], "
            f"modes {'|'.join(FAULT_MODES)}"
        )
    try:
        return FaultSpec(
            rank=int(parts[0]),
            step=int(parts[1]),
            phase=parts[2],
            mode=parts[3],
            repeat=int(parts[4]) if len(parts) == 5 else 1,
        )
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _make_tracer(args: argparse.Namespace):
    """A tracer writing to ``--trace`` (or None when tracing is off)."""
    if not args.trace:
        return None
    from repro.telemetry import ChromeTraceSink, JsonlSink, Tracer

    sink = (
        ChromeTraceSink(args.trace)
        if args.trace_format == "chrome"
        else JsonlSink(args.trace)
    )
    return Tracer(backend=args.backend, sinks=[sink])


def _parse_sweep(spec: str):
    """``key=lo:hi:n`` -> (key, values).  Raises ValueError with an
    actionable message on any malformed piece."""
    key, sep, rest = spec.partition("=")
    parts = rest.split(":")
    if not sep or not key or len(parts) != 3:
        raise ValueError(
            f"malformed --sweep {spec!r}; expected key=lo:hi:n, "
            "e.g. --sweep num_infections=1:8:4"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError:
        raise ValueError(
            f"malformed --sweep {spec!r}: lo/hi must be numbers and n an "
            "integer (key=lo:hi:n)"
        ) from None
    if n < 2:
        raise ValueError(
            f"--sweep {spec!r} asks for {n} point(s); a sweep needs n >= 2 "
            "(use --ensemble N for N replicas of one configuration)"
        )
    return key, np.linspace(lo, hi, n)


def _resolve_run_params(args: argparse.Namespace):
    """Fold ``--config`` into the run parameters (explicit flags win)."""
    from repro.core.params import SimCovParams

    config = get_run_config(args.config) if args.config else None
    dim = tuple(args.dim) if args.dim else (config.dim if config else (64, 64))
    if args.steps is None:
        args.steps = config.steps if config else 50
    if args.num_infections is None:
        args.num_infections = config.num_infections if config else 2
    return SimCovParams.fast_test(
        dim=dim,
        num_infections=args.num_infections,
        num_steps=args.steps,
    )


def _run_ensemble(args: argparse.Namespace, params) -> int:
    """``run --ensemble/--sweep``: one vectorized batched simulation."""
    from repro.core.xp import get_array_module
    from repro.engine.ensemble import expand_sweep

    sweep_key, sweep_values = None, None
    if args.sweep:
        try:
            sweep_key, sweep_values = _parse_sweep(args.sweep)
            members = expand_sweep(params, sweep_key, sweep_values)
        except ValueError as err:
            print(str(err), file=sys.stderr)
            return 2
        if args.ensemble is not None and args.ensemble != len(members):
            print(
                f"--sweep {args.sweep!r} generates {len(members)} members "
                f"but --ensemble asks for {args.ensemble}; drop --ensemble "
                "or make the counts match",
                file=sys.stderr,
            )
            return 2
    else:
        members = [params] * args.ensemble
    try:
        xp = get_array_module(args.array_module)
    except (ValueError, ModuleNotFoundError) as err:
        print(str(err), file=sys.stderr)
        return 2
    batch = len(members)
    seeds = args.seed + np.arange(batch, dtype=np.int64)
    tracer = _make_tracer(args)
    sim = build_driver(
        "ensemble", members, seeds=seeds, array_module=xp, tracer=tracer
    )
    try:
        sim.run(args.steps)
    finally:
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace} ({args.trace_format})")
    value_head = f"{sweep_key:>18}" if sweep_key else ""
    print(
        f"{'member':>6} {'seed':>6}{value_head} {'peak_infected':>14}"
        f" {'@step':>6} {'final_dead':>11} {'tcells':>7}"
    )
    rows = []
    for b in range(batch):
        series = sim.member_series[b]
        peak_step, peak_val = series.peak("infected")
        last = series[len(series) - 1]
        value_col = f"{float(sweep_values[b]):>18.6g}" if sweep_key else ""
        print(
            f"{b:>6} {int(seeds[b]):>6}{value_col} {peak_val:>14.6g} "
            f"{peak_step:>6} {last.dead:>11.6g} {last.tcells_tissue:>7.6g}"
        )
        row = {
            "member": b,
            "seed": int(seeds[b]),
            "peak_infected": peak_val,
            "peak_step": peak_step,
            "final_dead": last.dead,
            "final_tcells_tissue": last.tcells_tissue,
            "final_virions_total": last.virions_total,
        }
        if sweep_key:
            row[sweep_key] = float(sweep_values[b])
        rows.append(row)
    out_csv = os.path.join(args.outdir, "ensemble_members.csv")
    write_csv(out_csv, rows)
    print(
        f"done: ensemble batch={batch} dim={tuple(params.dim)} "
        f"steps={args.steps} xp={xp.name} -> {out_csv}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.backend != "dist" and (
        args.on_failure != "fail" or args.inject_fault is not None
    ):
        print(
            "--on-failure/--inject-fault require --backend dist",
            file=sys.stderr,
        )
        return 2
    try:
        params = _resolve_run_params(args)
    except ValueError as err:  # unknown --config
        print(str(err), file=sys.stderr)
        return 2
    wants_ensemble = args.ensemble is not None or args.sweep is not None
    if not wants_ensemble and args.array_module is not None:
        print(
            "--array-module selects the ensemble backend's array module; "
            "add --ensemble N or --sweep key=lo:hi:n",
            file=sys.stderr,
        )
        return 2
    if not wants_ensemble and args.backend == "ensemble":
        print(
            "--backend ensemble needs --ensemble N or --sweep key=lo:hi:n",
            file=sys.stderr,
        )
        return 2
    if wants_ensemble:
        if args.backend not in ("sequential", "ensemble"):
            print(
                "--ensemble/--sweep run on the vectorized ensemble backend; "
                f"drop --backend {args.backend} (or pass "
                "--backend ensemble)",
                file=sys.stderr,
            )
            return 2
        if args.ensemble is not None and args.ensemble < 1:
            print(
                f"--ensemble needs at least 1 member, got {args.ensemble}",
                file=sys.stderr,
            )
            return 2
        return _run_ensemble(args, params)
    tracer = _make_tracer(args)
    if args.on_failure == "fail":
        # A fault to inject means dist (checked above).
        fault = {} if args.inject_fault is None else {"fault": args.inject_fault}
        sim = build_driver(
            args.backend, params, nranks=args.nranks, seed=args.seed,
            tracer=tracer, **fault,
        )
    else:  # dist under the restart / shrink supervisor
        from repro.dist import ResilientDistSimCov, RestartPolicy

        sim = ResilientDistSimCov(
            params,
            nranks=args.nranks,
            seed=args.seed,
            tracer=tracer,
            fault=args.inject_fault,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            policy=RestartPolicy(
                max_restarts=args.max_restarts,
                backoff=args.restart_backoff,
                on_failure=args.on_failure,
            ),
        )
    try:
        with abort_on_signals(sim):
            sim.run(args.steps)
        for i in range(len(sim.series)):
            stats = sim.series[i]
            if (i + 1) % max(1, args.steps // 10) == 0 or i == args.steps - 1:
                print(f"step {i + 1:>5}: {stats}")
        print(
            f"done: backend={args.backend} nranks={args.nranks} "
            f"dim={tuple(args.dim)} steps={args.steps} seed={args.seed}"
        )
        if getattr(sim, "incidents", None):
            print(f"recovered from {sim.restarts} failure(s):")
            print(sim.format_incident_log())
    except KeyboardInterrupt:
        print(
            "interrupted: runtime aborted, workers and shared memory "
            "released",
            file=sys.stderr,
        )
        return 130
    finally:
        incidents = getattr(sim, "incidents", None)
        if args.incident_log and incidents is not None:
            from repro.dist import write_incident_log

            write_incident_log(args.incident_log, incidents)
            print(f"incident log written to {args.incident_log}")
        if hasattr(sim, "close"):
            sim.close()
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace} ({args.trace_format})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``simcov-repro trace report PATH`` — summarize a recorded trace."""
    from repro.telemetry.report import (
        format_report,
        load_events,
        load_meta,
        summarize,
    )

    usage = "usage: simcov-repro trace report PATH"
    if len(args.extra) != 2 or args.extra[0] != "report":
        print(usage, file=sys.stderr)
        return 2
    path = args.extra[1]
    if not os.path.exists(path):
        print(f"trace file not found: {path}", file=sys.stderr)
        return 2
    print(format_report(summarize(load_events(path)), meta=load_meta(path)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``simcov-repro serve`` — run the job server until interrupted.

    SIGTERM triggers a graceful drain (stop admitting, checkpoint-preempt
    running jobs, flush the journal) and exits 0; SIGINT aborts hard
    (running jobs preempted, exit 130).
    """
    import asyncio
    import signal as _signal

    from repro.resilience import RestartPolicy
    from repro.serve import ServeApp
    from repro.serve.faults import parse_serve_fault

    fault = None
    if args.inject_serve_fault:
        try:
            fault = parse_serve_fault(args.inject_serve_fault)
        except ValueError as err:
            print(str(err), file=sys.stderr)
            return 2
    app = ServeApp(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        trace_path=args.trace,
        trace_format=args.trace_format,
        journal_dir=args.journal_dir,
        retry_policy=RestartPolicy(
            max_restarts=args.retries, backoff=args.retry_backoff
        ),
        max_queue_depth=args.max_queue_depth,
        max_inflight_per_client=args.max_inflight,
        hang_timeout_s=args.hang_timeout,
        fault=fault,
    )

    drained = False

    def on_sigterm(signum, frame):
        nonlocal drained
        drained = True
        app.drain()

    def on_sigint(signum, frame):
        app.abort()
        raise KeyboardInterrupt

    async def _main() -> None:
        await app.start()
        cache = "disk+memory" if (args.cache_dir or args.journal_dir) \
            else "memory"
        durable = "journaled" if args.journal_dir else "ephemeral"
        print(
            f"serving on http://{app.host}:{app.port} "
            f"(workers={args.workers}, cache={cache}, jobs={durable})",
            flush=True,
        )
        await app.serve_forever()

    previous = {}
    try:
        previous[_signal.SIGTERM] = _signal.signal(
            _signal.SIGTERM, on_sigterm
        )
        previous[_signal.SIGINT] = _signal.signal(_signal.SIGINT, on_sigint)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print(
            "interrupted: running jobs preempted, server stopped",
            file=sys.stderr,
        )
        return 130
    finally:
        for signum, old in previous.items():
            _signal.signal(signum, old)
    if drained:
        print(
            "drained: running jobs checkpointed, journal flushed",
            file=sys.stderr,
        )
    return 0


def _parse_set(items) -> dict:
    """``--set key=value`` pairs -> an overrides dict (JSON-ish values)."""
    import json as _json

    overrides = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(
                f"malformed --set {item!r}; expected key=value, "
                "e.g. --set virion_production=800"
            )
        try:
            overrides[key] = _json.loads(value)
        except _json.JSONDecodeError:
            overrides[key] = value
    return overrides


def _cmd_submit(args: argparse.Namespace) -> int:
    """``simcov-repro submit`` — post a job to a running server."""
    from repro.serve.client import ServeClient, ServeError

    try:
        overrides = _parse_set(args.set)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    backend = "ensemble" if args.ensemble is not None else args.backend
    spec = {
        "config": args.config,
        "overrides": overrides,
        "dim": list(args.dim) if args.dim else None,
        "steps": args.steps,
        "seed": args.seed,
        "backend": backend,
        "ensemble": args.ensemble,
        "nranks": args.nranks,
        "priority": args.priority,
        "client": args.client,
        "deadline_s": args.deadline,
    }
    spec = {k: v for k, v in spec.items() if v is not None}
    client = ServeClient(args.host, args.port)
    try:
        resp = client.submit(spec)
    except (ServeError, OSError) as err:
        print(f"submit failed: {err}", file=sys.stderr)
        return 1
    job = resp["job"]
    print(f"job {job['id']}: state={job['state']} cache={resp['cache']}")
    if not args.watch:
        return 0
    try:
        for name, data in client.iter_events(job["id"]):
            if name == "step":
                print(
                    f"  step {data['steps_done']:>5}/{data['steps_total']}"
                    f"  healthy={data['healthy']:.6g}"
                    f"  expressing={data['expressing']:.6g}"
                    f"  virions={data['virions_total']:.6g}"
                )
            elif name == "preempted":
                print(f"  preempted at step {data['at_step']} (will resume)")
            elif name in ("done", "error"):
                print(f"job {job['id']}: state={data['state']}")
                if data.get("error"):
                    print(f"  error: {data['error']}", file=sys.stderr)
    except (ServeError, OSError) as err:
        print(f"event stream lost: {err}", file=sys.stderr)
        return 1
    final = client.status(job["id"])
    return 0 if final["state"] == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    """``simcov-repro status [JOB_ID]`` — job table or one job's JSON."""
    import json as _json

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.host, args.port)
    try:
        if args.extra:
            print(_json.dumps(client.status(args.extra[0]), indent=2))
            return 0
        jobs = client.jobs()
        metrics = client.metrics()
    except (ServeError, OSError) as err:
        print(f"status failed: {err}", file=sys.stderr)
        return 1
    print(
        f"{'id':>12} {'state':>9} {'cache':>5} {'prio':>4} "
        f"{'steps':>11} {'preempt':>7} client"
    )
    for job in jobs:
        print(
            f"{job['id']:>12} {job['state']:>9} {job['cache']:>5} "
            f"{job['priority']:>4} "
            f"{job['steps_done']:>5}/{job['steps']:<5} "
            f"{job['preemptions']:>7} {job['client']}"
        )
    print(
        f"workers {metrics['busy_workers']}/{metrics['max_workers']} busy, "
        f"queue depth {metrics['queue_depth']}, "
        f"cache hit rate {metrics['cache_hit_rate']:.1%}, "
        f"wait p50/p99 {metrics['wait_p50_seconds'] * 1e3:.1f}/"
        f"{metrics['wait_p99_seconds'] * 1e3:.1f} ms"
    )
    return 0


COMMANDS = {
    "table1": _cmd_table1,
    "fig4": _cmd_fig4,
    "fig5": lambda outdir: _cmd_correctness(outdir, table_only=False),
    "table2": lambda outdir: _cmd_correctness(outdir, table_only=True),
    "fig6": lambda outdir: _scaling(outdir, "fig6"),
    "fig7": lambda outdir: _scaling(outdir, "fig7"),
    "fig8": lambda outdir: _scaling(outdir, "fig8"),
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simcov-repro",
        description="Regenerate the SIMCoV-GPU paper's tables and figures, "
        "or run a single simulation ('run').",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        choices=sorted(COMMANDS) + [
            "all", "run", "trace", "serve", "submit", "status",
        ],
        help="which table/figure to regenerate, 'run' for one simulation, "
        "'trace report PATH' to summarize a recorded trace, or "
        "'serve'/'submit'/'status' for the job server",
    )
    parser.add_argument(
        "--list-configs", action="store_true",
        help="list the named run configurations and exit",
    )
    parser.add_argument(
        "extra", nargs="*",
        help="subcommand arguments ('trace', 'status')",
    )
    parser.add_argument(
        "--outdir", default="results", help="CSV output directory"
    )
    run_group = parser.add_argument_group("run options")
    run_group.add_argument(
        "--backend", choices=list(DRIVERS), default="sequential",
    )
    run_group.add_argument(
        "--nranks", type=int, default=4,
        help="ranks of dist; ignored by the single-block backends",
    )
    run_group.add_argument(
        "--config", default=None, metavar="NAME",
        help="start from a named run configuration (see --list-configs); "
        "explicit --dim/--steps/--num-infections override it",
    )
    run_group.add_argument(
        "--dim", type=int, nargs="+", default=None,
        help="domain shape, 2 or 3 ints (default 64 64)",
    )
    run_group.add_argument("--steps", type=int, default=None)
    run_group.add_argument("--seed", type=int, default=0)
    run_group.add_argument("--num-infections", type=int, default=None)
    ens_group = parser.add_argument_group(
        "ensemble options (run, sequential backend)"
    )
    ens_group.add_argument(
        "--ensemble", type=int, default=None, metavar="N",
        help="run N replicas (seeds seed..seed+N-1) as one vectorized "
        "batched simulation; each member is bitwise identical to its "
        "solo run",
    )
    ens_group.add_argument(
        "--sweep", default=None, metavar="KEY=LO:HI:N",
        help="parameter sweep: N members with KEY linearly spaced over "
        "[LO, HI], e.g. --sweep num_infections=1:8:4",
    )
    ens_group.add_argument(
        "--array-module", default=None,
        choices=["numpy", "cupy", "torch", "auto"],
        help="array backend for the batched state (default numpy; only "
        "numpy carries the bitwise guarantee)",
    )
    run_group.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record structured telemetry to PATH (off by default)",
    )
    run_group.add_argument(
        "--trace-format", choices=["jsonl", "chrome"], default="jsonl",
        help="jsonl = archival event log; chrome = Perfetto timeline "
        "with one lane per rank",
    )
    res_group = parser.add_argument_group(
        "resilience options (dist backend only)"
    )
    res_group.add_argument(
        "--on-failure", choices=["fail", "restart", "shrink"],
        default="fail",
        help="fail = propagate worker failures (default); restart = "
        "respawn at the same rank count from the last shadow checkpoint; "
        "shrink = restart minus the failed rank",
    )
    res_group.add_argument(
        "--max-restarts", type=int, default=3,
        help="restart budget before giving up with the incident log",
    )
    res_group.add_argument(
        "--checkpoint-every", type=int, default=25, metavar="K",
        help="shadow-checkpoint cadence in steps",
    )
    res_group.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="also persist each shadow checkpoint to DIR "
        "(atomic, CRC-verified, keep-last-3)",
    )
    res_group.add_argument(
        "--restart-backoff", type=float, default=0.0, metavar="SECONDS",
        help="initial restart delay, doubled per incident",
    )
    res_group.add_argument(
        "--incident-log", default=None, metavar="PATH",
        help="write the recovery incident log to PATH as JSONL",
    )
    res_group.add_argument(
        "--inject-fault", type=_parse_fault, default=None,
        metavar="RANK:STEP:PHASE:MODE[:REPEAT]",
        help="chaos testing: inject a worker fault, e.g. 1:7:intents:die "
        "(modes: die, error, stall, slow, freeze_heartbeat)",
    )
    serve_group = parser.add_argument_group(
        "serving options (serve/submit/status)"
    )
    serve_group.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (serve) / server address (submit, status)",
    )
    serve_group.add_argument(
        "--port", type=int, default=8642,
        help="server port (0 picks an ephemeral port when serving)",
    )
    serve_group.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job slots on the server",
    )
    serve_group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the result cache to DIR (atomic, per-key "
        "subdirectories); memory-only when omitted",
    )
    serve_group.add_argument(
        "--priority", type=int, default=0,
        help="job priority 0..9; higher may preempt lower classes",
    )
    serve_group.add_argument(
        "--client", default="cli",
        help="client name for fair-share accounting",
    )
    serve_group.add_argument(
        "--watch", action="store_true",
        help="after submit, stream the job's SSE events until it finishes",
    )
    serve_group.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE",
        help="parameter override for submit (repeatable), "
        "e.g. --set virion_production=800",
    )
    serve_group.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="durable job journal under DIR: a restarted server replays "
        "it and finishes interrupted jobs bitwise-identically (also "
        "defaults --cache-dir/--checkpoint-dir to subdirectories)",
    )
    serve_group.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline for submit: the server preempts-then-"
        "fails the job once exceeded (checkpoint preserved)",
    )
    serve_group.add_argument(
        "--retries", type=int, default=3,
        help="restarts per job before giving up "
        "(RestartsExhaustedError, default 3)",
    )
    serve_group.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base of the per-job exponential retry backoff",
    )
    serve_group.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="refuse cold submissions (typed 503 + Retry-After) once N "
        "jobs are queued; unbounded when omitted",
    )
    serve_group.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="per-client cap on active cold jobs (typed 429 + "
        "Retry-After); unbounded when omitted",
    )
    serve_group.add_argument(
        "--hang-timeout", type=float, default=30.0, metavar="SECONDS",
        help="reclaim a worker with no step heartbeat for this long "
        "(the job retries under the restart policy)",
    )
    serve_group.add_argument(
        "--inject-serve-fault", default=None, metavar="JOB:STEP:MODE[:N]",
        help="chaos testing: inject a fault into the JOB-th cold job at "
        "STEP (modes: worker_crash, worker_hang, worker_slow, "
        "server_kill, journal_torn; N = firings across retries)",
    )
    args = parser.parse_args(argv)
    if args.list_configs:
        print(format_run_configs())
        return 0
    if args.experiment is None:
        parser.error("an experiment (or 'run'/'trace'/--list-configs) is "
                     "required")
    if args.experiment == "run":
        return _cmd_run(args)
    if args.experiment == "trace":
        return _cmd_trace(args)
    if args.experiment == "serve":
        return _cmd_serve(args)
    if args.experiment == "submit":
        return _cmd_submit(args)
    if args.experiment == "status":
        return _cmd_status(args)
    try:
        if args.experiment == "all":
            for name in ("table1", "fig4", "fig5", "table2",
                         "fig6", "fig7", "fig8"):
                print(f"\n=== {name} ===")
                COMMANDS[name](args.outdir)
        else:
            COMMANDS[args.experiment](args.outdir)
    except BrokenPipeError:  # piped into head/less that closed early
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

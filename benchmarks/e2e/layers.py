"""Where the spans go and what the per-layer metrics are made of.

``install`` wraps the public seam of each layer of one freshly built
simulation for a single traced repetition; ``derive`` turns the spans
and counts into the ``core.kernels.*`` / ``engine.*`` metrics of
BENCHMARK.json; ``dist_metrics`` and ``checkpoint_metrics`` read the
public accessors of their layers after the run.

Layer stack (module names): ``core.kernels`` -> ``engine.backend`` +
``engine.activity`` -> ``engine.engine`` -> ``engine.driver`` /
``engine.ensemble`` / ``dist`` -> ``io.checkpoint`` -> ``serve``.
"""

from __future__ import annotations

import math
import os

KERNELS = (
    "tcell_intents", "resolve_moves", "resolve_binds", "epithelial_update",
    "production_update", "concentration_update", "concentration_commit",
    "apply_extravasation", "tcell_age", "mirror_fields",
)

#: ``repro.core.kernels`` attribute -> kernel it is booked under.  The
#: ensemble backend calls the staged / batched spellings of two solo
#: kernels; ``resolve_moves`` itself calls the two staged halves.
KERNEL_SEAMS = {
    **{k: k for k in KERNELS},
    "compute_moves": "resolve_moves",
    "commit_moves": "resolve_moves",
    "ensemble_apply_extravasation": "apply_extravasation",
}

BACKEND_PHASES = (
    "age_extravasate", "intents", "resolve", "epithelial", "diffuse",
    "reduce", "tile_sweep",
)


def _block_of(args):
    return next((a for a in args if hasattr(a, "tcell")), None)


def _regions_of(args, kwargs):
    """The region argument(s) of a kernel call: a tuple of slices, or a
    list of them (``concentration_commit``)."""
    def is_region(a):
        return isinstance(a, tuple) and a and isinstance(a[0], slice)

    for a in (*args, *kwargs.values()):
        if is_region(a):
            return [a]
        if isinstance(a, list) and a and is_region(a[0]):
            return a
    return None


def _volume(region, shape) -> int:
    return math.prod(
        len(range(*s.indices(n))) for s, n in zip(region, shape)
    )


def install(tracer, sim, kind: str) -> set[str]:
    """Wrap the layer seams of ``sim``; returns the metric-name prefixes
    whose seam did not resolve (their metrics are reported as None).

    ``dist`` keeps its kernels in worker processes that forked during
    construction, so only the coordinator's backend and engine are
    wrapped there.
    """
    broken: set[str] = set()
    counts = tracer.counts
    backend = getattr(sim, "backend", None)

    def kernel_before(name, args, kwargs, counted=True):
        if not counted or tracer.open_name() == name:
            return  # second half / nested spelling of a counted call
        block = _block_of(args)
        if block is None:
            return
        regions = _regions_of(args, kwargs)
        if regions is None:  # whole-block kernels (mirror_fields)
            voxels = math.prod(block.shape)
        else:
            voxels = sum(_volume(r, block.shape) for r in regions)
        counts[f"{name}.calls"] += 1
        counts[f"{name}.voxels"] += voxels
        if name == "tcell_intents" and regions is not None:
            counts["tcell_intents.agents"] += int(
                (block.tcell[regions[0]] != 0).sum()
            )

    if kind != "dist":
        from repro.core import kernels

        for attr, booked in KERNEL_SEAMS.items():
            counted = attr != "commit_moves"
            ok = tracer.wrap(
                kernels, attr, "kernel", name=booked,
                before=lambda n, a, k, c=counted: kernel_before(n, a, k, c),
            )
            if not ok:
                broken.add(f"core.kernels.{booked}.")
        gate = getattr(backend, "gate", None)
        if not tracer.wrap(gate, "sweep", "gate"):
            broken.add("engine.activity.sweep")
        if gate is not None and hasattr(sim, "add_step_listener"):
            shape = backend.block.shape

            def sample_region(_stats):
                region = gate.region()
                counts["gate.samples"] += 1
                if region is not None:
                    counts["gate.region_voxels"] += _volume(region, shape)

            sim.add_step_listener(sample_region)
        else:
            broken.add("engine.activity.region")
            broken.add("engine.activity.fill")

    def phase_after(_name, result):
        if result is False:
            counts["phase_skips"] += 1

    if not tracer.wrap(
        backend, "execute", "phase",
        name=lambda phase, ctx: phase.name, after=phase_after,
    ):
        broken.add("engine.backend.")
    if not tracer.wrap(getattr(sim, "engine", None), "step", "step"):
        broken.update(("engine.engine.", "engine.driver."))
    return broken


def derive(tracer, sim, total_voxels: int, run_seconds: float) -> dict:
    """The span-derived per-layer metrics of one traced repetition."""
    counts = tracer.counts
    m: dict[str, float] = {}
    for k in KERNELS:
        m[f"core.kernels.{k}.seconds"] = tracer.seconds(
            "kernel", {k}, top_level_only=True
        )
        m[f"core.kernels.{k}.calls"] = counts[f"{k}.calls"]
        m[f"core.kernels.{k}.voxels"] = counts[f"{k}.voxels"]
    swept = counts["tcell_intents.voxels"]
    m["core.kernels.tcell_intents.agents_per_voxel"] = (
        counts["tcell_intents.agents"] / swept if swept else 0.0
    )

    for phase in BACKEND_PHASES:
        m[f"engine.backend.{phase}.seconds"] = tracer.seconds("phase", {phase})
    m["engine.backend.exchange.seconds"] = (
        tracer.seconds("phase")
        - sum(m[f"engine.backend.{p}.seconds"] for p in BACKEND_PHASES)
    )
    m["engine.backend.self_seconds"] = tracer.self_seconds("phase")
    m["engine.backend.phase_skips"] = counts["phase_skips"]

    steps = len(tracer.pick("step"))
    active = _active_voxels(sim)
    region = counts["gate.region_voxels"]
    m["engine.activity.sweeps"] = len(tracer.pick("gate"))
    m["engine.activity.sweep_seconds"] = tracer.seconds("gate")
    m["engine.activity.active_fraction_mean"] = (
        active / (steps * total_voxels) if steps else 0.0
    )
    m["engine.activity.region_fraction_mean"] = (
        region / (counts["gate.samples"] * total_voxels)
        if counts["gate.samples"] else 0.0
    )
    m["engine.activity.fill_ratio"] = active / region if region else 0.0

    step_seconds = tracer.seconds("step")
    m["engine.engine.steps"] = steps
    m["engine.engine.step_seconds"] = step_seconds
    m["engine.engine.self_seconds"] = tracer.self_seconds("step")
    m["engine.engine.self_share"] = (
        m["engine.engine.self_seconds"] / step_seconds if step_seconds else 0.0
    )
    m["engine.driver.run_self_seconds"] = run_seconds - step_seconds
    return m


def _active_voxels(sim) -> float:
    """Active voxels summed over the run's per-step work records."""
    total = 0
    for record in getattr(sim, "step_work", ()):
        if "active_per_rank" in record:
            total += sum(record["active_per_rank"])
        else:
            total += record.get("active_voxels", 0)
    return float(total)


def null_broken(metrics: dict, broken: set[str]) -> dict:
    """Report metrics of an unresolved seam as None, not as a number."""
    return {
        name: None if any(name.startswith(p) for p in broken) else value
        for name, value in metrics.items()
    }


def guarded(tracer, label: str, fn):
    """``fn()``, or None with ``label`` noted as a missing seam when a
    public accessor has moved or changed shape."""
    try:
        return fn()
    except (AttributeError, KeyError, TypeError, IndexError):
        tracer.missing.append(label)
        return None


def dist_metrics(tracer, sim, run_seconds: float, coordinator_seconds: float
                 ) -> dict:
    """``dist.*`` from the runtime's public accessors, read after the
    run while the workers are parked (no wrapper ever crosses the fork)."""
    def read():
        rt = sim.backend.runtime
        per_rank = rt.per_rank_metrics()
        waits = rt.per_rank_wait_seconds()
        pulled, skipped = rt.strip_counts()
        ranks = range(len(per_rank))
        exchanges = [n for n in rt.phase_names if n.endswith("_exchange")]
        # compute only: the kernel phases hold no barrier (their wait
        # columns stay 0), the exchange phases are mostly waiting
        busy = [
            sum(
                sec for n, sec in per_rank[r].seconds.items()
                if n not in exchanges
            )
            for r in ranks
        ]
        mean_busy = sum(busy) / len(busy)
        return {
            "dist.rank_busy_seconds_max": max(busy),
            "dist.rank_busy_seconds_min": min(busy),
            "dist.imbalance_index": (
                max(busy) / mean_busy - 1.0 if mean_busy > 0 else 0.0
            ),
            "dist.wait_seconds.step_start": max(waits["step_start"]),
            "dist.wait_seconds.exchange": max(
                sum(waits[n][r] for n in exchanges) for r in ranks
            ),
            "dist.wait_share": sum(map(sum, waits.values()))
            / (len(busy) * run_seconds),
            "dist.exchange_seconds": max(
                sum(per_rank[r].seconds.get(n, 0.0) for n in exchanges)
                for r in ranks
            ),
            "dist.strips_pulled": pulled,
            "dist.strips_skipped": skipped,
            "dist.coordinator_seconds": coordinator_seconds,
        }

    return guarded(tracer, "dist.runtime accessors", read) or {}


def checkpoint_metrics(tracer, sim, directory) -> dict:
    """``io.checkpoint.*`` on the final state of ``sim``."""
    def read():
        from repro.io import checkpoint

        path = os.path.join(directory, f"ckpt-{os.getpid()}.npz")
        try:
            _, snap = tracer.timed(
                "snapshot_state", "io", checkpoint.snapshot_state, sim
            )
            _, save = tracer.timed(
                "save_checkpoint", "io", checkpoint.save_checkpoint, path, sim
            )
            size = os.path.getsize(path)
            _, load = tracer.timed(
                "load_snapshot", "io", checkpoint.load_snapshot, path
            )
        finally:
            if os.path.exists(path):
                os.unlink(path)
        return {
            "io.checkpoint.snapshot_seconds": snap,
            "io.checkpoint.save_seconds": save,
            "io.checkpoint.load_seconds": load,
            "io.checkpoint.bytes": size,
        }

    return guarded(tracer, "io.checkpoint", read) or {}

"""Fig 4: the optimization breakdown (§3.4).

The paper profiles four SIMCoV-GPU prototypes — Unoptimized, Fast
Reduction, Memory Tiling, Combined — on 4 GPUs with dense activity (1024
FOI) and reports total runtime split into *Update Agents* and *Reduce
Statistics*.

This runner traces one dense workload at reduced scale, counts each
variant's per-step work on the 4-device decomposition
(:func:`repro.perf.work.gpu_step_work`), prices it with the machine model,
and emits the same stacked-bar rows.  Expected shape (the paper's findings):
reductions dominate the unoptimized profile; each optimization helps in
isolation; tiling also improves reductions via locality; the combined
version multiplies the gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.params import SimCovParams
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.perf.costs import gpu_step_seconds
from repro.perf.ledger import GpuVariant
from repro.perf.machine import MachineModel, PERLMUTTER
from repro.perf.work import gpu_step_work
from repro.perf.workload import WorkloadTrace


@dataclass
class ProfilingRow:
    """One Fig 4 bar.

    ``update_seconds``/``reduce_seconds`` are *modeled* times (counted work
    priced by the machine model); ``phase_seconds``/``phase_calls`` are the
    traced run's per-phase host wall-time and invocation counters (the
    engine's ``phase_metrics``, one run shared by every variant), reported
    as measured — they are never rescaled by ``scale_to_paper``.
    """

    variant: GpuVariant
    update_seconds: float
    reduce_seconds: float
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_calls: dict[str, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.update_seconds + self.reduce_seconds


def run_profiling(
    params: SimCovParams | None = None,
    num_devices: int = 4,
    seed: int = 7,
    machine: MachineModel = PERLMUTTER,
    scale_to_paper: bool = True,
) -> list[ProfilingRow]:
    """Profile the four prototypes on a dense-FOI workload.

    ``scale_to_paper`` linearly rescales modeled times so the Combined
    variant's total matches the magnitude of the paper's profiling run
    (~70 s on 4 V100s) — pure presentation; the bar *ratios* are the
    result.
    """
    if params is None:
        # Dense activity: the scaled analog of the paper's 1024-FOI run.
        params = SimCovParams.fast_test(
            dim=(96, 96), num_infections=64, num_steps=60
        )
    trace = WorkloadTrace.record(params, seed=seed)
    decomp = Decomposition.blocks(GridSpec(params.dim), num_devices)
    rows = []
    for variant in GpuVariant:
        update = reduce = 0.0
        for w in gpu_step_work(trace, decomp, variant, tile_shape=(8, 8)):
            cost = gpu_step_seconds(
                machine, w["ledger"], w["active_per_device"], num_devices,
                variant.use_tiling,
            )
            update += cost.update_seconds + cost.sweep_seconds
            reduce += cost.reduce_seconds
        rows.append(
            ProfilingRow(
                variant, update, reduce,
                phase_seconds=dict(trace.phase_metrics.seconds),
                phase_calls=dict(trace.phase_metrics.calls),
            )
        )
    if scale_to_paper:
        combined = next(r for r in rows if r.variant is GpuVariant.COMBINED)
        factor = 70.0 / max(combined.total_seconds, 1e-12)
        rows = [
            ProfilingRow(
                r.variant, r.update_seconds * factor, r.reduce_seconds * factor,
                phase_seconds=r.phase_seconds, phase_calls=r.phase_calls,
            )
            for r in rows
        ]
    return rows


def format_fig4(rows: list[ProfilingRow]) -> str:
    lines = [
        "Fig 4 — SIMCoV-GPU Optimization Breakdown "
        "(modeled seconds; paper shape: reductions dominate Unoptimized,",
        "both optimizations help alone, Combined is fastest)",
        f"{'Version':<16}{'Update Agents':>15}{'Reduce Stats':>15}{'Total':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r.variant.label:<16}{r.update_seconds:>15.2f}"
            f"{r.reduce_seconds:>15.2f}{r.total_seconds:>12.2f}"
        )
    return "\n".join(lines)

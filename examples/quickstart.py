#!/usr/bin/env python
"""Quickstart: run a small SIMCoV infection and print its dynamics.

Simulates a 64x64-voxel slice of lung tissue seeded with 4 foci of
infection using the time-compressed test parameterization, on the
sequential reference implementation, then re-runs the identical
simulation on 4 worker processes and verifies they agree — the
reproduction's headline correctness property — and counts the work
SIMCoV-GPU would issue for it on 4 devices.

Run:  python examples/quickstart.py
"""

# Make `repro` importable when run straight from a checkout (no install):
# fall back to the repo's src/ layout next to this script.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


import numpy as np

from repro import DistSimCov, SequentialSimCov, SimCovParams
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.perf.work import gpu_step_work
from repro.perf.workload import WorkloadTrace


def main():
    params = SimCovParams.fast_test(dim=(64, 64), num_infections=4,
                                    num_steps=300)
    print(f"Grid: {params.dim[0]}x{params.dim[1]} voxels, "
          f"{params.num_infections} FOI, {params.num_steps} steps")

    sim = SequentialSimCov(params, seed=42)
    print("\nstep  virus    healthy  dead   T cells  (sequential)")
    for step in range(params.num_steps):
        stats = sim.step()
        if step % 50 == 0 or step == params.num_steps - 1:
            print(f"{step:>4}  {stats.virions_total:>7.1f}  "
                  f"{stats.healthy:>7.0f}  {stats.dead:>5.0f}  "
                  f"{stats.tcells_tissue:>7.0f}")

    peak_step, peak_virus = sim.series.peak("virions_total")
    print(f"\nViral load peaked at step {peak_step} "
          f"({peak_virus:.1f} total concentration), "
          f"then the T-cell response cleared it — the Fig 5 curve shape.")

    # The same simulation on 4 worker processes is bitwise identical.
    with DistSimCov(params, nranks=4, seed=42) as dist:
        dist.run()
        same = np.array_equal(
            dist.gather_field("epi_state"),
            sim.block.epi_state[sim.block.interior],
        )
    print(f"\n4-rank run reproduces the sequential state bitwise: {same}")

    # What SIMCoV-GPU issues on 4 devices, counted from one traced run.
    trace = WorkloadTrace.record(params, seed=42)
    work = gpu_step_work(trace, Decomposition.blocks(GridSpec(params.dim), 4))[-1]
    ledger = work["ledger"]
    print(f"GPU work last step: {ledger.total_launches()} kernel launches, "
          f"{ledger.copies_intra + ledger.copies_inter} halo copies, "
          f"active fraction {sum(work['active_per_device']) / params.num_voxels:.2f}")


if __name__ == "__main__":
    main()

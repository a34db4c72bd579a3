#!/usr/bin/env python
"""A 3D lung-tissue simulation with fractal branching airways.

§6 of the paper looks toward full-lung 3D runs (~10^13 voxels on exascale
machines) with 'other spatial topologies such as fractal branching
airways ... overlaid on the voxels'.  This example runs the complete 3D
pipeline at desktop scale:

- a 3D voxel volume with a dichotomous branching-airway tree (empty
  voxels — no epithelium, but virions/signal/T cells pass through);
- infection seeded next to the airway, simulated on 8 worker processes
  (2x2x2 block decomposition with 26-neighbor halo exchange);
- a checkpoint written mid-run, then resumed on the sequential
  implementation — bitwise identically — whose restored series carries
  the first half, so one CSV holds the whole run's per-step statistics;
- the halo traffic SIMCoV-GPU would issue on 8 devices, counted from a
  traced run;
- a 2D slice of the final state rendered.

Run:  python examples/lung_3d.py
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
from repro.core.structure import branching_airways_3d
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.io import load_checkpoint, save_checkpoint, save_timeseries
from repro.perf.work import gpu_step_work
from repro.perf.workload import WorkloadTrace


def main():
    params = SimCovParams.fast_test(dim=(20, 20, 20), num_infections=3,
                                    num_steps=120)
    spec = GridSpec(params.dim)
    airways = branching_airways_3d(spec, generations=3, trunk_radius=1)
    print(f"3D volume: {params.dim}, {len(airways)} airway voxels "
          f"({len(airways) / spec.num_voxels:.1%}), "
          f"{params.num_infections} FOI, 8 ranks (2x2x2)")

    with DistSimCov(params, nranks=8, seed=21, structure_gids=airways) as dist:
        dist.run(60)
        save_checkpoint("results/lung3d_ck.npz", dist)
        virus = dist.series[-1].virions_total
    trace = WorkloadTrace.record(params.with_(num_steps=60), seed=21,
                                 structure_gids=airways)
    work = gpu_step_work(trace, Decomposition.blocks(spec, 8), tile_shape=(5, 5, 5))
    copies = sum(w["ledger"].copies_intra + w["ledger"].copies_inter for w in work)
    print(f"ran 60 steps on 8 ranks, checkpointed; virus={virus:.1f}, "
          f"halo copies SIMCoV-GPU issues on 8 devices so far={copies}")

    # Resume the *same* physical run on the sequential implementation.
    resumed = load_checkpoint(
        "results/lung3d_ck.npz",
        make_sim=lambda p, s, g: SequentialSimCov(p, seed=s, seed_gids=g),
    )
    resumed.run(60)
    save_timeseries("results/lung3d_stats.csv", resumed.series)

    # Control: the same run uninterrupted.
    control = SequentialSimCov(params, seed=21, structure_gids=airways)
    control.run(120)
    same = np.array_equal(
        resumed.block.epi_state[resumed.block.interior],
        control.gather_field("epi_state"),
    )
    print(f"8-rank checkpoint -> sequential resume matches the uninterrupted "
          f"run bitwise: {same}")

    # Render the mid-depth slice of the final state.
    from repro.core.state import VoxelBlock
    from repro.experiments.viz import render_world

    slice_spec = GridSpec(params.dim[:2])
    slice_block = VoxelBlock(slice_spec, slice_spec.domain)
    z = params.dim[2] // 2
    slice_block.epi_state[slice_block.interior] = (
        resumed.block.epi_state[resumed.block.interior][:, :, z]
    )
    slice_block.tcell[slice_block.interior] = (
        resumed.block.tcell[resumed.block.interior][:, :, z]
    )
    print(f"\nFinal state, z={z} slice:")
    print(render_world(slice_block, max_width=40))


if __name__ == "__main__":
    main()

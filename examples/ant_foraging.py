#!/usr/bin/env python
"""A different ABM on the same substrate: ant-like foragers.

§6 of the paper: 'according to forks of the public repository, [SIMCoV]
is already being used as a platform for creating other ABMs.  These ABMs
include a simulation of large populations of ant-like foragers ...
SIMCoV-GPU will provide a straightforward path for these models to run on
exascale supercomputers.'

This example demonstrates exactly that reuse: a foraging ABM — mobile
ants that walk (randomly, or uphill on a pheromone gradient), compete for
voxels with the SIMCoV-GPU bid tiebreak, around food that emits a
diffusing pheromone field — built from this package's substrates:

- the voxel grid, ghost-padded blocks and Moore stencils (repro.grid);
- the counter RNG keyed by voxel id (repro.rng);
- the diffusion kernel (repro.diffusion);
- the *actual* tiebreak kernels (IntentArrays, compute_moves,
  commit_moves) from repro.core.kernels — the model-specific code below
  is only the direction policy and the food bookkeeping.

Run:  python examples/ant_foraging.py
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

from repro.core.kernels import IntentArrays, commit_moves, compute_moves
from repro.core.state import VoxelBlock
from repro.diffusion.stencil import decay_field, diffuse_padded, mirror_pad
from repro.grid.spec import GridSpec, moore_offsets
from repro.rng.streams import Stream, VoxelRNG

SIZE = 64
ANTS = 120
FOOD_SITES = 3
STEPS = 200
PHEROMONE_DIFFUSION = 0.6
PHEROMONE_DECAY = 0.02
SENSE_PROB = 0.8  # chance an ant follows the gradient when signal present


def ant_intents(block, intents, rng, step, direction):
    """Write move intents + bids for the chosen ``direction`` array —
    identical structure to SIMCoV's T-cell movement kernel, minus binding."""
    region = block.interior
    offsets = moore_offsets(2)
    ants = block.tcell[region] != 0
    bids = rng.bids(step, block.gid[region])
    blocked = np.zeros_like(ants)
    for k, off in enumerate(offsets):
        sel = ants & (direction == k)
        if not sel.any():
            continue
        occupied = block.tcell[_shift(region, off)] != 0
        outside = ~block.in_domain[_shift(region, off)]
        blocked |= sel & (occupied | outside)
    ok = ants & ~blocked
    intents.move_dir[region][ok] = direction[ok].astype(np.int8)
    intents.bid_self[region][ok] = bids[ok]
    for k, off in enumerate(offsets):
        mask = ok & (direction == k)
        if not mask.any():
            continue
        view = intents.move_bid[_shift(region, off)]
        view[mask] = np.maximum(view[mask], bids[mask])


def _shift(region, off):
    """``region`` (bounded slices) moved by the integer offset ``off``."""
    return tuple(slice(s.start + o, s.stop + o) for s, o in zip(region, off))


def main():
    spec = GridSpec((SIZE, SIZE))
    block = VoxelBlock(spec, spec.domain)
    rng = VoxelRNG(99)
    offsets = moore_offsets(2)

    # Ants live in the T-cell occupancy field (one agent per voxel).
    setup = np.random.default_rng(5)
    idx = setup.choice(spec.num_voxels, size=ANTS, replace=False)
    block.tcell[block.interior].reshape(-1)  # (view check only)
    coords = spec.unravel(idx) + 1  # padded coords
    block.tcell[tuple(coords.T)] = 1
    block.tcell_tissue_time[tuple(coords.T)] = 10**6

    pheromone = np.zeros(spec.shape)
    food = np.zeros(spec.shape, dtype=bool)
    food.reshape(-1)[setup.choice(spec.num_voxels, size=FOOD_SITES)] = True

    intents = IntentArrays(block.shape)
    gid = block.gid[block.interior]
    visits = 0
    for step in range(STEPS):
        # Food emits pheromone; the field diffuses and decays (the SIMCoV
        # chemokine kernels, verbatim).
        pheromone[food] = 1.0
        pheromone = diffuse_padded(mirror_pad(pheromone), PHEROMONE_DIFFUSION)
        decay_field(pheromone, PHEROMONE_DECAY)

        # Direction policy: follow the local gradient with SENSE_PROB when
        # signal exists, else walk randomly — all keyed by voxel id.
        padded = np.pad(pheromone, 1, mode="edge")
        nb = np.stack(
            [padded[1 + o[0]:SIZE + 1 + o[0], 1 + o[1]:SIZE + 1 + o[1]]
             for o in offsets],
            axis=-1,
        )
        best_dir = np.argmax(nb, axis=-1)
        rand_dir = rng.randint(Stream.TCELL_DIRECTION, step, gid, len(offsets))
        sense = rng.uniform(Stream.TCELL_BIND_TRY, step, gid) < SENSE_PROB
        has_signal = nb.max(axis=-1) > 1e-4
        direction = np.where(sense & has_signal, best_dir, rand_dir)

        # Choose + bid + resolve + move: the SIMCoV-GPU §3.1 machinery.
        intents.clear()
        ant_intents(block, intents, rng, step, direction)
        commit_moves(block, compute_moves(block, intents, block.interior))

        visits += int(((block.tcell[block.interior] == 1) & food).sum())

    n = int(block.tcell[block.interior].sum())
    print(f"Foraging ABM on the SIMCoV substrate: {ANTS} ants, "
          f"{FOOD_SITES} food sites, {STEPS} steps")
    print(f"  ants after {STEPS} conflict-resolved steps: {n} "
          f"(conservation: {'OK' if n == ANTS else 'VIOLATED'})")
    print(f"  occupancy invariant (<=1 ant/voxel): "
          f"{'OK' if block.tcell.max() <= 1 else 'VIOLATED'}")
    print(f"  cumulative food-site visits: {visits}")
    print("Same substrates, different model — the §6 platform claim.")
    assert n == ANTS


if __name__ == "__main__":
    main()

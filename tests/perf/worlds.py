"""The worlds and decompositions the counted-work fixture covers.

``counted_work.json`` holds, per config and per step, the work the
executing PGAS and GPU substrates counted for these worlds;
``test_counted_work.py`` derives the same numbers from one single-block
trace per world.  The crowd helpers also seed the cross-boundary tiebreak
test in ``tests/dist``.
"""

import numpy as np

from repro.core.params import SimCovParams
from repro.core.state import EpiState
from repro.core.structure import branching_airways_3d
from repro.grid.spec import GridSpec


def crowd_tcells(blocks, spec, density=0.35, seed=13, life=10_000):
    """Place a dense T-cell crowd into block state, identical for any
    decomposition (ghost copies included)."""
    coords = np.argwhere(np.random.default_rng(seed).random(spec.shape) < density)
    for block in blocks:
        local = coords - np.array(block.origin)
        ok = np.all((local >= 0) & (local < np.array(block.shape)), axis=1)
        sel = tuple(local[ok].T)
        block.tcell[sel] = 1
        block.tcell_tissue_time[sel] = life
        block.tcell_bound_time[sel] = 0


def infect_band(blocks, spec, rows, timer=10_000):
    """A band of expressing cells (bind targets) across the domain."""
    for block in blocks:
        for x in rows:
            g = np.array([[x, y] for y in range(spec.shape[1])])
            local = g - np.array(block.origin)
            ok = np.all((local >= 0) & (local < np.array(block.shape)), axis=1)
            sel = tuple(local[ok].T)
            block.epi_state[sel] = EpiState.EXPRESSING
            block.epi_timer[sel] = timer


def crowd(blocks, spec):
    """The crowded world's state: T cells everywhere, binds on the seam
    of a 2x2 decomposition of 24x24."""
    crowd_tcells(blocks, spec)
    infect_band(blocks, spec, rows=(11, 12))


def world(name):
    """``(params, seed, driver kwargs, setup)``; ``setup(blocks, spec)``
    rewrites the seeded state before the first step, or is None."""
    if name == "focus_2d":
        p = SimCovParams.fast_test(dim=(48, 48), num_infections=4, num_steps=60)
        return p.with_(tcell_initial_delay=20), 3, {}, None
    if name == "lung_3d":
        p = SimCovParams.fast_test(dim=(20, 20, 20), num_infections=3, num_steps=40)
        airways = branching_airways_3d(GridSpec(p.dim), generations=3, trunk_radius=1)
        return p.with_(tcell_initial_delay=10), 21, {"structure_gids": airways}, None
    if name == "crowd_2d":
        p = SimCovParams.fast_test(dim=(24, 24), num_infections=0, num_steps=40)
        return p.with_(tcell_generation_rate=0.0, infectivity=0.0), 3, {}, crowd
    raise KeyError(name)


WORLDS = ("focus_2d", "lung_3d", "crowd_2d")


def _gpu(world, devices, decomp="block", variant="combined", tile=(8, 8), gpn=4):
    return {"kind": "gpu", "world": world, "n": devices, "decomposition": decomp,
            "variant": variant, "tile": list(tile), "gpus_per_node": gpn}


def _cpu(world, nranks, decomp="block", rpn=128, gating=True):
    return {"kind": "cpu", "world": world, "n": nranks, "decomposition": decomp,
            "ranks_per_node": rpn, "active_gating": gating}


VARIANTS = ("unoptimized", "fast_reduction", "memory_tiling", "combined")

#: Every config of the fixture, in its order.
CONFIGS = (
    [_gpu("focus_2d", n, variant=v) for n in (1, 4) for v in VARIANTS]
    + [
        _gpu("focus_2d", n, decomp=d, tile=t, gpn=g)
        for n in (2, 4)
        for d in ("block", "linear")
        for t, g in (((3, 3), 1), ((8, 8), 4))
    ]
    + [
        _gpu("focus_2d", 2, "linear", "memory_tiling", (3, 3), 1),
        _gpu("focus_2d", 4, "block", "fast_reduction", (3, 3), 1),
        _gpu("lung_3d", 8, tile=(5, 5, 5), gpn=4),
        _gpu("lung_3d", 8, tile=(5, 5, 5), gpn=1, variant="memory_tiling"),
        _gpu("lung_3d", 4, decomp="linear", tile=(5, 5, 5), gpn=1),
        _gpu("lung_3d", 2, variant="unoptimized", tile=(5, 5, 5)),
        _gpu("crowd_2d", 4, tile=(3, 3), gpn=1),
        _gpu("crowd_2d", 2, decomp="linear", variant="fast_reduction", tile=(8, 8)),
    ]
    + [
        _cpu("focus_2d", n, decomp=d, rpn=r, gating=g)
        for n in (1, 2, 4)
        for d in ("block", "linear")
        for r, g in ((2, True), (128, False))
    ]
    + [
        _cpu("focus_2d", 4, rpn=2, gating=False),
        _cpu("focus_2d", 4, decomp="linear", rpn=128, gating=True),
        _cpu("lung_3d", 8, rpn=2),
        _cpu("lung_3d", 8, decomp="linear", gating=False),
        _cpu("lung_3d", 4, rpn=2),
        _cpu("crowd_2d", 4, rpn=2),
        _cpu("crowd_2d", 2, decomp="linear", gating=False),
        _cpu("crowd_2d", 4, decomp="linear", rpn=2),
    ]
)

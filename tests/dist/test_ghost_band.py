"""The ghost band: as deep as one step's dependency cone, and no deeper.

A dist rank steps its owned voxels plus a band
:func:`~repro.engine.sequential.step_reach` deep, pulled once before the
step.  These tests pin the band from both sides: narrowed by one it
breaks bitwise agreement with the sequential run, and at its derived
width it holds on worlds built to stress its edges — a focus in a domain
corner, whose chemokine reaches the domain edge where the band is cut
short, on 2D and 3D block and linear decompositions.  A rank accounts
for the voxels it owns only: every box it publishes lies inside them.
"""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.dist import DistSimCov
from repro.dist.worker import RankBackend
from repro.engine import sequential
from repro.grid.decomposition import DecompositionKind
from repro.io.checkpoint import restore_state, snapshot_state
from tests.perf.worlds import crowd, world

FIELDS = (
    "epi_state", "epi_timer", "virions", "chemokine",
    "tcell", "tcell_tissue_time", "tcell_bound_time",
)


def _mismatches(sim, ref) -> list[str]:
    return [
        f for f in FIELDS
        if not np.array_equal(sim.gather_field(f), ref.gather_field(f))
    ]


def test_reach_is_three():
    """The cone: a mover's target bid, its contender one voxel further,
    and that contender's Moore neighbourhood."""
    assert sequential.step_reach() == 3


def test_a_band_one_narrower_breaks_bitwise(monkeypatch):
    """Pretend a bid reads one voxel less: the derived band shrinks to 2,
    the rank's own check accepts it, and the crowded seam world no longer
    matches the sequential run at 2 ranks."""
    monkeypatch.setitem(
        sequential.READS, "intents", {"M": {"T": 1, "E": 1}, "B": {"T": 1, "E": 1}}
    )
    assert sequential.step_reach() == 2
    params, seed, _, _ = world("crowd_2d")
    ref = SequentialSimCov(params, seed=seed)
    crowd([ref.block], ref.spec)
    snap = snapshot_state(ref)
    ref.run(12)
    with DistSimCov(params, nranks=2, seed=seed) as sim:
        restore_state(sim, snap)
        sim.run(12)
        assert sim.backend.exchanger.ghost == 2
        assert _mismatches(sim, ref)


def test_a_rank_refuses_a_band_short_of_the_reach(monkeypatch):
    """The width check where the rank block is built: a band laid out
    for reach 3 is refused once the kernels read farther."""
    params = SimCovParams.fast_test(dim=(12, 12), num_infections=1, num_steps=1)
    with DistSimCov(params, nranks=2) as dist:
        spec = dist.backend.runtime.worker_spec(0)
        monkeypatch.setitem(sequential.READS, "diffuse", {"C": {"C": 2}})
        with pytest.raises(ValueError, match="narrower than one step's reach"):
            RankBackend(spec)


CORNER_WORLDS = {
    "2d": SimCovParams.fast_test(dim=(20, 16), num_infections=0, num_steps=70),
    "3d": SimCovParams.fast_test(dim=(10, 8, 8), num_infections=0, num_steps=50),
}


@pytest.fixture(scope="module")
def corner_runs():
    """Per world: params, the corner focus, and the sequential run."""
    runs = {}
    for name, params in CORNER_WORLDS.items():
        params = params.with_(tcell_initial_delay=5)
        seeds = np.array([0], dtype=np.int64)  # the domain's first corner
        ref = SequentialSimCov(params, seed=7, seed_gids=seeds)
        ref.run()
        runs[name] = params, seeds, ref
    return runs


@pytest.mark.parametrize("name", sorted(CORNER_WORLDS))
def test_the_corner_world_reaches_the_edges(corner_runs, name):
    """Precondition: the focus spreads past the corner, its chemokine
    lies on the domain's faces, and T cells are in the tissue."""
    _, _, ref = corner_runs[name]
    chemokine = ref.gather_field("chemokine")
    ndim = chemokine.ndim
    for axis in range(ndim):
        face = np.take(chemokine, 0, axis=axis)
        assert (face > 0).sum() > 1, axis
    assert ref.gather_field("tcell").any()
    assert sum(s.moves for s in ref.series) > 0


@pytest.mark.parametrize("kind", list(DecompositionKind))
@pytest.mark.parametrize("ranks", [2, 4])
@pytest.mark.parametrize("name", sorted(CORNER_WORLDS))
def test_a_corner_focus_is_bitwise_sequential(corner_runs, name, ranks, kind):
    """Where the band meets a domain edge it is cut short, and the one
    no-flux ring beyond it is all a rank reads there: every field is
    the sequential run's, at every step's statistics too."""
    params, seeds, ref = corner_runs[name]
    with DistSimCov(
        params, nranks=ranks, seed=7, seed_gids=seeds, decomposition=kind
    ) as sim:
        sim.run()
        assert _mismatches(sim, ref) == []
        assert list(sim.series) == list(ref.series)


def test_published_boxes_lie_in_the_owned_boxes():
    """The band is another rank's truth: what a rank publishes — the box
    its peers gate their pulls on and the coordinator copies floats
    from — covers its owned voxels only, even when its region reaches
    into the band."""
    params = SimCovParams.fast_test(dim=(24, 24), num_infections=0, num_steps=40)
    params = params.with_(tcell_initial_delay=5)
    seeds = np.array([11 * 24 + 11, 12 * 24 + 12], dtype=np.int64)  # the seam
    with DistSimCov(params, nranks=4, seed=3, seed_gids=seeds) as sim:
        ctrl, boxes = sim.backend.runtime.ctrl, sim.backend.decomp.boxes
        live = 0
        for _ in range(params.num_steps):
            sim.step()
            for rank, owned in enumerate(boxes):
                box = ctrl.read_region(rank, 2)
                if box is not None:
                    live += 1
                    assert box.intersect(owned) == box, (rank, box, owned)
        assert live > 0

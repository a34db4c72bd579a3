"""Property test: after every mirror the no-flux ghost ring is what a whole
mirror gives.

``kernels.mirror_fields`` mirrors only the out-of-domain faces whose edge
layer this step's region or the last mirrored one reaches, and every face
after a restore (DESIGN.md §4, "The no-flux mirror").  The seam is wrapped
here: after each call both fields of the block must equal a copy mirrored
whole by :func:`~repro.diffusion.stencil.mirror_out_of_domain`, which
writes that ring and nothing else.  Covered, on both tiers: 2-D and 3-D
solo runs and a 3-member batch, a focus on an edge beside one in the
middle, signal on an edge that dies away while the middle focus stays (a
region that leaves the edge: a mirror for the written region only), a
snapshot restored mid-run, and the kernel's rule for a written region
alone.  Mutation-checked: ignoring ``written`` fails the last case.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.state import VoxelBlock
from repro.engine.ensemble import EnsembleSimCov
from repro.diffusion.stencil import mirror_out_of_domain
from repro.grid.spec import GridSpec
from repro.io.checkpoint import restore_state, snapshot_state


@pytest.fixture
def mirrors(monkeypatch):
    """Each ``mirror_fields`` call, checked: the faces its ``region`` and its
    ``written`` reach (none for None), or None for a whole mirror."""
    log, mirror = [], kernels.mirror_fields

    def checked(block, region=None, written=None):
        mirror(block, region, written)
        for name in ("virions", "chemokine"):
            whole = getattr(block, name).copy()
            mirror_out_of_domain(whole, block.owned, block.spec.domain, block.ghost)
            assert np.array_equal(getattr(block, name), whole), (name, len(log))
        log.append(None if region is None else tuple(
            0 if r is None else kernels._faces(block, r, None) for r in (region, written)))

    monkeypatch.setattr(kernels, "mirror_fields", checked)
    return log


def _foci(dim, *points):
    return GridSpec(dim).ravel(np.array(points))


def _run(sim, steps, cut):
    """``steps`` steps, with the state at step ``cut`` restored at the end
    of step ``cut + 3`` (a whole mirror) and the run finished from there."""
    for _ in range(cut):
        sim.step()
    snap = snapshot_state(sim)
    for _ in range(3):
        sim.step()
    restore_state(sim, snap)
    for _ in range(steps - cut):
        sim.step()


@pytest.mark.parametrize("dim, points", [
    ((40, 48), [(0, 20), (20, 24)]),
    ((12, 14, 16), [(0, 7, 8), (6, 7, 15)]),
], ids=["2d", "3d"])
def test_solo_run_with_a_focus_on_an_edge(mirrors, tier, dim, points):
    params = SimCovParams.fast_test(dim=dim, num_infections=len(points), num_steps=30)
    _run(SequentialSimCov(params, seed=5, seed_gids=_foci(dim, *points)), 30, 12)
    assert mirrors.count(None) == 1  # the restore's
    assert all(faces is None or faces[0] & 0b1 for faces in mirrors)  # the focus's edge


def test_a_batch_with_a_focus_on_an_edge(mirrors, tier):
    dim = (32, 36)
    params = SimCovParams.fast_test(dim=dim, num_infections=1, num_steps=24)
    foci = [_foci(dim, p) for p in [(0, 5), (16, 18), (31, 35)]]
    _run(EnsembleSimCov(params, seeds=[1, 2, 3], seed_gids=foci), 24, 10)
    assert mirrors[0][0] == 0b1111  # the union region reaches every face


def test_a_region_that_leaves_an_edge(mirrors, tier):
    """Signal on an edge voxel fades below the threshold within a sweep
    period while the focus in the middle lives on: once the region has
    left the edge, a mirror reaches that face for the written region only
    — the commit of the step before wrote its edge layer."""
    dim = (64, 64)
    params = SimCovParams.fast_test(dim=dim, num_infections=1, num_steps=30)
    sim = SequentialSimCov(params, seed=5, seed_gids=_foci(dim, (32, 32)))
    sim.block.chemokine[1, 30] = 1e-4  # swept before the first step
    _run(sim, 30, 20)
    assert mirrors[0][0] == 0b01  # the low face of the first axis
    assert any(region == 0 and written == 0b01 for region, written in mirrors)


def test_a_face_only_the_written_region_reaches(mirrors, tier):
    """The kernel's own rule, where a run cannot show it (a changed edge
    keeps the region on its face: the edge or its stale ghost is active):
    an edge voxel written after the mirror for ``written`` is mirrored
    though this step's region is in the middle."""
    spec = GridSpec((16, 18))
    block = VoxelBlock(spec, spec.domain)
    edge, middle = (slice(1, 5), slice(3, 9)), (slice(6, 10), slice(6, 10))
    kernels.mirror_fields(block, edge)
    block.virions[1, 4] = 0.5  # the commit after that mirror
    kernels.mirror_fields(block, middle, edge)
    assert mirrors == [(0b01, 0), (0, 0b01)] and block.virions[0, 4] == 0.5

"""Ensemble <-> checkpoint round trips.

A batched run's member view duck-types the checkpoint save surface, so
``save_checkpoint(path, sim.member(b))`` must produce a file that
restores into the continuation of member ``b``'s *solo* run — the
cross-implementation resume guarantee extended to the ensemble backend.
"""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.engine.ensemble import EnsembleSimCov, expand_sweep
from repro.io.checkpoint import CHECKPOINT_FIELDS, load_checkpoint, save_checkpoint

SERIES_FIELDS = (
    "healthy", "dead", "tcells_tissue", "virions_total",
    "tcells_vasculature", "extravasations",
)


@pytest.fixture(scope="module")
def batched():
    """A 3-member sweep run paused at step 40."""
    base = SimCovParams.fast_test(dim=(16, 16), num_infections=2, num_steps=70)
    members = expand_sweep(base, "num_infections", [1, 2, 3])
    sim = EnsembleSimCov(members, seeds=[5, 6, 7])
    sim.run(40)
    return members, sim


class TestEnsembleCheckpoint:
    def test_member_view_exposes_save_surface(self, batched):
        members, sim = batched
        view = sim.member(1)
        assert view.params == members[1]
        assert view.step_num == 40
        assert view.rng.seed == 6
        assert view.pool == float(sim.pool[1])
        assert len(view.series) == 40

    def test_saved_member_restores_into_solo_continuation(
        self, batched, tmp_path
    ):
        members, sim = batched
        for b in range(3):
            path = str(tmp_path / f"member{b}.npz")
            save_checkpoint(path, sim.member(b))
            restored = load_checkpoint(path)
            assert restored.step_num == 40
            # Restored state must equal the member's batched state ...
            for name in CHECKPOINT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(restored.block, name)[restored.block.interior],
                    sim.gather_field(name, member=b),
                    err_msg=f"member {b} field {name}",
                )
            # ... and continuing solo must match the uninterrupted solo run.
            restored.run(30)
            solo = SequentialSimCov(members[b], seed=5 + b)
            solo.run(70)
            for name in CHECKPOINT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(restored.block, name)[restored.block.interior],
                    getattr(solo.block, name)[solo.block.interior],
                    err_msg=f"member {b} field {name} after resume",
                )
            for i in range(40, 70):
                assert restored.series[i - 40] == solo.series[i], (
                    f"member {b} stats diverged at step {i}"
                )

    def test_batched_continuation_matches_solo_after_checkpoint(
        self, batched, tmp_path
    ):
        """The batched run itself continues past the checkpoint bitwise."""
        members, sim = batched
        path = str(tmp_path / "member2.npz")
        save_checkpoint(path, sim.member(2))
        sim.run(30)  # continue the batched run to step 70
        restored = load_checkpoint(path)
        restored.run(30)
        for name in CHECKPOINT_FIELDS:
            np.testing.assert_array_equal(
                getattr(restored.block, name)[restored.block.interior],
                sim.gather_field(name, member=2),
                err_msg=name,
            )


class TestWholeBatchRefused:
    @pytest.mark.parametrize("seeds", [[0, 1], [0]])
    def test_save_checkpoint_points_at_member_view(self, seeds, tmp_path):
        """A whole batch has one pool and one field set per member, so it
        is not one checkpointable state: the refusal names the member
        view instead of failing inside the snapshot."""
        sim = EnsembleSimCov(SimCovParams.fast_test(dim=(16, 16)), seeds=seeds)
        sim.run(2)
        path = str(tmp_path / "batch.npz")
        with pytest.raises(TypeError, match=r"sim\.member\(b\)"):
            save_checkpoint(path, sim)
        save_checkpoint(path, sim.member(0))
        assert load_checkpoint(path).step_num == 2

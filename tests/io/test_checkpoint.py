"""Tests for checkpoint/restore (resuming across rank counts:
``tests/dist/test_dist_checkpoint.py``)."""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.io.checkpoint import CHECKPOINT_FIELDS, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def reference():
    """An uninterrupted 100-step run, with a checkpoint taken at step 60."""
    p = SimCovParams.fast_test(dim=(24, 24), num_infections=2, num_steps=100)
    sim = SequentialSimCov(p, seed=77)
    sim.run(60)
    return p, sim


class TestSaveLoad:
    def test_roundtrip_state(self, reference, tmp_path):
        p, sim = reference
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, sim)
        restored = load_checkpoint(path)
        assert restored.step_num == 60
        assert restored.pool == sim.pool
        assert restored.params == p
        for name in CHECKPOINT_FIELDS:
            np.testing.assert_array_equal(
                getattr(restored.block, name)[restored.block.interior],
                getattr(sim.block, name)[sim.block.interior],
                err_msg=name,
            )

    def test_version_checked(self, reference, tmp_path):
        p, sim = reference
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, sim)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)


class TestResumeExactness:
    def _finish(self, sim, steps):
        for _ in range(steps):
            last = sim.step()
        return last

    def test_resume_sequential_matches_uninterrupted(self, reference, tmp_path):
        p, sim60 = reference
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, sim60)
        # Uninterrupted control.
        control = SequentialSimCov(p, seed=77)
        control.run(100)
        resumed = load_checkpoint(path)
        last = self._finish(resumed, 40)
        assert last == control.series[99]
        np.testing.assert_array_equal(
            resumed.block.epi_state, control.block.epi_state
        )
        np.testing.assert_array_equal(resumed.block.tcell, control.block.tcell)

    def test_resume_through_gated_path(self, tmp_path):
        """Resume works through the active-region fast path: the gate is
        not checkpointed (a resumed gate starts all-active and stale, and
        its first step sweeps it), so a gated run saved mid-run —
        deliberately *between* sweeps, so that first-use sweep covers a
        short interval — must still match both the uninterrupted gated
        run and the ungated ground truth."""
        total = 50
        p = SimCovParams.fast_test(dim=(96, 96), num_infections=1,
                                   num_steps=total)
        sim = SequentialSimCov(p, seed=9)
        period = sim.gate.sweep_period
        assert period > 1
        save_at = 2 * period + 3  # mid sweep interval
        sim.run(save_at)
        assert sim.gate.region() != sim.block.interior  # gating engaged
        path = str(tmp_path / "gated.npz")
        save_checkpoint(path, sim)

        control = SequentialSimCov(p, seed=9)
        control.run(total)
        ungated = SequentialSimCov(p, seed=9, active_gating=False)
        ungated.run(total)

        resumed = load_checkpoint(path)
        assert resumed.gate.region() == resumed.block.interior  # all-active
        last = self._finish(resumed, total - save_at)
        assert last == control.series[total - 1]
        assert last == ungated.series[total - 1]
        for name in CHECKPOINT_FIELDS:
            np.testing.assert_array_equal(
                getattr(resumed.block, name), getattr(control.block, name),
                err_msg=name,
            )
            np.testing.assert_array_equal(
                getattr(resumed.block, name), getattr(ungated.block, name),
                err_msg=name,
            )

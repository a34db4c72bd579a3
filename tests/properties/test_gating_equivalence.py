"""Property test: activity gating never changes the simulation.

For randomized small parameterizations, seeds, tile shapes and sweep
periods, a gated sequential run must be **bitwise identical** to a
force-ungated run — same voxel state and same time series at *every*
step, not just the last.  This is the correctness contract that lets the
active-region fast path exist at all: randomness is keyed by global
voxel id (counter-based, stateless per draw), so skipping provably
quiescent space consumes no draws and perturbs nothing.

The gated run also confines the T-cell phases to the box around present
T cells while the ungated run sweeps the whole domain, so the draws keep
incubation short and the T-cell supply early: any run with an infection
then spends most of its steps with T cells in the tissue.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st, target

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every mutable voxel field (the gate must not perturb any of them).
STATE_FIELDS = (
    "epi_state", "epi_timer", "virions", "chemokine",
    "tcell", "tcell_tissue_time", "tcell_bound_time",
)


def _random_params(draw):
    side = draw(st.integers(min_value=10, max_value=28))
    foi = draw(st.integers(min_value=0, max_value=3))
    return SimCovParams.fast_test(
        dim=(side, side), num_infections=foi, num_steps=30,
    ).with_(
        infectivity=draw(st.floats(min_value=0.0, max_value=1.0)),
        virion_production=draw(st.floats(min_value=0.0, max_value=2.0)),
        incubation_period=draw(st.integers(min_value=1, max_value=8)),
        tcell_initial_delay=draw(st.integers(min_value=0, max_value=10)),
        tcell_generation_rate=draw(st.floats(min_value=5.0, max_value=40.0)),
    )


class TestGatingEquivalence:
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_gated_run_bitwise_identical_every_step(self, data, seed):
        p = _random_params(data.draw)
        side = p.dim[0]
        tile = data.draw(st.integers(min_value=2, max_value=min(8, side)))
        period = data.draw(st.integers(min_value=1, max_value=tile))
        gated = SequentialSimCov(p, seed=seed, tile_shape=(tile, tile),
                                 sweep_period=period)
        ungated = SequentialSimCov(p, seed=seed, active_gating=False)
        tcell_steps = 0
        for step in range(30):
            sg, su = gated.step(), ungated.step()
            assert sg == su, f"stats diverged at step {step}"
            tcell_steps += su.tcells_tissue > 0
            for name in STATE_FIELDS:
                assert np.array_equal(
                    getattr(gated.block, name), getattr(ungated.block, name)
                ), f"{name} diverged at step {step} (tile={tile}, period={period})"
        target(float(tcell_steps), label="steps with T cells in the tissue")

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_3d_gated_run_bitwise_identical(self, seed):
        p = SimCovParams.fast_test(
            dim=(10, 10, 10), num_infections=2, num_steps=24,
        ).with_(incubation_period=3, tcell_initial_delay=0)
        gated = SequentialSimCov(p, seed=seed, tile_shape=(3, 3, 3),
                                 sweep_period=3)
        ungated = SequentialSimCov(p, seed=seed, active_gating=False)
        for step in range(24):
            assert gated.step() == ungated.step(), f"step {step}"
        for name in STATE_FIELDS:
            np.testing.assert_array_equal(
                getattr(gated.block, name), getattr(ungated.block, name),
                err_msg=name,
            )

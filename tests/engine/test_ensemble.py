"""Tests for the batched ensemble backend (N sims as one program)."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.model import SequentialSimCov
from repro.core.params import ParamsStack, SimCovParams
from repro.core.state import EnsembleBlock
from repro.engine.ensemble import (
    EnsembleSimCov,
    expand_sweep,
)
from repro.grid.spec import GridSpec
from repro.rng.streams import EnsembleRNG, VoxelRNG

STATE_FIELDS = (
    "epi_state", "epi_timer", "virions", "chemokine",
    "tcell", "tcell_tissue_time", "tcell_bound_time",
)
SERIES_FIELDS = (
    "healthy", "incubating", "expressing", "apoptotic", "dead",
    "tcells_tissue", "virions_total", "chemokine_total",
    "tcells_vasculature", "extravasations", "binds", "moves", "infected",
)


def _params(dim=(16, 16), foi=2, steps=60):
    return SimCovParams.fast_test(
        dim=dim, num_infections=foi, num_steps=steps,
    )


def _assert_member_matches_solo(ens, b, solo):
    for f in SERIES_FIELDS:
        np.testing.assert_array_equal(
            ens.member_series[b].field(f), solo.series.field(f),
            err_msg=f"series field {f}, member {b}",
        )
    for f in STATE_FIELDS:
        np.testing.assert_array_equal(
            ens.gather_field(f, member=b), solo.gather_field(f),
            err_msg=f"state field {f}, member {b}",
        )


class TestBitwiseEquivalence:
    def test_uniform_ensemble_matches_solo_runs(self):
        p = _params()
        seeds = [3, 11, 42]
        ens = EnsembleSimCov(p, seeds=seeds)
        ens.run(60)
        for b, seed in enumerate(seeds):
            solo = SequentialSimCov(p, seed=seed)
            solo.run(60)
            _assert_member_matches_solo(ens, b, solo)

    def test_sweep_ensemble_matches_solo_runs(self):
        base = _params()
        members = expand_sweep(base, "num_infections", [1, 2, 4])
        seeds = [7, 7, 7]
        ens = EnsembleSimCov(members, seeds=seeds)
        ens.run(60)
        for b, p in enumerate(members):
            solo = SequentialSimCov(p, seed=seeds[b])
            solo.run(60)
            _assert_member_matches_solo(ens, b, solo)

    def test_members_with_different_seeds_diverge(self):
        p = _params()
        ens = EnsembleSimCov(p, seeds=[0, 1])
        ens.run(60)
        assert not np.array_equal(
            ens.gather_field("virions", member=0),
            ens.gather_field("virions", member=1),
        )

    def test_gating_disabled_still_bitwise(self):
        p = _params(steps=40)
        ens = EnsembleSimCov(p, seeds=[5], active_gating=False)
        ens.run(40)
        solo = SequentialSimCov(p, seed=5)
        solo.run(40)
        _assert_member_matches_solo(ens, 0, solo)


class TestConstruction:
    def test_seed_count_must_match_members(self):
        with pytest.raises(ValueError, match="seeds"):
            EnsembleSimCov([_params(), _params()], seeds=[1, 2, 3])

    def test_members_must_share_dim(self):
        with pytest.raises(ValueError, match="dim"):
            EnsembleSimCov(
                [_params(dim=(16, 16)), _params(dim=(20, 20))], seeds=[0, 1]
            )

    def test_default_seeds_are_base_plus_arange(self):
        ens = EnsembleSimCov(_params(), batch=3, base_seed=10)
        assert list(ens.rng.seeds) == [10, 11, 12]

    def test_batch_property(self):
        ens = EnsembleSimCov(_params(), batch=4)
        assert ens.batch == 4
        assert ens.backend.batch == 4

    def test_schedule_matches_sequential_phases(self):
        ens = EnsembleSimCov(_params(), batch=2)
        solo = SequentialSimCov(_params(), seed=0)
        assert [ph.name for ph in ens.backend.schedule()] == [
            ph.name for ph in solo.backend.schedule()
        ]


class TestSeriesMember:
    @pytest.fixture(scope="class")
    def run(self):
        p = _params(steps=40)
        ens = EnsembleSimCov(p, seeds=[3, 4])
        ens.run(40)
        solo = SequentialSimCov(p, seed=3)
        solo.run(40)
        return ens, solo

    def test_len_and_getitem(self, run):
        ens, solo = run
        ms = ens.member_series[0]
        assert len(ms) == len(solo.series) == 40
        for i in (0, 17, 39):
            assert ms[i] == solo.series[i]

    def test_steps_and_peak(self, run):
        ens, solo = run
        ms = ens.member_series[0]
        np.testing.assert_array_equal(ms.steps(), solo.series.steps())
        assert ms.peak("infected") == solo.series.peak("infected")

    def test_to_rows(self, run):
        ens, solo = run
        assert ens.member_series[0].to_rows() == solo.series.to_rows()

    def test_unknown_field_raises(self, run):
        ens, _ = run
        with pytest.raises(AttributeError, match="bogus"):
            ens.member_series[0].field("bogus")

    def test_engine_series_is_member_zero(self, run):
        ens, solo = run
        assert len(ens.series) == 40
        assert ens.series[39] == solo.series[39]

    def test_truncate_drops_tail_for_all_members(self):
        p = _params(steps=20)
        ens = EnsembleSimCov(p, seeds=[0, 1])
        ens.run(20)
        ens.series.truncate(5)
        assert len(ens.member_series[0]) == 5
        assert len(ens.member_series[1]) == 5


class TestEnsembleGate:
    def test_sweep_period_validated(self):
        with pytest.raises(ValueError, match="sweep_period"):
            EnsembleSimCov(_params(), batch=2, sweep_period=99)

    def test_step_record_reports_batch(self):
        ens = EnsembleSimCov(_params(steps=5), seeds=[0, 1])
        ens.run(5)
        rec = ens.step_work[-1]
        assert rec["ensemble_batch"] == 2
        assert rec["active_voxels"] == ens.gate.count


class TestEnsembleInstruments:
    def test_batched_run_publishes_its_gauges_and_span_attribute(self):
        from repro.obs.registry import MetricsRegistry, set_registry
        from repro.telemetry import RingBufferSink, Tracer

        reg, ring = MetricsRegistry(), RingBufferSink()
        prev = set_registry(reg)
        try:
            ens = EnsembleSimCov(
                _params(steps=4), seeds=[0, 1, 2], tracer=Tracer(sinks=[ring])
            )
            ens.run(4)
        finally:
            set_registry(prev)
        fams = reg.families()
        assert fams["simcov_ensemble_batch"].series[()].value == 3
        assert fams["simcov_ensemble_member_steps_per_sec"].series[()].value > 0
        steps = ring.spans("step")
        assert [s.step for s in steps] == [0, 1, 2, 3]
        assert all(s.attrs["ensemble"] == 3 for s in ring.spans())
        assert len(ring.spans("phase")) == 4 * len(ens.schedule)


class TestEnsembleKernels:
    def test_attempt_schedule_matches_solo(self):
        """Slice ``member == b`` of the batched schedule is the solo one."""
        members = expand_sweep(_params(), "tcell_tissue_period", [40, 90, 60])
        seeds = np.array([3, 9, 4], dtype=np.int64)
        pools = np.array([37.2, 0.0, 5.9])
        flat = kernels.extravasation_attempts(
            ParamsStack(members), EnsembleRNG(seeds), 12, pools
        )
        assert np.all(np.diff(flat["member"]) >= 0)
        for b, p in enumerate(members):
            solo = kernels.extravasation_attempts(
                p, VoxelRNG(int(seeds[b])), 12, float(pools[b])
            )
            assert "member" not in solo
            mine = flat["member"] == b
            for key in ("gid", "accept_u", "life"):
                np.testing.assert_array_equal(flat[key][mine], solo[key], err_msg=key)
                assert flat[key].dtype == solo[key].dtype

    def test_attempt_schedule_empty_pools(self):
        rng = EnsembleRNG(np.array([1, 2], dtype=np.int64))
        stack = ParamsStack([_params(), _params()])
        flat = kernels.extravasation_attempts(stack, rng, 0, np.zeros(2))
        solo = kernels.extravasation_attempts(_params(), VoxelRNG(1), 0, 0.0)
        for key in ("gid", "accept_u", "life"):
            assert flat[key].size == 0 and flat[key].dtype == solo[key].dtype
        assert flat["member"].size == 0
        spec = GridSpec(_params().dim)
        block = EnsembleBlock(spec, spec.domain, 2)
        assert list(kernels.apply_extravasation(stack, block, flat)) == [0, 0]


class TestExpandSweep:
    def test_float_field(self):
        out = expand_sweep(_params(), "infectivity", [0.1, 0.2])
        assert [p.infectivity for p in out] == [0.1, 0.2]

    def test_int_field_rounds(self):
        out = expand_sweep(_params(), "num_infections", [1.2, 3.9])
        assert [p.num_infections for p in out] == [1, 4]

    def test_unknown_key_lists_fields(self):
        with pytest.raises(ValueError, match="infectivity"):
            expand_sweep(_params(), "not_a_param", [1, 2])


class TestParamsStack:
    def test_uniform_attribute_is_scalar(self):
        stack = ParamsStack([_params(), _params()])
        assert stack.infectivity == _params().infectivity

    def test_swept_attribute_broadcasts(self):
        stack = ParamsStack(expand_sweep(_params(), "infectivity", [0.1, 0.3]))
        arr = stack.infectivity
        assert arr.shape == (2, 1, 1)

    def test_attribute_cache_returns_same_object(self):
        stack = ParamsStack(expand_sweep(_params(), "infectivity", [0.1, 0.3]))
        assert stack.infectivity is stack.infectivity


class TestOneImplementation:
    """Solo and batched run the same code, not two copies of it."""

    @pytest.mark.parametrize(
        "name",
        ["schedule", "phase_tile_sweep"] + [
            f"phase_{p}" for p in (
                "age_extravasate", "intents", "resolve", "epithelial",
                "diffuse", "reduce",
            )
        ],
    )
    def test_backends_share_each_phase_body(self, name):
        from repro.engine.ensemble import EnsembleBackend
        from repro.engine.sequential import SequentialBackend

        assert getattr(SequentialBackend, name) is getattr(EnsembleBackend, name)

    def test_backends_are_constructors(self):
        """Neither subclass spells a phase body or an extravasation hook of
        its own, and the batched kernel name is an alias, not a twin."""
        from repro.engine.ensemble import EnsembleBackend
        from repro.engine.sequential import SequentialBackend, SingleBlockBackend

        assert not hasattr(SingleBlockBackend, "apply_extravasation")
        for cls in (SequentialBackend, EnsembleBackend):
            own = [name for name in vars(cls) if name.startswith("phase_")]
            assert own == [], (cls.__name__, own)
        assert kernels.ensemble_apply_extravasation is kernels.apply_extravasation

    @pytest.mark.parametrize(
        "name",
        [f"phase_{p}" for p in (
            "age_extravasate", "intents", "resolve", "epithelial", "diffuse",
        )] + ["_tcell_box", "_counted_part"],
    )
    def test_rank_shares_each_kernel_body(self, name):
        """A dist rank runs the single-block bodies over its owned voxels
        and ghost band; its one exchange sits before the step."""
        from repro.dist.worker import RankBackend
        from repro.engine.sequential import SingleBlockBackend

        assert getattr(RankBackend, name) is getattr(SingleBlockBackend, name)

    def test_rank_spells_only_its_reduce(self):
        """Of the phase bodies, a rank spells only ``reduce`` (integer
        counts for the coordinator); the rest of what it overrides is its
        one exchange, the sweep's box publication and the restore hook."""
        from repro.dist.worker import RankBackend
        from repro.engine.sequential import SingleBlockBackend

        own = sorted(name for name in vars(RankBackend) if name.startswith("phase_"))
        assert own == ["phase_reduce"]
        overridden = {
            name for name in vars(RankBackend)
            if not name.startswith("__") and callable(getattr(SingleBlockBackend, name, None))
        }
        assert overridden == {
            "schedule", "exchange", "_sweep", "state_restored", "phase_reduce",
        }

    def test_engine_step_loop_is_not_overridden(self):
        """A batched run steps the one engine, not a subclass of it."""
        from repro.engine.engine import StepEngine

        assert type(EnsembleSimCov(_params(), batch=2).engine) is StepEngine

    def test_one_integer_reducer(self):
        """Solo, batched and every dist rank count through the one
        core.stats reducer; the dist coordinator keeps float fields only."""
        from repro.core.state import VoxelBlock
        from repro.core.stats import RegionReducer
        from repro.dist import DistSimCov
        from repro.dist.worker import RankBackend

        p = _params(steps=1)
        assert type(SequentialSimCov(p).backend.reducer) is RegionReducer
        ens = EnsembleSimCov(p, seeds=[0, 1])
        assert type(ens.backend.reducer) is RegionReducer
        with DistSimCov(p, nranks=2) as dist:
            worker = RankBackend(dist.backend.runtime.worker_spec(0))
            try:
                assert type(worker.reducer) is RegionReducer
            finally:
                worker.close()
            held = vars(dist.backend).values()
            assert not any(isinstance(v, VoxelBlock) for v in held)
            copies = vars(dist.backend._floats)
            assert {k for k, v in copies.items() if isinstance(v, np.ndarray)} == {
                "virions", "chemokine"}

    def test_one_gate_class(self):
        import repro.engine
        from repro.engine.activity import ActivityGate

        assert not hasattr(repro.engine, "EnsembleActivityGate")
        ens = EnsembleSimCov(_params(steps=1), seeds=[0, 1])
        assert type(ens.gate) is ActivityGate

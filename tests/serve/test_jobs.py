"""JobSpec validation, resolution, and the canonical result-cache key."""

import pytest

from repro.core.params import SimCovParams
from repro.serve.jobs import (
    JobSpec,
    SpecError,
    apply_overrides,
    result_cache_key,
    stats_row,
)


class TestSpecValidation:
    def test_defaults(self):
        spec = JobSpec.from_json({})
        assert spec.backend == "sequential"
        assert spec.seed == 0
        assert spec.priority == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown job fields"):
            JobSpec.from_json({"stepz": 10})

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="unknown backend"):
            JobSpec.from_json({"backend": "tpu"})

    def test_priority_range(self):
        with pytest.raises(SpecError, match="priority"):
            JobSpec.from_json({"priority": 10})
        with pytest.raises(SpecError, match="priority"):
            JobSpec.from_json({"priority": -1})

    def test_ensemble_needs_count(self):
        with pytest.raises(SpecError, match="ensemble"):
            JobSpec.from_json({"backend": "ensemble"})

    def test_count_needs_ensemble_backend(self):
        with pytest.raises(SpecError, match="ensemble"):
            JobSpec.from_json({"backend": "sequential", "ensemble": 4})

    def test_non_dict_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            JobSpec.from_json([1, 2])

    def test_unknown_config_rejected(self):
        spec = JobSpec.from_json({"config": "galactic_3d"})
        with pytest.raises(SpecError):
            spec.resolve_params()


class TestResolution:
    def test_config_defaults_flow_through(self):
        params, steps = JobSpec.from_json({"config": "small_2d"}).resolve_params()
        assert params.dim == (16, 16)
        assert steps == params.num_steps

    def test_explicit_steps_override_config(self):
        params, steps = JobSpec.from_json(
            {"config": "small_2d", "steps": 7}
        ).resolve_params()
        assert steps == 7
        assert params.num_steps == 7

    def test_num_steps_override_wins(self):
        params, steps = JobSpec.from_json(
            {"config": "small_2d", "steps": 7, "overrides": {"num_steps": 12}}
        ).resolve_params()
        assert steps == 12
        assert params.num_steps == 12

    def test_ensemble_seed_range(self):
        spec = JobSpec.from_json(
            {"backend": "ensemble", "ensemble": 3, "seed": 5}
        )
        assert spec.seeds() == (5, 6, 7)

    def test_solo_single_seed(self):
        assert JobSpec.from_json({"seed": 9}).seeds() == (9,)

    def test_to_json_roundtrip(self):
        spec = JobSpec.from_json(
            {"config": "small_2d", "steps": 9, "seed": 3,
             "overrides": {"virion_production": 800}}
        )
        assert JobSpec.from_json(spec.to_json()) == spec


class TestOverrides:
    def setup_method(self):
        self.params = SimCovParams.fast_test(dim=(8, 8))

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown override"):
            apply_overrides(self.params, {"virulence": 2})

    def test_int_field_rounds(self):
        out = apply_overrides(self.params, {"incubation_period": 9.6})
        assert out.incubation_period == 10

    def test_float_field_casts(self):
        out = apply_overrides(self.params, {"virion_clearance": 0.125})
        assert out.virion_clearance == 0.125

    def test_dim_tuple(self):
        out = apply_overrides(self.params, {"dim": [12, 10]})
        assert out.dim == (12, 10)


class TestCacheKey:
    def test_equivalent_specs_share_key(self):
        # A spec that spells out small_2d's values must hash identically
        # to the one that names the config.
        a = JobSpec.from_json({"config": "small_2d"})
        pa, sa = a.resolve_params()
        b = JobSpec.from_json(
            {"dim": [16, 16], "steps": sa,
             "overrides": {"num_infections": pa.num_infections}}
        )
        pb, sb = b.resolve_params()
        assert result_cache_key(pa, a.seeds(), sa) == \
            result_cache_key(pb, b.seeds(), sb)

    def test_backend_not_keyed(self):
        # Bitwise determinism across backends is the cache's correctness
        # argument: dist and sequential submissions collapse to one key.
        a = JobSpec.from_json({"config": "small_2d", "backend": "sequential"})
        b = JobSpec.from_json(
            {"config": "small_2d", "backend": "dist", "nranks": 4}
        )
        pa, sa = a.resolve_params()
        pb, sb = b.resolve_params()
        assert result_cache_key(pa, a.seeds(), sa) == \
            result_cache_key(pb, b.seeds(), sb)

    def test_seed_and_steps_keyed(self):
        spec = JobSpec.from_json({"config": "small_2d"})
        p, s = spec.resolve_params()
        base = result_cache_key(p, (0,), s)
        assert result_cache_key(p, (1,), s) != base
        assert result_cache_key(p, (0, 1), s) != base
        assert result_cache_key(p, (0,), s + 1) != base


def test_stats_row_exact_floats():
    from repro.core.model import SequentialSimCov

    sim = SequentialSimCov(SimCovParams.fast_test(dim=(8, 8)), seed=1)
    stats = sim.step()
    row = stats_row(stats)
    assert row["virions_total"] == stats.virions_total  # no rounding
    assert row["step"] == 0

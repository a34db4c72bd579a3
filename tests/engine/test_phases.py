"""Unit tests for the declarative schedule vocabulary."""

import pytest

from repro.engine.phases import (
    PHASE_KINDS,
    PHASE_ORDER,
    FieldSet,
    Phase,
    PhaseKind,
    exchange,
    kernel,
    validate_schedule,
)
from repro.grid.halo import MergeMode


def minimal_schedule():
    return (
        kernel("age_extravasate"),
        kernel("intents"),
        kernel("resolve"),
        kernel("epithelial"),
        kernel("diffuse"),
        kernel("reduce"),
    )


class TestPhaseConstruction:
    def test_kind_helpers(self):
        assert kernel("reduce").kind is PhaseKind.KERNEL
        assert exchange("open_exchange").kind is PhaseKind.EXCHANGE

    def test_kernel_phase_rejects_field_sets(self):
        fs = FieldSet("state", ("tcell",), MergeMode.REPLACE)
        with pytest.raises(ValueError, match="cannot carry field sets"):
            Phase("reduce", PhaseKind.KERNEL, exchanges=(fs,))

    def test_field_set_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="unknown field scope"):
            FieldSet("halo", ("tcell",), MergeMode.REPLACE)

    def test_canonical_kinds_follow_naming(self):
        for name in PHASE_ORDER:
            expected = (
                PhaseKind.EXCHANGE
                if name.endswith("_exchange")
                else PhaseKind.KERNEL
            )
            assert PHASE_KINDS[name] is expected


class TestValidateSchedule:
    def test_minimal_schedule_valid(self):
        validate_schedule(minimal_schedule())

    def test_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_schedule(minimal_schedule() + (kernel("teleport"),))

    def test_duplicate_phase(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_schedule(minimal_schedule() + (kernel("reduce"),))

    def test_kind_mismatch(self):
        bad = (Phase("open_exchange", PhaseKind.KERNEL),) + minimal_schedule()
        with pytest.raises(ValueError, match="canonical kind"):
            validate_schedule(bad)

    def test_missing_required_phase(self):
        partial = tuple(p for p in minimal_schedule() if p.name != "reduce")
        with pytest.raises(ValueError, match="missing required"):
            validate_schedule(partial)

    def test_out_of_canonical_order(self):
        shuffled = minimal_schedule()[::-1]
        with pytest.raises(ValueError, match="canonical order"):
            validate_schedule(shuffled)

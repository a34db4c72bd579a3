"""The declarative per-step schedule shared by every implementation.

The paper's core claim (§3, §4.1) is that one staged step schedule runs
identically on every substrate.  This module encodes it as *data*: an
ordered list of :class:`Phase` objects from one canonical order.  Two
schedules run: the single block's (solo and ensemble) and the dist
rank's, which the coordinator runs too (its names index the control block):

=============== ======== ====== ==========================================
phase           kind     runs   semantics
=============== ======== ====== ==========================================
open_exchange   exchange dist   the one ghost-band pull, before the step
age_extravasate kernel   both   T-cell aging + vascular extravasation
intents         kernel   both   T-cell bind/move target choice + bids
resolve         kernel   both   the §3.1 tiebreak: winners move and bind
epithelial      kernel   both   infection, state timers, production
diffuse         kernel   both   stencil diffusion + decay
reduce          kernel   both   statistics reduction
tile_sweep      kernel   single periodic tile-activation sweep (§3.2)
=============== ======== ====== ==========================================

A backend lists only the phases it executes: one block has no exchange
(its ghosts only mirror the no-flux boundary), and a rank — the same
kernel phases over its owned voxels and a ghost band one step deep —
exchanges once and sweeps its gate at the top of ``age_extravasate``.  The :class:`~repro.engine.engine.StepEngine` times
each phase into one row of its :class:`~repro.engine.metrics.PhaseMetrics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.grid.halo import MergeMode


class PhaseKind(enum.Enum):
    """What a phase does: local kernel work or a communication barrier."""

    KERNEL = "kernel"
    EXCHANGE = "exchange"


@dataclass(frozen=True)
class FieldSet:
    """One group of arrays shipped by an exchange barrier.

    ``scope`` names the holder: ``"state"`` for
    :class:`~repro.core.state.VoxelBlock` fields, ``"intent"`` for
    :class:`~repro.core.kernels.IntentArrays` fields.  ``merge`` is the
    ghost-merge semantics (REPLACE for per-source data, MAX for the
    bid-max tiebreak).
    """

    scope: str
    fields: tuple[str, ...]
    merge: MergeMode

    def __post_init__(self):
        if self.scope not in ("state", "intent"):
            raise ValueError(f"unknown field scope {self.scope!r}")


@dataclass(frozen=True)
class Phase:
    """One entry of the per-step schedule."""

    name: str
    kind: PhaseKind
    #: For EXCHANGE phases: what is shipped and how ghosts merge.
    exchanges: tuple[FieldSet, ...] = ()
    #: One-line description shown in schedule dumps.
    doc: str = ""

    def __post_init__(self):
        if self.exchanges and self.kind is not PhaseKind.EXCHANGE:
            raise ValueError(f"kernel phase {self.name!r} cannot carry field sets")


def kernel(name: str, doc: str = "") -> Phase:
    """A local-compute phase."""
    return Phase(name, PhaseKind.KERNEL, doc=doc)


def exchange(name: str, *field_sets: FieldSet, doc: str = "") -> Phase:
    """A communication barrier shipping ``field_sets`` (possibly none)."""
    return Phase(name, PhaseKind.EXCHANGE, exchanges=tuple(field_sets), doc=doc)


#: Canonical phase names in canonical order (see module docstring).
PHASE_ORDER = (
    "open_exchange",
    "age_extravasate",
    "intents",
    "resolve",
    "epithelial",
    "diffuse",
    "reduce",
    "tile_sweep",
)

#: Canonical kind per phase name.
PHASE_KINDS = {
    name: (PhaseKind.EXCHANGE if name.endswith("_exchange") else PhaseKind.KERNEL)
    for name in PHASE_ORDER
}

#: Phases every schedule must carry (the model cannot run without them).
REQUIRED_PHASES = frozenset(
    {"age_extravasate", "intents", "resolve", "epithelial", "diffuse", "reduce"}
)


def validate_schedule(schedule: tuple[Phase, ...] | list[Phase]) -> None:
    """Reject schedules that are not a subsequence of the canonical order.

    Raises ``ValueError`` on unknown names, duplicates, kind mismatches,
    missing required phases, or phases out of canonical order.
    """
    names = [p.name for p in schedule]
    unknown = [n for n in names if n not in PHASE_KINDS]
    if unknown:
        raise ValueError(f"unknown phase(s) {unknown}; canonical set: {PHASE_ORDER}")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate phase(s) {dupes}")
    for p in schedule:
        if p.kind is not PHASE_KINDS[p.name]:
            raise ValueError(
                f"phase {p.name!r} declared {p.kind.value}, canonical kind is "
                f"{PHASE_KINDS[p.name].value}"
            )
    missing = REQUIRED_PHASES - set(names)
    if missing:
        raise ValueError(f"schedule missing required phase(s) {sorted(missing)}")
    order = [PHASE_ORDER.index(n) for n in names]
    if order != sorted(order):
        raise ValueError(
            f"schedule order {names} violates canonical order {PHASE_ORDER}"
        )

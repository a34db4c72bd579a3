"""The per-step schedule shared by every implementation.

The paper's core claim (§3, §4.1) is that one staged step schedule runs
identically on every substrate.  A schedule is an ordered tuple of named
:class:`Phase` entries; the backend that runs it executes each as its
``phase_<name>`` method, and a name it has no method for is skipped.  Two
schedules run: the single block's (solo and ensemble) and the dist
rank's, which the coordinator runs too (its names index the control block):

=============== ====== ==========================================
phase           runs   semantics
=============== ====== ==========================================
open_exchange   dist   the one ghost-band pull, before the step
age_extravasate both   T-cell aging + vascular extravasation
intents         both   T-cell bind/move target choice + bids
resolve         both   the §3.1 tiebreak: winners move and bind
epithelial      both   infection, state timers, production
diffuse         both   stencil diffusion + decay
reduce          both   statistics reduction
tile_sweep      single periodic tile-activation sweep (§3.2)
=============== ====== ==========================================

One block exchanges nothing (its ghosts only mirror the no-flux
boundary); a rank — the same kernel phases over its owned voxels and a
ghost band one step deep — pulls its band once and sweeps its gate at
the top of ``age_extravasate``.  The coordinator has a body only for
``reduce`` and skips the rest, which its ranks run.  The
:class:`~repro.engine.engine.StepEngine` times each phase into one row
of its :class:`~repro.engine.metrics.PhaseMetrics`.
"""

from __future__ import annotations

from typing import NamedTuple


class Phase(NamedTuple):
    """One entry of a per-step schedule."""

    name: str

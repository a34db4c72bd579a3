"""Workload traces: one real run, observed at phase boundaries.

A :class:`WorkloadTrace` runs the single-block stepper once and keeps,
per step, what counted work depends on and nothing else:

- the activity mask at every step boundary;
- the epithelial / T-cell activity after extravasation (what halo wave A
  ships) and the concentration activity after production (wave C);
- the number of extravasation attempts;
- every move and bind intent as (source gid, target gid, won).

None of it depends on a decomposition: :mod:`repro.perf.work` derives
any rank or device layout's counted work from it.  The supercell counts
that drive the projector directly (same-scale evaluations) and calibrate
the :class:`~repro.perf.activity.DiskActivityModel` used for paper-scale
projections are one reduction of the same masks.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import bind_stencil
from repro.core.params import SimCovParams
from repro.core.state import EpiState
from repro.engine.driver import EngineDriver
from repro.engine.sequential import SequentialBackend
from repro.grid.spec import moore_offsets

_LIVE_CELLS = (EpiState.INCUBATING, EpiState.EXPRESSING, EpiState.APOPTOTIC)


class _Observed(SequentialBackend):
    """The single-block stepper, looked at after some phases; the phase
    bodies are the stepper's own."""

    def __init__(self, params, seed, **kwargs):
        super().__init__(params, seed=seed, **kwargs)
        self.log = {k: [] for k in ("active", "wave_a", "wave_c", "attempts",
                                    "moves", "binds")}

    def execute(self, phase, ctx):
        ran = super().execute(phase, ctx)
        observe = getattr(self, f"_after_{phase.name}", None)
        if observe is not None:
            observe(ctx)
        return ran

    def _view(self, name):
        return getattr(self.block, name)[self.block.interior]

    def _after_age_extravasate(self, ctx):
        self.log["wave_a"].append(
            (self._view("tcell") != 0) | np.isin(self._view("epi_state"), _LIVE_CELLS)
        )
        self.log["attempts"].append(ctx.attempts.size)

    def _after_intents(self, ctx):
        it, spec = self.intents, self.spec
        origin = np.array(self.block.origin)
        for kind, dirs, stencil, bids in (
            ("moves", it.move_dir, moore_offsets(spec.ndim), it.move_bid),
            ("binds", it.bind_dir, bind_stencil(spec.ndim), it.bind_bid),
        ):
            src = np.argwhere(dirs >= 0)
            tgt = src + stencil[dirs[tuple(src.T)]]
            won = bids[tuple(tgt.T)] == it.bid_self[tuple(src.T)]
            self.log[kind].append(
                (spec.ravel(src + origin), spec.ravel(tgt + origin), won)
            )

    def _after_epithelial(self, ctx):
        p = self.params
        self.log["wave_c"].append(
            (self._view("virions") > 0.0) | (self._view("chemokine") >= p.min_chemokine)
        )

    def _after_tile_sweep(self, ctx):
        self.observe_activity()

    def observe_activity(self):
        self.log["active"].append(self.block.activity_mask(self.params.min_chemokine))


class WorkloadTrace:
    """One observed single-block run.

    Attributes
    ----------
    dim, num_steps, num_infections:
        The traced run's grid extents, length and FOI count.
    active:
        ``(num_steps + 1, *dim)`` activity masks: ``active[t]`` at the
        start of step ``t``, ``active[num_steps]`` after the last.
    wave_a, wave_c:
        ``(num_steps, *dim)``: epithelial / T-cell activity after
        extravasation, concentration activity after production.
    attempts:
        Extravasation attempts per step (the schedule's ``size``).
    supergrid, sample_steps, counts:
        The projector's view: active voxels per supercell (``supergrid``
        cells per axis) after every ``stride``-th step.
    phase_metrics:
        The recorded run's per-phase wall time and calls (set by
        :meth:`record`).
    """

    def __init__(self, params: SimCovParams, log: dict, supergrid: int = 32,
                 stride: int = 4):
        self.dim = tuple(params.dim)
        self.num_steps = len(log["attempts"])
        self.num_infections = int(params.num_infections)
        self.active = np.stack(log["active"])
        self.wave_a = np.stack(log["wave_a"])
        self.wave_c = np.stack(log["wave_c"])
        self.attempts = np.asarray(log["attempts"], dtype=np.int64)
        self._intents = {k: log[k] for k in ("moves", "binds")}
        self.supergrid = int(supergrid)
        self.sample_steps = np.arange(0, self.num_steps, stride, dtype=np.int64)
        counts = self.active[self.sample_steps + 1].astype(np.float64)
        for axis, n in enumerate(self.dim, start=1):
            edges = np.linspace(0, n, supergrid + 1).astype(np.int64)
            counts = np.add.reduceat(counts, edges[:-1], axis=axis)
        self.counts = counts

    # -- recording -------------------------------------------------------------

    @classmethod
    def record(
        cls,
        params: SimCovParams,
        seed: int = 0,
        supergrid: int = 32,
        stride: int = 4,
        setup=None,
        **kwargs,
    ) -> "WorkloadTrace":
        """Run the single-block stepper for ``params.num_steps`` and record
        its trace (2D or 3D).  ``kwargs`` go to the stepper
        (``seed_gids``, ``structure_gids``, ...); ``setup(blocks, spec)``,
        if given, rewrites the seeded state before the first step.
        """
        backend = _Observed(params, seed, **kwargs)
        if setup is not None:
            setup([backend.block], backend.spec)
        backend.observe_activity()
        sim = EngineDriver()
        sim._init_engine(backend)
        sim.run(params.num_steps)
        trace = cls(params, backend.log, supergrid, stride)
        trace.phase_metrics = sim.phase_metrics
        return trace

    def intents(self, kind: str, step: int):
        """``(source gids, target gids, won)`` of step ``step``'s placed
        ``"moves"`` or ``"binds"`` intents."""
        return self._intents[kind][step]

    # -- provider protocol (shared with DiskActivityModel) ---------------------------

    @property
    def num_samples(self) -> int:
        return len(self.sample_steps)

    def counts_at(self, i: int) -> np.ndarray:
        """Supercell active-voxel counts at sample ``i``."""
        return self.counts[i]

    def sample_weight(self, i: int) -> int:
        """Steps this sample stands for."""
        if i + 1 < self.num_samples:
            return int(self.sample_steps[i + 1] - self.sample_steps[i])
        return int(self.num_steps - self.sample_steps[i])

    # -- summaries --------------------------------------------------------------------

    def active_voxels(self) -> np.ndarray:
        """Total active voxels per sample."""
        return self.counts.reshape(self.num_samples, -1).sum(axis=1)

    def active_fraction(self) -> np.ndarray:
        return self.active_voxels() / np.prod(self.dim)

    def growth_speed(self) -> float:
        """Radial growth speed of a focus, in voxels/step.

        SIMCoV activity grows as N disks of radius ~ v*t until merging;
        fitting sqrt(active/(N*pi)) against t over the pre-saturation
        window estimates v — the one dynamic constant the paper-scale
        activity model needs.
        """
        active = self.active_voxels()
        frac = self.active_fraction()
        # Pre-saturation, post-onset window.
        ok = (frac > 0.002) & (frac < 0.35)
        if ok.sum() < 3:
            ok = active > 0
        if ok.sum() < 2:
            return 0.5
        t = self.sample_steps[ok].astype(np.float64)
        r = np.sqrt(active[ok] / (self.num_infections * np.pi))
        # Least-squares slope through the origin-ish (allow intercept).
        a = np.vstack([t, np.ones_like(t)]).T
        slope, _ = np.linalg.lstsq(a, r, rcond=None)[0]
        return float(max(1e-3, slope))

"""repro: a reproduction of *SIMCoV-GPU: Accelerating an Agent-Based Model
for Exascale* (HPDC '24).

The package implements, from scratch and in pure numpy-accelerated Python:

- the full SIMCoV biological model (epithelial state machine, motile T-cell
  agents, diffusing virion and inflammatory-signal fields) — :mod:`repro.core`
  — stepped by one phase-pipeline engine (:mod:`repro.engine`) with the
  paper's bid tiebreak, tile-activation sweep and active-region gating;
- a real multi-process runtime over shared memory — :mod:`repro.dist`;
- the work the two implementations the paper compares (SIMCoV-CPU:
  active lists + two-wave RPC tiebreaks; SIMCoV-GPU: memory tiling, fast
  reduction, the four Fig 4 prototypes :class:`GpuVariant`) would issue,
  counted from one traced run, and a calibrated machine model that
  converts it into modeled wall-clock seconds — :mod:`repro.perf`;
- an experiment harness regenerating every table and figure of the paper's
  evaluation — :mod:`repro.experiments`.

Quickstart::

    from repro import SimCovParams, SequentialSimCov

    params = SimCovParams.fast_test(dim=(64, 64), num_infections=4)
    sim = SequentialSimCov(params, seed=1)
    for _ in range(100):
        stats = sim.step()
    print(stats)
"""

__version__ = "1.0.0"

# Public names are imported lazily so that `import repro` stays cheap and
# the subpackages remain independently importable.
_LAZY = {
    "SimCovParams": ("repro.core.params", "SimCovParams"),
    "SequentialSimCov": ("repro.core.model", "SequentialSimCov"),
    "StepStats": ("repro.core.stats", "StepStats"),
    "GpuVariant": ("repro.perf.ledger", "GpuVariant"),
    "DistSimCov": ("repro.dist.driver", "DistSimCov"),
    "EnsembleSimCov": ("repro.engine.ensemble", "EnsembleSimCov"),
    "expand_sweep": ("repro.engine.ensemble", "expand_sweep"),
}

__all__ = sorted(_LAZY) + ["__version__"]


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return __all__

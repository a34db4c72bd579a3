"""Metrics-overhead smoke: registry-on vs registry-off step loop.

The registry is on by default, so its cost is everyone's cost; the
acceptance budget is <=3% step-loop slowdown.  This module measures that
directly: the same sequential simulation, best-of-N wall time, once with
an enabled registry installed as the process global and once with a
disabled one (the disabled path is the pure-engine baseline — the
instruments are the shared no-ops).

The two sides alternate, repetition by repetition, and swap which goes
first every other repetition: a drift in the host's speed (a neighbour's
load, a frequency step) then lands on both sides alike instead of on
whichever side ran during it.  Best-of-N, not mean: scheduler noise only
ever adds time, so the minimum is the closest observable to the true
cost, and on shared CI a mean would flake.  The CI ``obs`` job runs this
as ``python -m repro.obs.overhead --budget 0.03 --repeats 1500`` (several
seconds a side); the tier-1 test asserts a laxer bound so the fast suite
never flakes on a noisy box.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.registry import MetricsRegistry, set_registry

__all__ = ["measure_overhead"]


def _wall(params, seed: int, steps: int, enabled: bool) -> float:
    """One run's step-loop seconds with a registry ``enabled`` or not."""
    from repro.core.model import SequentialSimCov

    set_registry(MetricsRegistry(enabled=enabled))
    sim = SequentialSimCov(params, seed=seed)
    t0 = perf_counter()
    sim.run(steps)
    return perf_counter() - t0


def measure_overhead(
    dim=(96, 96),
    steps: int = 30,
    repeats: int = 5,
    seed: int = 7,
) -> dict:
    """Run the step loop with metrics on and off, ``repeats`` times each,
    alternating; return both best walls, the seconds each side ran in all,
    and the relative overhead (``on/off - 1``)."""
    from repro.core.params import SimCovParams

    params = SimCovParams(dim=dim, num_infections=1, num_steps=steps)
    walls = {False: [], True: []}
    prev = set_registry(MetricsRegistry(enabled=False))
    try:
        for rep in range(repeats):
            for enabled in (False, True) if rep % 2 == 0 else (True, False):
                walls[enabled].append(_wall(params, seed, steps, enabled))
    finally:
        set_registry(prev)
    off, on = min(walls[False]), min(walls[True])
    return {
        "metrics_off_seconds": off,
        "metrics_on_seconds": on,
        "overhead_fraction": (on / off - 1.0) if off > 0 else 0.0,
        "seconds_per_side": [sum(walls[False]), sum(walls[True])],
        "steps": steps,
        "repeats": repeats,
        "dim": list(dim),
    }


def main(argv=None) -> int:
    import argparse
    import json

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=float, default=0.03,
                    help="max allowed overhead fraction (default 0.03)")
    ap.add_argument("--steps", type=int, default=30)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--dim", type=int, nargs=2, default=(96, 96))
    args = ap.parse_args(argv)

    result = measure_overhead(
        dim=tuple(args.dim), steps=args.steps, repeats=args.repeats
    )
    result["budget"] = args.budget
    result["within_budget"] = result["overhead_fraction"] <= args.budget
    print(json.dumps(result, indent=2))
    if not result["within_budget"]:
        print(
            f"FAIL: metrics overhead {result['overhead_fraction']:.2%} "
            f"exceeds budget {args.budget:.0%}"
        )
        return 1
    print(
        f"OK: metrics overhead {result['overhead_fraction']:.2%} "
        f"within budget {args.budget:.0%}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

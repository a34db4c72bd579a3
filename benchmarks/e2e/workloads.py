"""The seven workloads and the inputs ``--seed`` generates for each.

Only plain data leaves this module: the program under test receives the
generated inputs (dimensions, step count, FOI coordinates, seeds, the
request sequence) and never the benchmark seed itself.

FOI are placed by a jittered grid, one per cell and inside the cell's
middle half, so every seed gives a different input but the same amount
of work: a focus drawn next to the domain edge would clip the active
region and make ``steps_per_s`` a function of the seed.
"""

from __future__ import annotations

import random

#: With one focus on 10^6 voxels and fast_test's 25 T cells generated
#: per step, the first T cell reaches the tissue anywhere between step 82
#: and the end of the run, by the luck of the seed — and the steps after
#: it cost 30 % more, so steps_per_s ranged over 20 % across seeds.  Four
#: times the supply pins the arrival to steps 77-106 of 120 (3-9 T cells
#: at the end, 1 per 10 000 voxels swept): the workload's cost is then
#: mostly a property of the workload.
FOCUS_PARAMS = {"tcell_generation_rate": 100.0}

#: Sizes are fixed by ISSUE 12 on the 2-core reference host so that one
#: repetition takes 2-6 s, and the three repetitions of a run (or the two
#: phases of a serving run) about ``run_seconds``; ``why`` per workload
#: lives in BENCHMARK.json.
WORKLOADS: dict[str, dict] = {
    "focus_2d": {
        "kind": "solo", "dim": (1024, 1024), "foi_grid": (1, 1), "steps": 120,
        "params": FOCUS_PARAMS,
    },
    "dense_2d": {
        "kind": "solo", "dim": (192, 192), "foi_grid": (4, 3), "steps": 225,
    },
    "dense_3d": {
        "kind": "solo", "dim": (48, 48, 32), "foi_grid": (2, 1, 1),
        "steps": 105,
    },
    "ensemble_b32": {
        "kind": "ensemble", "dim": (32, 32), "num_infections": 2,
        "members": 32, "steps": 150,
    },
    # focus_2d's exact inputs on two ranks: the digests must agree.
    "dist_r2": {
        "kind": "dist", "dim": (1024, 1024), "foi_grid": (1, 1), "steps": 120,
        "nranks": 2, "params": FOCUS_PARAMS,
    },
    # ISSUE 12's 30 % cold / 70 % cached mix (there 60 + 140, then 2 x 20):
    # phase A takes about 4 s, phase B about 4 s.
    "serve_mix": {
        "kind": "serve", "config": "small_2d", "steps": 100, "warm": 6,
        "misses": 18, "hits": 42, "clients": 2, "misses_per_client": 6,
        "latency_of": "miss",
    },
    # The same harness with nothing to compute: the bypass workload for the
    # runner and the drivers, the one that exercises the cache path.
    "serve_hit": {
        "kind": "serve", "config": "small_2d", "steps": 100, "warm": 6,
        "misses": 0, "hits": 900, "clients": 0, "misses_per_client": 0,
        "latency_of": "hit",
    },
}


def _foi_coords(rng: random.Random, dim, grid) -> list[list[int]]:
    """One FOI per cell of ``grid``, uniform in the cell's middle half."""
    cells = [[]]
    for n in grid:
        cells = [c + [i] for c in cells for i in range(n)]
    coords = []
    for cell in cells:
        point = []
        for size, n, i in zip(dim, grid, cell):
            lo, extent = size * i // n, size // n
            point.append(lo + extent // 4 + rng.randrange(max(1, extent // 2)))
        coords.append(point)
    return coords


def make_inputs(name: str, seed: int, scale: float = 1.0) -> dict:
    """The JSON-able inputs of one run; same arguments, same inputs.

    ``scale`` is ``--seconds`` over BENCHMARK.json's ``run_seconds``: the
    simulations' step counts and the request counts follow it, grids and
    the served jobs do not (``--smoke`` runs at 0.1).
    """
    base = WORKLOADS[name]
    inputs = {"workload": name, "kind": base["kind"]}
    if base["kind"] == "serve":
        rng = random.Random(f"{name}:{seed}")

        def count(key):
            return max(1, round(base[key] * scale)) if base[key] else 0

        first = (seed % 1000) * 1_000_000
        warm = list(range(first, first + max(2, count("warm"))))
        order = ["miss"] * count("misses") + ["hit"] * count("hits")
        rng.shuffle(order)
        fresh = iter(range(first + 1000, first + 1000 + len(order)))
        inputs.update(
            config=base["config"],
            steps=base["steps"],
            latency_of=base["latency_of"],
            warm_seeds=warm,
            # phase A, one client: (kind, sim seed) in request order
            mix=[
                (kind, next(fresh) if kind == "miss" else rng.choice(warm))
                for kind in order
            ],
            # phase B: one list of fresh seeds per client
            load=[
                list(range(
                    first + 100_000 * (c + 1),
                    first + 100_000 * (c + 1) + count("misses_per_client"),
                ))
                for c in range(base["clients"])
            ],
        )
        return inputs
    inputs.update(
        dim=list(base["dim"]),
        steps=max(8, round(base["steps"] * scale)),
        seed=seed,
    )
    if base["kind"] == "ensemble":
        inputs.update(
            num_infections=base["num_infections"],
            member_seeds=list(range(seed, seed + base["members"])),
        )
    else:
        # dist_r2 draws from focus_2d's stream: identical inputs.
        twin = "focus_2d" if name == "dist_r2" else name
        inputs["foi"] = _foi_coords(
            random.Random(f"{twin}:{seed}"), base["dim"], base["foi_grid"]
        )
        inputs["params"] = base.get("params", {})
        if base["kind"] == "dist":
            inputs["nranks"] = base["nranks"]
    return inputs

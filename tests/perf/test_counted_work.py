"""Counted work from one trace equals what the executing substrates counted.

``counted_work.json`` was recorded by running the executing SIMCoV-CPU
(PGAS runtime) and SIMCoV-GPU (device simulator) drivers, at the commit it
names, over every config of :data:`tests.perf.worlds.CONFIGS`; each entry
holds, per step, exactly the fields the cost functions read.  Here the
same numbers come from :func:`repro.perf.work.gpu_step_work` /
:func:`repro.perf.work.cpu_step_work` over one single-block trace per
world, and must be equal as integers — for every numpy and both kernel
tiers.
"""

import json
import pathlib

import pytest

from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.spec import GridSpec
from repro.perf.ledger import GpuVariant
from repro.perf.work import cpu_step_work, gpu_step_work
from repro.perf.workload import WorkloadTrace
from tests.perf.worlds import CONFIGS, WORLDS, world

FIXTURE = json.loads((pathlib.Path(__file__).parent / "counted_work.json").read_text())
CATEGORIES = ("update_agents", "reduce_stats", "tile_sweep")


@pytest.fixture(scope="module")
def traces():
    out = {}
    for name in WORLDS:
        params, seed, kwargs, setup = world(name)
        out[name] = (params, WorkloadTrace.record(params, seed=seed, setup=setup, **kwargs))
    return out


def _columns(cfg, trace, params):
    decomp = Decomposition.make(
        GridSpec(params.dim), cfg["n"], DecompositionKind(cfg["decomposition"])
    )
    cols = {}
    if cfg["kind"] == "gpu":
        work = gpu_step_work(
            trace, decomp, GpuVariant(cfg["variant"]), tuple(cfg["tile"]),
            cfg["gpus_per_node"],
        )
        for w in work:
            led = w["ledger"]
            row = {f"launches.{c}": led.launches.get(c, 0) for c in CATEGORIES}
            row.update({f"voxels.{c}": led.voxels.get(c, 0) for c in CATEGORIES})
            row.update({
                k: getattr(led, k) for k in (
                    "reduce_tree_elems", "atomic_ops", "atomic_conflicts",
                    "copies_intra", "copies_inter", "copy_bytes_intra",
                    "copy_bytes_inter", "device_reductions",
                )
            })
            row["active_per_device"] = list(w["active_per_device"])
            for k, v in row.items():
                cols.setdefault(k, []).append(v)
    else:
        work = cpu_step_work(
            trace, decomp, cfg["ranks_per_node"], cfg["active_gating"]
        )
        for w in work:
            row = dict(w["comm"], active_per_rank=list(w["active_per_rank"]))
            for k, v in row.items():
                cols.setdefault(k, []).append(v)
    return cols


def test_the_fixture_covers_every_config():
    assert [entry["config"] for entry in FIXTURE["configs"]] == list(CONFIGS)
    assert len(FIXTURE["recorded_at"]) == 40


@pytest.mark.parametrize(
    "index", range(len(CONFIGS)),
    ids=[
        "-".join(str(v) for v in cfg.values()).replace(" ", "")
        for cfg in CONFIGS
    ],
)
def test_counted_work_matches_the_executing_substrates(traces, index):
    entry = FIXTURE["configs"][index]
    cfg = entry["config"]
    params, trace = traces[cfg["world"]]
    got = _columns(cfg, trace, params)
    assert set(got) == set(entry["steps"])
    for field, expected in entry["steps"].items():
        for step, (a, b) in enumerate(zip(got[field], expected)):
            assert a == b, f"{field} at step {step}: {a} != {b}"
        assert len(got[field]) == len(expected), field

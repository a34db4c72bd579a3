"""Smoke test of the end-to-end benchmark (outside ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``: one
``run.py --smoke`` pass over every workload (< 30 s) plus the checks of
BENCHMARK.json against the benchmark contract's limits.
"""

import json
import pathlib
import re
import subprocess
import sys
import types

import pytest

from layers import install, null_broken
from spans import SpanTracer
from workloads import WORKLOADS, make_inputs

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_spec_meets_the_contract_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_seed_changes_the_generated_inputs():
    for name in WORKLOADS:
        assert make_inputs(name, 1) == make_inputs(name, 1)
        assert make_inputs(name, 1) != make_inputs(name, 2)
    # dist_r2 runs focus_2d's exact inputs
    focus, dist = make_inputs("focus_2d", 7), make_inputs("dist_r2", 7)
    assert (focus["foi"], focus["steps"], focus["dim"]) == (
        dist["foi"], dist["steps"], dist["dim"]
    )


def test_unresolvable_seam_reads_null_not_an_exception():
    tracer = SpanTracer("unit")
    sim = types.SimpleNamespace(backend=None, engine=None)  # every seam gone
    broken = install(tracer, sim, "dist")
    assert "engine.backend." in broken and tracer.missing
    metrics = null_broken(
        {"engine.backend.reduce.seconds": 1.0, "dist.strips_pulled": 4}, broken
    )
    assert metrics == {
        "engine.backend.reduce.seconds": None, "dist.strips_pulled": 4,
    }
    assert not tracer.wrap(object(), "no_such_attribute", "kernel")


def test_wrapped_seams_are_restored():
    class Layer:
        def work(self, n):
            return n + 1

    layer, tracer = Layer(), SpanTracer("unit")
    assert tracer.wrap(layer, "work", "kernel")
    assert layer.work(1) == 2 and tracer.seconds("kernel") > 0.0
    tracer.uninstall()
    assert "work" not in vars(layer) and layer.work(1) == 2
    assert len(tracer.pick("kernel")) == 1


def test_smoke_suite_reports_every_metric(spec, smoke):
    report, stdout = smoke
    assert report["smoke"] is True
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, w in report["workloads"].items():
        assert w["failed"] == 0 and w["failed_share"] == 0, w["errors"]
        assert w["attempted"] >= 1
        assert set(w["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        for metric, e in w["end_to_end"].items():
            assert e["median"] > 0 and e["n"] >= 1, (name, metric)
            assert f"{metric}" in stdout
        assert set(w["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        # nothing under src/ has moved: every seam resolves
        assert w["missing_seams"] == []
        assert None not in w["per_layer"].values()
    # dist_r2 ran focus_2d's inputs and must land on its digest
    digests = {n: w["digest"] for n, w in report["workloads"].items()}
    assert digests["dist_r2"] == digests["focus_2d"]
    assert not (HERE / "baseline.json").exists() or json.loads(
        (HERE / "baseline.json").read_text()
    )["smoke"] is False

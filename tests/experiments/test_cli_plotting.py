"""Tests for the CLI entry point and the ASCII/CSV output helpers."""

import csv
import os

import numpy as np
import pytest

from repro.experiments.cli import COMMANDS, main
from repro.experiments.plotting import (
    ascii_series,
    hbar_chart,
    write_csv,
)


class TestPlotting:
    def test_ascii_series_renders_all_points(self):
        x = np.array([1.0, 10.0, 100.0])
        chart = ascii_series(
            {"a": (x, x * 2), "b": (x, x * 3)}, logx=True, logy=True,
            title="t",
        )
        assert "t" in chart
        assert "o=a" in chart and "x=b" in chart
        assert chart.count("o") >= 3

    def test_ascii_series_constant_data(self):
        x = np.array([1.0, 2.0])
        chart = ascii_series({"flat": (x, np.array([5.0, 5.0]))})
        assert "flat" in chart  # no div-by-zero on zero span

    def test_hbar_chart_stacks(self):
        rows = [
            ("A", {"u": 10.0, "r": 30.0}),
            ("B", {"u": 10.0, "r": 5.0}),
        ]
        chart = hbar_chart(rows, width=40, title="bars")
        assert "bars" in chart
        assert "40.0s" in chart and "15.0s" in chart
        # A's bar is longer than B's.
        a_len = chart.splitlines()[1].count("#") + chart.splitlines()[1].count("=")
        b_len = chart.splitlines()[2].count("#") + chart.splitlines()[2].count("=")
        assert a_len > b_len

    def test_write_csv_roundtrip(self, tmp_path):
        path = str(tmp_path / "sub" / "rows.csv")
        write_csv(path, [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}])
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["b"] == "4.5"

    def test_write_csv_empty_noop(self, tmp_path):
        path = str(tmp_path / "none.csv")
        write_csv(path, [])
        assert not os.path.exists(path)


class TestCli:
    def test_all_paper_items_have_commands(self):
        assert set(COMMANDS) == {
            "table1", "fig4", "fig5", "table2", "fig6", "fig7", "fig8",
            "report",
        }

    def test_table1_runs(self, capsys, tmp_path):
        assert main(["table1", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Strong Scaling" in out

    def test_fig6_writes_csv(self, capsys, tmp_path, monkeypatch):
        # Shrink the workload for test speed.
        import repro.experiments.cli as cli
        import repro.experiments.scaling as scaling

        original = scaling.run_strong_scaling
        fast = lambda **kw: original(samples=8)
        monkeypatch.setattr(cli, "run_strong_scaling", fast)
        assert main(["fig6", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Speedup" in out and "{64,2048}" in out
        with open(tmp_path / "fig6_scaling.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert float(rows[0]["speedup"]) > 1.0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

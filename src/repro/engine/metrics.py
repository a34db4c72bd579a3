"""The one per-phase table a step is timed into.

Per phase of a :class:`~repro.engine.engine.StepEngine`'s schedule: host
seconds, calls, skips (which add no seconds) and counts on
:data:`~repro.obs.registry.DEFAULT_BUCKETS`, plus a row for the whole step.
``sim.phase_metrics``, the registry's engine families and the dist
per-rank counters (a rank's shared-memory rows) are views of it.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.obs.registry import DEFAULT_BUCKETS

_NBUCKETS = len(DEFAULT_BUCKETS) + 1  # + the +Inf overflow


class PhaseMetrics:
    """Cumulative per-phase counters, a row per name in ``names``, into
    the given ``seconds``/``calls``/``skips`` arrays if any (a dist rank's
    shared rows); a table of lists grows a row for a name it has not seen."""

    def __init__(self, names=(), seconds=None, calls=None, skips=None):
        self.names = list(names)
        n = len(self.names)
        self._seconds = [0.0] * n if seconds is None else seconds
        self._calls = [0] * n if calls is None else calls
        self._skips = [0] * n if skips is None else skips
        self._buckets = [[0] * _NBUCKETS for _ in range(n)]
        self.steps, self.step_seconds = 0, 0.0
        self.step_buckets = [0] * _NBUCKETS

    def observe(self, row: int, seconds: float, skipped: bool = False) -> None:
        """One pass through phase ``row``: the step loop's one write."""
        if skipped:
            self._skips[row] += 1
        else:
            self._seconds[row] += seconds
            self._calls[row] += 1
        self._buckets[row][bisect_left(DEFAULT_BUCKETS, seconds)] += 1

    def observe_step(self, seconds: float) -> None:
        self.steps += 1
        self.step_seconds += seconds
        self.step_buckets[bisect_left(DEFAULT_BUCKETS, seconds)] += 1

    def record(self, name: str, seconds: float, skipped: bool = False) -> None:
        self.observe(self._row(name), float(seconds), skipped)

    def _row(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._seconds.append(0.0)
            self._calls.append(0)
            self._skips.append(0)
            self._buckets.append([0] * _NBUCKETS)
        return self.names.index(name)

    def merge(self, other: "PhaseMetrics") -> "PhaseMetrics":
        """Add ``other``'s rows into this table by phase name (ranks into
        one run, engines into the registry's total); returns ``self``."""
        for name, secs, calls, skips, buckets in other.rows():
            i = self._row(name)
            self._seconds[i] += float(secs)
            self._calls[i] += int(calls)
            self._skips[i] += int(skips)
            self._buckets[i] = [a + b for a, b in zip(self._buckets[i], buckets)]
        self.steps += other.steps
        self.step_seconds += other.step_seconds
        self.step_buckets = [
            a + b for a, b in zip(self.step_buckets, other.step_buckets)
        ]
        return self

    # -- inspection ---------------------------------------------------------

    def rows(self):
        """``(name, seconds, calls, skips, buckets)`` per phase."""
        return zip(self.names, self._seconds, self._calls, self._skips,
                   self._buckets)

    @property
    def seconds(self) -> dict[str, float]:
        """Host seconds per executed phase."""
        return {n: float(s) for n, s, c, _, _ in self.rows() if c}

    @property
    def calls(self) -> dict[str, int]:
        return {n: int(c) for n, _, c, _, _ in self.rows() if c}

    @property
    def skips(self) -> dict[str, int]:
        return {n: int(k) for n, _, _, k, _ in self.rows() if k}

    def total_seconds(self) -> float:
        return float(sum(self._seconds))

    def phase_names(self) -> tuple[str, ...]:
        """Every phase seen, executed or skipped."""
        return tuple(n for n, _, c, k, _ in self.rows() if c or k)

    def summary(self) -> dict[str, dict]:
        """``{phase: {seconds, calls, skips, mean_seconds}}`` rows."""
        return {
            n: {"seconds": float(s), "calls": int(c), "skips": int(k),
                "mean_seconds": float(s) / c if c else 0.0}
            for n, s, c, k, _ in self.rows() if c or k
        }

    def format(self) -> str:
        """Aligned text table of :meth:`summary` (debugging helper)."""
        rows = self.summary()
        lines = [
            f"{'phase':<24}{'calls':>7}{'skips':>7}{'seconds':>12}"
            f"{'mean_seconds':>14}"
        ]
        for name, r in rows.items():
            lines.append(
                f"{name:<24}{r['calls']:>7}{r['skips']:>7}"
                f"{r['seconds']:>12.4f}{r['mean_seconds']:>14.6f}"
            )
        return "\n".join(lines)

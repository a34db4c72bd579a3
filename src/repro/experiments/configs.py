"""Table 1: the paper's experiment configuration matrix.

Quantities that vary within an experiment double from the minimum to the
maximum; compute units are reported as {GPUs, CPU cores}.  The FOI scaling
experiment's 1024-FOI CPU trial was not run by the authors (resource
limits) — our projector evaluates it anyway and EXPERIMENTS.md reports it
as an extrapolation beyond the paper.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    """A named single-run / ensemble configuration for ``simcov-repro run``.

    These are reproduction-scale presets (the paper's Table 1 grids are
    exascale); ``small_2d`` doubles as the spec of the serve benchmark
    workloads in ``benchmarks/e2e/workloads.py``.
    """

    name: str
    dim: tuple[int, ...]
    num_infections: int
    steps: int
    description: str

    def params(self):
        """The :class:`~repro.core.params.SimCovParams` this preset runs."""
        from repro.core.params import SimCovParams

        return SimCovParams.fast_test(
            dim=self.dim,
            num_infections=self.num_infections,
            num_steps=self.steps,
        )


RUN_CONFIGS = {
    cfg.name: cfg
    for cfg in (
        RunConfig(
            "small_2d", (16, 16), 2, 100,
            "16x16 smoke grid; the ensemble sims/sec benchmark workload",
        ),
        RunConfig(
            "medium_2d", (64, 64), 4, 200,
            "64x64 grid, the fast-test default scale",
        ),
        RunConfig(
            "large_2d", (128, 128), 8, 400,
            "128x128 grid for longer local studies",
        ),
        RunConfig(
            "small_3d", (16, 16, 8), 2, 100,
            "16x16x8 volume exercising the 3D code paths",
        ),
    )
}


def get_run_config(name: str) -> RunConfig:
    """Look up a named run config; unknown names raise a ``ValueError``
    that lists what exists (never a raw ``KeyError``)."""
    try:
        return RUN_CONFIGS[name]
    except KeyError:
        known = ", ".join(sorted(RUN_CONFIGS))
        raise ValueError(
            f"unknown config {name!r}; known configs: {known} "
            f"(see --list-configs)"
        ) from None


def format_run_configs() -> str:
    """Human-readable table of the named run configs."""
    header = f"{'name':<12}{'dim':<14}{'foi':<5}{'steps':<7}description"
    lines = [header, "-" * len(header)]
    for cfg in RUN_CONFIGS.values():
        lines.append(
            f"{cfg.name:<12}{'x'.join(map(str, cfg.dim)):<14}"
            f"{cfg.num_infections:<5}{cfg.steps:<7}{cfg.description}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Table 1 row."""

    name: str
    min_dim: tuple[int, int, int]
    max_dim: tuple[int, int, int]
    min_foi: int
    max_foi: int
    min_units: tuple[int, int]  # {GPUs, CPUs}
    max_units: tuple[int, int]
    note: str = ""

    def dims_sequence(self) -> list[tuple[int, int]]:
        """The (2D) problem sizes visited, doubling voxels each step."""
        out = [self.min_dim[:2]]
        while out[-1][0] * out[-1][1] < self.max_dim[0] * self.max_dim[1]:
            nx, ny = out[-1]
            # Doubling total voxels alternates doubling each axis so dims
            # stay square at every other step (10k -> 14.1k -> 20k ...).
            if nx == ny:
                out.append((int(round(nx * 2**0.5)), int(round(ny * 2**0.5))))
            else:
                out.append((ny, ny))
        return out

    def units_sequence(self) -> list[tuple[int, int]]:
        out = [self.min_units]
        while out[-1] != self.max_units:
            out.append((out[-1][0] * 2, out[-1][1] * 2))
        return out

    def foi_sequence(self) -> list[int]:
        out = [self.min_foi]
        while out[-1] < self.max_foi:
            out.append(out[-1] * 2)
        return out


TABLE1 = {
    "correctness": ExperimentConfig(
        "Correctness",
        (10_000, 10_000, 1), (10_000, 10_000, 1),
        16, 16, (4, 128), (4, 128),
    ),
    "strong": ExperimentConfig(
        "Strong Scaling",
        (10_000, 10_000, 1), (10_000, 10_000, 1),
        16, 16, (4, 128), (64, 2048),
    ),
    "weak": ExperimentConfig(
        "Weak Scaling",
        (10_000, 10_000, 1), (40_000, 40_000, 1),
        16, 256, (4, 128), (64, 2048),
    ),
    "foi": ExperimentConfig(
        "FOI Scaling",
        (20_000, 20_000, 1), (20_000, 20_000, 1),
        64, 1024, (16, 512), (16, 512),
        note="1024-FOI CPU trial not run by the authors",
    ),
}


def format_table1() -> str:
    """Render Table 1 as the paper prints it."""
    header = (
        f"{'Experiment':<16}{'Min. Dimensions':<22}{'Max. Dimensions':<22}"
        f"{'Min FOI':<9}{'Max FOI':<9}{'Min {G,C}':<12}{'Max {G,C}':<12}"
    )
    lines = [header, "-" * len(header)]
    for cfg in TABLE1.values():
        min_units = f"{{{cfg.min_units[0]},{cfg.min_units[1]}}}"
        max_units = f"{{{cfg.max_units[0]},{cfg.max_units[1]}}}"
        lines.append(
            f"{cfg.name:<16}"
            f"{'x'.join(map(str, cfg.min_dim)):<22}"
            f"{'x'.join(map(str, cfg.max_dim)):<22}"
            f"{cfg.min_foi:<9}{cfg.max_foi:<9}"
            f"{min_units:<12}{max_units:<12}"
        )
    lines.append(
        "* 1024-FOI SIMCoV-CPU trial was beyond the authors' compute budget;"
        " this reproduction projects it."
    )
    return "\n".join(lines)

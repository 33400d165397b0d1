"""The benchmark's workloads: which `train` calls each one makes.

A workload is a list of cells (method, environment, m) at one profile.
One pass of a workload is a list of groups; a group trains every cell once
with one config seed, used as both the environment seed and the training
seed, so that each group draws fresh environment inputs and initial
weights. Everything the program sees is the config dict built here from
the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    method: str
    env: str
    m: int

    @property
    def label(self) -> str:
        return f"{self.method}/{self.env}/m{self.m}"


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    cells: tuple
    # Steps per `train` call. Each group is one timing sample, so a call is
    # kept short enough that a run collects dozens of them; desk calls run
    # exactly one eval interval, paper calls end before their first one.
    steps: int
    # Groups per pass, sized so that a pass takes about 13 s on a 2-core
    # machine: a 30 s run then repeats most of them, and the many config
    # seeds average out how much a step's cost depends on the seed.
    seeds_per_pass: int

    def config(self, cell: Cell, seed: int, out_dir: str, eval_every: int | None = None) -> dict:
        run = {"seeds": [seed], "steps": self.steps, "out_dir": out_dir}
        if eval_every is not None:
            run["eval_every"] = eval_every
        return {"method": cell.method, "env": {"name": cell.env, "m": cell.m, "seed": seed}, "run": run}

    def schedule(self, seed: int) -> list:
        """One pass: groups of (cell, config seed), one call per cell."""
        return [[(cell, 1000 * seed + j) for cell in self.cells] for j in range(self.seeds_per_pass)]

    def reference_config(self, cell: Cell, out_dir: str) -> dict:
        """The warm-up call for a cell, the same whatever the workload seed.

        It evaluates after its last step as well, so that its metrics.csv,
        compared with perfbench/reference.json, shows what training did
        even where `steps` ends before the profile's first eval interval.
        """
        return self.config(cell, 0, out_dir, eval_every=self.steps)


# Why each workload exists is recorded in BENCHMARK.json; in short:
# scalar-desk is the cheap common path (rollout and policy dominate, no
# min-norm calls), hvi-paper is hypervolume at the paper's batch size on a
# wide front (tug-of-war) and a collapsed one (outlier-prone), and
# mgda-arms-m4 is the only one that runs the min-norm solver, m=4 and the
# hashed-arm environment.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scalar-desk",
            profile="desk",
            cells=(Cell("average", "tug-of-war", 3), Cell("product", "tug-of-war", 3)),
            steps=100,
            seeds_per_pass=28,
        ),
        Workload(
            name="hvi-paper",
            profile="paper",
            cells=(Cell("hvi", "tug-of-war", 3), Cell("hvi", "outlier-prone", 3)),
            steps=8,
            seeds_per_pass=20,
        ),
        Workload(
            name="mgda-arms-m4",
            profile="desk",
            cells=(Cell("mgda", "gaussian-arms", 4),),
            steps=100,
            seeds_per_pass=16,
        ),
    )
}

# Dispatch invariants checked on the traced counts: these layers must get
# exactly zero calls on the named workloads.
ZERO_CALLS = {
    "scalar-desk": ("mgda.min_norm_point",),
    "hvi-paper": ("mgda.min_norm_point",),
    "mgda-arms-m4": (
        "rewards.aggregate_average",
        "rewards.aggregate_product",
        "rewards.aggregate_hvi",
    ),
}

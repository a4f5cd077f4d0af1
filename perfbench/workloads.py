"""Seeded job lists of the three benchmark workloads.

Every workload is a list of CLI argument vectors.  The seed drives a
``random.Random`` that generates those vectors; the program under test
sees nothing but the argv it is handed.  Each job also records the files
it writes and the parameters the output checks need.

Workloads (see README.md for the reasons behind each):

* ``delay-sweep``: one feedback bifurcation diagram, the sweep from
  ``scripts/run_figures.py`` at 24 beta values over [0, 4].
* ``scan-grid``: three ``scan2d`` region maps (n = 3, 4, 10) and one
  ``scan1d`` threshold scan; no delayed map at all.
* ``trajectories``: two ``simulate`` runs at each n = 3, 4, 10, the three reference
  ``delay --beta`` runs and a few ``fixed-point`` / ``stability`` queries,
  all writing every recorded state.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

DELAY_BASELINE = (0.9, 0.85, 0.95, 0.8)
DELAY_P0 = (0.25, 0.26, 0.24, 0.25)
DELAY_TAU = 30

# The sweep of the bifurcation diagram.  Its grid spacing (about 0.17)
# is fine enough to land in every regime band of the reference system:
# fixed point below beta ~1.45, periodic up to ~2.0, quasi-periodic
# around 2.05-2.3, mixed aperiodic/periodic/quasi-periodic up to ~3.95
# and a domain violation above ~3.955.
SWEEP_BETAS = 24
SWEEP_STEPS = 20_000
SWEEP_TRANSIENT = 16_000

# The three reference feedback strengths of the acceptance suite, run at
# the CLI's default steps and transient.
REFERENCE_BETAS = ("1.2", "1.5", "3.0")

SCAN_RANGE = (0.05, 1.5)
SCAN2D_STEPS = {3: 80, 4: 160, 10: 60}
SCAN1D_N = 5
SCAN1D_STEPS = 600
SCAN1D_RANGE = (0.05, 1.2)

# Favorability ranges per dimension, two simulate runs each.  They keep
# every component clear of its survival threshold, where convergence to
# tol 1e-12 slows without bound; within them a run takes a few hundred
# (n = 3) to a few thousand (n = 10) steps.
SIMULATE_C_RANGE = {3: (0.5, 1.0), 4: (0.6, 1.0), 10: (0.9, 1.0)}
SIMULATE_RUNS = 2
SIMULATE_STRIDE = 2


@dataclass
class Job:
    """One CLI invocation and what the checks need to know about it."""

    kind: str
    argv: list[str]
    outputs: list[Path]
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    """A seeded job list; ``work_name`` names the unit of ``work_per_s``."""

    jobs: list[Job]
    work_name: str


def _vec(values) -> str:
    return ",".join(f"{v:.6g}" for v in values)


def _shares(rng: random.Random, n: int, units: int = 10_000) -> list[float]:
    """Positive shares on a 1/units lattice that sum to one exactly in
    decimal, so the CLI accepts them without renormalising."""
    cuts = sorted(rng.sample(range(1, units), n - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [units])]
    return [k / units for k in counts]


def _delay_sweep(rng: random.Random, out: Path) -> list[Job]:
    # The reference start has p_1 = p_4; with the equal global_max
    # baselines that symmetry is invariant and gives the rich regime mix
    # of the diagram.  The jitter keeps it (an asymmetric start of the
    # same size falls onto the aperiodic attractor almost everywhere).
    d1, d2 = rng.randint(-8, 8), rng.randint(-8, 8)
    units = [2500 + d1, 2600 + d2, 2400 - 2 * d1 - d2, 2500 + d1]
    p0 = [u / 10_000 for u in units]
    lo = rng.uniform(0.0, 0.04)
    hi = 3.995 - rng.uniform(0.0, 0.025)
    argv = [
        "delay", "--c", _vec(DELAY_BASELINE), "--tau", str(DELAY_TAU),
        "--p0", _vec(p0), "--sweep-beta", f"{lo:.4f}:{hi:.4f}:{SWEEP_BETAS}",
        "--steps", str(SWEEP_STEPS), "--transient", str(SWEEP_TRANSIENT),
        "--format", "json", "--out", str(out / "diagram.json"),
        "--svg", str(out / "diagram.svg"),
    ]
    params = {
        "baseline": list(DELAY_BASELINE), "p0": p0, "tau": DELAY_TAU,
        "lo": float(f"{lo:.4f}"), "hi": float(f"{hi:.4f}"), "count": SWEEP_BETAS,
        "steps": SWEEP_STEPS, "transient": SWEEP_TRANSIENT,
        "check_seed": rng.randrange(2**31),
    }
    return [Job("sweep", argv, [out / "diagram.json", out / "diagram.svg"], params)]


def _scan_grid(rng: random.Random, out: Path) -> list[Job]:
    jobs = []
    lo, hi = SCAN_RANGE
    for n, steps in SCAN2D_STEPS.items():
        fixed = [round(rng.uniform(0.4 if n == 3 else 0.5, 1.2), 4) for _ in range(n - 2)]
        path = out / f"scan2d_n{n}.csv"
        argv = [
            "scan2d", "--vary", "1,2", "--range", f"{lo}:{hi}:{steps}",
            "--c", "_,_," + _vec(fixed), "--out", str(path),
        ]
        jobs.append(Job("scan2d", argv, [path], {"n": n, "fixed": fixed, "steps": steps}))

    # Others drawn so that every one of them survives over the whole
    # range: the only collapse-set change is component 2's own threshold.
    while True:
        others = [round(rng.uniform(0.75, 1.0), 4) for _ in range(SCAN1D_N - 1)]
        inv = sum(1.0 / c for c in others)
        if (SCAN1D_N - 1) / (inv + 1.0 / SCAN1D_RANGE[1]) < min(others):
            break
    c = others[:1] + ["_"] + others[1:]
    path = out / "scan1d.csv"
    argv = [
        "scan1d", "--vary", "2", "--range",
        f"{SCAN1D_RANGE[0]}:{SCAN1D_RANGE[1]}:{SCAN1D_STEPS}",
        "--c", ",".join(str(v) for v in c), "--out", str(path),
        "--svg", str(out / "scan1d.svg"),
    ]
    jobs.append(Job("scan1d", argv, [path, out / "scan1d.svg"],
                    {"index": 1, "others": others, "steps": SCAN1D_STEPS}))
    return jobs


def _trajectories(rng: random.Random, out: Path) -> list[Job]:
    jobs = []
    for (n, (lo, hi)), k in itertools.product(SIMULATE_C_RANGE.items(), range(SIMULATE_RUNS)):
        c = [round(rng.uniform(lo, hi), 4) for _ in range(n)]
        p0 = _shares(rng, n)
        stem = out / f"simulate_n{n}_{k}"
        argv = [
            "simulate", "--c", _vec(c), "--p0", _vec(p0), "--tol", "1e-12",
            "--record-every", str(SIMULATE_STRIDE), "--out", f"{stem}.csv",
            "--svg", f"{stem}.svg",
        ]
        jobs.append(Job("simulate", argv, [Path(f"{stem}.csv"), Path(f"{stem}.svg")],
                        {"c": c, "p0": p0, "stride": SIMULATE_STRIDE}))

    for beta in REFERENCE_BETAS:
        fmt = "json" if beta == "1.5" else "csv"
        path = out / f"delay_beta{beta}.{fmt}"
        argv = [
            "delay", "--c", _vec(DELAY_BASELINE), "--tau", str(DELAY_TAU),
            "--p0", _vec(DELAY_P0), "--beta", beta, "--format", fmt,
            "--out", str(path), "--svg", str(out / f"delay_beta{beta}.svg"),
        ]
        jobs.append(Job("delay", argv, [path, out / f"delay_beta{beta}.svg"],
                        {"beta": float(beta), "baseline": list(DELAY_BASELINE),
                         "p0": list(DELAY_P0), "tau": DELAY_TAU}))

    for k, n in enumerate((3, 4)):
        c = [round(rng.uniform(0.1, 1.0), 4) for _ in range(n)]
        path = out / f"fixed_point_{k}.json"
        argv = ["fixed-point", "--c", _vec(c), "--format", "json", "--out", str(path)]
        jobs.append(Job("fixed-point", argv, [path], {"c": c}))
    for k, n in enumerate((3, 5)):
        c = [round(rng.uniform(0.1, 1.0), 4) for _ in range(n)]
        path = out / f"stability_{k}.json"
        argv = ["stability", "--c", _vec(c), "--format", "json", "--out", str(path)]
        jobs.append(Job("stability", argv, [path], {"c": c}))
    return jobs


_BUILDERS = {
    "delay-sweep": (_delay_sweep, "betas_per_s"),
    "scan-grid": (_scan_grid, "cells_per_s"),
    "trajectories": (_trajectories, "states_per_s"),
}

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, out: Path) -> Workload:
    builder, work_name = _BUILDERS[name]
    rng = random.Random(f"{name}:{seed}")
    return Workload(builder(rng, out), work_name)

"""Output checks, run after the timed passes.

Each check reads the files a job wrote (and what it printed) and returns
a list of failure messages; an empty list means the job's output is
correct.  The references are the numpy oracles in ``oracles.py`` plus,
where the issue asks for it, the package's own closed forms
(``find_fixed_point`` for simulate limits, ``critical_value`` for scan1d
thresholds).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import oracles
from tracing import failed_step

# Cells whose oracle test sits this close (relative) to a boundary are
# not compared: the package flags them "critical" by its own guard.
BOUNDARY_MARGIN = 1e-9

REGIMES = ("fixed_point", "periodic", "quasi_periodic", "aperiodic", "error")


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """Metadata, header and data rows of a CSV the CLI wrote."""
    meta, rows, header = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header or [], rows


def data_section(path: Path) -> bytes:
    """The bytes that must repeat across runs: CSV data lines, the JSON
    text before its manifest, or a whole SVG."""
    raw = path.read_bytes()
    if path.suffix == ".csv":
        return b"\n".join(line for line in raw.split(b"\n") if not line.startswith(b"#"))
    if path.suffix == ".json":
        return raw.split(b'"manifest"')[0]
    return raw


def data_rows(path: Path) -> int:
    """Number of recorded states (CSV data rows or JSON states)."""
    if path.suffix == ".json":
        return len(json.loads(path.read_text())["data"]["states"])
    return len(read_csv(path)[2])


def _numbers(rows: list[list[str]]) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in rows])


def _zero_set(text: str) -> tuple[int, ...]:
    return tuple(int(z) - 1 for z in text.split(";") if z)


def _svg_ok(path: Path) -> list[str]:
    if not path.read_text().startswith("<svg"):
        return [f"{path.name}: not an SVG document"]
    return []


# ---------------------------------------------------------------------------
# per-job checks


def check_sweep(job, pkg) -> list[str]:
    p = job.params
    fails = _svg_ok(job.outputs[1])
    samples = json.loads(job.outputs[0].read_text())["data"]["samples"]
    betas = np.linspace(p["lo"], p["hi"], p["count"])
    if len(samples) != p["count"]:
        return fails + [f"sweep has {len(samples)} samples, expected {p['count']}"]
    if np.max(np.abs(np.array([s["beta"] for s in samples]) - betas)) > 1e-12:
        fails.append("sweep betas differ from the requested grid")
    for s in samples:
        if s["regime"] not in REGIMES:
            fails.append(f"beta {s['beta']}: unknown regime {s['regime']!r}")
        if (s["regime"] == "error") != (s["error"] is not None) or (s["error"] and s["extrema"]):
            fails.append(f"beta {s['beta']}: error flag, regime and extrema disagree")

    rng = random.Random(p["check_seed"])
    steady = [s for s in samples if s["regime"] in ("fixed_point", "periodic", "quasi_periodic")]
    picked = rng.sample(steady, min(2, len(steady))) + [s for s in samples if s["error"]]
    window = min(2000, p["steps"] - p["transient"] + 1)
    for s in picked:
        try:
            states = oracles.delayed_run(p["p0"], p["baseline"], s["beta"], p["tau"], p["steps"])
        except oracles.DomainStop as stop:
            if not s["error"] or failed_step(s["error"]) != stop.step:
                fails.append(f"beta {s['beta']}: reference stops at step {stop.step}, "
                             f"sweep reports {s['error']!r}")
            continue
        if s["error"]:
            fails.append(f"beta {s['beta']}: reference runs through, sweep reports an error")
            continue
        tail = states[-window:]
        want = (tail[-1:, 0] if s["regime"] == "fixed_point"
                else oracles.strict_extrema(tail[:, 0]))
        got = np.array(s["extrema"])
        if got.shape != want.shape or np.max(np.abs(got - want), initial=0.0) > 1e-9:
            fails.append(f"beta {s['beta']}: extrema differ from the reference map")
        if s["regime"] == "fixed_point" and np.ptp(tail, axis=0).max() >= 1e-8:
            fails.append(f"beta {s['beta']}: labelled fixed_point, reference tail moves")

    # Package states against the reference map on seeded short runs.
    core, delay = pkg.core, pkg.delay
    for _ in range(3):
        beta = rng.uniform(0.5, 3.9)
        start = np.array([rng.uniform(0.5, 1.5) for _ in range(4)])
        start /= start.sum()
        cfg = delay.DelayConfig(c_base=core.Favorability(np.array(p["baseline"])),
                                beta=beta, tau=p["tau"])
        try:
            traj = delay.simulate_delayed(core.SimplexState(start), cfg, steps=500, transient=0)
            want = oracles.delayed_run(start, p["baseline"], beta, p["tau"], 500)
        except (core.DomainViolationError, oracles.DomainStop) as exc:
            fails.append(f"short run at beta {beta}: {exc}")
            continue
        if np.max(np.abs(traj.as_array() - want)) > 1e-12:
            fails.append(f"short run at beta {beta}: states differ from the reference map")
    return fails


def check_scan2d(job, pkg) -> list[str]:
    p = job.params
    n, fixed, steps = p["n"], p["fixed"], p["steps"]
    _, _, rows = read_csv(job.outputs[0])
    if len(rows) != steps * steps:
        return [f"scan2d n={n}: {len(rows)} cells, expected {steps * steps}"]
    fails = []
    compared = 0
    for ci, cj, zs, critical in rows:
        if critical != "0":
            continue
        ci, cj, got = float(ci), float(cj), _zero_set(zs)
        if n == 3:
            want, margin = oracles.zero_set_n3([ci, cj, fixed[0]])
        elif n == 4:
            want, margin = oracles.zero_set_n4(ci, cj, fixed)
        else:
            alive, _, margin = oracles.survivors([ci, cj, *fixed])
            want = tuple(k for k in range(n) if k not in alive)
        if margin < BOUNDARY_MARGIN:
            continue
        compared += 1
        if got != want:
            fails.append(f"scan2d n={n} at ({ci}, {cj}): zero set {got}, reference {want}")
    if compared < 0.9 * steps * steps:
        fails.append(f"scan2d n={n}: only {compared} cells away from a boundary")
    return fails[:5]


def check_scan1d(job, pkg) -> list[str]:
    p = job.params
    i, others = p["index"], p["others"]
    fails = _svg_ok(job.outputs[1])
    meta, _, rows = read_csv(job.outputs[0])
    if len(rows) != p["steps"]:
        return fails + [f"scan1d: {len(rows)} samples, expected {p['steps']}"]
    expected = pkg.bifurcation.critical_value(i, np.array(others))
    found = json.loads(meta["critical_values"])
    if not expected.precondition_ok or len(found) != 1 \
            or abs(found[0] - expected.value) > 1e-8:
        fails.append(f"scan1d critical values {found}, critical_value gives {expected.value}")
    for row in rows:
        value, shares, zs, verdict = float(row[0]), row[1:-2], row[-2], row[-1]
        c = others[:i] + [value] + others[i:]
        alive, _, margin = oracles.survivors(c)
        if margin < BOUNDARY_MARGIN:
            continue
        want = oracles.limit_shares(c)
        got = np.array([float(x) for x in shares])
        if np.max(np.abs(got - want)) > 1e-12 or _zero_set(zs) != tuple(
                k for k in range(len(c)) if k not in alive) or verdict != "stable":
            fails.append(f"scan1d sample c={value}: {zs!r} {verdict} differs from the reference")
    return fails[:5]


def check_simulate(job, pkg, stdout: str) -> list[str]:
    p = job.params
    fails = _svg_ok(job.outputs[1])
    if "converged: True" not in stdout:
        fails.append("simulate did not report convergence")
    _, _, rows = read_csv(job.outputs[0])
    data = _numbers(rows)
    times = data[:, 0].astype(int)
    expected_times = list(range(0, times[-1], p["stride"])) + [times[-1]]
    if list(times) != expected_times:
        fails.append("simulate recorded times do not follow the stride")
    ref = oracles.static_run(p["p0"], p["c"], int(times[-1]))
    if np.max(np.abs(data[:, 1:] - ref[times])) > 1e-12:
        fails.append("simulate states differ from the reference map")
    core = pkg.core
    limit = pkg.equilibrium.find_fixed_point(core.SimplexState(np.array(p["p0"])),
                                             core.Favorability(np.array(p["c"])))
    if np.max(np.abs(data[-1, 1:] - limit.p_inf.p)) > 1e-8:
        fails.append("simulate limit is not find_fixed_point's within 1e-8")
    return fails


# Labels acceptance test 10 requires at the CLI's default steps.
REFERENCE_REGIMES = {1.2: "fixed_point", 3.0: "periodic"}


def check_delay(job, pkg) -> list[str]:
    p = job.params
    beta, path = p["beta"], job.outputs[0]
    fails = _svg_ok(job.outputs[1])
    if path.suffix == ".json":
        data = json.loads(path.read_text())["data"]
        regime = data["regime"]
        times = np.array(data["times"])
        states = np.array(data["states"])
    else:
        meta, _, rows = read_csv(path)
        regime = json.loads(meta["regime"])
        table = _numbers(rows)
        times, states = table[:, 0].astype(int), table[:, 1:]
    want = REFERENCE_REGIMES.get(beta)
    if (want and regime != want) or (want is None and regime == "fixed_point"):
        fails.append(f"delay beta={beta}: regime {regime}, acceptance requires "
                     f"{want or 'an oscillation'}")
    steps = pkg.delay.DEFAULT_STEPS
    transient = pkg.delay.DEFAULT_TRANSIENT
    if list(times) != list(range(transient, steps + 1)):
        return fails + [f"delay beta={beta}: recorded times are not {transient}..{steps}"]
    ref = oracles.delayed_run(p["p0"], p["baseline"], beta, p["tau"], steps)
    if np.max(np.abs(states - ref[transient:])) > 1e-9:
        fails.append(f"delay beta={beta}: states differ from the reference map")
    return fails


def check_fixed_point(job, pkg) -> list[str]:
    c = job.params["c"]
    data = json.loads(job.outputs[0].read_text())["data"]
    alive, _, margin = oracles.survivors(c)
    if margin < BOUNDARY_MARGIN:
        return []
    fails = []
    if tuple(k - 1 for k in data["active_set"]) != alive:
        fails.append(f"fixed-point active set {data['active_set']}, reference {alive}")
    if np.max(np.abs(np.array(data["p_inf"]) - oracles.limit_shares(c))) > 1e-12:
        fails.append("fixed-point p_inf differs from the reference")
    return fails


def check_stability(job, pkg) -> list[str]:
    c = job.params["c"]
    data = json.loads(job.outputs[0].read_text())["data"]
    p = oracles.limit_shares(c)
    moduli = oracles.tangential_moduli(p, c)
    got = np.sort(np.hypot(*np.array(data["tangential_spectrum"]).reshape(-1, 2).T))[::-1]
    trans = {j: oracles.transversal_value(p, c, j) for j in np.flatnonzero(p == 0.0)}
    fails = []
    if got.shape != moduli.shape or np.max(np.abs(got - moduli), initial=0.0) > 1e-6:
        fails.append(f"stability spectrum moduli {got}, reference {moduli}")
    radius = moduli[0] if moduli.size else 0.0
    if abs(data["spectral_radius"] - radius) > 1e-6:
        fails.append(f"stability radius {data['spectral_radius']}, reference {radius}")
    for j, v in trans.items():
        if abs(data["transversal_values"].get(str(j + 1), np.inf) - v) > 1e-12:
            fails.append(f"stability transversal value of {j + 1} differs from the reference")
    stable = radius < 1.0 and all(v < 1.0 for v in trans.values())
    if not data["marginal"] and (data["verdict"] == "stable") != stable:
        fails.append(f"stability verdict {data['verdict']}, reference stable={stable}")
    return fails


def check_job(job, pkg, stdout: str) -> list[str]:
    """All output checks of one job."""
    if job.kind == "simulate":
        return check_simulate(job, pkg, stdout)
    return {
        "sweep": check_sweep,
        "scan2d": check_scan2d,
        "scan1d": check_scan1d,
        "delay": check_delay,
        "fixed-point": check_fixed_point,
        "stability": check_stability,
    }[job.kind](job, pkg)

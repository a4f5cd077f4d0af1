"""Spans and counters around the package's public entry points.

The tracer patches names where their callers look them up (for example
``simplexdyn.cli.simulate_delayed`` and
``simplexdyn.bifurcation.find_fixed_point``) with a wrapper that records
a span ``module.function``: start, end and parent span.  Nothing under
``src/`` is edited; the patches are undone when the tracer is closed.
Spans stay in memory until ``write`` is called.

Limits, also printed with every traced result:

* When a beta sweep runs in a process pool, the spans inside the workers
  die with them.  The trace then holds only ``delay.beta_sweep`` and the
  counts it can read from the returned samples (map steps, recorded
  states, regime classifications, domain errors).
* ``delay.simulate_delayed`` and ``core.SimplexState`` times therefore
  come from in-process calls: the ``delay --beta`` runs of the
  trajectories workload, or a sweep run with ``--threads 1``.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from collections import Counter
from pathlib import Path

LAYERS = ("core", "dynamics", "equilibrium", "stability", "bifurcation", "delay", "cli")

LIMITS = (
    "spans inside process-pool workers are not visible: a pooled beta sweep "
    "records only delay.beta_sweep plus the counts read from its samples",
    "delay.simulate_delayed and core.SimplexState times come from in-process "
    "calls (the delay --beta runs of trajectories)",
)

_STEP = re.compile(r"at step (\d+)\b")


def failed_step(message: str) -> int:
    """Step number a DomainViolationError message reports."""
    match = _STEP.search(message)
    if match is None:
        raise ValueError(f"domain error without a step number: {message!r}")
    return int(match.group(1))


class Tracer:
    """Patches the package's entry points and records spans and counts."""

    def __init__(self, package):
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._install(package)

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span ``name`` (a plain call when inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, parent, 0, 0))
        self._stack.append(idx)
        self._open[name] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[idx] = (name, parent, start, end)

    def _wrap(self, module, attr: str, name: str, on_return=None, on_error=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            first_child = len(self.spans) + 1
            try:
                result = self.call(name, original, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if on_return is not None:
                on_return(result, args, kwargs, first_child)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def close(self):
        """Undo every patch, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- what to patch -----------------------------------------------------

    def _install(self, pkg):
        cli, delay, dynamics = pkg.cli, pkg.delay, pkg.dynamics
        bifurcation = pkg.bifurcation

        def count(name: str, k: int = 1):
            self.counts[name] += k

        def simulated(traj, *_):
            count("delay.map_steps", traj.steps_taken)
            count("delay.timed_map_steps", traj.steps_taken)
            count("delay.states_recorded", len(traj.states))

        def simulate_failed(exc):
            if isinstance(exc, pkg.core.DomainViolationError):
                count("delay.map_steps", failed_step(str(exc)))
                count("delay.timed_map_steps", failed_step(str(exc)))

        def classified_regime(*_):
            count("delay.classify_calls")

        def swept(samples, args, kwargs, first_child):
            self.counts["delay.workers"] = max(self.counts["delay.workers"],
                                              int(kwargs.get("workers", 1)))
            errors = [s for s in samples if s.error is not None]
            count("delay.domain_errors", len(errors))
            inside = any(n == "delay.simulate_delayed" for n, *_ in self.spans[first_child:])
            if inside:
                return
            # Pooled sweep: the workers' spans are gone, read the samples.
            steps, transient = kwargs["steps"], kwargs["transient"]
            ok = len(samples) - len(errors)
            count("delay.map_steps", ok * steps + sum(failed_step(s.error) for s in errors))
            count("delay.states_recorded", ok * (steps - transient + 1))
            count("delay.classify_calls", ok)

        def built(*_):
            count("core.states_built")

        def iterated(traj, *_):
            count("dynamics.iterate_steps", traj.steps_taken)

        def solved(*_):
            count("equilibrium.solves")
            if self._open["bifurcation.scan_1d"]:
                count("bifurcation.scan1d_solves")

        def classified(*_):
            count("stability.classify_calls")

        def scanned1(result, *_):
            count("bifurcation.scan1d_samples", len(result.samples))
            count("bifurcation.cells", len(result.samples))

        def scanned2(result, *_):
            count("bifurcation.cells", len(result.values_i) * len(result.values_j))

        for module in (cli, delay):
            self._wrap(module, "simulate_delayed", "delay.simulate_delayed",
                       simulated, simulate_failed)
            self._wrap(module, "classify_regime", "delay.classify_regime", classified_regime)
        self._wrap(cli, "beta_sweep", "delay.beta_sweep", swept)
        # Trajectory states: the only SimplexState constructions inside the
        # delay and dynamics layers.
        for module in (delay, dynamics):
            self._wrap(module, "SimplexState", "core.SimplexState", built)
        self._wrap(cli, "iterate", "dynamics.iterate", iterated)
        for module in (cli, bifurcation):
            self._wrap(module, "find_fixed_point", "equilibrium.find_fixed_point", solved)
            self._wrap(module, "classify", "stability.classify", classified)
        self._wrap(cli, "fixed_point_for_support", "equilibrium.fixed_point_for_support", solved)
        self._wrap(cli, "scan_1d", "bifurcation.scan_1d", scanned1)
        self._wrap(cli, "scan_2d", "bifurcation.scan_2d", scanned2)

    # -- reduction ---------------------------------------------------------

    def take_counts(self) -> Counter:
        """Counts since the last call; starts a fresh tally."""
        counts, self.counts = self.counts, Counter()
        return counts

    def pass_times(self, first: int = 0) -> dict[str, float]:
        """Inclusive seconds per span name and self seconds per layer, over
        the spans recorded from index ``first`` on."""
        spans = self.spans[first:]
        inclusive: Counter = Counter()
        child_ns: Counter = Counter()
        for name, parent, start, end in spans:
            inclusive[name] += end - start
            if parent >= first:
                child_ns[parent - first] += end - start
        self_ns: Counter = Counter()
        for k, (name, _, start, end) in enumerate(spans):
            self_ns[name.split(".")[0]] += end - start - child_ns[k]
        out = {name: ns / 1e9 for name, ns in inclusive.items()}
        out.update({f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS})
        return out

    def write(self, path: Path):
        """Write every recorded span as one JSON array per line:
        [index, parent, name, start_ns, end_ns]."""
        with open(path, "w") as fh:
            for k, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([k, parent, name, start, end]) + "\n")


def layer_metrics(times: list[dict[str, float]], counts: Counter, bytes_out: int,
                  traced_wall: list[float], plain_wall: list[float],
                  spans: int) -> dict[str, float]:
    """Per-layer metrics from the traced passes.

    Times are medians over the traced passes; counts are those of one
    pass (the caller checks that they repeat exactly).
    """
    def t(name: str) -> float:
        return statistics.median(p.get(name, 0.0) for p in times)

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    c = counts
    m = {
        "delay.simulate_s": t("delay.simulate_delayed"),
        "delay.map_steps": c["delay.map_steps"],
        "delay.states_recorded": c["delay.states_recorded"],
        "core.states_built": c["core.states_built"],
        "core.state_build_s": t("core.SimplexState"),
        "delay.classify_regime_s": t("delay.classify_regime"),
        "delay.classify_calls": c["delay.classify_calls"],
        "delay.beta_sweep_s": t("delay.beta_sweep"),
        "delay.workers": c["delay.workers"],
        "delay.domain_errors": c["delay.domain_errors"],
        "dynamics.iterate_s": t("dynamics.iterate"),
        "dynamics.iterate_steps": c["dynamics.iterate_steps"],
        "cli.bytes_out": bytes_out,
        "equilibrium.solve_s": t("equilibrium.find_fixed_point")
        + t("equilibrium.fixed_point_for_support"),
        "equilibrium.solves": c["equilibrium.solves"],
        "stability.classify_s": t("stability.classify"),
        "stability.classify_calls": c["stability.classify_calls"],
        "bifurcation.scan1d_s": t("bifurcation.scan_1d"),
        "bifurcation.scan2d_s": t("bifurcation.scan_2d"),
        "bifurcation.cells": c["bifurcation.cells"],
        "bifurcation.useful_solve_ratio": rate(c["bifurcation.scan1d_samples"],
                                               c["bifurcation.scan1d_solves"]),
    }
    # Steps of in-process simulate spans only: pooled sweeps add steps
    # but no visible time.
    m["delay.steps_per_s"] = rate(c["delay.timed_map_steps"], m["delay.simulate_s"])
    m["dynamics.steps_per_s"] = rate(m["dynamics.iterate_steps"], m["dynamics.iterate_s"])
    m["equilibrium.us_per_solve"] = 1e6 * rate(m["equilibrium.solve_s"], m["equilibrium.solves"])
    m["stability.us_per_classify"] = 1e6 * rate(m["stability.classify_s"],
                                                m["stability.classify_calls"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t(f"{layer}.self_s")
    m["cli.serialise_mb_per_s"] = rate(bytes_out / 1e6, m["cli.self_s"])
    m["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(plain_wall)
    m["trace.spans"] = spans
    return {name: m[name] for name in UNITS}


# Every per-layer metric with its unit, in report order.
UNITS = {
    "delay.simulate_s": "s",
    "delay.map_steps": "count",
    "delay.steps_per_s": "1/s",
    "delay.states_recorded": "count",
    "core.states_built": "count",
    "core.state_build_s": "s",
    "delay.classify_regime_s": "s",
    "delay.classify_calls": "count",
    "delay.beta_sweep_s": "s",
    "delay.workers": "count",
    "delay.domain_errors": "count",
    "dynamics.iterate_s": "s",
    "dynamics.iterate_steps": "count",
    "dynamics.steps_per_s": "1/s",
    "cli.bytes_out": "bytes",
    "cli.serialise_mb_per_s": "MB/s",
    "equilibrium.solve_s": "s",
    "equilibrium.solves": "count",
    "equilibrium.us_per_solve": "us",
    "stability.classify_s": "s",
    "stability.classify_calls": "count",
    "stability.us_per_classify": "us",
    "bifurcation.scan1d_s": "s",
    "bifurcation.scan2d_s": "s",
    "bifurcation.cells": "count",
    "bifurcation.useful_solve_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Counts that must repeat exactly between traced passes of one run.
EXACT_COUNTS = (
    "delay.map_steps", "delay.states_recorded", "core.states_built",
    "delay.classify_calls", "delay.domain_errors", "dynamics.iterate_steps",
    "equilibrium.solves", "stability.classify_calls", "bifurcation.cells",
    "bifurcation.scan1d_solves", "bifurcation.scan1d_samples", "delay.timed_map_steps",
)

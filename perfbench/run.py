#!/usr/bin/env python3
"""simplexdyn benchmark: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload {delay-sweep,scan-grid,trajectories}
                             --seed N --seconds S --trace {0,1}

The workload's seeded job list (see workloads.py) runs through
``simplexdyn.cli.main(argv)`` in this process, one job after the other
(a closed loop with one client).  One untimed warm-up pass comes first,
then passes repeat until ``--seconds`` have gone by.  Every output is
checked afterwards against the references in checks.py.

``--trace 0`` reports the end-to-end metrics (medians over the passes);
``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics (see tracing.py) plus the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

The package is imported from ``src/`` of the checkout this file sits in;
without that source tree the benchmark stops with exit code 2.  Outputs,
results and span files go to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up samples are taken between the timed passes, so that they see
# the same mix of fast and slow machine periods as the passes do.
SETUP_PER_PASS = 3
SETUP_MIN = 21
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import simplexdyn.cli\n"
    "simplexdyn.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)
MIN_PASSES = 3

NOTE = ("shared sandbox: no CPU pinning or frequency control is available, "
        "so timings include interference from other tenants")


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import simplexdyn from this checkout's src/, nowhere else."""
    init = SRC / "simplexdyn" / "__init__.py"
    if not init.is_file():
        die(f"package source {init.relative_to(ROOT)} not found in {ROOT}")
    sys.path.insert(0, str(SRC))
    import simplexdyn
    import simplexdyn.cli  # noqa: F401  (binds simplexdyn.cli and its imports)

    if Path(simplexdyn.__file__).resolve() != init.resolve():
        die(f"simplexdyn was imported from {simplexdyn.__file__}, not from {SRC}")
    return simplexdyn


def machine_facts(pkg, seed: int) -> dict:
    import numpy

    nproc = subprocess.run(["nproc"], capture_output=True, text=True, timeout=30)
    # The CLI's own default for --threads, read from its parser.
    probe = ["delay", "--c", "1,1", "--p0", "0.5,0.5", "--tau", "1", "--beta", "0"]
    return {
        "seed": seed,
        "nproc": int(nproc.stdout) if nproc.returncode == 0 else None,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cli_default_threads": pkg.cli.build_parser().parse_args(probe).threads,
        "machine": platform.machine(),
        "note": NOTE,
    }


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import simplexdyn.cli and
    build its parser."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(jobs, main, tracer=None) -> dict:
    """Run every job once, in order; time the whole list."""
    failures, stdouts = {}, []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for k, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tracer.call("cli.main", main, job.argv) if tracer else main(job.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "exception:\n" + traceback.format_exc()
        if code != 0:
            failures[k] = f"exit {code}: {err.getvalue().strip()}"
        stdouts.append(out.getvalue())
    wall = time.perf_counter() - t0
    # Pool workers are joined inside beta_sweep, so their CPU is counted.
    return {"wall": wall, "cpu": _cpu_seconds() - cpu0, "failures": failures,
            "stdouts": stdouts}


def _snapshot(jobs, checks) -> list[dict]:
    return [{p: checks.data_section(p) for p in job.outputs if p.exists()} for job in jobs]


def work_units(workload, checks) -> int:
    """Units of work_per_s: betas, grid cells plus scan1d samples, or
    recorded states written."""
    total = 0
    for job in workload.jobs:
        if job.kind == "sweep":
            total += job.params["count"]
        elif job.kind == "scan2d":
            total += job.params["steps"] ** 2
        elif job.kind == "scan1d":
            total += job.params["steps"]
        elif job.kind in ("simulate", "delay"):
            total += checks.data_rows(job.outputs[0])
    return total


def measure(jobs, main, seconds: float, tracer=None) -> dict:
    """Timed passes until ``seconds`` have gone by.  With a tracer, plain
    and traced passes alternate and end in equal numbers; without one,
    set-up samples run between the passes, outside the measured time."""
    plain, traced, times, counts, setup = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.active, mark = True, len(tracer.spans)
            tracer.take_counts()
            traced.append(run_pass(jobs, main, tracer))
            tracer.active = False
            times.append(tracer.pass_times(mark))
            counts.append(tracer.take_counts())
            last = traced[-1]
        else:
            plain.append(run_pass(jobs, main))
            last = plain[-1]
        if tracer is None:
            t0 = time.perf_counter()
            setup += [setup_sample() for _ in range(SETUP_PER_PASS)]
            deadline += time.perf_counter() - t0
        # Stop when another pass would end more than half a pass late.
        if deadline - time.perf_counter() >= 0.5 * last["wall"]:
            continue
        if tracer is None and len(plain) >= MIN_PASSES:
            break
        if tracer is not None and traced and len(traced) == len(plain):
            break
    if tracer is None:
        setup += [setup_sample() for _ in range(SETUP_MIN - len(setup))]
    return {"plain": plain, "traced": traced, "times": times, "counts": counts,
            "setup": setup}


def check_outputs(jobs, pkg, checks, passes, first) -> tuple[int, list[str]]:
    """Failed jobs and messages: non-zero exits in any pass, plus jobs of
    the last pass whose output fails a check or whose data sections
    differ from the warm-up pass."""
    failed = sum(len(p["failures"]) for p in passes)
    problems = [f"pass {n}, job {k} ({jobs[k].kind}): {msg}"
                for n, p in enumerate(passes) for k, msg in p["failures"].items()]
    last = _snapshot(jobs, checks)
    for k, job in enumerate(jobs):
        try:
            found = checks.check_job(job, pkg, passes[-1]["stdouts"][k])
        except Exception:
            found = ["check crashed:\n" + traceback.format_exc()]
        if first[k] != last[k]:
            found.append("data sections differ between two runs of the same argv")
        if found:
            failed += 1
            problems += [f"job {k} ({job.kind}): {msg}" for msg in found]
    return failed, problems


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")

    pkg = load_package()
    import checks
    import tracing

    facts = machine_facts(pkg, args.seed)
    if args.workload == "delay-sweep" and facts["cli_default_threads"] > facts["affinity_cpus"]:
        die(f"the CLI default would start {facts['cli_default_threads']} sweep workers "
            f"on {facts['affinity_cpus']} available cores")

    out_dir = WORK / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, out_dir)
    jobs = workload.jobs

    tracer = tracing.Tracer(pkg) if args.trace else None
    try:
        warm = run_pass(jobs, pkg.cli.main)
        first = _snapshot(jobs, checks)
        units = work_units(workload, checks)
        runs = measure(jobs, pkg.cli.main, args.seconds, tracer)
    finally:
        if tracer:
            tracer.close()
    for child in multiprocessing.active_children():
        child.join()
    # The set-up interpreters are children too, but they load a subset of
    # what this process holds, so they never set the peak.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    plain, traced = runs["plain"], runs["traced"]
    failed, problems = check_outputs(jobs, pkg, checks, [warm] + plain + traced, first)
    attempted = len(jobs) * (1 + len(plain) + len(traced))

    if args.trace:
        counts = runs["counts"]
        if any(c[name] != counts[0][name] for c in counts for name in tracing.EXACT_COUNTS):
            problems.append("per-layer counts differ between traced passes")
        bytes_out = sum(p.stat().st_size for job in jobs for p in job.outputs)
        metrics = tracing.layer_metrics(runs["times"], counts[0], bytes_out,
                                        [p["wall"] for p in traced], [p["wall"] for p in plain],
                                        len(tracer.spans))
        units_of = tracing.UNITS
        spans_path = out_dir / f"spans-seed{args.seed}.jsonl"
        tracer.write(spans_path)
    else:
        walls = [p["wall"] for p in plain]
        metrics = {
            "setup_s": statistics.median(runs["setup"]),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "peak_rss_mb": max(own, kids) / 1024.0,
            "work_per_s": statistics.median(units / w for w in walls),
        }
        units_of = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "work_per_s": "1/s"}

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(f"loop: closed, one client, {len(jobs)} jobs per pass; 1 warm-up pass, "
          f"{len(plain)} plain and {len(traced)} traced timed passes")
    for name, value in metrics.items():
        alias = f"  ({workload.work_name})" if name == "work_per_s" else ""
        print(f"  {name:34s} {value:>16.6g} {units_of[name]}{alias}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>16.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    print(f"  work per pass: {units} {workload.work_name.removesuffix('_per_s')}")
    if args.workload == "delay-sweep":
        samples = json.loads(jobs[0].outputs[0].read_text())["data"]["samples"]
        tally = collections.Counter(s["regime"] for s in samples)
        print("  sweep regimes: " + json.dumps(dict(sorted(tally.items()))))
    if args.trace:
        total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        split = {layer: round(metrics[f"{layer}.self_s"] / total, 4)
                 for layer in tracing.LAYERS}
        print("  traced self-time share per layer: " + json.dumps(split))
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        for limit in tracing.LIMITS:
            print(f"  limit: {limit}")
    for line in problems:
        print(f"  FAIL {line}")

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  facts=facts, problems=problems, work_units=units,
                  pass_walls=[p["wall"] for p in plain + traced],
                  setup_samples=runs["setup"])
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

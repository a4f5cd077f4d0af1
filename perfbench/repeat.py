#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --workloads delay-sweep scan-grid trajectories \\
        --seeds 1-10 [--seconds 20] [--trace 0] [--out summary.json]

For every workload and metric it prints the median of the per-run
values and the spread, the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  ``--out`` writes the raw per-run results, the summary and the
machine facts of the first run as JSON.  Runs are sequential, one at a
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="repeat the benchmark over seeds")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"], result["elapsed_s"] = seed, time.perf_counter() - t0
            facts = [line for line in lines if line.startswith("facts: ")]
            report.setdefault("facts", json.loads(facts[0][len("facts: "):]) if facts else None)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"elapsed={result['elapsed_s']:.1f}s", flush=True)
        summary = summarise(runs)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:13s} {name:32s} median {s['median']:<14.6g} "
                  f"{s['unit']:6s} spread {spread}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

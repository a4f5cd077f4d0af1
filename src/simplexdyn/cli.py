"""Command-line frontend.

Subcommands: simulate, fixed-point, stability, scan1d, scan2d, delay.
Data files are deterministic: identical invocations produce identical
bytes except for the timestamp, which lives only in the metadata block
('#'-prefixed comment lines in CSV, the "manifest" object in JSON).
Indices are 1-based in all user-facing input and output.

Exit codes: 0 success, 1 domain or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    DimensionError,
    DomainViolationError,
    Favorability,
    SimplexState,
)
from .dynamics import IterationConfig, iterate
from .equilibrium import FixedPointReport, find_fixed_point, fixed_point_for_support
from .stability import classify
from .bifurcation import scan_1d, scan_2d
from .delay import (
    DEFAULT_STEPS,
    DEFAULT_TRANSIENT,
    DelayConfig,
    GLOBAL_MAX,
    PER_COMPONENT,
    beta_sweep,
    classify_regime,
    simulate_delayed,
)

DETERMINISM_NOTE = "deterministic map, no random seed"


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")


def _parse_vector_holes(text: str) -> list[Optional[float]]:
    """Vector syntax with '_' placeholders marking varied slots."""
    out: list[Optional[float]] = []
    for item in text.split(","):
        if item.strip() == "_":
            out.append(None)
        else:
            try:
                out.append(float(item))
            except ValueError:
                raise argparse.ArgumentTypeError(f"not a number or '_': {item!r}")
    return out


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must be lo:hi:steps, got {text!r}")
    if not lo < hi or steps < 2:
        raise argparse.ArgumentTypeError(f"need lo < hi and steps >= 2, got {text!r}")
    return lo, hi, steps


def _parse_positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_index_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated indices, got {text!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")
    return i, j


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _manifest(command: str, params: dict) -> dict:
    clean = {}
    for key, value in params.items():
        if isinstance(value, np.ndarray):
            clean[key] = [float(v) for v in value]
        else:
            clean[key] = value
    return {
        "command": command,
        "parameters": clean,
        "version": __version__,
        "determinism": DETERMINISM_NOTE,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_csv(path: str, manifest: dict, header: Sequence[str], rows, extra_meta=None):
    lines = [
        f"# simplexdyn {manifest['version']}",
        f"# command: {manifest['command']}",
        "# parameters: " + json.dumps(manifest["parameters"], sort_keys=True),
        f"# determinism: {manifest['determinism']}",
    ]
    for key, value in dict(extra_meta or {}).items():
        lines.append(f"# {key}: {json.dumps(value, sort_keys=True)}")
    lines.append(f"# generated: {manifest['timestamp']}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, (int, float, np.floating)) else str(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, manifest: dict, data: dict):
    with open(path, "w") as fh:
        json.dump({"manifest": manifest, "data": data}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_output(path: str, fmt: str, manifest: dict, header, rows, data: dict, extra_meta=None):
    if fmt == "json":
        _write_json(path, manifest, data)
    else:
        _write_csv(path, manifest, header, rows, extra_meta or {})


# ---------------------------------------------------------------------------
# minimal SVG plots (text generation only; a convenience, never a contract)


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]


def _svg_axes(x0, y0, x1, y1, xlim, ylim) -> list[str]:
    parts = [
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="black"/>'
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = xlim[0] + frac * (xlim[1] - xlim[0])
        yv = ylim[0] + frac * (ylim[1] - ylim[0])
        px = x0 + frac * (x1 - x0)
        py = y0 - frac * (y0 - y1)
        parts.append(f'<text x="{px:.1f}" y="{y0 + 16}" text-anchor="middle" font-size="10">{xv:.4g}</text>')
        parts.append(f'<text x="{x0 - 6}" y="{py:.1f}" text-anchor="end" font-size="10">{yv:.4g}</text>')
    return parts


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2"]


def _scale(v, lim, p0, p1):
    if lim[1] == lim[0]:
        return 0.5 * (p0 + p1)
    return p0 + (v - lim[0]) / (lim[1] - lim[0]) * (p1 - p0)


def _write_svg_lines(path: str, x: np.ndarray, series: list[np.ndarray], names: list[str], title: str):
    width, height = 800, 500
    x0, y0, x1, y1 = 60, height - 40, width - 20, 40
    xlim = (float(np.min(x)), float(np.max(x)))
    allv = np.concatenate(series)
    ylim = (float(np.min(allv)), float(np.max(allv)))
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 0.5, ylim[1] + 0.5)
    parts = _svg_header(width, height, title) + _svg_axes(x0, y0, x1, y1, xlim, ylim)
    for k, ys in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{_scale(xv, xlim, x0, x1):.2f},{_scale(yv, ylim, y0, y1):.2f}"
            for xv, yv in zip(x, ys)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>')
        parts.append(
            f'<text x="{x1 - 60}" y="{y1 + 14 + 14 * k}" font-size="11" fill="{color}">{names[k]}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _write_svg_scatter(path: str, x: np.ndarray, y: np.ndarray, title: str):
    width, height = 800, 500
    x0, y0, x1, y1 = 60, height - 40, width - 20, 40
    if x.size == 0:
        x, y = np.array([0.0]), np.array([0.0])
    xlim = (float(np.min(x)), float(np.max(x)))
    ylim = (float(np.min(y)), float(np.max(y)))
    if xlim[0] == xlim[1]:
        xlim = (xlim[0] - 0.5, xlim[1] + 0.5)
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 0.5, ylim[1] + 0.5)
    parts = _svg_header(width, height, title) + _svg_axes(x0, y0, x1, y1, xlim, ylim)
    for xv, yv in zip(x, y):
        parts.append(
            f'<circle cx="{_scale(xv, xlim, x0, x1):.2f}" cy="{_scale(yv, ylim, y0, y1):.2f}" '
            'r="1.2" fill="#1f77b4"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# shared serialization of report objects


def _one_based(indices) -> list[int]:
    return [int(i) + 1 for i in indices]


def _report_data(report: FixedPointReport, fav: Favorability) -> dict:
    return {
        "p_inf": [float(v) for v in report.p_inf.p],
        "r_inf": [float(v) for v in report.r_inf.r],
        "active_set": _one_based(report.active_set.indices),
        "lambda": report.lambda_value,
        "residual": report.residual,
        "critical_indices": _one_based(report.critical_indices),
        "c": [float(v) for v in fav.c],
    }


def _print_report(report: FixedPointReport):
    print(f"active set M* = {{{', '.join(str(i) for i in _one_based(report.active_set.indices))}}}")
    print(f"threshold Lambda = {report.lambda_value:.10g}")
    print("p_inf = (" + ", ".join(f"{v:.10g}" for v in report.p_inf.p) + ")")
    print("r_inf = (" + ", ".join(f"{v:.10g}" for v in report.r_inf.r) + ")")
    print(f"one-step residual = {report.residual:.3g}")
    if report.critical_indices:
        print(f"critical (at-threshold) components: {_one_based(report.critical_indices)}")


# ---------------------------------------------------------------------------
# subcommands


def _build(parser, ctor, *ctor_args, **ctor_kwargs):
    """Construct a domain object from CLI input; bad input is a usage error."""
    try:
        return ctor(*ctor_args, **ctor_kwargs)
    except (DimensionError, ValueError) as exc:
        parser.error(str(exc))


def _cmd_simulate(args, parser) -> int:
    p0 = _build(parser, SimplexState, args.p0)
    fav = None
    if not args.uniform:
        if args.c is None:
            parser.error("either --c or --uniform is required")
        fav = _build(parser, Favorability, args.c)
        if fav.n != p0.n:
            parser.error(f"--c has {fav.n} components but --p0 has {p0.n}")
    cfg = IterationConfig(
        max_steps=args.max_steps,
        tol=args.tol,
        record_every=args.record_every,
        snap_zeros=args.snap,
    )
    traj = iterate(p0, fav, cfg)
    final = traj.final
    print(f"converged: {traj.converged} after {traj.steps_taken} steps "
          f"(residual {traj.final_residual:.3g})")
    print("limit = (" + ", ".join(f"{v:.10g}" for v in final.p) + ")")

    params = {
        "c": None if args.uniform else args.c,
        "uniform": args.uniform,
        "p0": args.p0,
        "tol": args.tol,
        "max_steps": args.max_steps,
        "record_every": args.record_every,
    }
    manifest = _manifest("simulate", params)
    if args.out:
        header = ["t"] + [f"p_{i + 1}" for i in range(p0.n)]
        rows = [[t, *state.p] for t, state in zip(traj.times, traj.states)]
        data = {
            "times": list(traj.times),
            "states": [[float(v) for v in s.p] for s in traj.states],
            "converged": traj.converged,
            "steps_taken": traj.steps_taken,
            "final_residual": traj.final_residual,
        }
        _write_output(args.out, args.format, manifest, header, rows, data)
        print(f"wrote {args.out}")
    if args.svg:
        arr = traj.as_array()
        _write_svg_lines(
            args.svg,
            np.asarray(traj.times, dtype=float),
            [arr[:, k] for k in range(arr.shape[1])],
            [f"p_{k + 1}" for k in range(arr.shape[1])],
            "trajectory",
        )
        print(f"wrote {args.svg}")
    return 0


def _cmd_fixed_point(args, parser) -> int:
    fav = _build(parser, Favorability, args.c)
    if args.p0 is not None:
        p0 = _build(parser, SimplexState, args.p0)
        if p0.n != fav.n:
            parser.error(f"--p0 has {p0.n} components but --c has {fav.n}")
    else:
        p0 = SimplexState.uniform(fav.n)
    report = find_fixed_point(p0, fav)
    _print_report(report)

    manifest = _manifest("fixed-point", {"c": args.c, "p0": args.p0})
    if args.out:
        header = ["i", "c", "p_inf", "r_inf", "active"]
        rows = [
            [i + 1, fav.c[i], report.p_inf.p[i], report.r_inf.r[i],
             int(i in report.active_set.indices)]
            for i in range(fav.n)
        ]
        extra = {"lambda": report.lambda_value, "residual": report.residual}
        _write_output(args.out, args.format, manifest, header, rows,
                      _report_data(report, fav), extra)
        print(f"wrote {args.out}")
    return 0


def _cmd_stability(args, parser) -> int:
    if args.uniform:
        if args.n is None and args.at is None:
            parser.error("--uniform needs --n or --at to fix the dimension")
        n = args.n if args.n is not None else len(args.at)
        fav = _build(parser, Favorability, np.ones(n))
    else:
        if args.c is None:
            parser.error("either --c or --uniform is required")
        fav = _build(parser, Favorability, args.c)

    if args.at is not None:
        point = _build(parser, SimplexState, args.at)
        if point.n != fav.n:
            parser.error(f"--at has {point.n} components, expected {fav.n}")
        report = fixed_point_for_support(fav, point.support())
        gap = float(np.max(np.abs(report.p_inf.p - point.p)))
        if gap > 1e-8:
            raise ValueError(
                f"--at point is not a fixed point for these constants "
                f"(distance {gap:.3g} from the equilibrium on its support)"
            )
    elif args.at_uniform:
        report = fixed_point_for_support(fav, tuple(range(fav.n)))
    else:
        report = find_fixed_point(SimplexState.uniform(fav.n), fav)

    result = classify(report, fav)
    print(f"verdict: {result.verdict}" + (" (marginal)" if result.marginal else ""))
    print(f"tangential spectral radius = {result.spectral_radius:.12g}")
    if result.tangential_spectrum:
        vals = ", ".join(
            f"{z.real:.10g}" if abs(z.imag) < 1e-14 else f"{z.real:.8g}{z.imag:+.8g}j"
            for z in result.tangential_spectrum
        )
        print(f"tangential eigenvalues: [{vals}]")
    if result.transversal_values:
        tv = ", ".join(f"{i + 1}: {v:.10g}" for i, v in sorted(result.transversal_values.items()))
        print(f"transversal values: {{{tv}}}")

    if args.out:
        manifest = _manifest("stability", {
            "c": None if args.uniform else args.c,
            "uniform": args.uniform,
            "at": args.at,
            "at_uniform": args.at_uniform,
        })
        data = {
            "verdict": result.verdict,
            "marginal": result.marginal,
            "spectral_radius": result.spectral_radius,
            "tangential_spectrum": [[z.real, z.imag] for z in result.tangential_spectrum],
            "transversal_values": {str(i + 1): v for i, v in result.transversal_values.items()},
            "fixed_point": _report_data(report, fav),
        }
        header = ["kind", "index", "real", "imag"]
        rows = [["tangential", "", z.real, z.imag] for z in result.tangential_spectrum]
        rows += [["transversal", i + 1, v, 0.0] for i, v in sorted(result.transversal_values.items())]
        _write_output(args.out, args.format, manifest, header, rows, data,
                      {"verdict": result.verdict})
        print(f"wrote {args.out}")
    return 0


def _assemble_base(holes: list[Optional[float]], varied: Sequence[int], parser) -> np.ndarray:
    hole_idx = [k for k, v in enumerate(holes) if v is None]
    varied0 = sorted(int(v) - 1 for v in varied)
    if hole_idx and hole_idx != varied0:
        parser.error(
            f"placeholder positions {[k + 1 for k in hole_idx]} do not match --vary {list(varied)}"
        )
    for v in varied0:
        if not (0 <= v < len(holes)):
            parser.error(f"--vary index {v + 1} out of range for a {len(holes)}-component vector")
    base = np.array([1.0 if v is None else v for v in holes], dtype=float)
    if np.any(base <= 0.0):
        parser.error("favorability entries must be positive")
    return base


def _cmd_scan1d(args, parser) -> int:
    base = _assemble_base(args.c, [args.vary], parser)
    lo, hi, steps = args.range
    i = args.vary - 1
    result = scan_1d(i, lo, hi, steps, base)
    print(f"scanned c_{args.vary} over [{lo}, {hi}] in {steps} samples")
    if result.critical_values:
        vals = ", ".join(f"{v:.10g}" for v in result.critical_values)
        print(f"critical values of c_{args.vary}: [{vals}]")
    else:
        print("no collapse-set change inside the scanned range")

    manifest = _manifest("scan1d", {
        "vary": args.vary, "range": list(args.range),
        "c": [None if v is None else v for v in args.c],
    })
    if args.out:
        if args.format == "json":
            _write_json(args.out, manifest, {
                "parameter_index": args.vary,
                "samples": [
                    {
                        "c_value": s.c_value,
                        "p_inf": [float(v) for v in s.p_inf],
                        "zero_set": _one_based(s.zero_set),
                        "verdict": s.verdict,
                    }
                    for s in result.samples
                ],
                "critical_values": list(result.critical_values),
            })
        else:
            n = base.size
            header = ["c_value"] + [f"p_{k + 1}" for k in range(n)] + ["zero_set", "verdict"]
            rows = [
                [s.c_value, *s.p_inf, ";".join(str(z + 1) for z in s.zero_set), s.verdict]
                for s in result.samples
            ]
            _write_csv(args.out, manifest, header, rows,
                       {"critical_values": list(result.critical_values)})
        print(f"wrote {args.out}")
    if args.svg:
        xs = np.array([s.c_value for s in result.samples])
        ys = np.array([s.p_inf[i] for s in result.samples])
        _write_svg_lines(args.svg, xs, [ys], [f"p_{args.vary}"],
                         f"limit share vs c_{args.vary}")
        print(f"wrote {args.svg}")
    return 0


def _cmd_scan2d(args, parser) -> int:
    base = _assemble_base(args.c, list(args.vary), parser)
    lo, hi, steps = args.range
    i, j = args.vary[0] - 1, args.vary[1] - 1
    result = scan_2d(i, j, lo, hi, steps, base)

    counts: dict[tuple, int] = {}
    for row in result.labels:
        for label in row:
            counts[label.zero_set] = counts.get(label.zero_set, 0) + 1
    summary = ", ".join(
        f"{{{';'.join(str(z + 1) for z in zs) or '-'}}}: {cnt}"
        for zs, cnt in sorted(counts.items())
    )
    print(f"grid {steps}x{steps}; zero-set regions: {summary}")

    manifest = _manifest("scan2d", {
        "vary": list(args.vary), "range": list(args.range),
        "c": [None if v is None else v for v in args.c],
    })
    if args.out:
        if args.format == "json":
            _write_json(args.out, manifest, {
                "values_i": [float(v) for v in result.values_i],
                "values_j": [float(v) for v in result.values_j],
                "labels": [
                    [{"zero_set": _one_based(l.zero_set), "critical": l.critical} for l in row]
                    for row in result.labels
                ],
                "gamma1": [[float(a), float(b)] for a, b in result.gamma1],
                "gamma2": [[float(a), float(b)] for a, b in result.gamma2],
            })
        else:
            header = [f"c_{args.vary[0]}", f"c_{args.vary[1]}", "zero_set", "critical"]
            rows = []
            for a, vi in enumerate(result.values_i):
                for b, vj in enumerate(result.values_j):
                    label = result.labels[a][b]
                    rows.append([
                        vi, vj,
                        ";".join(str(z + 1) for z in label.zero_set),
                        int(label.critical),
                    ])
            _write_csv(args.out, manifest, header, rows)
        print(f"wrote {args.out}")
    return 0


def _cmd_delay(args, parser) -> int:
    fav = _build(parser, Favorability, args.c)
    p0 = _build(parser, SimplexState, args.p0)
    if p0.n != fav.n:
        parser.error(f"--p0 has {p0.n} components but --c has {fav.n}")
    if (args.beta is None) == (args.sweep_beta is None):
        parser.error("exactly one of --beta or --sweep-beta is required")
    cfg = DelayConfig(c_base=fav, beta=args.beta or 0.0, tau=args.tau,
                      baseline_mode=args.baseline_mode)

    if args.beta is not None:
        traj = simulate_delayed(p0, cfg, steps=args.steps, transient=args.transient)
        report = classify_regime(traj, window=min(args.window, len(traj.states)),
                                 coordinate=args.coordinate - 1)
        period = f", period {report.period}" if report.period else ""
        print(f"regime: {report.regime}{period}")
        print("final state = (" + ", ".join(f"{v:.10g}" for v in traj.final.p) + ")")
        manifest = _manifest("delay", {
            "c": args.c, "p0": args.p0, "beta": args.beta, "tau": args.tau,
            "baseline_mode": args.baseline_mode, "steps": args.steps,
            "transient": args.transient,
        })
        if args.out:
            header = ["t"] + [f"p_{k + 1}" for k in range(p0.n)]
            rows = [[t, *s.p] for t, s in zip(traj.times, traj.states)]
            data = {
                "regime": report.regime,
                "period": report.period,
                "times": list(traj.times),
                "states": [[float(v) for v in s.p] for s in traj.states],
                "tail_extrema": [float(v) for v in report.tail_extrema],
            }
            _write_output(args.out, args.format, manifest, header, rows, data,
                          {"regime": report.regime})
            print(f"wrote {args.out}")
        if args.svg:
            arr = traj.as_array()
            _write_svg_lines(args.svg, np.asarray(traj.times, dtype=float),
                             [arr[:, k] for k in range(arr.shape[1])],
                             [f"p_{k + 1}" for k in range(arr.shape[1])],
                             f"delayed trajectory, beta={args.beta}")
            print(f"wrote {args.svg}")
        return 0

    lo, hi, steps = args.sweep_beta
    betas = np.linspace(lo, hi, steps)
    samples = beta_sweep(p0, cfg, betas, steps=args.steps, transient=args.transient,
                         coordinate=args.coordinate - 1)
    tally: dict[str, int] = {}
    for s in samples:
        tally[s.regime] = tally.get(s.regime, 0) + 1
    print("sweep regimes: " + ", ".join(f"{k}: {v}" for k, v in sorted(tally.items())))

    manifest = _manifest("delay", {
        "c": args.c, "p0": args.p0, "sweep_beta": list(args.sweep_beta),
        "tau": args.tau, "baseline_mode": args.baseline_mode,
        "steps": args.steps, "transient": args.transient,
        "coordinate": args.coordinate,
    })
    if args.out:
        header = ["beta", "extremum"]
        rows = [[s.beta, e] for s in samples for e in s.extrema]
        data = {
            "samples": [
                {
                    "beta": s.beta,
                    "regime": s.regime,
                    "period": s.period,
                    "extrema": [float(v) for v in s.extrema],
                    "error": s.error,
                }
                for s in samples
            ],
        }
        _write_output(args.out, args.format, manifest, header, rows, data)
        print(f"wrote {args.out}")
    if args.svg:
        xs = np.array([s.beta for s in samples for _ in s.extrema])
        ys = np.array([e for s in samples for e in s.extrema])
        _write_svg_scatter(args.svg, xs, ys, "feedback-strength bifurcation diagram")
        print(f"wrote {args.svg}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_output_args(sub, svg: bool = True):
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="output file format (default csv)")
    if svg:
        sub.add_argument("--svg", help="also write a minimal SVG plot here")
    sub.add_argument("--threads", type=_parse_positive_int, default=1,
                     help="ignored: every command runs in this one process "
                          "(kept for old command lines; will be removed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexdyn",
        description="Attractive mean-field share dynamics on the probability simplex.",
    )
    parser.add_argument("--version", action="version", version=f"simplexdyn {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="iterate the map and export the trajectory")
    sim.add_argument("--c", type=_parse_vector, help="favorability constants")
    sim.add_argument("--uniform", action="store_true", help="use the uniform map (all c equal)")
    sim.add_argument("--p0", type=_parse_vector, required=True, help="initial shares")
    sim.add_argument("--tol", type=float, default=1e-12, help="stop displacement (default 1e-12)")
    sim.add_argument("--max-steps", type=int, default=100_000)
    sim.add_argument("--record-every", type=int, default=None, help="state recording stride")
    sim.add_argument("--snap", action="store_true",
                     help="snap coordinates below 1e-15 to exact zero after each step")
    _add_output_args(sim)

    fp = subs.add_parser("fixed-point", help="analytic limit state for given constants")
    fp.add_argument("--c", type=_parse_vector, required=True)
    fp.add_argument("--p0", type=_parse_vector, default=None,
                    help="initial shares (default: interior uniform)")
    _add_output_args(fp, svg=False)

    st = subs.add_parser("stability", help="eigenvalue classification of an equilibrium")
    st.add_argument("--c", type=_parse_vector)
    st.add_argument("--uniform", action="store_true", help="uniform map (all c = 1)")
    st.add_argument("--n", type=int, help="dimension for --uniform")
    st.add_argument("--at", type=_parse_vector, default=None,
                    help="classify at this fixed point")
    st.add_argument("--at-uniform", action="store_true",
                    help="classify at the full-support equilibrium")
    _add_output_args(st, svg=False)

    s1 = subs.add_parser("scan1d", help="sweep one favorability and find thresholds")
    s1.add_argument("--vary", type=int, required=True, help="1-based index to vary")
    s1.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI:STEPS")
    s1.add_argument("--c", type=_parse_vector_holes, required=True,
                    help="constants with '_' in the varied slot")
    _add_output_args(s1)

    s2 = subs.add_parser("scan2d", help="two-parameter region map")
    s2.add_argument("--vary", type=_parse_index_pair, required=True, metavar="I,J")
    s2.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI:STEPS")
    s2.add_argument("--c", type=_parse_vector_holes, required=True,
                    help="constants with '_' in both varied slots")
    _add_output_args(s2, svg=False)

    dl = subs.add_parser("delay", help="delayed-feedback simulation and beta sweeps")
    dl.add_argument("--c", type=_parse_vector, required=True, help="baseline constants")
    dl.add_argument("--p0", type=_parse_vector, required=True)
    dl.add_argument("--tau", type=int, required=True, help="feedback time lag (steps)")
    dl.add_argument("--beta", type=float, default=None, help="feedback strength")
    dl.add_argument("--sweep-beta", type=_parse_range, default=None, metavar="LO:HI:STEPS")
    dl.add_argument("--baseline-mode", choices=[PER_COMPONENT, GLOBAL_MAX],
                    default=GLOBAL_MAX,
                    help="baseline reading (default global_max, which reproduces "
                         "the reference oscillation regimes)")
    dl.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    dl.add_argument("--transient", type=int, default=DEFAULT_TRANSIENT)
    dl.add_argument("--window", type=int, default=2000, help="classification window")
    dl.add_argument("--coordinate", type=int, default=1,
                    help="1-based coordinate for extrema sampling")
    _add_output_args(dl)

    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fixed-point": _cmd_fixed_point,
    "stability": _cmd_stability,
    "scan1d": _cmd_scan1d,
    "scan2d": _cmd_scan2d,
    "delay": _cmd_delay,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args, parser)
    except (DimensionError, DomainViolationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

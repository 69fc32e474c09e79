"""Command-line front end: list built-in surfaces, sweep, verify.

Exit codes are the process-level contract: 0 all good, 1 input or model
error, 2 verdict failure under --strict.

Surface definitions come either from a built-in name or from an INI-style
config file::

    [surface]
    name = my-cusp
    genus = 0
    ends = 1
    core = analytic:12.566370614359172   ; or: core = polar-cap
    chi = 1                              ; optional, checked for consistency

    [end1]
    g = exp(-2*t)
    t_min = 0.0

Each ``[endN]`` section supplies the metric coefficient ``g`` in the
expression DSL and the chart's inner edge ``t_min``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .dsl import ParseError
from .model import (
    AnalyticCore,
    ModelInvalid,
    PolarCap,
    SurfaceModel,
    Topology,
    chart_from_expression,
    euler_char,
)
from .quadrature import Tolerance
from .sweep import SweepReport, run_sweep
from .zoo import ZOO_BUILDERS, zoo_entry

CSV_HEADER = ["h", "mu", "lambda", "c_trunc", "quad_error", "gb_residual"]


class InputError(ValueError):
    """Bad CLI input: unknown surface, malformed config, bad ranges."""


@dataclass(frozen=True)
class RunConfig:
    surface: str
    h_min: float = 1.0
    h_max: float = 64.0
    steps: int = 12
    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    output_format: str = "human"
    output_path: str | None = None
    strict: bool = False

    def __post_init__(self):
        if not self.h_min < self.h_max:
            raise InputError("h_min must be below h_max")
        if self.steps < 3:
            raise InputError("steps must be at least 3")
        if not (0.0 < self.abs_tol < 1.0 and 0.0 < self.rel_tol < 1.0):
            raise InputError("tolerances must lie in (0, 1)")
        if self.output_format not in ("json", "csv", "human"):
            raise InputError(f"unknown output format {self.output_format!r}")

    def tolerance(self) -> Tolerance:
        return Tolerance(abs_tol=self.abs_tol, rel_tol=self.rel_tol)

    def schedule(self) -> list[float]:
        n = self.steps
        if self.h_min > 0.0:
            ratio = (self.h_max / self.h_min) ** (1.0 / (n - 1))
            heights = [self.h_min * ratio**i for i in range(n)]
        else:
            heights = [
                self.h_min + (self.h_max - self.h_min) * i / (n - 1) for i in range(n)
            ]
        heights[-1] = self.h_max
        return heights


def load_surface_config(path: str | Path) -> SurfaceModel:
    """Read a surface definition file into a model."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    text = Path(path).read_text()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise InputError(f"cannot parse config {path}: {err}") from err
    if "surface" not in parser:
        raise InputError(f"config {path} lacks a [surface] section")
    top = parser["surface"]

    def need(key: str) -> str:
        if key not in top:
            raise InputError(f"config {path}: [surface] lacks {key!r}")
        return top[key]

    try:
        genus = int(need("genus"))
        n_ends = int(need("ends"))
    except ValueError as err:
        raise InputError(f"config {path}: {err}") from err
    name = top.get("name", Path(path).stem)

    charts = []
    for j in range(1, n_ends + 1):
        section = f"end{j}"
        if section not in parser:
            raise InputError(f"config {path} lacks section [{section}]")
        spec = parser[section]
        if "g" not in spec:
            raise InputError(f"config {path}: [{section}] lacks the metric key 'g'")
        source = spec["g"].strip().strip('"')
        t_min = float(spec.get("t_min", "0.0"))
        charts.append(chart_from_expression(source, t_min=t_min, label=source))

    core_text = need("core").strip()
    if core_text == "polar-cap":
        core = PolarCap()
    elif core_text.startswith("analytic:"):
        try:
            value = float(core_text.split(":", 1)[1])
        except ValueError as err:
            raise InputError(f"config {path}: bad analytic core value") from err
        core = AnalyticCore(value, tuple(c.t_min for c in charts))
    else:
        raise InputError(
            f"config {path}: core must be 'polar-cap' or 'analytic:<value>'"
        )

    topology = Topology(genus=genus, ends=n_ends)
    if "chi" in top:
        declared = int(top["chi"])
        actual = euler_char(topology)
        if declared != actual:
            raise InputError(
                f"config {path}: declared chi = {declared} but genus {genus} "
                f"with {n_ends} end(s) gives chi = {actual}"
            )
    hint = float(top["hypothesis_hint"]) if "hypothesis_hint" in top else None
    return SurfaceModel(
        topology=topology, ends=tuple(charts), core=core, name=name,
        hypothesis_hint=hint,
    )


def resolve_surface(surface: str | None, config: str | None) -> SurfaceModel:
    if config is not None:
        return load_surface_config(config)
    if surface is None:
        raise InputError("pass --surface <zoo name> or --config <file>")
    if surface in ZOO_BUILDERS:
        return zoo_entry(surface).model
    if Path(surface).suffix and Path(surface).exists():
        return load_surface_config(surface)
    raise InputError(f"unknown surface {surface!r}")


# ---------------------------------------------------------------------------
# report emission


def _finite_or_none(x: float | None):
    if x is None or not math.isfinite(x):
        return None
    return x


def report_to_json_dict(report: SweepReport) -> dict:
    return {
        "surface": report.surface,
        "chi": report.chi,
        "h1": report.h1,
        "L": report.limit.value if report.limit is not None else None,
        "L_error": report.limit.error_bound if report.limit is not None else None,
        "c_total": report.c_total_text(),
        "samples": [
            {
                "h": s.h,
                "mu": s.mu,
                "lambda": s.lam,
                "c_trunc": s.c_trunc,
                "quad_error": s.quad_error,
                "gb_residual": s.gb_residual,
            }
            for s in report.samples
        ],
        "verdicts": {
            name: {
                "status": v.status,
                "residual": _finite_or_none(v.residual),
                "bound": _finite_or_none(v.bound),
                "note": v.note,
            }
            for name, v in report.verdicts.items()
        },
    }


def report_to_csv(report: SweepReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for s in report.samples:
        writer.writerow(
            [repr(s.h), repr(s.mu), repr(s.lam), repr(s.c_trunc),
             repr(s.quad_error), repr(s.gb_residual)]
        )
    return buffer.getvalue()


def _fmt6(x: float | None) -> str:
    if x is None:
        return "-"
    return f"{x:.6g}"


def report_to_human(report: SweepReport) -> str:
    lines = [
        f"surface: {report.surface}   chi = {report.chi}",
        f"h1 = {_fmt6(report.h1) if report.h1 is not None else 'not found'}",
    ]
    if report.limit is not None:
        lines.append(
            f"L = {_fmt6(report.limit.value)} +- {_fmt6(report.limit.error_bound)}"
        )
    else:
        lines.append("L = not estimated")
    c = report.c_total_text()
    lines.append(
        f"c_total = {_fmt6(c) if isinstance(c, float) else c}"
        f" (route: {report.c_total_route})"
    )
    lines.append("")
    lines.append(f"{'h':>12} {'mu':>14} {'lambda':>14} {'c_trunc':>14} {'gb_resid':>10}")
    for s in report.samples:
        lines.append(
            f"{s.h:>12.6g} {s.mu:>14.6g} {s.lam:>14.6g} {s.c_trunc:>14.6g}"
            f" {s.gb_residual:>10.3g}"
        )
    lines.append("")
    lines.append(verdict_table(report))
    return "\n".join(lines)


def verdict_table(report: SweepReport) -> str:
    rows = [f"{'check':<24} {'status':<16} {'residual':>12} {'bound':>12}  note"]
    for name, v in report.verdicts.items():
        rows.append(
            f"{name:<24} {v.status:<16} {_fmt6(v.residual):>12}"
            f" {_fmt6(v.bound):>12}  {v.note}"
        )
    return "\n".join(rows)


def emit(text: str, output_path: str | None) -> None:
    if output_path is None or output_path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(output_path).write_text(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_list(fmt: str) -> int:
    entries = [zoo_entry(name) for name in ZOO_BUILDERS]
    if fmt == "json":
        records = [
            {
                "name": e.name,
                "chi": e.oracle.chi,
                "hypothesis_holds": e.oracle.hypothesis_holds,
                "c_total": e.oracle.c_total,
            }
            for e in entries
        ]
        print(json.dumps(records, indent=2))
    else:
        for e in entries:
            print(
                f"{e.name:<14} chi={e.oracle.chi}  "
                f"hypothesis={'yes' if e.oracle.hypothesis_holds else 'no':<3}  "
                f"c_total={e.oracle.c_total:.6g}"
            )
    return 0


def _run_config(config: RunConfig, model: SurfaceModel) -> SweepReport:
    return run_sweep(model, config.schedule(), tol=config.tolerance())


def cmd_sweep(config: RunConfig, model: SurfaceModel) -> int:
    report = _run_config(config, model)
    if config.output_format == "json":
        emit(json.dumps(report_to_json_dict(report), indent=2), config.output_path)
    elif config.output_format == "csv":
        emit(report_to_csv(report), config.output_path)
    else:
        emit(report_to_human(report), config.output_path)
    if config.strict and not report.all_pass:
        return 2
    return 0


def cmd_verify(config: RunConfig, model: SurfaceModel) -> int:
    report = _run_config(config, model)
    print(f"surface: {report.surface}   chi = {report.chi}")
    print(verdict_table(report))
    failures = [n for n, v in report.verdicts.items() if v.status == "fail"]
    if failures:
        print(f"FAIL: {', '.join(failures)}")
    else:
        print("all checks pass or are not applicable")
    if config.strict and failures:
        return 2
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvlab",
        description=(
            "Total-curvature and boundary-functional checks for complete "
            "surfaces with cylindrical ends"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list built-in surfaces")
    p_list.add_argument("--format", default="human", choices=("human", "json"))

    for name, help_text in (
        ("sweep", "run a truncation sweep and emit a report"),
        ("verify", "run a sweep and print the verdict table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--surface", help="built-in surface name or config path")
        p.add_argument("--config", help="surface definition file")
        p.add_argument("--h-min", type=float, default=1.0)
        p.add_argument("--h-max", type=float, default=64.0)
        p.add_argument("--steps", type=int, default=12)
        p.add_argument("--abs-tol", type=float, default=1e-9)
        p.add_argument("--rel-tol", type=float, default=1e-8)
        p.add_argument("--format", default="human", choices=("human", "json", "csv"))
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when any verdict fails")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args.format)
        config = RunConfig(
            surface=args.surface or args.config or "",
            h_min=args.h_min,
            h_max=args.h_max,
            steps=args.steps,
            abs_tol=args.abs_tol,
            rel_tol=args.rel_tol,
            output_format=args.format,
            output_path=args.out,
            strict=args.strict,
        )
        model = resolve_surface(args.surface, args.config)
        if args.command == "sweep":
            return cmd_sweep(config, model)
        return cmd_verify(config, model)
    except (InputError, ParseError, ModelInvalid, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

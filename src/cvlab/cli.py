"""Command-line front end: list built-in surfaces, sweep, verify.

Exit codes are the process-level contract: 0 all good, 1 usage, input or
model error, 2 verdict failure under --strict.

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
expression DSL and the chart's inner edge ``t_min``, where it is glued
to the core.  Any other section or key is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .dsl import ParseError
from .model import AnalyticCore, PolarCap, SurfaceModel, chart_from_expression
from .quadrature import DEFAULT_TOL, Tolerance
from .sweep import SweepReport, TruncationSample, run_sweep
from .zoo import ZOO_BUILDERS, all_entries, zoo_entry

CSV_HEADER = ["h", "mu", "lambda", "c_trunc", "quad_error", "gb_residual"]

# the keys a config file may carry; hypothesis_hint is read and ignored
SURFACE_KEYS = frozenset({"name", "genus", "ends", "core", "chi", "hypothesis_hint"})
END_KEYS = frozenset({"g", "t_min"})


class InputError(ValueError):
    """Bad CLI input: unknown surface, malformed config, bad ranges."""


@dataclass(frozen=True)
class RunConfig:
    surface: str
    h_min: float = 1.0
    h_max: float = 64.0
    steps: int = 12
    abs_tol: float = DEFAULT_TOL.abs_tol
    rel_tol: float = DEFAULT_TOL.rel_tol
    output_format: str = "human"
    output_path: str | None = None
    strict: bool = False

    def __post_init__(self):
        for key in ("h_min", "h_max"):
            if not math.isfinite(getattr(self, key)):
                raise InputError(f"{key} = {getattr(self, key)} is not finite")
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
            heights = [self.h_min * ratio**i for i in range(n - 1)]
            if math.isinf(ratio):  # h_max / h_min overflows: space the logarithms
                lo, hi = math.log(self.h_min), math.log(self.h_max)
                heights[1:] = [math.exp(lo + (hi - lo) * i / (n - 1)) for i in range(1, n - 1)]
        else:
            heights = [
                self.h_min + (self.h_max - self.h_min) * i / (n - 1) for i in range(n - 1)
            ]
        return [*heights, self.h_max]


def _inline_comment(line: str) -> int | None:
    """Where an inline ``;`` or ``#`` comment starts in ``line``, if anywhere.

    A prefix counts at column 0 or after whitespace.  The search runs in
    rounds, as in the standard library's ``ConfigParser`` on Python
    3.10-3.12: round ``r`` looks at the ``r``-th occurrence of each prefix,
    and the first round in which one counts cuts at the leftmost that
    counts.  So ``xy#z #w ;v`` is cut at ``;``: the first ``;`` counts in
    round 0, the second ``#`` only in round 1.  (Python 3.13 cuts at the
    leftmost prefix that counts, here the second ``#``.)
    """
    first = None  # (round, column)
    for prefix in ";#":
        at, rank = line.find(prefix), 0
        while at > 0 and not line[at - 1].isspace():
            at, rank = line.find(prefix, at + 1), rank + 1
        if at >= 0 and (first is None or (rank, at) < first):
            first = (rank, at)
    return None if first is None else first[1]


def _read_sections(text: str, path: str | Path) -> dict[str, dict[str, str]]:
    r"""The ``{section: {key: value}}`` of a config file's text.

    The grammar is that of the standard library's ``ConfigParser`` with
    ``inline_comment_prefixes=(";", "#")``, ``interpolation=None`` and
    ``default_section=""`` on Python 3.10-3.12, pinned here on every
    version: the same texts are accepted, with the same sections, keys and
    values, and the first line it would refuse raises :class:`InputError`.
    Lines end at ``\n`` only, as ``io.StringIO`` lines do; ``str.splitlines``
    would also split at ``\x0c``, ``\x85`` or ``\u2028``.
    """

    def refuse(n: int, why: str):
        raise InputError(f"cannot parse config {path}: line {n}: {why}")

    sections: dict[str, dict[str, list[str]]] = {}
    current = None  # the keys of the section being read
    parts = None  # the lines of the value being read
    indent = 0  # the indentation of the last header or key line
    for n, line in enumerate(text.split("\n"), 1):
        cut = _inline_comment(line) if ";" in line or "#" in line else None
        value = line[:cut].strip()
        if not value:
            if cut is None and parts is not None:  # a blank line inside a value
                parts.append("")
            continue
        depth = len(line) - len(line.lstrip())
        if parts is not None and depth > indent:  # a continuation line
            parts.append(value)
            continue
        indent = depth
        close = value.rfind("]")
        if value[0] == "[" and close > 1:  # "[name] junk": the name ends at the last "]"
            name = value[1:close]
            if name in sections:
                refuse(n, f"section {name!r} appears twice")
            current = sections[name] = {}
            parts = None
            continue
        if current is None:
            refuse(n, f"{value!r} comes before the first [section] header")
        key, delimiter, rest = value.partition("=")
        if ":" in key:  # the first "=" or ":" splits the line
            key, delimiter, rest = value.partition(":")
        if not delimiter:
            refuse(n, f"{value!r} is neither a [section] header nor 'key = value'")
        key = key.rstrip().lower()
        if not key:
            refuse(n, f"{value!r} has no key before {delimiter!r}")
        if key in current:
            refuse(n, f"key {key!r} appears twice in section {name!r}")
        parts = current[key] = [rest.strip()]
    return {
        name: {key: "\n".join(lines).rstrip() for key, lines in keys.items()}
        for name, keys in sections.items()
    }


def load_surface_config(path: str | Path) -> SurfaceModel:
    """Read a surface definition file into a model."""
    # values are read verbatim: no %-interpolation.  "[DEFAULT]" is an
    # ordinary section, stray like any other: no key reaches every section.
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err  # not the path again
        raise InputError(f"cannot read config {path}: {reason}") from err
    sections = _read_sections(text, path)
    if "surface" not in sections:
        raise InputError(f"config {path} lacks a [surface] section")
    top = sections["surface"]

    def need(key: str) -> str:
        if key not in top:
            raise InputError(f"config {path}: [surface] lacks {key!r}")
        return top[key]

    def number(kind, section: str, key: str, text: str):
        try:
            return kind(text)
        except ValueError as err:
            msg = f"config {path}: [{section}] {key} {text!r} is not a valid {kind.__name__}"
            raise InputError(msg) from err

    genus = number(int, "surface", "genus", need("genus"))
    n_ends = number(int, "surface", "ends", need("ends"))
    name = top.get("name", file.stem)

    charts = []
    for j in range(1, n_ends + 1):
        section = f"end{j}"
        if section not in sections:
            raise InputError(f"config {path} lacks section [{section}]")
        spec = sections[section]
        if "g" not in spec:
            raise InputError(f"config {path}: [{section}] lacks the metric key 'g'")
        source = spec["g"].strip().strip('"')
        t_min = number(float, section, "t_min", spec.get("t_min", "0.0"))
        if not math.isfinite(t_min):
            raise InputError(f"config {path}: [{section}] t_min {t_min} is not finite")
        try:
            charts.append(chart_from_expression(source, t_min=t_min))
        except ParseError as err:
            raise InputError(f"config {path}: [{section}] g: {err}") from err

    core_text = need("core").strip()
    if core_text == "polar-cap":
        core = PolarCap()
    elif core_text.startswith("analytic:"):
        try:
            value = float(core_text.split(":", 1)[1])
        except ValueError as err:
            raise InputError(f"config {path}: bad analytic core value") from err
        if not math.isfinite(value):
            raise InputError(f"config {path}: analytic core value {value} is not finite")
        core = AnalyticCore(value)
    else:
        raise InputError(
            f"config {path}: core must be 'polar-cap' or 'analytic:<value>'"
        )

    model = SurfaceModel(genus=genus, ends=tuple(charts), core=core, name=name)
    keys = {"surface": SURFACE_KEYS}
    keys.update((f"end{j}", END_KEYS) for j in range(1, n_ends + 1))
    for section, spec in sections.items():
        if section not in keys:
            raise InputError(f"config {path}: unknown section {section!r}")
        for key in spec:
            if key not in keys[section]:
                raise InputError(f"config {path}: [{section}] unknown key {key!r}")
    if "chi" in top:
        declared = number(int, "surface", "chi", top["chi"])
        if declared != model.chi:
            raise InputError(
                f"config {path}: declared chi = {declared} but genus {genus} "
                f"with {n_ends} end(s) gives chi = {model.chi}"
            )
    return model


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
    """The JSON report, a float that is not finite written as ``null``
    (strict JSON has no ``Infinity``); the CSV keeps ``inf``."""
    samples = report.samples
    # one pass over the sample fields: a sum of finite floats is finite
    # unless it overflows, and then each field is only checked alone
    if not math.isfinite(sum(map(sum, samples))):
        samples = [TruncationSample(*map(_finite_or_none, s)) for s in samples]
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
            for s in samples
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
    # a float's repr holds no comma, quote or line break, so joining the
    # fields gives the bytes of csv.writer(lineterminator="\n")
    rows = [",".join(CSV_HEADER)]
    rows += [
        f"{s.h!r},{s.mu!r},{s.lam!r},{s.c_trunc!r},{s.quad_error!r},{s.gb_residual!r}"
        for s in report.samples
    ]
    return "\n".join(rows) + "\n"


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
    text = text if text.endswith("\n") else text + "\n"
    if output_path is None or output_path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(output_path).write_text(text)
    except OSError as err:
        raise InputError(f"cannot write {output_path}: {err.strerror or err}") from err


def _check_writable(output_path: str | None) -> None:
    """Fail on an unwritable ``output_path`` up front; appending leaves the file as it is."""
    try:
        if output_path not in (None, "-"):
            open(output_path, "a").close()
    except OSError as err:
        raise InputError(f"cannot write {output_path}: {err.strerror or err}") from err


# ---------------------------------------------------------------------------
# subcommands


def cmd_list(fmt: str) -> int:
    entries = all_entries()
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


def cmd_sweep(config: RunConfig, model: SurfaceModel) -> int:
    _check_writable(config.output_path)
    report = run_sweep(model, config.schedule(), tol=config.tolerance())
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
    report = run_sweep(model, config.schedule(), tol=config.tolerance())
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


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are bad input: one ``error:`` line and exit code 1."""

    def error(self, message):
        raise InputError(f"{message} (see {self.prog} --help)")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
        p.add_argument("--h-min", type=float, default=RunConfig.h_min)
        p.add_argument("--h-max", type=float, default=RunConfig.h_max)
        p.add_argument("--steps", type=int, default=RunConfig.steps)
        p.add_argument("--abs-tol", type=float, default=RunConfig.abs_tol)
        p.add_argument("--rel-tol", type=float, default=RunConfig.rel_tol)
        if name == "sweep":
            p.add_argument(
                "--format", default=RunConfig.output_format, choices=("human", "json", "csv")
            )
            p.add_argument("--out", default=None, help="output path (default stdout)")
        else:
            p.set_defaults(format=RunConfig.output_format, out=None)
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when any verdict fails")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
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
    # bad input (a usage error, InputError, ParseError, ModelInvalid) and
    # a sweep that fails (DomainError, NonPositiveMu) are ValueErrors
    except (ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

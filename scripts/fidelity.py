#!/usr/bin/env python3
"""Render every benchmark surface and compare the reports with a parent checkout.

Usage (from anywhere):

    python3 scripts/fidelity.py --seeds 7 11 [--parent /path/to/parent/checkout]

For each seed and each workload of ``perfbench/workloads.py`` (zoo,
dsl-theta, dsl-ends) the script sweeps every surface of one benchmark
pass with ``run_sweep`` and renders its JSON and CSV reports as
``cvlab sweep`` does.  With ``--parent`` the same surfaces are also
rendered from the ``src/`` of that checkout (the jobs always come from
this checkout's ``perfbench/``), and the script reports which surfaces
are byte-identical and the worst deviation of any numeric JSON field,
``|a - b| / max(|a|, 1)``.  Each tree is rendered in a fresh
interpreter.

With ``--parent`` it also checks that every moved sample value stays
inside the parent's error bound: each sample's ``mu``, ``lambda`` and
``c_trunc`` may move by at most the parent sample's ``10*quad_error +
1e-9`` (``cvlab.sweep.residual_bound``), and the script prints the worst
ratio of a move to that bound.

The exit code is 1 when a sweep raises, or, with ``--parent``, when a
verdict status, ``h1`` or the ``c_total`` route differs on any surface,
or a sample value moves beyond the parent's bound; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("zoo", "dsl-theta", "dsl-ends")


def render(tree: Path, seeds: list[int]) -> dict:
    """``{surface key: rendered report or error}`` from ``tree/src``; runs
    inside the interpreter that :func:`render_in_subprocess` starts."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import cvlab.cli as cli
    import cvlab.sweep as sweep
    import cvlab.zoo as zoo
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for workload in WORKLOADS:
                for job, path in workloads.generate(workload, seed, Path(workdir) / workload):
                    key = f"{workload}/seed-{seed}/{job.label}"
                    try:
                        if job.zoo_builder is not None:
                            model = getattr(zoo, job.zoo_builder)(*job.zoo_args).model
                        else:
                            model = cli.load_surface_config(path)
                        report = sweep.run_sweep(model, job.schedule)
                    except Exception as err:  # a raising sweep is reported, not fatal
                        out[key] = {"error": f"{type(err).__name__}: {err}"}
                        continue
                    out[key] = {
                        "json": json.dumps(cli.report_to_json_dict(report), indent=2),
                        "csv": cli.report_to_csv(report),
                        "h1": report.h1,
                        "route": report.c_total_route,
                        "verdicts": {name: v.status for name, v in report.verdicts.items()},
                    }
    return out


def render_in_subprocess(tree: Path, seeds: list[int]) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--render-tree", str(tree),
               "--seeds", *map(str, seeds)]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def numeric_deviations(a, b, path=""):
    """``(path, |a - b| / max(|a|, 1))`` for every numeric leaf present in
    both parsed reports."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            yield from numeric_deviations(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from numeric_deviations(x, y, f"{path}[{i}]")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) and a != b:
        yield path, abs(a - b) / max(abs(a), 1.0)


def sample_moves(old: dict, new: dict):
    """``(h, field, |new - old| / bound)`` for ``mu``, ``lambda`` and
    ``c_trunc`` of every sample of two parsed reports, ``bound`` being the
    parent sample's ``10*quad_error + 1e-9``."""
    for a, b in zip(old["samples"], new["samples"]):
        bound = 10.0 * a["quad_error"] + 1e-9
        for field in ("mu", "lambda", "c_trunc"):
            yield a["h"], field, abs(b[field] - a[field]) / bound


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines and whether every verdict, h1 and route agree and
    every sample value stays inside the parent's bound."""
    lines, agree = [], True
    identical = 0
    worst = (0.0, "-")
    worst_move = (0.0, "-")
    for key in sorted(parent.keys() | change.keys()):
        old, new = parent.get(key), change.get(key)
        if old is None or new is None or "error" in old or "error" in new:
            agree = agree and old == new
            lines.append(f"{key}: parent {old and old.get('error')}, change {new and new.get('error')}")
            continue
        same = old["json"] == new["json"] and old["csv"] == new["csv"]
        identical += same
        for field in ("verdicts", "h1", "route"):
            if old[field] != new[field]:
                agree = False
                lines.append(f"{key}: {field} differs: {old[field]!r} -> {new[field]!r}")
        old_report, new_report = json.loads(old["json"]), json.loads(new["json"])
        for path, dev in numeric_deviations(old_report, new_report):
            if dev > worst[0]:
                worst = (dev, f"{key} {path}")
        for h, field, ratio in sample_moves(old_report, new_report):
            if ratio > 1.0:
                agree = False
                lines.append(f"{key}: {field} at h={h!r} moved {ratio:.3g} times the parent's bound")
            if ratio > worst_move[0]:
                worst_move = (ratio, f"{key} {field} at h={h!r}")
        if not same:
            lines.append(f"{key}: rendered report differs")
    lines.append(f"byte-identical JSON and CSV: {identical} of {len(parent.keys() | change.keys())} surfaces")
    lines.append(f"worst numeric deviation: {worst[0]:.3g} ({worst[1]})")
    lines.append(f"worst sample move over the parent's bound: {worst_move[0]:.3g} ({worst_move[1]})")
    return lines, agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--parent", type=Path, help="checkout to compare against")
    parser.add_argument("--render-tree", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.render_tree is not None:
        json.dump(render(args.render_tree.resolve(), args.seeds), sys.stdout)
        return 0

    trees = {"change": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    rendered = {name: render_in_subprocess(tree, args.seeds) for name, tree in trees.items()}

    ok = True
    for name, surfaces in rendered.items():
        for key, item in sorted(surfaces.items()):
            if "error" in item:
                ok = False
                print(f"{name} {key}: {item['error']}")
    if args.parent is None:
        print(f"rendered {len(rendered['change'])} surfaces")
        return 0 if ok else 1
    lines, agree = compare(rendered["parent"], rendered["change"])
    print("\n".join(lines))
    return 0 if ok and agree else 1


if __name__ == "__main__":
    sys.exit(main())

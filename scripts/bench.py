#!/usr/bin/env python3
"""Run perfbench on every workload and record the numbers in BENCH_<n>.json.

Usage (from anywhere):

    python3 scripts/bench.py --number 6 --seconds 30 --seeds 7 11 \\
        [--parent /path/to/parent/checkout] [--out path.json]

For each seed, workload and ``--trace`` level (0, then 1) the script runs
``perfbench/run.py`` of this checkout in a fresh interpreter.  With
``--parent`` it runs the same job on that checkout first, so every
parent/change pair is taken back to back.  The file records each run's
result and info lines next to the seeds, the seconds, the versions and
each tree's ``git describe --dirty``, taken before the first run.  It
also records, per tree, workload and seed, the traffic of one pass
counted in a fresh interpreter: band batches (calls of
``cvlab.quadrature._bands``, and how many of them raised) and chart
calls (``EndChart.sqrt_jet`` and ``EndChart.g``).  Counts do not depend
on the machine.  The exit code is 1 unless every run finished and
reported ``"correct": true`` with ``"failed": 0`` and every tree was
counted.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("zoo", "dsl-theta", "dsl-ends")


def commit_of(tree: Path) -> str | None:
    done = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in a fresh interpreter; a crash or unreadable
    output is recorded as an incorrect run."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    record = {"workload": workload, "seed": seed, "trace": trace}
    try:
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                              timeout=10 * seconds + 600, check=True)
        info_line, result_line = done.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        info = json.loads(info_line)["perfbench"]
    except subprocess.CalledProcessError as err:
        return {**record, "correct": False, "error": err.stderr[-2000:]}
    except (subprocess.TimeoutExpired, ValueError, KeyError) as err:
        return {**record, "correct": False, "error": repr(err)}
    info.pop("environment", None)
    return {**record, **result, "info": info}


def count(tree: Path, seeds: list[int]) -> dict:
    """``{"<workload>/seed-<n>": counts}`` of one pass from ``tree/src``;
    runs inside the interpreter that :func:`traffic` starts."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import cvlab.cli as cli
    import cvlab.quadrature as quadrature
    import cvlab.sweep as sweep
    import cvlab.zoo as zoo
    import workloads
    from cvlab.model import EndChart

    counts = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[key + "_raised"] += 1
                raise
        return wrapper

    quadrature._bands = counting("band_batches", quadrature._bands)
    for name in ("sqrt_jet", "g"):
        setattr(EndChart, name, counting("chart_calls", getattr(EndChart, name)))
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for workload in WORKLOADS:
                jobs = workloads.generate(workload, seed, Path(workdir) / workload)
                counts.update(dict.fromkeys(
                    ("band_batches", "band_batches_raised", "chart_calls", "chart_calls_raised"), 0
                ))
                for job, path in jobs:
                    if job.zoo_builder is not None:
                        model = getattr(zoo, job.zoo_builder)(*job.zoo_args).model
                    else:
                        model = cli.load_surface_config(path)
                    sweep.run_sweep(model, job.schedule)
                out[f"{workload}/seed-{seed}"] = dict(counts)
    return out


def traffic(tree: Path, seeds: list[int]) -> dict:
    """:func:`count` of ``tree`` in a fresh interpreter; a failure is
    recorded as ``{"error": ...}``."""
    command = [sys.executable, str(Path(__file__).resolve()), "--count-tree", str(tree),
               "--seeds", *map(str, seeds)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
        return json.loads(done.stdout)
    except subprocess.CalledProcessError as err:
        return {"error": err.stderr[-2000:]}
    except (subprocess.TimeoutExpired, ValueError) as err:
        return {"error": repr(err)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, help="writes BENCH_<number>.json at the repo root")
    parser.add_argument("--out", type=Path, help="output path instead of BENCH_<number>.json")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--parent", type=Path, help="checkout to measure before each run")
    parser.add_argument("--count-tree", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count_tree is not None:
        json.dump(count(args.count_tree.resolve(), args.seeds), sys.stdout)
        return 0
    if args.out is None and args.number is None:
        parser.error("give --number or --out")
    out = args.out or ROOT / f"BENCH_{args.number}.json"

    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), "change": ROOT}
    # described before the first run, so an edit made while the runs go
    # on cannot mark the measured code -dirty
    commits = {name: commit_of(tree) for name, tree in trees.items()}
    counted = {name: traffic(tree, args.seeds) for name, tree in trees.items()}
    runs = {name: [] for name in trees}
    for seed in args.seeds:
        for workload in WORKLOADS:
            for trace in (0, 1):
                for name, tree in trees.items():
                    record = run_one(tree, workload, seed, args.seconds, trace)
                    runs[name].append(record)
                    print(f"{name:<6} {workload:<9} seed {seed} trace {trace}: "
                          f"correct={record.get('correct')} failed={record.get('failed')}",
                          file=sys.stderr)

    report = {
        "number": args.number,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": WORKLOADS,
        "versions": versions(),
        "commits": commits,
        "traffic": counted,
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    ok = all(r.get("correct") is True and r.get("failed") == 0
             for records in runs.values() for r in records)
    ok = ok and not any("error" in counts for counts in counted.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

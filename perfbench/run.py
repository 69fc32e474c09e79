"""End-to-end and per-layer benchmark for cvlab truncation sweeps.

Usage (from the repository root):

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 30 --trace 0

One caller runs closed-loop on one thread: each sweep starts when the
previous one returns.  A sweep drives the same public path as
``cvlab sweep``: build the zoo model (fresh every time, as a CLI run
pays the paraboloid ODE solve) or load the generated config file, call
``run_sweep`` at the workload's schedule and default tolerance, then
render with ``report_to_json_dict`` and ``report_to_csv``.  The rendered
reports are checked against closed-form oracles outside the timed region
(see checks.py); a sweep that raises or misses an oracle counts as failed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Their
times are rescaled to a reference machine speed measured between passes
(see calibrate.py); the raw wall times are on the info line.
``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics from the traced ones plus the tracing slowdown, and writes the
spans to ``.perfbench_out/``.  The last stdout line is the result object;
the line before it records the environment, sample counts and notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SHARED_SANDBOX_NOTE = (
    "timings come from a shared machine whose other tenants move CPU speed; "
    "compare seconds only between runs of one session, counts anywhere"
)


def pin_environment() -> None:
    # run_sweep reads CVLAB_THREADS; the benchmark never passes workers=
    os.environ.pop("CVLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "note": SHARED_SANDBOX_NOTE,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """(set-up seconds, reference kernel seconds) of SETUP_PROBES fresh
    interpreters, one after another."""
    samples = []
    for i in range(SETUP_PROBES):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup_s, kernel_s = (float(x) for x in done.stdout.split()[-2:])
        samples.append((setup_s, kernel_s))
    return samples


class Bench:
    def __init__(self, jobs, tracer):
        import checks
        import cvlab.cli
        import cvlab.sweep
        import cvlab.zoo

        self.checks = checks
        self.cli, self.sweep, self.zoo = cvlab.cli, cvlab.sweep, cvlab.zoo
        self.jobs = jobs
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self._sweep_id = 0

    def sweep_once(self, job, path):
        """One CLI-equivalent sweep; module attributes are looked up per
        call so that tracer wrappers apply."""
        oracle = None
        if job.zoo_builder is not None:
            entry = getattr(self.zoo, job.zoo_builder)(*job.zoo_args)
            model, oracle = entry.model, entry.oracle
        else:
            model = self.cli.load_surface_config(path)
        report = self.sweep.run_sweep(model, job.schedule)
        json_text = json.dumps(self.cli.report_to_json_dict(report), indent=2)
        return json_text, self.cli.report_to_csv(report), oracle

    def run_pass(self, traced: bool) -> tuple[float, int, int]:
        """Sweep every job once; returns (timed seconds, sweeps, verified)."""
        checks = self.checks
        timed, verified = 0.0, 0
        tracer = self.tracer
        for job, path in self.jobs:
            self._sweep_id += 1
            tracer.sweep_id = self._sweep_id
            tracer.active = traced
            start = perf_counter()
            try:
                with tracer.span("bench.sweep"):
                    json_text, csv_text, oracle = self.sweep_once(job, path)
            except Exception:  # a raising sweep is a failed sweep, not a crash
                problems = [traceback.format_exc(limit=-2)]
            else:
                problems = None
            timed += perf_counter() - start
            tracer.active = False
            if problems is None:
                try:
                    expect = job.expect or checks.expect_from_oracle(oracle, job.label)
                    problems = checks.check_report(expect, job.schedule, json_text, csv_text)
                except Exception:  # malformed output fails its sweep
                    problems = [traceback.format_exc(limit=-2)]
            self.attempted += 1
            if problems:
                self.failures.append(f"{job.label}: {'; '.join(problems)}")
            else:
                verified += 1
        return timed, len(self.jobs), verified


def layer_metrics(spec: dict, snapshots: list[dict], rates: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes: medians for seconds, the
    exact value for counts (flagged when passes disagree)."""
    metrics, notes = {}, {}
    mismatched = []
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name.startswith("tracing."):
            continue
        values = [snap[name] for snap in snapshots]
        if values[0][1] is not None:  # reported as 0, with the reason in the notes
            notes[name] = f"absent: {values[0][1]}"
            metrics[name] = {"value": 0, "unit": unit}
            continue
        numbers = [v for v, _ in values]
        if unit == "count":
            if len(set(numbers)) > 1:
                mismatched.append(name)
                notes[name] = f"count differs between passes: {sorted(set(numbers))}"
            value = numbers[0]
        else:
            value = statistics.median(numbers)
        metrics[name] = {"value": value, "unit": unit}
    units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    extra = {
        "tracing.traced_sweeps_per_s": rates["traced"],
        "tracing.untraced_sweeps_per_s": rates["untraced"],
        "tracing.slowdown": rates["untraced"] / rates["traced"],
        "tracing.count_mismatches": len(mismatched),
    }
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvlab" / "__init__.py").is_file():
        print(f"error: no cvlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    pin_environment()
    sys.path.insert(0, str(SRC))
    import cvlab

    if Path(cvlab.__file__).resolve().parent != (SRC / "cvlab").resolve():
        print(f"error: imported cvlab from {cvlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import tracer as tracing
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        jobs = workloads.generate(args.workload, args.seed, workdir)
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        tracer = tracing.Tracer()
        if args.trace:
            tracer.install()
        bench = Bench(jobs, tracer)

        bench.run_pass(traced=False)  # warm-up: checked, not timed
        passes = []  # (traced, timed seconds, sweeps, verified, speed scale)
        snapshots = []
        kernel_before = calibrate.kernel_seconds()
        started = perf_counter()
        while perf_counter() - started < args.seconds or (args.trace and len(passes) < 2):
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer.reset_stats()
            result = bench.run_pass(traced)
            kernel_after = calibrate.kernel_seconds()
            scale = calibrate.REFERENCE_S / (0.5 * (kernel_before + kernel_after))
            kernel_before = kernel_after
            passes.append((traced, *result, scale))
            if traced:
                snapshots.append({e["name"]: tracer.metric(e["name"])
                                  for e in spec["per_layer"]
                                  if not e["name"].startswith("tracing.")})
        tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def rate(selected, scaled=True) -> float:
        timed = sum(p[1] * (p[4] if scaled else 1.0) for p in selected)
        return sum(p[3] for p in selected) / timed

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sweeps_per_pass": len(jobs),
        "environment": environment(),
        "failures": bench.failures[:5],
    }
    if args.trace:
        rates = {"traced": rate([p for p in passes if p[0]], scaled=False),
                 "untraced": rate([p for p in passes if not p[0]], scaled=False)}
        metrics, notes = layer_metrics(spec, snapshots, rates)
        info["traced_passes"] = len(snapshots)
        info["notes"] = notes
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with trace_path.open("w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "sweep"],
                                 "info": info}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        info["spans"] = str(trace_path.relative_to(ROOT))
    else:
        pass_times = [p[1] * p[4] for p in passes]
        info["pass_p50_samples"] = len(pass_times)
        info["raw_wall"] = {
            "setup_s": statistics.median(x for x, _ in setup),
            "sweeps_per_s": rate(passes, scaled=False),
            "pass_p50_s": statistics.median(p[1] for p in passes),
        }
        info["speed_vs_reference"] = statistics.median(p[4] for p in passes)
        metrics = {
            "setup_s": {
                "value": statistics.median(x * calibrate.REFERENCE_S / k for x, k in setup),
                "unit": "s",
            },
            "sweeps_per_s": {"value": rate(passes), "unit": "1/s"},
            "pass_p50_s": {"value": statistics.median(pass_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }

    failed = len(bench.failures)
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

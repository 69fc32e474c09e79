"""``scripts/bench.py`` names the commits it measured."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trees_are_described_before_the_first_run(tmp_path, monkeypatch):
    # an edit to a tree while the runs go on must not change the commit
    # recorded for it, so every tree is described before any run starts
    bench = load_bench()
    events = []

    def describing(tree):
        events.append(("describe", tree))
        return f"commit-of-{tree.name}"

    def running(tree, workload, seed, seconds, trace):
        events.append(("run", tree))
        return {"workload": workload, "seed": seed, "trace": trace, "correct": True, "failed": 0}

    monkeypatch.setattr(bench, "commit_of", describing)
    monkeypatch.setattr(bench, "run_one", running)
    monkeypatch.setattr(bench, "traffic", lambda tree, seeds: {"tree": tree.name})
    parent, out = tmp_path / "parent", tmp_path / "bench.json"
    assert bench.main(["--out", str(out), "--seconds", "1", "--parent", str(parent)]) == 0
    assert [kind for kind, _ in events[:2]] == ["describe", "describe"]
    assert all(kind == "run" for kind, _ in events[2:]) and len(events) == 2 + 2 * 3 * 2
    written = json.loads(out.read_text())
    assert written["commits"] == {"parent": "commit-of-parent", "change": f"commit-of-{ROOT.name}"}
    assert written["traffic"] == {"parent": {"tree": "parent"}, "change": {"tree": ROOT.name}}


def test_traffic_counts_one_pass_of_each_workload():
    # counts do not depend on the machine: at seed 7 the dsl-theta caps
    # are quiet, so each of the two sweeps is one band batch, and every
    # pass walks its tails without a chunk that raises
    counts = load_bench().traffic(ROOT, [7])
    assert set(counts) == {"zoo/seed-7", "dsl-theta/seed-7", "dsl-ends/seed-7"}
    assert counts["dsl-theta/seed-7"] == {
        "band_batches": 2, "band_batches_raised": 0, "chart_calls": 10, "chart_calls_raised": 0
    }
    assert [counts[f"{w}/seed-7"]["band_batches"] for w in ("zoo", "dsl-ends")] == [8, 16]
    assert all(c["band_batches_raised"] == 0 for c in counts.values())

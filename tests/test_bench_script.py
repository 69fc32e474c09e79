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
    parent, out = tmp_path / "parent", tmp_path / "bench.json"
    assert bench.main(["--out", str(out), "--seconds", "1", "--parent", str(parent)]) == 0
    assert [kind for kind, _ in events[:2]] == ["describe", "describe"]
    assert all(kind == "run" for kind, _ in events[2:]) and len(events) == 2 + 2 * 3 * 2
    commits = json.loads(out.read_text())["commits"]
    assert commits == {"parent": "commit-of-parent", "change": f"commit-of-{ROOT.name}"}

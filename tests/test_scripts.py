import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_records_every_run(tmp_path, monkeypatch):
    # the perfbench call is stubbed: this test runs no benchmark
    script = load_script("bench")
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        if cmd[0] == "git":
            assert cmd == ["git", "status", "--porcelain", "--", "src", "scripts", "perfbench"]
            assert kwargs["cwd"] == tmp_path
            return subprocess.CompletedProcess(cmd, 0, stdout=" M src/sievenorm/arith.py\n")
        meta = {"workload": cmd[cmd.index("--workload") + 1], "traced": cmd[-1] == "1"}
        out = f"# meta {json.dumps(meta)}\n# run_s = 1 s\n" + json.dumps({"correct": True})
        return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n", stderr="")

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    monkeypatch.setattr(script, "ROOT", tmp_path)
    assert script.main(["--label", "abc"]) == 0
    doc = json.loads((tmp_path / "BENCH_abc.json").read_text())
    assert doc["label"] == "abc"
    assert doc["tree_dirty"] is True
    got = [(r["meta"]["workload"], r["meta"]["traced"], r["result"]) for r in doc["runs"]]
    assert got == [
        (w, traced, {"correct": True})
        for w in ("suite_default", "l1_ladder")
        for traced in (False, True)
    ]
    assert doc["runs"][0]["command"] == [
        "perfbench/run.py", "--workload", "suite_default", "--seed", "7", "--seconds", "45.0",
        "--trace", "0",
    ]
    assert [cmd[0] for cmd in calls] == ["git"] + [sys.executable] * 4

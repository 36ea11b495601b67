import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import sievenorm as sn
from sievenorm.experiments import GROWTH_RATIOS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_growth_table(capsys, lo, hi, kind="mobius"):
    script = load_script("l1_growth_table")
    assert script.main(["--kind", kind, "--powers", str(lo), str(hi)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"kind={kind} seed=0 rel_tol=0.0001"
    body = [line.split() for line in lines[3:]]
    assert [int(cells[0]) for cells in body] == [1 << k for k in range(lo, hi + 1)]
    tables = sn.build_tables(max(4096, 1 << hi))
    for cells in body:
        n, l1 = int(cells[0]), float(cells[1])
        seq = sn.coefficient_sequence(tables, kind, n)
        assert l1 == pytest.approx(sn.l1_norm(seq).value, rel=1e-4)
        # the growth column is the suite's ratio for the kind, printed to 4 digits
        expected = GROWTH_RATIOS[kind](n, l1, sn.l2_norm_sq(seq))
        assert float(cells[4]) == pytest.approx(expected, rel=1e-3)
        assert float(cells[2]) == pytest.approx(l1 / math.sqrt(n), rel=1e-4)


def test_l1_growth_table_smoke(capsys):
    check_growth_table(capsys, 6, 7)


def test_l1_growth_table_random_primes(capsys):
    # the prime_l1 row's random variant, a sequence kind of its own
    check_growth_table(capsys, 6, 7, kind="random_primes")


def test_l1_growth_table_above_2_16(capsys):
    # one rung past the suite's ladder: rows of 2^17 points, four to an ifft batch
    check_growth_table(capsys, 17, 17)


def test_bench_records_every_run(tmp_path, monkeypatch):
    # the perfbench call is stubbed: this test runs no benchmark
    script = load_script("bench")
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        meta = {"workload": cmd[cmd.index("--workload") + 1], "traced": cmd[-1] == "1"}
        out = f"# meta {json.dumps(meta)}\n# run_s = 1 s\n" + json.dumps({"correct": True})
        return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n", stderr="")

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    monkeypatch.setattr(script, "ROOT", tmp_path)
    assert script.main(["--label", "abc"]) == 0
    doc = json.loads((tmp_path / "BENCH_abc.json").read_text())
    assert doc["label"] == "abc"
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
    assert all(cmd[0] == sys.executable for cmd in calls)

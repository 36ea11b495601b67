"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/test_perfbench.py

The count test runs traced iterations of the two smaller workloads, about
two minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import check
import workload

HERE = Path(__file__).resolve().parent
COUNTS = (".calls", ".samples", ".point_terms", ".points", ".grids", "trace.spans")


def _floats(value):
    if isinstance(value, list):
        return any(_floats(v) for v in value)
    return isinstance(value, float)


@pytest.mark.parametrize("name", workload.names())
def test_reference_matches_workload_file(name):
    wl = workload.load(name)
    ref = check.load_reference(name)
    assert len(ref["rows"]) == wl.rows
    assert len({r["key"] for r in ref["rows"]}) == wl.rows
    for row in ref["rows"]:
        experiment = row["key"].split("{", 1)[0]
        fields = dict(row["fixed"])
        for per_seed in row["by_seed"].values():
            fields.update(per_seed)
        for field, value in fields.items():
            if _floats(value):
                assert (experiment, field) in check.TOLERANCES, (experiment, field)


def _row(**measured):
    return {
        "experiment": "prime_l1",
        "params": {"n": 64, "seed": 1, "rel_tol": 1e-4},
        "measured": {"invariant_ok": True, **measured},
        "passed": True,
        "detail": "",
    }


_REFERENCE = {
    "rows": [
        {
            "key": 'prime_l1{"n": 64, "rel_tol": 0.0001}',
            "fixed": {"converged": True, "invariant_ok": True},
            "by_seed": {"1": {"l1": 10.0}},
        }
    ]
}


def test_check_accepts_values_within_tolerance():
    assert check.check_rows([_row(converged=True, l1=10.0009)], _REFERENCE, seed=1) == []
    # an unrecorded seed compares only the fields fixed across seeds
    assert check.check_rows([_row(converged=True, l1=3.0)], _REFERENCE, seed=9) == []


@pytest.mark.parametrize(
    "rows",
    [
        [_row(converged=True, l1=10.0011)],
        [_row(converged=1, l1=10.0)],
        [_row(l1=10.0)],
        [{**_row(converged=True, l1=10.0), "passed": False}],
        [_row(converged=True, l1=10.0, invariant_ok=False)],
        [],
        [_row(converged=True, l1=10.0), {**_row(), "experiment": "lambda_l1"}],
    ],
    ids=["moved", "type", "field-missing", "not-passed", "invariant", "row-missing", "extra"],
)
def test_check_rejects(rows):
    assert check.check_rows(rows, _REFERENCE, seed=1)


def _traced(name: str, seed: int, tmp_path: Path) -> dict:
    out = tmp_path / f"{name}-{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
         "--trace-out", str(out)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    assert json.loads(out.read_text())
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["l1_ladder", "sieve_trials"])
def test_counts_repeat_and_other_seed_passes(name, tmp_path):
    first, second = (_traced(name, 5, tmp_path) for _ in range(2))
    counts = {k: v for k, v in first["layers"].items() if k.endswith(COUNTS)}
    assert counts and counts == {k: second["layers"][k] for k in counts}
    assert first["failures"] == [] and second["failures"] == []
    assert first["layers"]["trace.attributed_frac"] >= 0.9
    assert _traced(name, 6, tmp_path)["failures"] == []

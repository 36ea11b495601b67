"""The benchmark's tracer must find every function it wraps and count its results.

``perfbench/tracing.py`` skips a wrapped name that a module no longer holds,
so a rename or deletion in the package would silently zero a layer metric.
This checks its ``WRAPPED`` table against the package instead, and runs its
``_counts`` on a real result of every counted kind, so a change to what those
functions return fails here rather than in a traced benchmark run.

``RETIRED`` names are reference routes that left the package for
``tests/reference.py``; the tracer still lists them, finds them in no module
and skips them, so their layers read 0.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import sievenorm as sn

import reference

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()
WRAPPED = TRACING_MODULE.WRAPPED
RETIRED = {"expsum.grid_eval_kernel", "expsum.grid_eval_sequence"}


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_wrapped_name_is_defined_and_looked_up(name):
    lookups, _ = WRAPPED[name]
    source, attr = name.rsplit(".", 1)
    if name in RETIRED:
        modules = [importlib.import_module(f"sievenorm.{m}") for m in (source, *lookups)]
        assert not [m.__name__ for m in modules if hasattr(m, attr)], f"{attr} is back"
        assert getattr(reference, attr).__module__ == "reference"
        return
    fn = getattr(importlib.import_module(f"sievenorm.{source}"), attr, None)
    assert callable(fn) and fn.__module__ == f"sievenorm.{source}"
    modules = [importlib.import_module(f"sievenorm.{m}") for m in lookups]
    held = [m.__name__ for m in modules if getattr(m, attr, None) is fn]
    assert held, f"no module in {lookups} holds {attr}"


def test_counts_of_every_counted_kind(tables):
    counts = TRACING_MODULE._counts
    counted = {kind for name, (_, kind) in WRAPPED.items() if name not in RETIRED} - {None}
    assert counted == {"points", "l1", "point_set"}
    # no traced run reaches the grid kinds: only the retired names carry them
    assert {WRAPPED[name][1] for name in RETIRED} == {"grid", "kernel_grid"}
    seq = sn.coefficient_sequence(tables, "mobius", 64)
    pts = np.arange(5) / 7.0
    assert counts("points", (seq, pts), sn.eval_sequence(seq, pts)) == {"point_terms": 5 * 64}
    est = sn.l1_norm(seq)
    assert counts("l1", (seq,), est) == {"grids": len(est.grids), "converged": True}
    assert len(est.grids) >= 2
    ps = sn.build_point_set(tables, "prime_farey", 7)
    assert counts("point_set", (tables, "prime_farey", 7), ps) == {"points": 1 + 2 + 4 + 6}


def test_every_traced_call_reaches_its_span(tables, monkeypatch):
    # A module that stops looking a name up (calling it through another module,
    # say) leaves the name defined but its span count at 0; the counts below
    # were recorded at commit 3db415c with perfbench's own wrapping, less the
    # grids and sequence of the lambda_kernel_integral rows, which build none,
    # and less the kernel_gap grids, whose rows come from expsum.kernel_row.
    tracer = TRACING_MODULE.Tracer()
    for name, (lookups, count_kind) in WRAPPED.items():
        attr = name.rsplit(".", 1)[1]
        for module in lookups:
            mod = importlib.import_module(f"sievenorm.{module}")
            if hasattr(mod, attr):  # Tracer.install skips a module without it too
                monkeypatch.setattr(mod, attr, tracer.span(name, getattr(mod, attr), count_kind))
    blocks = (
        ("kernel_gap", {"n": [64, 128]}),
        ("lambda_kernel_integral", {"n": [64, 128]}),
        ("lambda_l1", {"n": 64}),
    )
    rows = sn.run_suite(sn.SuiteConfig(experiments=blocks), tables=tables)
    assert len(rows) == 10 and all(row.passed for row in rows)
    spans = {name: sum(s.name == name for s in tracer.spans) for name in WRAPPED}
    assert spans == {
        "arith.coefficient_sequence": 1,
        "expsum.grid_eval_kernel": 0,
        "expsum.grid_eval_sequence": 0,
        "expsum.eval_sequence": 0,
        "quadrature.l1_norm": 1,
        "largesieve.build_point_set": 0,
        "largesieve.large_sieve_check": 0,
        "experiments.mobius_ramanujan_weighted_sum": 3,
    }

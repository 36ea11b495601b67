"""The benchmark's tracer must find every function it wraps.

``perfbench/tracing.py`` skips a wrapped name that a module no longer holds,
so a rename or deletion in the package would silently zero a layer metric.
This checks its ``WRAPPED`` table against the package instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracing().WRAPPED


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_wrapped_name_is_defined_and_looked_up(name):
    lookups, _ = WRAPPED[name]
    source, attr = name.rsplit(".", 1)
    fn = getattr(importlib.import_module(f"sievenorm.{source}"), attr, None)
    assert callable(fn) and fn.__module__ == f"sievenorm.{source}"
    modules = [importlib.import_module(f"sievenorm.{m}") for m in lookups]
    held = [m.__name__ for m in modules if getattr(m, attr, None) is fn]
    assert held, f"no module in {lookups} holds {attr}"

"""Workload definitions: one suite config file per workload under workloads/.

Each file is suite config text in the format ``sievenorm suite --config``
reads, preceded by ``# key: value`` comment lines that record the table size
the suite needs (``n_max``), the number of rows it must produce (``rows``) and
why the workload exists (``why``).  A file with ``# base: default_suite_config``
holds no config lines and stands for the built-in default battery.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"

_META = re.compile(r"^#\s*(\w+):\s*(.*\S)\s*$")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_max: int
    rows: int
    why: str
    base: str | None
    text: str


def names() -> list[str]:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.cfg"))


def load(name: str) -> Workload:
    path = WORKLOAD_DIR / f"{name}.cfg"
    if name not in names():
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(names())})")
    text = path.read_text()
    meta = {}
    for line in text.splitlines():
        m = _META.match(line)
        if m:
            meta[m.group(1)] = m.group(2)
    return Workload(
        name=name,
        n_max=int(meta["n_max"]),
        rows=int(meta["rows"]),
        why=meta["why"],
        base=meta.get("base"),
        text=text,
    )


def suite_config(wl: Workload, seed: int, cli, experiments):
    """The SuiteConfig the workload runs with ``seed`` as its global seed.

    ``cli`` and ``experiments`` are the imported sievenorm modules; the caller
    imports them so that import time is part of its own measurement.
    """
    if wl.base == "default_suite_config":
        cfg = experiments.default_suite_config()
    elif wl.base is None:
        cfg = cli.parse_config(wl.text)
    else:
        raise ValueError(f"{wl.name}: unknown base {wl.base!r}")
    return dataclasses.replace(cfg, seed=seed)

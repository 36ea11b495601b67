"""Record the reference rows that check.py compares every benchmark run against.

    python3 perfbench/record_reference.py [--seeds 32] [--workload NAME ...]

Runs each workload at seed 0, and at seeds 1..K-1 only the experiments whose
rows take the seed (their params carry a ``seed``).  Rows without a seed
param do not depend on it.  A measured field equal at every recorded seed is
stored as ``fixed``; the others are stored per seed.  Writes
``perfbench/reference/<workload>.json``.  Re-record only when a change is
meant to move results, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import check
import env
import workload

ROOT = Path(__file__).resolve().parent.parent


def record(name: str, seeds: int) -> dict:
    from sievenorm import arith, cli, experiments

    wl = workload.load(name)
    tables = arith.build_tables(wl.n_max)

    def rows_at(seed: int, only=None) -> list[dict]:
        cfg = workload.suite_config(wl, seed, cli, experiments)
        if only is not None:
            cfg = dataclasses.replace(
                cfg, experiments=tuple(b for b in cfg.experiments if b[0] in only)
            )
        return [dataclasses.asdict(r) for r in experiments.run_suite(cfg, tables=tables)]

    base = rows_at(0)
    if len(base) != wl.rows:
        raise SystemExit(f"{name}: {len(base)} rows, the workload file says {wl.rows}")
    bad = [r for r in base if not r["passed"] or r["measured"].get("invariant_ok") is False]
    if bad:
        raise SystemExit(f"{name}: refusing to record failing rows: {bad}")
    observed = {check.row_key(r): {0: r["measured"]} for r in base}
    seeded = {r["experiment"] for r in base if "seed" in r["params"]}
    for seed in range(1, seeds if seeded else 1):
        for r in rows_at(seed, only=seeded):
            if "seed" in r["params"]:
                if not r["passed"]:
                    raise SystemExit(f"{name} seed {seed}: row failed: {r}")
                observed[check.row_key(r)][seed] = r["measured"]
        print(f"{name}: seed {seed} recorded", file=sys.stderr)
    rows = []
    for r in base:
        key = check.row_key(r)
        obs = observed[key]
        fixed = {
            f: v for f, v in obs[0].items() if all(m.get(f) == v for m in obs.values())
        }
        by_seed = {
            str(s): {f: v for f, v in m.items() if f not in fixed}
            for s, m in sorted(obs.items())
        }
        by_seed = {s: m for s, m in by_seed.items() if m}
        rows.append({"key": key, "fixed": fixed, "by_seed": by_seed})
    return {
        "workload": name,
        "recorded_at": env.git_sha(ROOT),
        "seeds": list(range(seeds if seeded else 1)),
        "rows": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32)
    ap.add_argument("--workload", action="append", choices=workload.names())
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in args.workload or workload.names():
        ref = record(name, args.seeds)
        path = check.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

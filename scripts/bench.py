#!/usr/bin/env python3
"""Record this checkout's benchmark results in BENCH_<label>.json.

    python3 scripts/bench.py --label 753137f

Runs perfbench/run.py on both workloads, with --trace 0 and --trace 1, and
keeps each run's command, ``# meta`` line and final JSON line.  ``tree_dirty``
says if src/, scripts/ or perfbench/ differ from the HEAD that ``git_sha``
names.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = 45.0


def run(*args: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    meta = next(line for line in lines if line.startswith("# meta "))
    return {"command": cmd[1:], "meta": json.loads(meta[7:]), "result": json.loads(lines[-1])}


def tree_dirty() -> bool | None:
    cmd = ["git", "status", "--porcelain", "--", "src", "scripts", "perfbench"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="file name suffix, e.g. a commit sha")
    label = ap.parse_args(argv).label
    dirty = tree_dirty()
    opts = ["--seed", str(SEED), "--seconds", str(SECONDS), "--trace"]
    runs = [run("--workload", w, *opts, t) for w in ("suite_default", "l1_ladder") for t in "01"]
    doc = {"label": label, "tree_dirty": dirty, "runs": runs}
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

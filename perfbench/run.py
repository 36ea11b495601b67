"""sievenorm benchmark: time one workload end to end in a fresh interpreter.

    python3 perfbench/run.py --workload l1_ladder --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  The loop is closed: one process, one
client, suite ``workers = 1``.  The measured run is one new interpreter that
sets up once and then runs ``experiments.run_suite`` pass after pass for
``--seconds``, checking every row of every pass against the workload's
reference (perfbench/worker.py); there is always at least one pass.

``--trace 0`` reports the end-to-end metrics:
  setup_s       median set-up time (import, config, build_tables) over
                SETUP_SAMPLES fresh interpreters, the measured one included
  run_s         median wall time of one run_suite pass
  peak_rss_mib  ru_maxrss of the measured interpreter
``--trace 1`` runs one traced pass instead and reports the per-layer metrics
(see tracing.py).  ``trace.run_s`` is the traced pass, so traced minus
untraced run_s is its difference from a ``--trace 0`` run;
``trace.overhead_s`` is the wrappers' own cost, calibrated in the traced
process, which a difference of two runs on a shared machine cannot resolve.
Spans go to ``.bench_out/``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; attempted and failed count suite rows over all passes.
Lines before it describe the machine, the source and each metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env
import workload

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Set-up is short and noisy (mostly import time on l1_ladder), so it is
#: sampled in this many fresh interpreters per run.
SETUP_SAMPLES = 7
#: Seconds one worker may take; a run must end within 180 s.
WORKER_TIMEOUT_S = 170


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("rss_mib"):
        return "MiB"
    return "count"


def _worker(wl: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", wl, "--seed", str(seed), *extra]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload.names())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sievenorm" / "__init__.py").is_file():
        raise SystemExit(f"no sievenorm sources under {ROOT / 'src'}: run from a checkout")
    wl = workload.load(args.workload)

    # Byte-compile first so that no timed import pays for compilation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    # Untraced, the set-up samples are split around the measured run so that
    # their median covers the whole run's time on a machine whose speed drifts.
    samples = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [_worker(wl.name, args.seed, "--setup-only") for _ in range(samples // 2)]
    extra = ["--seconds", str(args.seconds)]
    if args.trace:
        name = f"trace-{wl.name}-seed{args.seed}.json"
        extra = ["--trace-out", str(ROOT / ".bench_out" / name)]
    run = _worker(wl.name, args.seed, *extra)
    setups.append(run)
    setups += [_worker(wl.name, args.seed, "--setup-only") for _ in range(samples - samples // 2)]

    passes = run["pass_s"]
    attempted = wl.rows * len(passes)
    failures = run["failures"]
    for line in failures:
        print(f"# FAILED {line}")

    if args.trace:
        metrics = dict(run["layers"])
        metrics["trace.run_s"] = passes[0]
        metrics["rows_failed_frac"] = len(failures) / attempted
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "run_s": statistics.median(passes),
            "peak_rss_mib": run["peak_rss_mib"],
        }

    meta = env.describe(ROOT)
    meta.update(
        numpy=run["numpy"],
        blas=run["blas"],
        workload=wl.name,
        seed=args.seed,
        setup_samples=len(setups),
        passes=len(passes),
        pass_s=passes,
        traced=bool(args.trace),
        rows_per_pass=wl.rows,
    )
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]:.6g} {_unit(name)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "metrics": {
            name: {"value": value, "unit": _unit(name)} for name, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

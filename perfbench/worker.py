"""One measured run of a workload, in the fresh interpreter it runs in.

    python3 perfbench/worker.py --workload l1_ladder --seed 3 [--seconds 45]
                                [--setup-only] [--trace-out .bench_out/trace.json]

Times the set-up (``import sievenorm``, config parsing, ``build_tables``),
then runs ``experiments.run_suite`` in a closed loop: pass after pass, each
checked row by row against the workload's reference, while the next pass is
expected to end within ``--seconds`` of the first pass's start; there is
always at least one pass.  With ``--trace-out`` the package's public functions
are wrapped first, exactly one pass runs, and its spans are written to that
file.  The last stdout line is one JSON object; perfbench/run.py starts this
script and reads it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import check
import tracing
import workload

ROOT = Path(__file__).resolve().parent.parent


def _versions(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload.names())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)
    wl = workload.load(args.workload)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import numpy as np
    from sievenorm import arith, cli, experiments

    t1 = time.perf_counter()
    cfg = workload.suite_config(wl, args.seed, cli, experiments)
    t2 = time.perf_counter()
    tables = arith.build_tables(wl.n_max)
    t3 = time.perf_counter()
    out = {"setup_s": t3 - t0, **_versions(np)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    run_suite = experiments.run_suite
    if args.trace_out is not None:
        tracer = tracing.Tracer()
        tracer.install()
        run_suite = tracer.span("experiments.run_suite", run_suite)
    reference = check.load_reference(wl.name)
    out["pass_s"] = []
    out["failures"] = []
    start = time.perf_counter()
    while True:
        t4 = time.perf_counter()
        rows = run_suite(cfg, tables=tables)
        t5 = time.perf_counter()
        out["pass_s"].append(t5 - t4)
        plain = [dataclasses.asdict(r) for r in rows]
        out["failures"] += check.check_rows(plain, reference, args.seed)
        passes = len(out["pass_s"])
        elapsed = time.perf_counter() - start
        if tracer is not None or elapsed * (passes + 1) / passes > args.seconds:
            break
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        record = cli.OutputRecord(cli.SCHEMA_VERSION, {"tool": "sievenorm"}, tuple(rows))
        t6 = time.perf_counter()
        cli.render_csv(record)
        t7 = time.perf_counter()
        layers = tracing.layer_metrics(tracer, root=0)
        for name in experiments.EXPERIMENT_NAMES:
            layers[f"experiments.{name}.s"] = sum(
                r["runtime_s"] for r in plain if r["experiment"] == name
            )
        layers["arith.build_tables.s"] = t3 - t2
        layers["cli.parse_config.s"] = t2 - t1 if wl.base is None else 0.0
        layers["cli.render_csv.s"] = t7 - t6
        out["layers"] = layers
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

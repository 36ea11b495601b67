"""Command-line driver: run experiments, emit CSV (default) or JSON.

Subcommands map one-to-one onto the experiment entry points::

    sievenorm norm --kind mobius --n 1024 [--tol 1e-4]
    sievenorm kernel-gap --kind gstar --n 4096 [--p 8] [--m 32768]
    sievenorm sieve-check --set-kind reduced_farey --param 22 --kind mobius --n 512
    sievenorm vaughan --n 4096 [--q 64]
    sievenorm suite [--config PATH]

Output contract: CSV to stdout by default (or ``--out PATH``); ``--json``
switches to a JSON document ``{schema_version, metadata, rows}``.  CSV and
JSON carry identical row values; floats are rendered with 12 significant
digits.  Metadata records tool version, tolerances, seeds and worker count;
the JSON form adds a timestamp (deliberately kept out of the CSV so that CSV
output is byte-reproducible up to the ``runtime_s`` column).

Exit codes: 0 success (warnings, e.g. non-convergence, stay 0), 1 usage
errors or out-of-range parameters (a job raising ValueError/CapacityError),
2 internal invariant violations (a large-sieve ratio above 1, the two
evaluation routes disagreeing, ...), 3 a crash (any other exception); 2 > 3 > 1.

Config files for ``suite`` are flat ``key = value`` lines; ``#`` starts a
comment.  Keys before the first ``experiment = <name>`` line are globals
(seed, rel_tol, floor, workers); each ``experiment`` line opens a block whose
keys are that experiment's parameters.  Values may be comma- or
space-separated lists, e.g. ``n = 1024, 4096``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .arith import SEQUENCE_KINDS, build_tables, coefficient_sequence
from .errors import CapacityError, InvariantError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentRow,
    SuiteConfig,
    _BUILDERS,
    default_suite_config,
    invariant_violations,
    kernel_gap_scan,
    lambda_l1_bounds,
    run_suite,
    vaughan_report_row,
    vaughan_V,
)
from .expsum import KernelSpec
from .largesieve import FAREY_KINDS, build_point_set, large_sieve_check
from .quadrature import l1_norm, l2_norm_sq

SCHEMA_VERSION = 1

CSV_FIELDS = (
    "experiment",
    "params",
    "measured",
    "reference",
    "ratios",
    "passed",
    "runtime_s",
    "detail",
)


@dataclasses.dataclass(frozen=True)
class OutputRecord:
    schema_version: int
    metadata: dict
    rows: tuple


class UsageError(Exception):
    """Bad flags, bad config file, or bad parameter values: exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2)
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# rendering


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _fmt_value(v, depth: int = 0) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, (list, tuple)):
        sep = ";" if depth == 0 else ":"
        return sep.join(_fmt_value(x, depth + 1) for x in v)
    return str(v)


def _fmt_map(d: dict) -> str:
    return "|".join(f"{k}={_fmt_value(v)}" for k, v in d.items())


def render_csv(record: OutputRecord) -> str:
    """CSV with a commented metadata header.

    The timestamp metadata key is omitted here on purpose: apart from the
    ``runtime_s`` column, two runs with identical flags produce identical
    CSV bytes.
    """
    buf = io.StringIO()
    buf.write(f"# schema_version={record.schema_version}\n")
    for key in sorted(record.metadata):
        if key == "timestamp":
            continue
        buf.write(f"# {key}={_fmt_value(record.metadata[key])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in record.rows:
        writer.writerow(
            [
                row.experiment,
                _fmt_map(row.params),
                _fmt_map(row.measured),
                _fmt_map(row.reference),
                _fmt_map(row.ratios),
                "true" if row.passed else "false",
                _fmt_float(row.runtime_s),
                row.detail,
            ]
        )
    return buf.getvalue()


def render_json(record: OutputRecord) -> str:
    doc = {
        "schema_version": record.schema_version,
        "metadata": record.metadata,
        "rows": [dataclasses.asdict(row) for row in record.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def record_from_json(text: str) -> OutputRecord:
    doc = json.loads(text)
    rows = tuple(ExperimentRow(**row) for row in doc["rows"])
    return OutputRecord(
        schema_version=int(doc["schema_version"]), metadata=doc["metadata"], rows=rows
    )


# ---------------------------------------------------------------------------
# config files


def _parse_scalar(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(raw: str):
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty value")
    vals = [_parse_scalar(p) for p in parts]
    return vals if len(vals) > 1 else vals[0]


_GLOBAL_KEYS = ("seed", "rel_tol", "floor", "workers")


def parse_config(text: str) -> SuiteConfig:
    """Parse the flat key-value suite config format (see module docstring)."""
    globals_: dict = {}
    blocks: list[tuple[str, dict]] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key or not value:
            raise UsageError(f"config line {lineno}: empty key or value")
        if key == "experiment":
            if value not in _BUILDERS:
                raise UsageError(
                    f"config line {lineno}: unknown experiment {value!r} "
                    f"(known: {', '.join(EXPERIMENT_NAMES)})"
                )
            current = {}
            blocks.append((value, current))
            continue
        try:
            parsed = _parse_value(value)
        except ValueError as exc:
            raise UsageError(f"config line {lineno}: {exc}") from None
        if current is None:
            if key not in _GLOBAL_KEYS:
                raise UsageError(
                    f"config line {lineno}: unknown global key {key!r} "
                    f"(known: {', '.join(_GLOBAL_KEYS)})"
                )
            globals_[key] = parsed
        else:
            current[key] = parsed
    return SuiteConfig(
        seed=int(globals_.get("seed", 0)),
        rel_tol=float(globals_.get("rel_tol", 1e-4)),
        floor=float(globals_.get("floor", 0.1)),
        workers=int(globals_.get("workers", 1)),
        experiments=tuple((name, params) for name, params in blocks),
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def _metadata(ns: argparse.Namespace, **extra) -> dict:
    md = {
        "tool": "sievenorm",
        "tool_version": __version__,
        "workers": getattr(ns, "workers", 1),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    md.update(extra)
    return md


def _cmd_norm(ns: argparse.Namespace) -> OutputRecord:
    t0 = time.perf_counter()
    n = _positive(ns.n, "--n")
    tables = build_tables(max(64, n))
    seq = coefficient_sequence(tables, ns.kind, n, seed=ns.seed)
    est = l1_norm(seq, rel_tol=ns.tol, workers=ns.workers)
    l2 = l2_norm_sq(seq)
    ceiling = l2**0.5
    row = ExperimentRow(
        experiment="norm",
        params={"kind": ns.kind, "n": n, "rel_tol": ns.tol, "seed": ns.seed},
        measured={
            "l1": est.value,
            "l2_sq": l2,
            "converged": est.converged,
            "last_delta": est.last_delta,
            "grids": [[m, v] for m, v in est.grids],
            "invariant_ok": True,
        },
        reference={"cauchy_ceiling": ceiling},
        ratios={"l1_over_l2": est.value / ceiling if ceiling > 0 else 0.0},
        passed=est.converged,
        runtime_s=time.perf_counter() - t0,
        detail="" if est.converged else "quadrature did not converge (warning)",
    )
    return OutputRecord(
        SCHEMA_VERSION, _metadata(ns, rel_tol=ns.tol, seed=ns.seed), (row,)
    )


def _cmd_kernel_gap(ns: argparse.Namespace) -> OutputRecord:
    n = _positive(ns.n, "--n")
    spec = KernelSpec(ns.kind, n, P=ns.p)  # validates kind/p early
    tables = build_tables(max(64, spec.P))
    row = kernel_gap_scan(tables, n, P=ns.p, kind=ns.kind, M=ns.m)
    return OutputRecord(SCHEMA_VERSION, _metadata(ns), (row,))


def _cmd_sieve_check(ns: argparse.Namespace) -> OutputRecord:
    t0 = time.perf_counter()
    n = _positive(ns.n, "--n")
    param = _positive(ns.param, "--param")
    tables = build_tables(max(64, n, param))
    point_set = build_point_set(tables, ns.set_kind, param)
    seq = coefficient_sequence(tables, ns.kind, n, seed=ns.seed)
    result = large_sieve_check(seq, point_set, ns.shift, workers=ns.workers)
    ok = result.ratio <= 1.0 + 1e-9
    row = ExperimentRow(
        experiment="sieve_check",
        params={
            "set_kind": ns.set_kind,
            "param": param,
            "kind": ns.kind,
            "n": n,
            "shift": ns.shift,
            "seed": ns.seed,
        },
        measured={
            "lhs": result.lhs,
            "rhs": result.rhs,
            "points": len(point_set),
            "delta": point_set.delta,
            "invariant_ok": ok,
        },
        reference={"ratio_bound": 1.0 + 1e-9},
        ratios={"lhs_over_rhs": result.ratio},
        passed=ok,
        runtime_s=time.perf_counter() - t0,
    )
    return OutputRecord(SCHEMA_VERSION, _metadata(ns, seed=ns.seed), (row,))


def _cmd_vaughan(ns: argparse.Namespace) -> OutputRecord:
    t0 = time.perf_counter()
    n = _positive(ns.n, "--n")
    tables = build_tables(max(64, n))
    report = vaughan_V(tables, n, ns.q, rel_tol=ns.tol)
    row_v = vaughan_report_row(report, time.perf_counter() - t0, ns.tol)
    row_l1 = lambda_l1_bounds(tables, n, ns.q, rel_tol=ns.tol)
    return OutputRecord(SCHEMA_VERSION, _metadata(ns, rel_tol=ns.tol), (row_v, row_l1))


def _cmd_suite(ns: argparse.Namespace) -> OutputRecord:
    if ns.config is not None:
        path = Path(ns.config)
        try:
            text = path.read_text()
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        cfg = parse_config(text)
    else:
        cfg = default_suite_config()
    overrides = {}
    if ns.seed is not None:
        overrides["seed"] = ns.seed
    if ns.tol is not None:
        overrides["rel_tol"] = ns.tol
    if ns.floor is not None:
        overrides["floor"] = ns.floor
    if ns.workers is not None and ns.workers != 1:
        overrides["workers"] = ns.workers
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    rows = tuple(run_suite(cfg))
    md = _metadata(
        ns,
        rel_tol=cfg.rel_tol,
        seed=cfg.seed,
        floor=cfg.floor,
        config="default" if ns.config is None else str(ns.config),
    )
    md["workers"] = cfg.workers
    return OutputRecord(SCHEMA_VERSION, md, rows)


def _positive(value: int, flag: str) -> int:
    if value is None:
        raise UsageError(f"{flag} is required")
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")
    return int(value)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="sievenorm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sievenorm {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p: _Parser) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        p.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")

    p = sub.add_parser("norm", parents=[], help="L1/L2 norms of a coefficient sequence")
    p.add_argument("--kind", required=True, choices=SEQUENCE_KINDS)
    p.add_argument("--n", type=int, required=True, help="sequence length")
    p.add_argument("--tol", type=float, default=1e-4, help="relative tolerance (default 1e-4)")
    p.add_argument("--seed", type=int, default=0, help="seed for random kinds")
    common(p)
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("kernel-gap", help="scan |kernel - T_N| against its ceilings")
    p.add_argument(
        "--kind", default="gstar", choices=("gstar", "h", "h_truncated")
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=None, help="prime cutoff (defaults from N)")
    p.add_argument("--m", type=int, default=None, help="scan grid size (default 8N)")
    common(p)
    p.set_defaults(handler=_cmd_kernel_gap)

    p = sub.add_parser("sieve-check", help="one large-sieve inequality evaluation")
    p.add_argument("--set-kind", required=True, choices=FAREY_KINDS, dest="set_kind")
    p.add_argument("--param", type=int, required=True, help="Farey parameter (Q or P)")
    p.add_argument("--kind", default="random_complex", choices=SEQUENCE_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_sieve_check)

    p = sub.add_parser("vaughan", help="signed-kernel identity and L1 bracket for Lambda")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None, help="modulus cutoff (default isqrt(N))")
    p.add_argument("--tol", type=float, default=1e-4)
    common(p)
    p.set_defaults(handler=_cmd_vaughan)

    p = sub.add_parser("suite", help="run an experiment suite")
    p.add_argument("--config", metavar="PATH", default=None, help="suite config file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--tol", type=float, default=None, help="override config rel_tol")
    p.add_argument("--floor", type=float, default=None, help="override config floor")
    common(p)
    p.set_defaults(handler=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if getattr(ns, "handler", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        record = ns.handler(ns)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, CapacityError, OSError) as exc:
        print(f"sievenorm: error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"sievenorm: invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    text = render_json(record) if ns.json else render_csv(record)
    if ns.out:
        Path(ns.out).write_text(text)
    else:
        sys.stdout.write(text)
    violations = invariant_violations(record.rows)
    if violations:
        for msg in violations:
            print(f"sievenorm: invariant violation: {msg}", file=sys.stderr)
        return 2
    errors = {r.measured["error"] for r in record.rows if "error" in r.measured}
    for row in (r for r in record.rows if not r.passed):
        print(
            f"sievenorm: {'error' if 'error' in row.measured else 'warning'}: "
            f"{row.experiment}({row.params}) did not pass: "
            f"{row.detail or 'empirical check failed'}",
            file=sys.stderr,
        )
    # a job that raised anything but a bad-parameter error crashed
    if errors - {"ValueError", "CapacityError"}:
        return 3
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

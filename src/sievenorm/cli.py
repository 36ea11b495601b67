"""Command-line driver: run experiments, emit CSV (default) or JSON.

Subcommands run registered experiments (``experiments.EXPERIMENTS``) as a
suite of one block each, their flags checked by the same schema as config
blocks, so a failed job renders an error row just as in ``suite``.  A flag
for a ladder key takes several values, one job each, as the config key
takes a list::

    sievenorm norm --kind mobius --n 256 512 1024 [--tol 1e-4]
    sievenorm kernel-gap --kind gstar --n 4096 [--p 8] [--m 32768]
    sievenorm sieve-check --set-kind reduced_farey --param 22 --kind mobius --n 512
    sievenorm vaughan --n 4096 [--q 64]
    sievenorm suite [--config PATH] [--workers K]

Output contract: CSV to stdout by default (or ``--out PATH``); ``--json``
switches to a JSON document ``{schema_version, metadata, rows}``.  CSV and
JSON carry identical row values; floats are rendered with 12 significant
digits.  Metadata records tool version, the git commit of the source tree
(``git_sha``, null outside a checkout), tolerances, seeds and worker count;
the JSON form adds a timestamp (deliberately kept out of the CSV so that CSV
output is byte-reproducible up to the ``runtime_s`` column).

Exit codes: 0 success (warnings, e.g. non-convergence, stay 0), 1 usage
errors or out-of-range parameters (a job raising ValueError/CapacityError),
2 internal invariant violations (a large-sieve ratio above 1, the two
evaluation routes disagreeing, ...), 3 a crash (any other exception); 2 > 3 > 1.

Config files for ``suite`` are flat ``key = value`` lines; ``#`` starts a
comment.  Keys before the first ``experiment = <name>`` line are globals
(the ``SuiteConfig`` knobs seed, rel_tol, floor, workers); each ``experiment``
line opens a block whose keys are that experiment's parameters.  A key may
appear once among the globals and once per block.  Values may be comma- or
space-separated lists (ladder keys only), e.g. ``n = 1024, 4096``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import platform
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CapacityError
from .experiments import (
    EXPERIMENT_NAMES,
    EXPERIMENTS,
    ExperimentRow,
    SuiteConfig,
    default_suite_config,
    invariant_violations,
    run_suite,
)

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


#: Global config keys: every SuiteConfig field but the blocks.
_KNOBS = tuple(f.name for f in dataclasses.fields(SuiteConfig) if f.name != "experiments")


def parse_config(text: str) -> SuiteConfig:
    """Parse the flat key-value suite config format (see module docstring).

    Block parameters are checked when the suite expands them (error rows).
    """
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
            if value not in EXPERIMENTS:
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
        if current is None and key not in _KNOBS:
            raise UsageError(
                f"config line {lineno}: unknown global key {key!r} "
                f"(known: {', '.join(_KNOBS)})"
            )
        scope = globals_ if current is None else current
        if key in scope:
            raise UsageError(f"config line {lineno}: repeated key {key!r}")
        scope[key] = parsed
    try:
        return SuiteConfig(**globals_, experiments=tuple(blocks))
    except ValueError as exc:
        raise UsageError(f"config: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers


def _git_sha(root: Path) -> str | None:
    """The commit checked out at ``root``, read from ``.git/HEAD`` and the ref it names.

    A ``ref:`` line is followed to the loose ref file or to ``packed-refs``.
    No git process runs; anything unreadable gives None.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip() or None
        lines = (git / "packed-refs").read_text().splitlines()
        return next((line.split()[0] for line in lines if line.split()[1:] == [ref]), None)
    except OSError:
        return None


def _metadata(**extra) -> dict:
    return {
        "tool": "sievenorm",
        "tool_version": __version__,
        "git_sha": _git_sha(Path(__file__).resolve().parents[2]),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": 1,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        **extra,
    }


def _cmd_experiments(ns: argparse.Namespace) -> tuple[SuiteConfig, dict]:
    """The subcommand's experiments as a suite of one block each, and its metadata knobs.

    Knob flags (seed, rel_tol) become the config's globals and the other
    flags the blocks' params; the metadata records the first experiment's knobs.
    """
    given = {k: v for k, v in vars(ns).items() if v is not None}
    blocks = tuple(
        (name, {k: given[k] for k in EXPERIMENTS[name].params if k in given and k not in _KNOBS})
        for name in ns.experiments
    )
    cfg = SuiteConfig(**{k: given[k] for k in _KNOBS if k in given}, experiments=blocks)
    return cfg, {k: getattr(cfg, k) for k in EXPERIMENTS[ns.experiments[0]].params if k in _KNOBS}


def _cmd_suite(ns: argparse.Namespace) -> tuple[SuiteConfig, dict]:
    """The config file (or the default suite) with the flags' overrides, and its metadata."""
    if ns.config is not None:
        path = Path(ns.config)
        try:
            text = path.read_text()
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        cfg = parse_config(text)
    else:
        cfg = default_suite_config()
    overrides = {k: getattr(ns, k) for k in _KNOBS if getattr(ns, k, None) is not None}
    cfg = dataclasses.replace(cfg, **overrides)
    config = "default" if ns.config is None else str(ns.config)
    return cfg, {**{k: getattr(cfg, k) for k in _KNOBS}, "config": config}


# ---------------------------------------------------------------------------
# parser


def _checked(schema):
    """argparse ``type`` for a flag: its value, as the registry ``Param`` admits it."""

    def parse(text: str):
        try:
            return schema.check(_parse_scalar(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="sievenorm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sievenorm {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, summary, *experiments):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=_cmd_experiments, experiments=experiments)
        return p

    def param(p, flag, key, **kw):
        """A flag for schema key ``key`` of the command's first experiment (a list if a ladder key)."""
        experiment = EXPERIMENTS[p.get_default("experiments")[0]]
        schema = experiment.params[key]
        if key in experiment.ladder:
            kw["nargs"] = "+"
        if schema.choices:
            kw["choices"] = schema.choices
        else:
            kw["type"] = _checked(schema)
        p.add_argument(flag, dest=key, **kw)

    def output(p: _Parser) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    p = command("norm", "L1/L2 norms of a coefficient sequence", "norm")
    param(p, "--kind", "kind", required=True)
    param(p, "--n", "n", required=True, help="sequence length")
    param(p, "--tol", "rel_tol", help="relative tolerance (default 1e-4)")
    param(p, "--seed", "seed", help="seed for random kinds (default 0)")
    output(p)

    p = command("kernel-gap", "scan |kernel - T_N| against its ceilings", "kernel_gap")
    param(p, "--kind", "kind", default="gstar")
    param(p, "--n", "n", required=True)
    param(p, "--p", "p", help="prime cutoff (defaults from N)")
    param(p, "--m", "m", help="scan grid size (default 8N)")
    output(p)

    p = command("sieve-check", "one large-sieve inequality evaluation", "sieve_check")
    param(p, "--set-kind", "set_kind", required=True)
    param(p, "--param", "param", required=True, help="Farey parameter (Q or P)")
    param(p, "--kind", "kind", help="sequence kind (default random_complex)")
    param(p, "--n", "n", required=True)
    param(p, "--shift", "shift", help="shift of the point set (default 0)")
    param(p, "--seed", "seed", help="seed for random kinds (default 0)")
    output(p)

    p = command(
        "vaughan",
        "signed-kernel identity and L1 bracket for Lambda",
        "lambda_kernel_integral",
        "lambda_l1",
    )
    param(p, "--n", "n", required=True)
    param(p, "--q", "q", help="modulus cutoff (default isqrt(N))")
    param(p, "--tol", "rel_tol", help="relative tolerance (default 1e-4)")
    output(p)

    p = sub.add_parser("suite", help="run an experiment suite")
    p.add_argument("--config", metavar="PATH", default=None, help="suite config file")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--tol", type=float, dest="rel_tol", help="override config rel_tol")
    p.add_argument("--floor", type=float, help="override config floor")
    p.add_argument("--workers", type=int, help="override config worker threads")
    output(p)
    p.set_defaults(handler=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if getattr(ns, "handler", None) is None:
            parser.print_help(sys.stderr)
            return 1
        cfg, meta = ns.handler(ns)
        rows = tuple(run_suite(cfg))
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, CapacityError) as exc:
        print(f"sievenorm: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3
    record = OutputRecord(SCHEMA_VERSION, _metadata(**meta), rows)
    text = render_json(record) if ns.json else render_csv(record)
    if ns.out:
        try:
            Path(ns.out).write_text(text)
        except OSError as exc:
            print(f"sievenorm: error: cannot write {ns.out}: {exc}", file=sys.stderr)
            return 1
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

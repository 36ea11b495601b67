"""Command-line driver: run experiments, emit CSV (default) or JSON.

Subcommands run registered experiments (``experiments.EXPERIMENTS``) as a
suite of one block each, so a failed job renders an error row just as in
``suite``.  ``COMMANDS`` names each command's experiments, and the parser
is generated from the registry: one flag per schema key of the first
experiment (per ``SuiteConfig`` knob for ``suite``), with the key's
default, range and choices, and ``--help`` showing them.  A flag for a
ladder key takes several values, one row each, as the config key takes a
list; an omitted flag takes the registry default, as an omitted config key::

    sievenorm norm --kind mobius --n 256 512 1024 [--tol 1e-4]
    sievenorm kernel-gap [--kind gstar] [--n 4096] [--p 8] [--m 32768]
    sievenorm sieve-check --set-kind reduced_farey --param 22 --kind mobius --n 512
    sievenorm vaughan [--n 4096] [--q 64]
    sievenorm suite [--config PATH] [--workers K]

Output contract: CSV to stdout by default (or ``--out PATH``); ``--json``
switches to a JSON document ``{schema_version, metadata, rows}``.  CSV and
JSON carry identical row values; floats are rendered with 12 significant
digits.  Metadata records tool version, the git commit of the source tree
(``git_sha``, null outside a checkout) and every ``SuiteConfig`` knob run;
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


#: Global config keys, every SuiteConfig field but the blocks, and their Params.
_KNOBS = {f.name: f.metadata["param"] for f in dataclasses.fields(SuiteConfig) if f.metadata}


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
        "timestamp": datetime.now(timezone.utc).isoformat(),
        **extra,
    }


def _config(ns: argparse.Namespace) -> tuple[SuiteConfig, dict]:
    """The suite a command runs, and its metadata: every knob, plus ``config`` for ``suite``.

    ``suite`` runs its config file (or the default suite); any other command
    runs its experiments as one block each, the flags of their keys as params.
    Knob flags (seed, rel_tol, ...) override the config's globals.
    """
    given = {k: v for k, v in vars(ns).items() if v is not None}
    extra = {}
    if ns.command != "suite":
        blocks = tuple(
            (name, {k: given[k] for k in EXPERIMENTS[name].params if k in given and k not in _KNOBS})
            for name in COMMANDS[ns.command][1]
        )
        cfg = SuiteConfig(experiments=blocks)
    elif ns.config is None:
        cfg, extra = default_suite_config(), {"config": "default"}
    else:
        try:
            text = Path(ns.config).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read config {ns.config}: {exc}") from None
        cfg, extra = parse_config(text), {"config": ns.config}
    cfg = dataclasses.replace(cfg, **{k: given[k] for k in _KNOBS if k in given})
    return cfg, {**{k: getattr(cfg, k) for k in _KNOBS}, **extra}


# ---------------------------------------------------------------------------
# parser

#: Subcommand -> (summary, the experiments it runs).  Its flags are the first
#: experiment's schema keys, or for ``suite`` the SuiteConfig knobs.
COMMANDS = {
    "norm": ("L1/L2 norms of a coefficient sequence", ("norm",)),
    "kernel-gap": ("scan |kernel - T_N| against its ceilings", ("kernel_gap",)),
    "sieve-check": ("one large-sieve inequality evaluation", ("sieve_check",)),
    "vaughan": (
        "signed-kernel identity and L1 bracket for Lambda",
        ("lambda_kernel_integral", "lambda_l1"),
    ),
    "suite": ("run an experiment suite", ()),
}


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
    for command, (summary, experiments) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        if experiments:
            params, ladder = EXPERIMENTS[experiments[0]].params, EXPERIMENTS[experiments[0]].ladder
        else:
            params, ladder = _KNOBS, ()
            p.add_argument("--config", metavar="PATH", help="default: the default suite")
        for key, param in params.items():
            kw = {"choices": param.choices} if param.choices else {"type": _checked(param)}
            if key in ladder:
                kw["nargs"] = "+"
            flag = "--tol" if key == "rel_tol" else "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, required=param.required, help=param.help(), **kw)
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_help(sys.stderr)
            return 1
        cfg, meta = _config(ns)
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

"""Correctness check of suite rows against the reference recorded for a workload.

A row fails when it is missing, is not ``passed``, reports
``invariant_ok = false``, or has a measured value that moved from the
reference beyond that field's tolerance.  Rows the reference does not list
fail too.  Booleans, integers and strings must match exactly; every float
field has an entry in ``TOLERANCES`` with the reason for its size.

Reference files (``reference/<workload>.json``) hold, per row, the fields
that were equal at every recorded seed (``fixed``) and the rest per recorded
seed (``by_seed``).  At a seed that was not recorded only the fixed fields
are compared; the row's own ``passed`` and ``invariant_ok`` still apply.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_KERNEL_ROUNDOFF = (
    "abs_n",
    1e-9,
    "inverse-FFT roundoff on a kernel grid whose values reach N (the Fejer peak)",
)
_ROW_REL_TOL = (
    "rel_tol",
    None,
    "refining quadrature: the row's rel_tol is its own convergence criterion",
)
_SPECTRAL_SUM = (
    "rel",
    1e-9,
    "exact divisor-table sum of N*Q float products; only summation order can move it",
)

#: (experiment, measured field) -> (kind, value, reason).  Kinds:
#: ``rel``: |got - ref| <= value * |ref|;
#: ``rel_tol``: the same with value = the row's params["rel_tol"];
#: ``abs_n``: |got - ref| <= value * params["n"];
#: ``abs``: |got - ref| <= value.
TOLERANCES = {
    ("kernel_gap", "max_gap"): _KERNEL_ROUNDOFF,
    ("kernel_gap", "min_kernel_value"): _KERNEL_ROUNDOFF,
    ("kernel_gap", "truncation_gap"): _KERNEL_ROUNDOFF,
    ("squarefree_l1", "l1_mobius"): _ROW_REL_TOL,
    ("squarefree_l1", "l1_random"): _ROW_REL_TOL,
    ("prime_l1", "l1"): _ROW_REL_TOL,
    ("lambda_l1", "l1"): _ROW_REL_TOL,
    ("lambda_l1", "v_spectral"): _SPECTRAL_SUM,
    ("lambda_kernel_integral", "v_spectral"): _SPECTRAL_SUM,
    ("lambda_kernel_integral", "v_quadrature"): _ROW_REL_TOL,
    ("mangoldt_weighted_sum", "weighted_sum"): (
        "rel",
        1e-12,
        "one dot product of at most N exactly representable terms",
    ),
    ("large_sieve", "max_ratio"): (
        "rel",
        1e-9,
        "the roundoff slack the row documents in reference.ratio_bound = 1 + 1e-9",
    ),
    ("large_sieve", "mean_ratio"): (
        "rel",
        1e-9,
        "the roundoff slack the row documents in reference.ratio_bound = 1 + 1e-9",
    ),
    ("prime_count_floor", "min_ratio"): (
        "rel",
        1e-12,
        "one elementwise log/divide per n, no accumulation",
    ),
    ("squarefree_l1_trend", "ratios"): (
        "rel",
        1e-4,
        "fixed multiples of the squarefree_l1 rows' l1_mobius, held to their rel_tol 1e-4",
    ),
    ("lambda_kernel_integral_trend", "abs_gap_first"): (
        "abs",
        1e-9,
        "|v_spectral / target - 1|, and v_spectral is held to 1e-9 relative",
    ),
    ("lambda_kernel_integral_trend", "abs_gap_last"): (
        "abs",
        1e-9,
        "|v_spectral / target - 1|, and v_spectral is held to 1e-9 relative",
    ),
}


def row_key(row: dict) -> str:
    """Identity of a row across seeds: its experiment and params without the seed."""
    params = {k: v for k, v in row["params"].items() if k != "seed"}
    return f"{row['experiment']}{json.dumps(params, sort_keys=True)}"


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def _close(row: dict, field: str, got: float, ref: float) -> bool:
    kind, value, _reason = TOLERANCES[(row["experiment"], field)]
    if kind == "rel_tol":
        kind, value = "rel", float(row["params"]["rel_tol"])
    if kind == "rel":
        limit = value * abs(ref)
    elif kind == "abs_n":
        limit = value * float(row["params"]["n"])
    elif kind == "abs":
        limit = value
    else:
        raise ValueError(f"unknown tolerance kind {kind!r}")
    return got == ref or abs(got - ref) <= limit


def _matches(row: dict, field: str, got, ref) -> bool:
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(got) == len(ref)
            and all(_matches(row, field, g, r) for g, r in zip(got, ref))
        )
    if isinstance(ref, float):
        return isinstance(got, (int, float)) and not isinstance(got, bool) and _close(
            row, field, float(got), ref
        )
    return type(got) is type(ref) and got == ref


def row_problems(row: dict, ref: dict, seed: int) -> list[str]:
    """Every reason ``row`` fails against its reference entry (empty if none)."""
    problems = []
    if row["passed"] is not True:
        problems.append(f"not passed ({row['detail'] or 'no detail'})")
    measured = row["measured"]
    if measured.get("invariant_ok", True) is not True:
        problems.append("invariant_ok is false")
    expected = dict(ref["fixed"])
    expected.update(ref["by_seed"].get(str(seed), {}))
    for field, want in expected.items():
        if field not in measured:
            problems.append(f"measured.{field} missing")
        elif not _matches(row, field, measured[field], want):
            problems.append(f"measured.{field} = {measured[field]!r}, reference {want!r}")
    return problems


def check_rows(rows: list[dict], reference: dict, seed: int) -> list[str]:
    """One failure line per expected row that fails and per unexpected row."""
    got = {}
    failures = []
    for row in rows:
        key = row_key(row)
        if key in got:
            failures.append(f"duplicate row {key}")
        got[key] = row
    for ref in reference["rows"]:
        row = got.pop(ref["key"], None)
        if row is None:
            failures.append(f"missing row {ref['key']}")
            continue
        problems = row_problems(row, ref, seed)
        if problems:
            failures.append(f"{ref['key']}: {'; '.join(problems)}")
    failures.extend(f"unexpected row {key}" for key in got)
    return failures

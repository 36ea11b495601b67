"""Experiment battery: kernel gaps, L1 growth ratios, and the signed-kernel identity.

Each experiment produces one or more :class:`ExperimentRow` records.  Rows
carry plain-JSON dictionaries of finite values only (an undefined ratio or
field is absent), so they render identically to CSV and strict JSON.  A row
function states its checks once, as ``(ok, note)`` pairs, and ``_row``
derives the verdict from them:

``measured["invariant_ok"]``
    Whether every *invariant* held: a proven identity or inequality (large-sieve
    ratio at most 1, evaluation routes agreeing, certified ceilings kept, ...).
    A failed invariant maps to CLI exit code 2.

``passed`` and ``detail``
    Whether every check held, empirical *expectations* included (growth-ratio
    floors, asymptotic bands, converged quadrature; a miss only warns), and the
    row's notes followed by the note of each failed check, joined by "; ".

``measured["error"]``
    The exception class name, on a row whose job raised.  ``ValueError`` and
    ``CapacityError`` map to CLI exit code 1, any other class to 3.

Asymptotic statements are tested as dimensionless ratios against configured
floors (default 0.1, labeled "empirical floor" in the reference dict) or as
trends along an N-ladder, never as absolute-constant claims.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .arith import SEQUENCE_KINDS, ArithmeticTables, build_tables, coefficient_sequence
from .errors import InvariantError
from .expsum import (
    CoefficientSequence,
    KernelSpec,
    _low_frequency_value,
    grid_eval_kernel,
    kernel_coefficients,
)
from . import largesieve
from .largesieve import FAREY_KINDS, build_point_set, large_sieve_check, sieve_bound_for_kernel_gap
from .quadrature import DEFAULT_REL_TOL, l1_norm

DEFAULT_FLOOR = 0.1
DEFAULT_LADDER = (1 << 10, 1 << 12, 1 << 14, 1 << 16)

#: Kernel kinds whose gap to the Fejer kernel ``kernel_gap_rows`` measures.
GAP_KINDS = ("gstar", "h", "h_truncated")

#: Work cap for one large-sieve trial: points * sequence length.
TRIAL_WORK_BUDGET = 4_000_000

_SQUAREFREE_MONOTONE_SLACK = 0.999

_CONVERGENCE_NOTE = "quadrature did not converge (warning)"
_FLOOR_NOTE = "empirical floor; implied constant not asserted"


def _squarefree_growth(n, l1, l2):
    return l1 * (n**0.375 * math.sqrt(math.log(n))) / math.sqrt(l2)


#: L1 growth ratio ``f(N, l1, l2)`` (l2 = sum |b_n|^2): l1 times the powers of N
#: and log N under which the lower-bound theorems keep it above a constant.
GROWTH_RATIOS = {
    "mobius": _squarefree_growth,
    "squarefree_random": _squarefree_growth,
    "prime_indicator": lambda n, l1, l2: l1 * math.sqrt(n) / math.log(n) ** 2,
    "chi3_on_primes": lambda n, l1, l2: l1 * n**0.25 / math.log(n),
    "random_primes": lambda n, l1, l2: l1 * n**0.25 * math.sqrt(math.log(n)) / math.sqrt(l2),
}


def _plain(obj):
    """Coerce to JSON-native scalars/lists so rows serialize identically everywhere."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


@dataclass(frozen=True)
class ExperimentRow:
    """One experiment outcome with full provenance (params, tolerances, seeds)."""

    experiment: str
    params: dict
    measured: dict
    reference: dict
    ratios: dict
    passed: bool
    runtime_s: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        for name in ("params", "measured", "reference", "ratios"):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "runtime_s", float(self.runtime_s))


def _row(experiment, params, measured, reference, ratios, invariants=(), expectations=(), notes=()):
    """A row judged by its ``(ok, note)`` checks; see the module docstring."""
    checks = [*invariants, *expectations]
    return ExperimentRow(
        experiment=experiment,
        params=params,
        measured={**measured, "invariant_ok": all(ok for ok, _ in invariants)},
        reference=reference,
        ratios=ratios,
        passed=all(ok for ok, _ in checks),
        detail="; ".join([*notes, *(note for ok, note in checks if not ok)]),
    )


_REQUIRED = object()
_ACCEPTED_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}


@dataclass(frozen=True)
class Param:
    """Type, default and admitted values of one parameter.

    ``default``: a value, a tuple (a ladder key's list), ``None`` (the row
    function picks) or omitted (required); ``inherit`` names the SuiteConfig
    knob to default to instead (a knob's own Param names itself).  ``low`` is
    a lower bound, exclusive if ``strict``.
    """

    type: type
    default: object = _REQUIRED
    low: float | None = None
    strict: bool = False
    choices: tuple = ()
    inherit: str = ""

    def check(self, value):
        """``value`` as ``type``; ValueError for a wrong type, a non-finite float or out of range."""
        if value is None and self.default is None:
            return None
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED_TYPES[self.type]):
            raise ValueError(f"must be {self.type.__name__}, got {value!r}")
        value = self.type(value)
        if self.type is float and not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        if self.choices and value not in self.choices:
            raise ValueError(f"must be one of {', '.join(self.choices)}, got {value!r}")
        if self.low is not None and not (value > self.low if self.strict else value >= self.low):
            raise ValueError(f"must be {'>' if self.strict else '>='} {self.low}, got {value}")
        return value

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED and not self.inherit

    def help(self) -> str:
        """The default and the lower bound, as a flag's ``--help`` shows them."""
        default = getattr(SuiteConfig, self.inherit) if self.inherit else self.default
        if default is _REQUIRED:
            text = "required"
        elif default is None:
            text = "default: from the other parameters"
        elif isinstance(default, tuple):
            text = "default: " + " ".join(map(str, default))
        else:
            text = f"default: {default}"
        return text if self.low is None else f"{text}; {'>' if self.strict else '>='} {self.low}"


_SEED = Param(int, low=0, inherit="seed")
_REL_TOL = Param(float, low=0.0, strict=True, inherit="rel_tol")
_FLOOR = Param(float, inherit="floor")


@dataclass(frozen=True)
class SuiteConfig:
    """Global knobs plus an ordered list of (experiment, params) blocks.

    Each knob is checked by the :class:`Param` in its field metadata (ValueError).
    """

    seed: int = field(default=0, metadata={"param": _SEED})
    rel_tol: float = field(default=DEFAULT_REL_TOL, metadata={"param": _REL_TOL})
    floor: float = field(default=DEFAULT_FLOOR, metadata={"param": _FLOOR})
    workers: int = field(default=1, metadata={"param": Param(int, low=1, inherit="workers")})
    experiments: tuple = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            if "param" in f.metadata:
                try:
                    value = f.metadata["param"].check(getattr(self, f.name))
                except ValueError as exc:
                    raise ValueError(f"{f.name} {exc}") from None
                object.__setattr__(self, f.name, value)


# ---------------------------------------------------------------------------
# spectral route for the signed-kernel identity


def mobius_ramanujan_weighted_sum(tables: ArithmeticTables, N: int, Q: int) -> float:
    """sum_{q <= Q} mu(q) sum_{n <= N} (N - n) * Lambda(n) * c_q(-n), in closed form.

    Only prime powers n = p^k contribute, and for squarefree q the Ramanujan
    sum is c_q(p^k) = mu(q) if p does not divide q and mu(q/p) * (p - 1)
    if it does.  With W = sum (N - n) Lambda(n) and W_p that sum over the
    powers of p, q's term is W - sum_{p | q} p * W_p, so the total is
    W * #{squarefree q <= Q} - sum_{p <= Q} p * W_p * #{squarefree q <= Q : p | q}.
    """
    if not 1 <= Q <= N <= tables.n_max:
        raise ValueError(f"need 1 <= Q <= N <= {tables.n_max}, got Q={Q}, N={N}")
    lam = tables.mangoldt[: N + 1]
    n_idx = np.flatnonzero(lam)
    weights = (N - n_idx) * lam[n_idx]
    per_prime = np.bincount(tables.spf[n_idx], weights=weights)
    squarefree = tables.mobius[1 : Q + 1] != 0
    total = float(np.count_nonzero(squarefree)) * float(np.sum(weights))
    for p in tables.primes[tables.primes <= Q].tolist():
        total -= p * float(per_prime[p]) * int(np.count_nonzero(squarefree[p - 1 :: p]))
    return total


# ---------------------------------------------------------------------------
# experiment rows


def _gap_row(tables: ArithmeticTables, spec: KernelSpec, M: int, fejer_grid) -> ExperimentRow:
    """The gap row of ``spec`` on its M-point grid against ``fejer_grid``, T_N's."""
    kind, N, P = spec.kind, spec.N, spec.P
    notes = []
    if M < 4 * N:
        note = f"grid M={M} below 4N={4 * N}: scan may under-resolve peaks"
        warnings.warn(note, stacklevel=3)
        notes.append(note)
    kernel_grid = grid_eval_kernel(tables, spec, M).values
    diff = kernel_grid - fejer_grid
    max_gap = float(np.max(np.abs(diff, out=diff)))
    min_value = float(np.min(kernel_grid))
    log_n = math.log(N)
    if kind == "gstar":
        certified = sieve_bound_for_kernel_gap(tables, N, P, "gstar")
        scale = N**0.75 * log_n
    elif kind == "h":
        certified = sieve_bound_for_kernel_gap(tables, N, P, "h")
        scale = math.sqrt(N) * log_n
    else:
        certified = sieve_bound_for_kernel_gap(tables, N, P, "h") + 3.0 * P
        scale = math.sqrt(N) * log_n + 3.0 * P
    nonneg_floor = -1e-8 * N
    invariants = [(max_gap <= certified * (1.0 + 1e-12), "gap exceeds certified ceiling")]
    measured = {
        "max_gap": max_gap,
        "min_kernel_value": min_value,
        "grid_m": M,
    }
    reference = {
        "certified_ceiling": certified,
        "scale_ceiling": scale,
        "nonneg_floor": nonneg_floor,
        "scale_note": "scale ceiling is informational (constant not asserted)",
    }
    ratios = {
        "gap_over_certified": max_gap / certified,
        "gap_over_scale": max_gap / scale,
    }
    if kind == "h_truncated":
        trunc_gap = _low_frequency_value(tables, spec, 0.0)
        # d_k >= 0 and sum_{|k| <= P} d_k = mean_p p*(2*floor(P/p) + 1) <= 3P; h - h_truncated
        # has only the nonnegative terms (1 - |k|/N)*d_k, |k| <= P, so its sup is its value at 0
        trunc_tolerance = 3.0 * P * (1.0 + 1e-9)
        invariants.append((trunc_gap <= trunc_tolerance, "truncation gap exceeds 3P"))
        measured["truncation_gap"] = trunc_gap
        reference["truncation_ceiling"] = 3.0 * P
        reference["truncation_tolerance"] = trunc_tolerance
        ratios["truncation_over_3p"] = trunc_gap / (3.0 * P)
    else:
        invariants.append((min_value >= nonneg_floor, "kernel dips below nonnegativity floor"))
    params = {"kind": kind, "n": N, "p": P, "m": M}
    return _row("kernel_gap", params, measured, reference, ratios, invariants, notes=notes)


def kernel_gap_rows(
    tables: ArithmeticTables,
    n: Sequence[int],
    p: int | None = None,
    kind: Sequence[str] = GAP_KINDS,
    m: int | None = None,
) -> list[ExperimentRow]:
    """Scan |kernel - T_N| on a uniform grid per (kind, N); compare against its ceilings.

    Grid default is M = 8N; anything below 4N may under-resolve the peaks and
    triggers a warning note in the row.  The certified ceiling comes from the
    large-sieve bound (for ``h_truncated``: the ``h`` ceiling plus the 3P
    truncation cost); the scale ceiling N^(3/4) log N (``gstar``) or
    sqrt(N) log N (``h``-family) is informational and reported as a ratio.

    N runs outermost.  At each N, T_N's grid is built once, for the first
    row that needs it, and shared by every kind; each kernel's own grid is
    built and freed inside its row, so at most T_N's grid, one kernel grid
    and, while that grid is built, its half spectrum (the M//2 + 1 complex
    bins ``irfft`` reads) are alive.  ``h_truncated`` reads its truncation
    cost exactly, as h - h_truncated at 0, so it builds no h grid.  Rows
    come back kind-major, the order of one job per (kind, N).  A (kind, N)
    that raises, a kind outside ``GAP_KINDS`` or a p that ``KernelSpec``
    rejects included, gives an error row with that job's params (p and m as
    given); the other rows still run.
    """
    rows = {}
    for N in n:
        M = 8 * N if m is None else m
        fejer_grid = None
        for k in kind:
            try:
                if k not in GAP_KINDS:
                    choices = ", ".join(GAP_KINDS)
                    raise ValueError(f"kernel gap scan needs one of {choices}, got {k!r}")
                spec = KernelSpec(k, N, P=p)
                if fejer_grid is None:
                    fejer_grid = grid_eval_kernel(tables, KernelSpec("fejer", N), M).values
                rows[k, N] = _gap_row(tables, spec, M, fejer_grid)
            except Exception as exc:
                params = {"n": N, "p": p, "kind": k, "m": m}
                rows[k, N] = _error_row("kernel_gap", params, exc)
    return [rows[k, N] for k in kind for N in n]


def _l1(tables: ArithmeticTables, kind: str, N: int, rel_tol: float, seed: int = 0):
    """The ``kind`` sequence of length N, its L1 estimate and its L1 ratios.

    With l2 = sum |b_n|^2 (the estimate's ``l2``), the ratios l1/sqrt(l2),
    l1/sqrt(N), l1/sqrt(N log N) and ``growth_ratio`` (the kind's
    ``GROWTH_RATIOS`` value) are present only where defined: the first and
    last need l2 > 0, the last two N >= 2.  A caller that does not read the
    sequence takes ``[1:]``, so the sequence is freed before its next one is
    built.
    """
    seq = coefficient_sequence(tables, kind, N, seed=seed)
    est = l1_norm(seq, rel_tol=rel_tol)
    l2 = est.l2
    ratios = {"l1_over_l2": est.value / l2**0.5} if l2 > 0 else {}
    ratios["l1_over_sqrt_n"] = est.value / math.sqrt(N)
    if N >= 2:
        ratios["l1_over_sqrt_nlogn"] = est.value / math.sqrt(N * math.log(N))
        if kind in GROWTH_RATIOS and l2 > 0:
            ratios["growth_ratio"] = GROWTH_RATIOS[kind](N, est.value, l2)
    return seq, est, ratios


def squarefree_theorem_ratio(
    tables: ArithmeticTables,
    N: int,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    floor: float = DEFAULT_FLOOR,
) -> ExperimentRow:
    """L1 growth ratios for squarefree-supported sequences.

    For both the Mobius sequence and a random squarefree-supported sequence,
    the measured ratio is

        l1 * N^(3/8) * sqrt(log N) / sqrt(sum |b_n|^2),

    which the lower-bound theorem predicts stays above a positive constant;
    the configured floor (default 0.1) is an empirical stand-in for that
    constant, and monotonicity along the N-ladder is judged by the suite
    summary.  For N <= 512 the autocorrelation inequality
    l1(|b|^2-sequence) <= l1(b)^2 is also enforced (theorem class).
    """
    if N < 2 or N % 2:
        raise ValueError(f"N must be even and >= 2, got {N}")
    est_m, ratios_m = _l1(tables, "mobius", N, rel_tol)[1:]
    seq_r, est_r, ratios_r = _l1(tables, "squarefree_random", N, rel_tol, seed)
    ratio_m, ratio_r = ratios_m["growth_ratio"], ratios_r["growth_ratio"]
    mobius_l1_floor = N**0.125 / math.sqrt(math.log(N)) * floor
    measured = {
        "l1_mobius": est_m.value,
        "l1_random": est_r.value,
        "converged": bool(est_m.converged and est_r.converged),
    }
    reference = {
        "empirical_floor": floor,
        "mobius_l1_floor": mobius_l1_floor,
        "floor_note": _FLOOR_NOTE,
    }
    ratios = {"ratio_mobius": ratio_m, "ratio_random": ratio_r}
    invariants = []
    if N <= 512:
        sq = CoefficientSequence(N, np.abs(seq_r.coeffs) ** 2)
        est_sq = l1_norm(sq, rel_tol=rel_tol)
        auto_bound = est_r.value**2 * (1.0 + 5.0 * rel_tol)
        invariants.append((est_sq.value <= auto_bound, "autocorrelation inequality failed"))
        measured["l1_autocorrelation"] = est_sq.value
        reference["autocorrelation_bound"] = auto_bound
    expectations = [
        (measured["converged"], _CONVERGENCE_NOTE),
        (ratio_m >= floor, "mobius growth ratio below floor"),
        (ratio_r >= floor, "random growth ratio below floor"),
        (est_m.value >= mobius_l1_floor, "mobius l1 below its floor"),
    ]
    params = {"n": N, "seed": seed, "rel_tol": rel_tol, "floor": floor}
    return _row("squarefree_l1", params, measured, reference, ratios, invariants, expectations)


def prime_support_experiments(
    tables: ArithmeticTables,
    N: int,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    floor: float = DEFAULT_FLOOR,
) -> list[ExperimentRow]:
    """Three L1 growth rows for prime-supported sequences.

    Variants: the prime indicator (ratio l1 * sqrt(N) / (log N)^2), the
    character chi3 restricted to primes (ratio l1 * N^(1/4) / log N, with the
    character's partial sum over primes recorded as context), and a random
    prime-supported sequence (ratio l1 * N^(1/4) * sqrt(log N) / sqrt(l2));
    see :data:`GROWTH_RATIOS`.  All floors are empirical (default 0.1).
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    rows = []
    for variant in ("prime_indicator", "chi3_on_primes", "random_primes"):
        est, ratios = _l1(tables, variant, N, rel_tol, seed)[1:]
        ratio = ratios["growth_ratio"]
        measured = {"l1": est.value, "converged": bool(est.converged)}
        if variant == "chi3_on_primes":
            ps = tables.primes[tables.primes <= N]
            chi_sum = int(np.sum((ps % 3 == 1).astype(np.int64) - (ps % 3 == 2)))
            measured["chi3_prime_partial_sum"] = chi_sum
        rows.append(
            _row(
                "prime_l1",
                {"variant": variant, "n": N, "seed": seed, "rel_tol": rel_tol, "floor": floor},
                measured,
                {"empirical_floor": floor, "floor_note": _FLOOR_NOTE},
                {"growth_ratio": ratio},
                expectations=[
                    (est.converged, _CONVERGENCE_NOTE),
                    (ratio >= floor, "growth ratio below floor"),
                ],
            )
        )
    return rows


def lambda_kernel_integral_row(
    tables: ArithmeticTables,
    N: int,
    Q: int | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> ExperimentRow:
    """The weighted Mobius/Ramanujan sum by both routes, against 3QN^2/pi^2.

    ``v_spectral`` sums mu(q) * sum_n (N - n) * Lambda(n) * c_q(-n) directly
    (c_q in closed form at prime powers, summed per prime).  ``v_quadrature``
    integrates S_Lambda against the signed kernel by Parseval, as sum_{n <= N}
    Lambda(n) * (1 - n/N) * c_n over its coefficients, which come from the
    divisor form of c_q (products of mu over d*m, see ``expsum``) and share
    no code with the prime-power closed form.

    The routes agree to roundoff.  A sum of m floats in any order errs by at
    most gamma_{m-1} = (m-1)*u/(1 - (m-1)*u), u = eps/2, times the sum of
    their absolute values.  c_n is an exact integer and 1 - n/N is within 2u,
    so v_quadrature errs by at most gamma_{N+3} * A, A = sum Lambda(n)*|c_n|.
    v_spectral's W = sum (N - n)*Lambda(n) and its W_p err by at most
    gamma_{N+1} relative, and its final 1 + pi(Q) terms add in absolute value
    to at most 2Q*W (#squarefree q <= Q and each p * #{q : p | q} are at most
    Q), so it errs by at most gamma_{N+pi(Q)+4} * 2Q*W.  From N = 2 on that
    gamma is at most 2*eps*(N + pi(Q)), and at N = 1 both sums are 0, so
    ``routes_agree`` holds when the gap is at most route_bound =
    2*eps*(N + pi(Q))*(A + 2Q*W).  ``v_over_target`` is v_spectral over the
    asymptotic prediction 3*Q*N^2/pi^2; its ratio band gates only N >= 4096.

    ``rel_tol`` decides nothing; it labels the row like the ``lambda_l1`` one.
    """
    spec = KernelSpec("k_part3", N, Q=Q)
    Q = spec.Q
    v_spectral = mobius_ramanujan_weighted_sum(tables, N, Q)
    lam = tables.mangoldt[1 : N + 1]
    coef = kernel_coefficients(tables, spec)[N + 1 :]
    v_quadrature = float(np.dot(lam, (1.0 - np.arange(1, N + 1) / N) * coef))
    w_sum = float(np.dot(N - np.arange(1.0, N + 1), lam))
    pi_q = int(np.count_nonzero(tables.primes <= Q))
    scale = float(np.dot(lam, np.abs(coef))) + 2.0 * Q * w_sum
    route_bound = 2.0 * float(np.finfo(float).eps) * (N + pi_q) * scale
    target = 3.0 * Q * N * N / math.pi**2
    ratio = v_spectral / target
    band_lo, band_hi = 0.6, 1.4
    gap = abs(v_spectral - v_quadrature)
    agree = gap <= route_bound
    gap_over_bound = gap / route_bound if gap else 0.0  # bound is 0 at N = 1
    return _row(
        "lambda_kernel_integral",
        {"n": N, "q": Q, "rel_tol": rel_tol},
        {"v_spectral": v_spectral, "v_quadrature": v_quadrature, "routes_agree": agree},
        {"target": target, "band": [band_lo, band_hi], "band_applies_from_n": 4096},
        {"v_over_target": ratio, "route_gap_over_bound": gap_over_bound},
        invariants=[(agree, "spectral and quadrature routes disagree")],
        expectations=[(N < 4096 or band_lo <= ratio <= band_hi, "ratio outside asymptotic band")],
    )


def lambda_l1_bounds(
    tables: ArithmeticTables,
    N: int,
    Q: int | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> ExperimentRow:
    """Bracket the L1 norm of the von Mangoldt exponential sum.

    The analytic lower bound l1 >= v_spectral / (N * (N + Q^2)) is theorem
    class (invariant).  The two-sided constants -- l1 / sqrt(N) >= 0.15 and
    l1 <= sqrt(0.75 * N * log N) -- gate rows with N >= 1024, where the
    asymptotics have set in.
    """
    Q = KernelSpec("k_part3", N, Q=Q).Q
    est, l1_ratios = _l1(tables, "mangoldt", N, rel_tol)[1:]
    ratios = {k: l1_ratios[k] for k in ("l1_over_sqrt_n", "l1_over_sqrt_nlogn")}
    v_spectral = mobius_ramanujan_weighted_sum(tables, N, Q)
    analytic_lower = v_spectral / (N * (N + float(Q) ** 2))
    if analytic_lower > 0:  # v_spectral = 0 at N = 2
        ratios["l1_over_analytic_lower"] = est.value / analytic_lower
    above_lower = est.value * (1.0 + 5.0 * rel_tol) >= analytic_lower
    upper = math.sqrt(0.75)
    in_bracket = ratios["l1_over_sqrt_n"] >= 0.15 and ratios["l1_over_sqrt_nlogn"] <= upper
    asymptotic_lower = (3.0 / math.pi**2 - 0.05) * Q * N / (N + float(Q) ** 2)
    measured = {"l1": est.value, "v_spectral": v_spectral, "converged": bool(est.converged)}
    reference = {
        "analytic_lower": analytic_lower,
        "asymptotic_lower_eps05": asymptotic_lower,
        "bracket_lower_const": 0.15,
        "bracket_upper_const": upper,
        "bracket_applies_from_n": 1024,
    }
    return _row(
        "lambda_l1",
        {"n": N, "q": Q, "rel_tol": rel_tol},
        measured,
        reference,
        ratios,
        invariants=[(above_lower, "quadrature value below its analytic lower bound")],
        expectations=[
            (est.converged, _CONVERGENCE_NOTE),
            (N < 1024 or in_bracket, "bracket constants out of range"),
        ],
    )


def mangoldt_weighted_sum_row(tables: ArithmeticTables, N: int) -> ExperimentRow:
    """sum_{n <= N} (N - n) * Lambda(n) versus its N^2/2 asymptote.

    The band [0.9, 1.1] gates rows with N >= 16384; smaller N only record
    the ratio (the trend is visible but the band has not set in).
    """
    if not 2 <= N <= tables.n_max:
        raise ValueError(f"N={N} outside 2..{tables.n_max}")
    lam = tables.mangoldt[: N + 1]
    n_idx = np.flatnonzero(lam)
    value = float(np.dot(N - n_idx, lam[n_idx]))
    target = N * N / 2.0
    ratio = value / target
    return _row(
        "mangoldt_weighted_sum",
        {"n": N},
        {"weighted_sum": value},
        {"target": target, "band": [0.9, 1.1], "band_applies_from_n": 16384},
        {"sum_over_target": ratio},
        expectations=[(N < 16384 or 0.9 <= ratio <= 1.1, "ratio outside [0.9, 1.1]")],
    )


def prime_count_floor_row(tables: ArithmeticTables, n_max: int | None = None) -> ExperimentRow:
    """Check pi(n) * log(n) / n > 1 for every 17 <= n <= n_max (theorem class).

    pi is constant between primes and log(n)/n falls, so only n_max and each
    n = p - 1 (p >= 19 prime) can hold the minimum, and only they are read.
    """
    if n_max is None:
        n_max = tables.n_max
    if not 17 <= n_max <= tables.n_max:
        raise ValueError(f"n_max={n_max} outside 17..{tables.n_max}")
    primes = tables.primes
    n = np.append(primes[(primes >= 19) & (primes <= n_max)] - 1, n_max)
    vals = np.searchsorted(primes, n, side="right") * np.log(n) / n
    arg = int(np.argmin(vals))
    min_ratio = float(vals[arg])
    return _row(
        "prime_count_floor",
        {"n_max": n_max},
        {"min_ratio": min_ratio, "argmin_n": int(n[arg])},
        {"floor": 1.0, "applies_from_n": 17},
        {"min_ratio": min_ratio},
        invariants=[(min_ratio > 1.0, "pi(n) log n / n dipped to or below 1")],
    )


def norm_row(
    tables: ArithmeticTables,
    kind: str,
    N: int,
    rel_tol: float = DEFAULT_REL_TOL,
    seed: int = 0,
) -> ExperimentRow:
    """L1 and L2 norms of one coefficient sequence and every ratio ``_l1`` defines.

    Passes when the L1 quadrature converged.  ``last_delta`` is absent when
    only one grid fit the sample budget.
    """
    est, ratios = _l1(tables, kind, N, rel_tol, seed)[1:]
    measured = {"l1": est.value, "l2_sq": est.l2, "converged": est.converged}
    if len(est.grids) > 1:
        measured["last_delta"] = est.last_delta
    measured["grids"] = [[m, v] for m, v in est.grids]
    return _row(
        "norm",
        {"kind": kind, "n": N, "rel_tol": rel_tol, "seed": seed},
        measured,
        {"cauchy_ceiling": est.l2**0.5},
        ratios,
        expectations=[(est.converged, _CONVERGENCE_NOTE)],
    )


def sieve_check_row(
    tables: ArithmeticTables,
    set_kind: str,
    param: int,
    N: int,
    kind: str = "random_complex",
    shift: float = 0.0,
    seed: int = 0,
) -> ExperimentRow:
    """One large-sieve evaluation: a coefficient sequence on a Farey point set."""
    point_set = build_point_set(tables, set_kind, param)
    seq = coefficient_sequence(tables, kind, N, seed=seed)
    (result,) = large_sieve_check([seq], point_set, [shift])
    bound = 1.0 + largesieve.RATIO_TOLERANCE
    return _row(
        "sieve_check",
        {"set_kind": set_kind, "param": param, "kind": kind, "n": N, "shift": shift, "seed": seed},
        {
            "lhs": result.lhs,
            "rhs": result.rhs,
            "points": len(point_set),
            "delta": point_set.delta,
            "margin": 1.0 - result.ratio,
        },
        {"ratio_bound": bound},
        {"lhs_over_rhs": result.ratio},
        invariants=[(result.ratio <= bound, "large-sieve ratio above 1")],
    )


_TRIAL_PARAM_POOL = (3, 5, 8, 13, 22, 37, 61, 100, 165, 272, 449, 741, 1000)
_TRIAL_SQUARE_POOL = (2, 3, 5, 7, 11, 17, 23, 31)
_TRIAL_SEQ_KINDS = ("random_complex", "squarefree_random", "mobius", "ones", "mangoldt")
#: Trials drawn, then checked one point set at a time; caps the sequences held.
#: Each set is built, checked on its trials and dropped, so one set is alive.
_TRIAL_WINDOW = 1000


def large_sieve_trials(
    tables: ArithmeticTables,
    trials: int = 1000,
    seed: int = 0,
    max_param: int = 1000,
) -> ExperimentRow:
    """Randomized (sequence, point set, shift) trials of the sieve inequality.

    Point-set parameters are drawn from fixed pools (capped at 31 for the
    prime-square family, whose point count grows like P^3); sequence length
    is budgeted against the point count so one trial stays around a few
    million evaluations.  The budget reads each set's size from
    ``largesieve.point_count``, so a window's trials are drawn before any
    set exists; then each drawn set is built, checked on its trials and
    dropped, so only one set is alive at a time (a set drawn in two windows
    is built in each).  Any ratio above 1 + 1e-9 raises InvariantError
    inside large_sieve_check, so a returned row means every trial honored
    the bound.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    pools = {
        "reduced_farey": [p for p in _TRIAL_PARAM_POOL if p <= max_param],
        "prime_farey": [p for p in _TRIAL_PARAM_POOL if p <= max_param],
        "prime_square_farey": [p for p in _TRIAL_SQUARE_POOL if p <= max_param],
    }
    kinds = tuple(k for k, pool in sorted(pools.items()) if pool)
    if not kinds:
        raise ValueError(f"max_param={max_param} leaves every parameter pool empty")
    max_ratio, ratio_sum, worst = 0.0, 0.0, ""
    for start in range(0, trials, _TRIAL_WINDOW):
        drawn: dict[tuple[str, int], list] = {}
        for t in range(min(_TRIAL_WINDOW, trials - start)):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            key = (kind, pools[kind][int(rng.integers(0, len(pools[kind])))])
            n_hi = max(16, min(512, TRIAL_WORK_BUDGET // largesieve.point_count(tables, *key)))
            N = int(rng.integers(8, n_hi + 1))
            seq_kind = _TRIAL_SEQ_KINDS[int(rng.integers(0, len(_TRIAL_SEQ_KINDS)))]
            seq_seed, shift = int(rng.integers(0, 2**31)), float(rng.uniform())
            drawn.setdefault(key, []).append((t, seq_kind, N, seq_seed, shift))
        checked = {}
        for key, batch in drawn.items():
            seqs = [coefficient_sequence(tables, k, N, seed=s) for _, k, N, s, _ in batch]
            results = large_sieve_check(seqs, build_point_set(tables, *key), [b[4] for b in batch])
            for (t, k, N, _, _), res in zip(batch, results):
                checked[t] = (res.ratio, f"{key[0]}({key[1]}), {k}, N={N}")
        for _, (ratio, label) in sorted(checked.items()):
            ratio_sum += ratio
            if ratio > max_ratio:
                max_ratio, worst = ratio, label
    bound = 1.0 + largesieve.RATIO_TOLERANCE
    return _row(
        "large_sieve",
        {"trials": trials, "seed": seed, "max_param": max_param},
        {"max_ratio": max_ratio, "mean_ratio": ratio_sum / trials, "margin": 1.0 - max_ratio},
        {"ratio_bound": bound},
        {"max_ratio": max_ratio},
        invariants=[(max_ratio <= bound, "large-sieve ratio above 1")],
        notes=[f"worst: {worst}"] if worst else [],
    )


# ---------------------------------------------------------------------------
# suite plumbing


_N = Param(int, DEFAULT_LADDER, low=2)
_Q = Param(int, None, low=1)


def _n_even(params: dict) -> None:
    if params["n"] % 2:
        raise ValueError(f"n must be even, got {params['n']}")


def _q_at_most_n(params: dict) -> None:
    if params["q"] is not None and params["q"] > params["n"]:
        raise ValueError(f"q must be <= n, got q={params['q']}, n={params['n']}")


@dataclass(frozen=True)
class Experiment:
    """A row function (by name, looked up per call), its parameter schema and its ladder.

    A job calls ``row(tables, *params.values())``, params in schema order.
    ``ladder`` keys take lists, one job per combination (first key outermost),
    or with ``one_job`` a single job that gets the lists themselves;
    ``table`` keys are sizes the sieve tables must reach.  ``check``, if set,
    is called on each job's params and raises ValueError for a combination of
    keys the row function would reject.
    """

    row: str
    params: dict
    ladder: tuple = ("n",)
    table: tuple = ("n",)
    check: Callable[[dict], None] | None = None
    one_job: bool = False


EXPERIMENTS = {
    "kernel_gap": Experiment(
        "kernel_gap_rows",
        {
            "n": _N,
            "p": Param(int, None, low=2),
            "kind": Param(str, GAP_KINDS, choices=GAP_KINDS),
            "m": Param(int, None, low=1),
        },
        ladder=("kind", "n"),
        table=("n", "p"),
        one_job=True,
    ),
    "squarefree_l1": Experiment(
        "squarefree_theorem_ratio",
        {"n": _N, "seed": _SEED, "rel_tol": _REL_TOL, "floor": _FLOOR},
        check=_n_even,
    ),
    "prime_l1": Experiment(
        "prime_support_experiments",
        {
            "n": Param(int, DEFAULT_LADDER, low=3),
            "seed": _SEED,
            "rel_tol": _REL_TOL,
            "floor": _FLOOR,
        },
    ),
    "lambda_kernel_integral": Experiment(
        "lambda_kernel_integral_row", {"n": _N, "q": _Q, "rel_tol": _REL_TOL}, check=_q_at_most_n
    ),
    "lambda_l1": Experiment(
        "lambda_l1_bounds", {"n": _N, "q": _Q, "rel_tol": _REL_TOL}, check=_q_at_most_n
    ),
    "mangoldt_weighted_sum": Experiment("mangoldt_weighted_sum_row", {"n": _N}),
    "large_sieve": Experiment(
        "large_sieve_trials",
        {"trials": Param(int, 1000, low=1), "seed": _SEED, "max_param": Param(int, 1000, low=2)},
        ladder=(),
        table=("max_param",),
    ),
    "prime_count_floor": Experiment(
        "prime_count_floor_row",
        {"n_max": Param(int, 1 << 20, low=17)},
        ladder=(),
        table=("n_max",),
    ),
    "norm": Experiment(
        "norm_row",
        {
            "kind": Param(str, choices=SEQUENCE_KINDS),
            "n": Param(int, low=1),
            "rel_tol": _REL_TOL,
            "seed": _SEED,
        },
    ),
    "sieve_check": Experiment(
        "sieve_check_row",
        {
            "set_kind": Param(str, choices=FAREY_KINDS),
            "param": Param(int, low=2),
            "n": Param(int, low=1),
            "kind": Param(str, "random_complex", choices=SEQUENCE_KINDS),
            "shift": Param(float, 0.0),
            "seed": _SEED,
        },
        table=("n", "param"),
    ),
}

EXPERIMENT_NAMES = tuple(sorted(EXPERIMENTS))


def expand(name: str, block: dict, cfg: SuiteConfig = SuiteConfig()) -> list[tuple[str, dict]]:
    """One ``(name, params)`` job per combination of the block's ladder values.

    An experiment with ``one_job`` gets a single job holding the ladder lists.

    Every schema key is resolved (block value, else inherited ``cfg`` knob,
    else default) and checked, then every job by the experiment's ``check``;
    ValueError names the experiment (and the key, for a one-key check).
    """
    spec = EXPERIMENTS.get(name)
    if spec is None:
        raise ValueError(f"unknown experiment {name!r}")
    unknown = sorted(set(block) - set(spec.params))
    if unknown:
        raise ValueError(f"{name}: unknown parameter(s) {unknown}")
    values = {}
    for key, param in spec.params.items():
        if key in block:
            raw = block[key]
        else:
            raw = getattr(cfg, param.inherit) if param.inherit else param.default
        if raw is _REQUIRED:
            raise ValueError(f"{name}: {key} is required")
        items = raw if isinstance(raw, (list, tuple)) else [raw]
        if key in spec.ladder and not items:
            raise ValueError(f"{name}: {key} takes at least one value")
        if len(items) != 1 and key not in spec.ladder:
            raise ValueError(f"{name}: {key} takes one value, got {raw!r}")
        try:
            checked = [param.check(item) for item in items]
        except ValueError as exc:
            raise ValueError(f"{name}: {key} {exc}") from None
        values[key] = checked if key in spec.ladder else checked[0]
    split = () if spec.one_job else spec.ladder
    jobs = []
    for combo in itertools.product(*(values[key] for key in split)):
        params = dict(values)
        params.update(zip(split, combo))
        if spec.check is not None:
            try:
                spec.check(params)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        jobs.append((name, params))
    return jobs


def run_job(tables: ArithmeticTables, name: str, params: dict) -> list[ExperimentRow]:
    """The rows of one job from :func:`expand`, each timed at an even share of the job."""
    t0 = time.perf_counter()
    out = globals()[EXPERIMENTS[name].row](tables, *params.values())
    rows = out if isinstance(out, list) else [out]
    share = (time.perf_counter() - t0) / len(rows)
    return [replace(row, runtime_s=share) for row in rows]


def required_nmax(jobs) -> int:
    """Sieve-table size covering every job's ``table`` keys (at least 4096); a key may hold a list."""
    sizes = [4096]
    for name, params in jobs:
        for key in EXPERIMENTS[name].table:
            value = params[key]
            sizes += value if isinstance(value, list) else [value]
    return max(size for size in sizes if size is not None)


def default_suite_config() -> SuiteConfig:
    """Every suite experiment at its defaults (N over {2^10, ..., 2^16}), with 200 sieve trials."""
    return SuiteConfig(
        experiments=(
            ("kernel_gap", {}),
            ("squarefree_l1", {}),
            ("prime_l1", {}),
            ("lambda_kernel_integral", {}),
            ("lambda_l1", {}),
            ("mangoldt_weighted_sum", {}),
            ("large_sieve", {"trials": 200}),
            ("prime_count_floor", {}),
        )
    )


def _error_row(name: str, params: dict, exc: Exception, runtime_s: float = 0.0) -> ExperimentRow:
    """A failed row for a job that raised; ``measured["error"]`` names the class."""
    invariant_failure = isinstance(exc, InvariantError)
    return ExperimentRow(
        experiment=name,
        params=params,
        measured={"invariant_ok": not invariant_failure, "error": type(exc).__name__},
        reference={},
        ratios={},
        passed=False,
        runtime_s=runtime_s,
        detail=f"{type(exc).__name__}: {exc}",
    )


def _ladder(rows: list, experiment: str, ratio: str) -> tuple[list, list]:
    """The n values and ``ratio`` values of the ``experiment`` rows, by increasing n."""
    hits = sorted(
        (r for r in rows if r.experiment == experiment and ratio in r.ratios),
        key=lambda r: r.params.get("n", 0),
    )
    return [r.params["n"] for r in hits], [r.ratios[ratio] for r in hits]


def _trend_row(experiment, ns, measured, ok, requirement, failure) -> ExperimentRow:
    reference = {"requirement": requirement}
    return _row(f"{experiment}_trend", {"n": ns}, measured, reference, {}, [], [(ok, failure)])


def _summary_rows(rows: list) -> list:
    out = []
    ns, ratios = _ladder(rows, "squarefree_l1", "ratio_mobius")
    if len(ns) >= 2:
        ok = all(b >= a * _SQUAREFREE_MONOTONE_SLACK for a, b in zip(ratios, ratios[1:]))
        requirement = "non-decreasing along the ladder"
        failure = "mobius growth ratio decreased along the ladder"
        out.append(_trend_row("squarefree_l1", ns, {"ratios": ratios}, ok, requirement, failure))
    ns, ratios = _ladder(rows, "lambda_kernel_integral", "v_over_target")
    if len(ns) >= 2:
        first, last = abs(ratios[0] - 1.0), abs(ratios[-1] - 1.0)
        measured = {"abs_gap_first": first, "abs_gap_last": last}
        requirement = "ratio approaches 1 along the ladder"
        failure = "ratio moved away from 1 along the ladder"
        out.append(
            _trend_row("lambda_kernel_integral", ns, measured, last <= first, requirement, failure)
        )
    return out


def run_suite(config: SuiteConfig | None = None, tables: ArithmeticTables | None = None):
    """Run the configured experiments and return rows in deterministic order.

    Every block is expanded (and so checked) before any job runs.  Per-row
    failures -- a bad block or a job that raised -- are captured as failed
    rows and never abort the suite; such a row names the exception class in
    ``measured["error"]``.  With ``workers > 1`` rows are computed in a
    thread pool but assembled in configuration order, so output ordering is
    identical for any worker count.
    """
    cfg = config if config is not None else default_suite_config()
    jobs = []
    for name, block in cfg.experiments:
        try:
            jobs += [(job, None) for job in expand(name, block, cfg)]
        except ValueError as exc:
            jobs.append(((name, dict(block)), exc))
    if not jobs:
        return []
    if tables is None:
        tables = build_tables(required_nmax(job for job, error in jobs if error is None))

    def run(entry):
        (name, params), error = entry
        if error is not None:
            return [_error_row(name, params, error)]
        t0 = time.perf_counter()
        try:
            return run_job(tables, name, params)
        except Exception as exc:
            return [_error_row(name, params, exc, time.perf_counter() - t0)]

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(entry) for entry in jobs]
    rows = [row for result in results for row in result]
    rows.extend(_summary_rows(rows))
    return rows


def invariant_violations(rows) -> list[str]:
    """Human-readable list of rows whose *invariant* (not empirical) check failed."""
    out = []
    for row in rows:
        if row.measured.get("invariant_ok", True) is False:
            out.append(f"{row.experiment}({row.params}): {row.detail or 'invariant failed'}")
    return out

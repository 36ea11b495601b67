"""L1 and L2 norms of trigonometric polynomials over [0, 1).

For S(alpha) = sum_{n=1}^N a_n e(n*alpha), the L2 norm is exact (Parseval:
integral of |S|^2 equals sum |a_n|^2, and the rectangle rule reproduces it
exactly once M >= 2N + 1 samples are used).  The L1 norm has no closed form;
it is estimated by rectangle-rule quadrature on nested power-of-two grids
M = oversample * 2^ceil(log2 N), doubling M until successive values agree
to a relative tolerance.  |S| has kinks at its zeros, so the rule converges
only algebraically.  Each doubling keeps the running sum of |S| and adds only
the new samples of the finer grid, which form one grid of half its size at
shift 1/2.  Every grid sum runs in transforms of at most ``_CHUNK`` points,
so memory does not grow with N.  A real sequence has |S(-alpha)| =
|S(alpha)|: its grids at shift 0 take one real FFT (half the work of a
complex one), and at shift 1/2 the mirror halves the samples.
``SAMPLE_BUDGET`` bounds the finest grid's sample count, that is the time an
estimate may take.

Every estimate is cross-checked against two analytic envelopes before being
returned: l1 <= sqrt(l2) (Cauchy-Schwarz) and l1 >= max_n |a_n| (projection
onto a single frequency).  A violation beyond tolerance raises
:class:`InvariantError` -- the quadrature itself cannot produce either side
wrongly unless there is a bug.

Grid values are reduced by one ``np.sum`` per transform, in a fixed order, so
a given input always gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvariantError
from .expsum import CoefficientSequence, grid_eval_sequence

DEFAULT_REL_TOL = 1e-4
#: The L1 grids run over M = oversample * 2^ceil(log2 N), oversample from START to CAP.
OVERSAMPLE_START = 16
OVERSAMPLE_CAP = 1024
#: Cap on the finest L1 grid: 2^25 samples reach N = 2^20 at oversample 32.
SAMPLE_BUDGET = 1 << 26

# Longest transform: one call evaluates at most this many points.
_CHUNK = 1 << 19
# Cosets have this many points, or the first grid's if more, which keeps
# re-twisting the N coefficients a small share of each call.  Longer complex
# transforms cost more per sample: one call per grid (up to 2^19 points) took
# random_complex at N = 1000 and rel_tol 1e-9 from 30 ms to 42-46 ms.
_CACHED = 1 << 14


@dataclass(frozen=True)
class L1Estimate:
    """Result of the refining L1 quadrature.

    ``grids`` records every (M, value) pair in the order visited (M strictly
    increasing); ``value`` is the last and finest.  ``converged`` is a flag,
    not a guarantee -- callers decide whether a non-converged estimate is
    usable.  ``last_delta`` is the final relative change (inf if only one
    grid fit the budget).
    """

    value: float
    grids: tuple[tuple[int, float], ...]
    converged: bool
    last_delta: float


def l2_norm_sq(seq: CoefficientSequence) -> float:
    """Integral of |S|^2 over [0,1), computed exactly as sum |a_n|^2."""
    return float(np.vdot(seq.coeffs, seq.coeffs).real)


def l2_norm_sq_quadrature(seq: CoefficientSequence, M: int | None = None) -> float:
    """Same integral by the rectangle rule (exact once M >= 2N + 1)."""
    if M is None:
        M = 2 * seq.N + 2
    g = grid_eval_sequence(seq, M)
    return float(np.mean(np.abs(g.values) ** 2))


def _grid_sum(seq: CoefficientSequence, G: int, shift: float) -> float:
    """Sum of |S((j + shift)/G)| over j < G, in transforms of at most ``_CHUNK`` points.

    The grid is the R = G/B cosets of B points: coset r holds
    (R*i + r + shift)/G = (i + (r + shift)/R)/B, i < B.  B is G capped at
    ``_CHUNK`` and at the larger of ``_CACHED`` and the first grid.

    A real sequence (every imaginary part exactly 0) and an even G take two
    mirror identities instead.  At shift 1/2 the points (4k + 3)/(2G) mirror
    (4k + 1)/(2G), so the sum is twice that over G/2 points at shift 1/4.  At
    shift 0 one ``rfft`` of the real bins holds S at j/G for j <= G/2, and the
    mirror gives the rest, weighted 1, 2, ..., 2, 1; above ``_CHUNK`` points
    the grid splits into its even samples (G/2 at shift 0) and odd ones (G/2
    at shift 1/2).
    """
    if G % 2 == 0 and not np.any(seq.coeffs.imag):
        if shift == 0.5:
            return 2.0 * _grid_sum(seq, G // 2, 0.25)
        if shift == 0 and G > _CHUNK:
            return _grid_sum(seq, G // 2, 0.0) + _grid_sum(seq, G // 2, 0.5)
        if shift == 0:
            n = np.arange(1, seq.N + 1)
            a = np.abs(np.fft.rfft(np.bincount(n % G, weights=seq.coeffs.real, minlength=G)))
            return float(a[0] + a[-1] + 2.0 * np.sum(a[1:-1]))
    B = min(G, _CHUNK, max(_CACHED, OVERSAMPLE_START << (seq.N - 1).bit_length()))
    R = G // B
    return sum(
        float(np.sum(np.abs(grid_eval_sequence(seq, B, shift=(r + shift) / R).values)))
        for r in range(R)
    )


def _refine(seq: CoefficientSequence, rel_tol: float) -> L1Estimate:
    """Mean of |S| on the grids M = oversample * 2^ceil(log2 N), doubling until settled.

    The first grid is ``_grid_sum(M, 0)``.  The new samples of a doubling to
    M, the odd multiples of 1/M, are the grid of M/2 points at shift 1/2, so
    each doubling adds ``_grid_sum(M/2, 1/2)`` to the running sum and the
    finest grid is sampled once in total.
    """
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    scale = 1 << (seq.N - 1).bit_length()
    grids: list[tuple[int, float]] = []
    total = 0.0
    last_delta = math.inf
    converged = False
    M = OVERSAMPLE_START * scale
    while M <= OVERSAMPLE_CAP * scale and M <= SAMPLE_BUDGET:
        total += _grid_sum(seq, M // 2, 0.5) if grids else _grid_sum(seq, M, 0.0)
        value = total / M
        if grids:
            last_delta = abs(value - grids[-1][1]) / max(abs(value), 1e-300)
        grids.append((M, value))
        if last_delta < rel_tol:
            converged = True
            break
        M *= 2
    if not grids:
        raise CapacityError(
            f"coarsest grid {OVERSAMPLE_START * scale} already exceeds budget {SAMPLE_BUDGET}"
        )
    return L1Estimate(
        value=grids[-1][1],
        grids=tuple(grids),
        converged=converged,
        last_delta=float(last_delta),
    )


def _check_envelopes(value: float, ceiling: float, floor: float, rel_tol: float) -> None:
    slack = rel_tol * max(abs(value), 1.0) + 1e-12 * max(ceiling, 1.0)
    if value > ceiling + slack:
        raise InvariantError(
            f"L1 estimate {value!r} exceeds Cauchy-Schwarz ceiling {ceiling!r}"
        )
    if value < floor - slack:
        raise InvariantError(
            f"L1 estimate {value!r} below single-frequency floor {floor!r}"
        )


def l1_norm(seq: CoefficientSequence, rel_tol: float = DEFAULT_REL_TOL) -> L1Estimate:
    """Estimate integral of |S(alpha)| d alpha by refining rectangle rules.

    ``SAMPLE_BUDGET`` caps the finest grid's sample count (CapacityError if
    even the coarsest grid exceeds it).  Non-convergence within the oversample
    cap or the budget is reported via ``converged=False``, never as an
    exception; the analytic envelope checks still run on whatever value the
    finest grid produced.
    """
    est = _refine(seq, rel_tol)
    ceiling = math.sqrt(l2_norm_sq(seq))
    floor = float(np.max(np.abs(seq.coeffs)))
    _check_envelopes(est.value, ceiling, floor, rel_tol)
    return est

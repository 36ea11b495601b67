"""L1 and L2 norms of trigonometric polynomials over [0, 1).

For S(alpha) = sum_{n=1}^N a_n e(n*alpha), the L2 norm is exact (Parseval:
integral of |S|^2 equals sum |a_n|^2, and the rectangle rule reproduces it
exactly once M >= 2N + 1 samples are used).  The L1 norm has no closed form;
it is estimated by rectangle-rule quadrature on nested power-of-two grids
M = oversample * 2^ceil(log2 N), doubling M until successive values agree
to a relative tolerance.  |S| has kinks at its zeros, so the rule converges
only algebraically.  Each doubling keeps the running sum of |S| and adds only
the new samples of the finer grid, its odd multiples of 1/M.  Every sample
is S((i + t)/L), L = 2^ceil(log2 N), i < L, offset t in [0, 1): a grid is
rows of L points, each one inverse FFT of twisted coefficients, in cache up to
L = 2^16 (Bailey's four-step FFT, input stage pruned), in batches of at most
``expsum._CHUNK`` samples, so memory does not grow with N; the split, the
twist and the mirror are ``expsum``'s row engine, which the kernel-gap rows
share.  A real sequence has |S(-alpha)| = |S(alpha)|, so only offsets
t <= 1/2 run.  ``SAMPLE_BUDGET`` bounds the finest grid's sample count, that
is the time an estimate may take (and caps the kernel-gap grids too).

Every estimate is cross-checked against two analytic envelopes before being
returned: l1 <= sqrt(l2) (Cauchy-Schwarz) and l1 >= max_n |a_n| (projection
onto a single frequency).  A violation beyond tolerance raises
:class:`InvariantError` -- the quadrature itself cannot produce either side
wrongly unless there is a bug.  Row sums are reduced in a fixed order, so a
given input always gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvariantError
from .expsum import (
    CoefficientSequence,
    phases,
    row_batches,
    row_split,
    twist,
)

DEFAULT_REL_TOL = 1e-4
#: The L1 grids run over M = oversample * 2^ceil(log2 N), oversample from START to CAP.
OVERSAMPLE_START = 8
OVERSAMPLE_CAP = 1024
#: Cap on the finest L1 grid: 2^24 samples reach N = 2^20 at oversample 16.
SAMPLE_BUDGET = 1 << 26


@dataclass(frozen=True)
class L1Estimate:
    """Result of the refining L1 quadrature.

    ``grids`` records every (M, value) pair in the order visited (M strictly
    increasing); ``value`` is the last and finest.  ``converged`` is a flag,
    not a guarantee -- callers decide whether a non-converged estimate is
    usable.  ``last_delta`` is the final relative change (inf if only one
    grid fit the budget).  ``l2`` is sum |a_n|^2, whose root is the
    Cauchy-Schwarz ceiling on ``value``.
    """

    value: float
    grids: tuple[tuple[int, float], ...]
    converged: bool
    last_delta: float
    l2: float


def l2_norm_sq(seq: CoefficientSequence) -> float:
    """Integral of |S|^2 over [0,1), computed exactly as sum |a_n|^2."""
    return float(np.vdot(seq.coeffs, seq.coeffs).real)


def _row_sum(seq: CoefficientSequence, M: int, odd: bool) -> float:
    """Sum of |S(j/M)| over j < M, or over odd j only, by the row engine of ``expsum``.

    |S(alpha)| = |sum_{m<N} a_{m+1} e(m*alpha)|.  With L = 2^ceil(log2 N)
    the split is B = min(L, ``_CHUNK``) (``row_split``): row s is one inverse
    FFT of the B bins sum_{m = k (mod B)} a_{m+1} e(m*s/M) (exact aliasing;
    above ``_CHUNK`` the coefficients fold, whole chunks by a product with
    e(q*B*s/M), then the rest), twisted by e(k*s/M) (``twist``), in batches
    of at most ``_CHUNK`` samples.  For a real sequence row D - s mirrors
    row s, so only s <= D/2 run (``row_batches``).
    """
    L = 1 << (seq.N - 1).bit_length()
    B = row_split(M, L)
    if L == B:
        bins = np.concatenate((seq.coeffs, np.zeros(L - seq.N)))

    def folded(t: np.ndarray) -> np.ndarray:  # one row: whole chunks by a product, then the rest
        whole = seq.N - seq.N % B
        x = phases(np.arange(0, whole, B), t, M) @ seq.coeffs[:whole].reshape(-1, B)
        x[:, : seq.N - whole] += phases(whole, t, M)[:, None] * seq.coeffs[whole:]
        return x

    total = 0.0
    for t, w in row_batches(M, B, odd, mirror=not np.any(seq.coeffs.imag)):
        x = twist(bins if L == B else folded(t), t, M)
        np.fft.ifft(x, axis=1, norm="forward", out=x)
        total += float(np.abs(x).sum(axis=1) @ w)
        del x  # before the next fold, so that two batches at most are alive
    return total


def _refine(seq: CoefficientSequence, rel_tol: float) -> L1Estimate:
    """Mean of |S| on the grids M = oversample * 2^ceil(log2 N), doubling until settled.

    The first grid is ``_row_sum(M, odd=False)``; a doubling to M adds the
    odd multiples of 1/M, ``_row_sum(M, odd=True)``, to the running sum, so
    the finest grid is sampled once in total.
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
        total += _row_sum(seq, M, odd=bool(grids))
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
        l2=l2_norm_sq(seq),
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
    ceiling = math.sqrt(est.l2)
    floor = float(np.max(np.abs(seq.coeffs)))
    _check_envelopes(est.value, ceiling, floor, rel_tol)
    return est

"""The pair route: an independent reference for the class sets of ``sievenorm.largesieve``.

``SpacedPointSet((num, den))`` holds int64 pairs (numerator, denominator),
the points a/q in [0, 1), and *certifies* delta in one straight line: the
pairs are taken mod 1, divided by their gcds and sorted, and every
consecutive gap a'/q' - a/q = (a'q - aq')/(qq') is checked by integer
cross-multiplication (``largesieve._min_gap``): each cross-product must be
>= 1 (order and distinctness) and each gap at least 1/max(q)^2.  The exact
minimal gap is only then rounded (downward) to a float.

``SpacedPointSet(farey_pairs(tables, kind, parameter))`` builds a Farey
family point by point, so its delta, size and points check those of
``build_point_set(tables, kind, parameter)``, which builds no pair.

The whole-grid and pointwise spectral routes: independent references for the
row engine of ``sievenorm.expsum`` and for its translate route.

``grid_eval_sequence`` folds a sequence's coefficients into bins n mod M and
takes one inverse FFT of length M, the grid that the L1 quadrature's row
transforms (``quadrature._row_sum``) are checked against.
``grid_eval_kernel`` does the same for a kernel's real even weights with one
``irfft``, the grid that ``kernel_row`` is checked against.
``eval_kernel_spectral`` sums a kernel's Fourier expansion at one point, and
``duality_gap`` plays it against the translate route ``eval_kernel``.
``l2_norm_sq_quadrature`` takes Parseval's integral by the rectangle rule.
Each returns a plain array or float; nothing here caps M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sievenorm.expsum import (
    TWO_PI_I,
    _cosine_fold,
    _ramped,
    eval_kernel,
    kernel_coefficients,
)
from sievenorm.largesieve import _check_family, _check_int64, _min_gap, _residues


@dataclass(frozen=True, eq=False)
class SpacedPointSet:
    """Sorted points in [0, 1) with a certified minimal circular gap.

    ``fractions = (num, den)`` are integers that broadcast to one nonempty
    1-d shape, e.g. ``SpacedPointSet((np.arange(M), M))``.  Each num is taken
    mod its den, each pair is divided by its gcd, and the sorted pairs are
    certified by ``_min_gap``.  They are stored as read-only int64 arrays
    and ``points`` is ``num / den``.  ``delta`` is the exact minimal circular
    gap rounded toward zero; a single point is 1-spaced by convention.
    ``kind`` names the set in messages and defaults to ``exact(R)`` for R
    points.  Raises ValueError for bad arrays, a denominator below 1 or a
    repeated point (1/2 and 2/4 included), and CapacityError for a
    denominator above the limit of ``_check_int64``.
    """

    fractions: tuple[np.ndarray, np.ndarray]
    kind: str = ""
    delta: float = field(init=False)
    points: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        num, den = (np.asarray(a) for a in self.fractions)
        if not (np.issubdtype(num.dtype, np.integer) and np.issubdtype(den.dtype, np.integer)):
            raise ValueError("numerators and denominators must be integers")
        num, den = np.broadcast_arrays(num, den)
        if num.ndim != 1 or num.size == 0:
            raise ValueError("fractions must broadcast to a nonempty 1-d array")
        if den.min() < 1:
            raise ValueError("denominators must be >= 1")
        # each pair-length array is dropped as soon as it is read: a Farey set holds ~10^5 pairs
        num = np.remainder(num, den, dtype=np.int64)
        den = den.astype(np.int64, copy=False)
        g = np.gcd(num, den)
        num //= g
        den = den // g
        del g
        _check_int64(int(den.max()))
        # Within that limit distinct points differ by >= 1/max_den^2 > 2^-32,
        # far above float resolution, so the float order is the exact order.
        order = np.argsort(num / den)
        num = num[order]
        den = den[order]
        del order
        kind = self.kind or f"exact({num.size})"
        delta = _min_gap(num, den, kind)
        pts = num / den
        for arr in (num, den, pts):
            arr.setflags(write=False)
        object.__setattr__(self, "fractions", (num, den))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)


def farey_pairs(tables, kind: str, parameter: int) -> tuple[np.ndarray, np.ndarray]:
    """The (num, den) pairs of a Farey family, for ``SpacedPointSet`` to certify.

    ``reduced_farey`` keeps a/q unless a prime p | q divides a, so its pairs
    are already reduced.  Raises as ``build_point_set`` does.
    """
    parameter = _check_family(tables, kind, parameter)
    ps = tables.primes[tables.primes <= parameter].astype(np.int64)
    if kind != "reduced_farey":
        return _residues(ps * ps if kind == "prime_square_farey" else ps, 1)
    num, den = _residues(np.arange(1, parameter + 1), 0)
    keep = np.ones(num.size, dtype=bool)
    for p in ps.tolist():  # block q holds a = 0..q-1; drop each a = 0 (mod p) for p | q
        for q in range(p, parameter + 1, p):
            keep[q * (q - 1) // 2 : q * (q + 1) // 2 : p] = False
    return num[keep], den[keep]


def pair_set(tables, kind: str, parameter: int) -> SpacedPointSet:
    """A Farey family by the pair route: ``SpacedPointSet`` certifies ``farey_pairs``."""
    return SpacedPointSet(farey_pairs(tables, kind, parameter), f"{kind}({parameter})")


def grid_eval_sequence(seq, M: int, shift: float = 0.0) -> np.ndarray:
    """S((j + shift)/M) for j = 0..M-1, from one inverse FFT of length M.

    The coefficients are twisted by e(n*shift/M) and folded into frequency
    bins b[r], the sum of a_n over n = r (mod M).  Folding aliases exactly:
    sum_r b[r] e(r*j/M) equals sum_n a_n e(n*j/M) for every integer j, so M
    may be below N + 1.  At shift = 0 and M >= N + 1 each a_n sits alone in
    bin n.  The pointwise route ``eval_sequence`` shares no code with this one.
    """
    n = np.arange(1, seq.N + 1)
    coeffs = seq.coeffs * np.exp(TWO_PI_I * (shift / M) * n) if shift else seq.coeffs
    values = np.zeros(M, dtype=np.complex128)
    np.add.at(values, n % M, coeffs)
    np.fft.ifft(values, out=values)
    values *= M
    return values


def grid_eval_kernel(tables, spec, M: int) -> np.ndarray:
    """Kernel values at j/M, j = 0..M-1, as a real array.

    The 2N+1 spectral weights are real and even bit for bit
    (``kernel_coefficients`` checks c_k where it builds them).  One length-M
    ``np.bincount`` folds them, in order of k, into bins modulo M (exact
    aliasing), which satisfy b[r] = b[M - r] up to roundoff, so one
    ``irfft`` of b[0..M//2] yields all M values.
    """
    w = _ramped(kernel_coefficients(tables, spec), -spec.N, spec.N + 1, 1)
    b = np.bincount(np.arange(-spec.N, spec.N + 1) % M, weights=w, minlength=M)
    return np.fft.irfft(b[: M // 2 + 1], n=M, norm="forward")


def eval_kernel_spectral(tables, spec, alpha: float) -> float:
    """Kernel value from its Fourier expansion: the weights of k = 0..N folded into cosines."""
    return _cosine_fold(_ramped(kernel_coefficients(tables, spec), 0, spec.N + 1, 1), alpha)


def duality_gap(tables, spec, alphas) -> float:
    """Worst relative gap between translate and spectral values at given points.

    The relative scale is max(1, |spectral value|) per point, so the check is
    meaningful even near zeros of the kernel.
    """
    worst = 0.0
    for a in np.atleast_1d(np.asarray(alphas, dtype=float)).tolist():
        lhs = eval_kernel(tables, spec, a)
        rhs = eval_kernel_spectral(tables, spec, a)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def l2_norm_sq_quadrature(seq, M: int | None = None) -> float:
    """Integral of |S|^2 over [0, 1) by the rectangle rule (exact once M >= 2N + 1)."""
    if M is None:
        M = 2 * seq.N + 2
    return float(np.mean(np.abs(grid_eval_sequence(seq, M)) ** 2))

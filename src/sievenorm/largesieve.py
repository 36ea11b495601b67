"""Well-spaced point sets on the circle and the sharp large-sieve inequality.

For points alpha_1..alpha_R in [0,1) that are delta-spaced (circular distance
between distinct points at least delta), every length-N coefficient sequence
satisfies

    sum_r |S(alpha_r)|^2  <=  (N + 1/delta - 1) * sum_n |a_n|^2 .

Every point set here is exact: int64 pairs (numerator, denominator), the
points a/q in [0, 1).  ``build_point_set`` constructs the three Farey-type
families used throughout this package and ``exact_point_set`` takes any
fractions; both *certify* delta at runtime: the pairs are reduced and
sorted, and every consecutive gap a'/q' - a/q = (a'q - aq')/(qq') is checked
by integer cross-multiplication: each cross-product must be >= 1 (order and
distinctness) and each gap at least the set's analytic guarantee.  The exact
minimal gap is only then rounded (downward) to a float.  Nothing about the
spacing is taken on faith from the parameter.

Families (``kind`` strings):

``reduced_farey(Q)``
    all reduced fractions a/q, q <= Q (0 represented as 0/1); delta >= 1/Q^2.
``prime_farey(P)``
    a/p for primes p <= P, 1 <= a <= p - 1; delta >= 1/P^2.
``prime_square_farey(P)``
    a/p^2 for primes p <= P, 1 <= a <= p^2 - 1, reduced (2/4 is stored as
    1/2); delta >= 1/P^4.
``exact(R)``
    R given fractions a/q (reduced mod 1, distinct); delta >= 1/max(q)^2.

``large_sieve_check`` evaluates a batch of shifted sequences on one set:
per denominator q, one call of ``expsum._inverse_fold`` (the fold and
inverse FFT behind the uniform grids) gives every sequence at every a/q,
with lhs summed per q; an evenly strided subset of each row is
cross-checked against the pointwise ``eval_sequence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, InvariantError
from .expsum import TWO_PI_I, CoefficientSequence, _inverse_fold, eval_sequence
from .quadrature import l2_norm_sq

FAREY_KINDS = ("reduced_farey", "prime_farey", "prime_square_farey")

#: Ratio slack for the large-sieve inequality check (pure roundoff headroom).
RATIO_TOLERANCE = 1e-9

#: Points of an exact set re-evaluated by the pointwise route on every check.
CROSS_CHECK_POINTS = 64

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class SpacedPointSet:
    """Sorted points in [0, 1) with a certified minimal circular gap.

    ``fractions`` is the exact form ``(num, den)``: int64 arrays, stored
    read-only, and ``points`` is derived from it as ``num / den``.
    ``delta`` is a *valid* spacing (every circular gap is >= delta), not
    necessarily the exact minimum after float rounding; the constructors
    set it to the exact minimal gap rounded toward zero.  A single point
    is 1-spaced by convention.
    """

    fractions: tuple[np.ndarray, np.ndarray]
    delta: float
    kind: str
    points: np.ndarray = field(init=False)
    # (q, numerators, positions in ``points``) per distinct denominator q
    _by_denominator: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self) -> None:
        num, den = (np.array(a, dtype=np.int64) for a in self.fractions)
        if num.ndim != 1 or num.size == 0 or den.shape != num.shape:
            raise ValueError("fractions must be two nonempty 1-d arrays of one length")
        if den.min() < 1:
            raise ValueError("denominators must be >= 1")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        max_den = int(den.max())  # bounded here, so the bincount below stays small
        _check_int64(max_den, Fraction(1, max_den * max_den))
        pts = num / den
        for arr in (num, den, pts):
            arr.setflags(write=False)
        object.__setattr__(self, "fractions", (num, den))
        object.__setattr__(self, "points", pts)
        counts = np.bincount(den)
        qs = np.flatnonzero(counts)
        groups = np.split(np.argsort(den), np.cumsum(counts[qs])[:-1])
        by_den = tuple((q, num[pos], pos) for q, pos in zip(qs.tolist(), groups))
        object.__setattr__(self, "_by_denominator", by_den)

    def __len__(self) -> int:
        return int(self.points.size)


class LargeSieveResult(NamedTuple):
    lhs: float
    rhs: float
    ratio: float


def _round_down(x: Fraction) -> float:
    f = float(x)
    # float() rounds to nearest; step back one ulp if that overshot.
    if Fraction(f) > x:
        f = math.nextafter(f, 0.0)
    return f


def _check_int64(max_den: int, guarantee: Fraction) -> None:
    """Raise CapacityError unless the certification products fit in int64.

    Once the order is checked every cross-product a'q - aq' is at most
    max_den^2 and is multiplied by the guarantee's denominator; the wrap
    pair's (a + q)q' stays below 2*max_den^2.
    """
    if 2 * max_den * max_den * guarantee.denominator > _INT64_MAX:
        raise CapacityError(
            f"denominators up to {max_den} with spacing guarantee {guarantee} "
            "overflow int64 certification products"
        )


def _certified(
    num: np.ndarray, den: np.ndarray, guarantee: Fraction, kind: str
) -> SpacedPointSet:
    """Certify sorted fractions num/den in [0, 1) exactly and wrap them as a set.

    Consecutive pairs, the wrap pair (last, first + 1) included, must have
    cross-product a'q - aq' >= 1, which proves the order and that no point
    repeats, and gap (a'q - aq')/(qq') >= ``guarantee``.  delta is the exact
    minimal gap rounded down.  Raises InvariantError when either fails.
    Callers apply ``_check_int64`` first, so the products fit in int64.
    """
    nxt_num = np.append(num[1:], num[0] + den[0])
    nxt_den = np.append(den[1:], den[0])
    cross = nxt_num * den - num * nxt_den
    span = den * nxt_den
    if cross.min() < 1:
        i = int(np.argmin(cross))
        raise InvariantError(
            f"{kind}: points {num[i]}/{den[i]} and {nxt_num[i]}/{nxt_den[i]} "
            "are out of order or repeated"
        )
    short = cross * guarantee.denominator < guarantee.numerator * span
    if short.any():
        i = int(np.argmax(short))
        raise InvariantError(
            f"{kind}: certified gap {Fraction(int(cross[i]), int(span[i]))} "
            f"below analytic bound {guarantee}"
        )
    # Float division is monotone, so the exact minimum has the smallest float;
    # the slack only widens the exact comparison to near-ties.
    gaps = cross / span
    near = gaps <= gaps.min() * (1.0 + 1e-9)
    pairs = np.unique(np.stack([cross[near], span[near]], axis=1), axis=0)
    gap = min(Fraction(int(c), int(s)) for c, s in pairs)
    return SpacedPointSet(fractions=(num, den), delta=_round_down(gap), kind=kind)


def _residues(moduli: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (a, q) with q in ``moduli`` and first <= a <= q - 1, as int64 arrays."""
    moduli = np.asarray(moduli, dtype=np.int64)
    counts = moduli - first
    den = np.repeat(moduli, counts)
    starts = np.cumsum(counts) - counts
    num = np.arange(den.size, dtype=np.int64) - np.repeat(starts, counts) + first
    return num, den


def build_point_set(tables, kind: str, parameter: int) -> SpacedPointSet:
    """Construct one of the Farey families with exact integer certification.

    ``parameter`` is Q for ``reduced_farey`` and P for the prime families;
    it must be >= 2 (and for the prime families at most ``tables.n_max``, so
    the family holds 1/2).  Raises ValueError for a bad kind or parameter and
    CapacityError if its certification products could overflow int64.
    """
    if kind not in FAREY_KINDS:
        raise ValueError(f"unknown point-set kind {kind!r}")
    parameter = int(parameter)
    if parameter < 2:
        raise ValueError(f"parameter must be >= 2, got {parameter}")
    power = 4 if kind == "prime_square_farey" else 2
    guarantee = Fraction(1, parameter**power)
    _check_int64(parameter ** (power // 2), guarantee)
    if kind == "reduced_farey":
        num, den = _residues(np.arange(1, parameter + 1), 0)
        keep = np.gcd(num, den) == 1
        num, den = num[keep], den[keep]
    else:
        if parameter > tables.n_max:
            raise ValueError(
                f"tables cover n <= {tables.n_max} < parameter {parameter}"
            )
        ps = tables.primes[tables.primes <= parameter].astype(np.int64)
        num, den = _residues(ps * ps if kind == "prime_square_farey" else ps, 1)
        g = np.gcd(num, den)
        num, den = num // g, den // g
    # No family repeats a point (a reduced a/p^2 is b/p^2 or b/p, each from one
    # a; _certified rejects a repeat).  Sorting by float is safe: distinct points
    # here differ by >= 1/parameter^4, far above float resolution.
    order = np.argsort(num / den, kind="stable")
    return _certified(num[order], den[order], guarantee, f"{kind}({parameter})")


def exact_point_set(num, den) -> SpacedPointSet:
    """The points num/den mod 1 as an exact set, certified against 1/max(den)^2.

    ``num`` and ``den`` are integers that broadcast to one 1-d shape, e.g.
    ``exact_point_set(np.arange(M), M)``; each num is reduced mod its den and
    the pairs are sorted.  Distinct fractions with denominators <= D are at
    least 1/D^2 apart, so only a repeated point (1/2 and 2/4 included) can
    fail: ValueError.  CapacityError if certification could overflow int64.
    """
    num, den = np.asarray(num), np.asarray(den)
    if not (np.issubdtype(num.dtype, np.integer) and np.issubdtype(den.dtype, np.integer)):
        raise ValueError("numerators and denominators must be integers")
    num, den = (a.astype(np.int64) for a in np.broadcast_arrays(num, den))
    if num.ndim != 1 or num.size == 0:
        raise ValueError("fractions must broadcast to a nonempty 1-d array")
    if den.min() < 1:
        raise ValueError("denominators must be >= 1")
    max_den = int(den.max())
    guarantee = Fraction(1, max_den * max_den)
    _check_int64(max_den, guarantee)
    num = num % den
    # Within the int64 guard 1/max_den^2 is far above float resolution.
    order = np.argsort(num / den, kind="stable")
    num, den = num[order], den[order]
    if np.any(num[1:] * den[:-1] == num[:-1] * den[1:]):
        raise ValueError("points are not distinct modulo 1")
    return _certified(num, den, guarantee, f"exact({num.size})")


def _cross_check(seq, point_set, shift, idx, picked) -> None:
    """Check ``picked``, the per-denominator S at points[idx] + shift, pointwise.

    Both routes are exact up to roundoff: a phase error of a few ulps in
    n*alpha for n <= N (float points, cumulative powers, the twist) and
    O(log q) ulps of FFT roundoff on sums bounded by sum |a_n|.  The bound
    64 * eps * (N + max q) * sum |a_n| covers both with room to spare; any
    misplaced coefficient moves a value by |a_n|, far above it.
    """
    pointwise = eval_sequence(seq, point_set.points[idx] + shift)
    max_den = int(point_set.fractions[1].max())
    bound = 64.0 * np.finfo(float).eps * (seq.N + max_den) * float(np.abs(seq.coeffs).sum())
    err = float(np.max(np.abs(pointwise - picked)))
    if not err <= bound:  # NaN fails too
        raise InvariantError(
            f"per-denominator and pointwise S differ by {err:.3e} > {bound:.3e} "
            f"on {point_set.kind} (N={seq.N}, shift={shift!r})"
        )


def large_sieve_check(
    seqs: Sequence[CoefficientSequence], point_set: SpacedPointSet, shifts: Sequence[float]
) -> list[LargeSieveResult]:
    """(lhs, rhs, ratio) of the large sieve for each ``seqs[t]`` at the points + ``shifts[t]``.

    Judging ratio <= 1 is the caller's job, but a ratio above 1 + 1e-9
    raises InvariantError: the inequality is a theorem for any delta-spaced
    set.  Per denominator q, ``_inverse_fold`` makes one (len(seqs), q)
    array, the largest held, with row t = seqs[t] at every a/q + shifts[t];
    lhs is summed per q.
    ``eval_sequence`` re-checks CROSS_CHECK_POINTS strided points per row.
    """
    shifts = np.array(shifts, dtype=float)
    if not seqs or shifts.shape != (len(seqs),):
        raise ValueError(f"need one shift per sequence, got {len(seqs)} and {shifts.size}")
    row = np.repeat(np.arange(len(seqs)), [seq.N for seq in seqs])
    n = np.concatenate([np.arange(1, seq.N + 1) for seq in seqs])
    coeffs = np.concatenate([seq.coeffs for seq in seqs])
    coeffs = coeffs * np.exp(TWO_PI_I * shifts[row] * n)
    stride = -(-len(point_set) // CROSS_CHECK_POINTS)
    idx = np.arange(0, len(point_set), stride)
    lhs = np.zeros(len(seqs))
    picked = np.empty((len(seqs), idx.size), dtype=np.complex128)
    for q, nums, pos in point_set._by_denominator:
        values = _inverse_fold(coeffs, n, q, row)[:, nums]
        lhs += np.sum(np.abs(values) ** 2, axis=1)
        hit = pos % stride == 0
        picked[:, pos[hit] // stride] = values[:, hit]
    results = []
    for seq, shift, seq_lhs, seq_picked in zip(seqs, shifts.tolist(), lhs.tolist(), picked):
        _cross_check(seq, point_set, shift, idx, seq_picked)
        rhs = (seq.N + 1.0 / point_set.delta - 1.0) * l2_norm_sq(seq)
        ratio = seq_lhs / rhs if rhs > 0 else 0.0
        if not ratio <= 1.0 + RATIO_TOLERANCE:  # NaN fails too
            raise InvariantError(
                f"large-sieve ratio {ratio!r} exceeds 1 for {point_set.kind} "
                f"(R={len(point_set)}, N={seq.N})"
            )
        results.append(LargeSieveResult(lhs=seq_lhs, rhs=rhs, ratio=ratio))
    return results


def sieve_bound_for_kernel_gap(tables, N: int, P: int, kind: str) -> float:
    """Certified sup-norm ceiling for the deviation of a kernel from T_N.

    For ``gstar`` the translates sit on a 1/P^4-spaced set, for ``h`` on a
    1/P^2-spaced set; the large sieve then bounds the averaged translate sum
    by (N + 1/delta - 1) / pi(P).
    """
    if kind not in ("gstar", "h"):
        raise ValueError(f"kernel gap bound defined for gstar/h, got {kind!r}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 2 <= P <= tables.n_max:
        raise ValueError(f"P={P} outside 2..{tables.n_max}")
    pi_p = int(np.searchsorted(tables.primes, P, side="right"))  # >= 1 since P >= 2
    delta_inv = float(P) ** 4 if kind == "gstar" else float(P) ** 2
    return (N + delta_inv - 1.0) / pi_p

"""Well-spaced point sets on the circle and the sharp large-sieve inequality.

For points alpha_1..alpha_R in [0,1) that are delta-spaced (circular distance
between distinct points at least delta), every length-N coefficient sequence
satisfies

    sum_r |S(alpha_r)|^2  <=  (N + 1/delta - 1) * sum_n |a_n|^2 .

``build_point_set`` constructs the three Farey-type families used throughout
this package and *certifies* delta at runtime: points are generated as exact
rationals (``fractions.Fraction``), the minimal circular gap is computed
exactly, checked against the family's analytic guarantee, and only then
rounded (downward) to a float.  Nothing about the spacing is taken on faith
from the parameter.

Families (``kind`` strings):

``reduced_farey(Q)``
    all reduced fractions a/q, q <= Q (0 represented as 0/1); delta >= 1/Q^2.
``prime_farey(P)``
    a/p for primes p <= P, 1 <= a <= p - 1; delta >= 1/P^2.
``prime_square_farey(P)``
    a/p^2 for primes p <= P, 1 <= a <= p^2 - 1, deduplicated (e.g. 2/4 and
    1/2 coincide for P = 2); delta >= 1/P^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvariantError
from .expsum import CoefficientSequence, eval_sequence
from .quadrature import l2_norm_sq

FAREY_KINDS = ("reduced_farey", "prime_farey", "prime_square_farey")

#: Ratio slack for the large-sieve inequality check (pure roundoff headroom).
RATIO_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class SpacedPointSet:
    """Sorted points in [0, 1) with a certified minimal circular gap.

    ``delta`` is a *valid* spacing (every circular gap is >= delta), not
    necessarily the exact minimum after float rounding; for the Farey
    families it is the exact minimal gap rounded toward zero.  A single
    point is 1-spaced by convention.
    """

    points: np.ndarray
    delta: float
    kind: str

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("point set must be a nonempty 1-d array")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)


class LargeSieveResult(NamedTuple):
    lhs: float
    rhs: float
    ratio: float


def _min_circular_gap_exact(ordered: list[Fraction]) -> Fraction:
    if len(ordered) == 1:
        return Fraction(1)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    gaps.append(1 - ordered[-1] + ordered[0])
    smallest = min(gaps)
    if smallest <= 0:
        raise InvariantError("duplicate points survived deduplication")
    return smallest


def _round_down(x: Fraction) -> float:
    f = float(x)
    # float() rounds to nearest; step back one ulp if that overshot.
    if Fraction(f) > x:
        f = math.nextafter(f, 0.0)
    return f


def build_point_set(tables, kind: str, parameter: int) -> SpacedPointSet:
    """Construct one of the Farey families with exact-rational certification.

    ``parameter`` is Q for ``reduced_farey`` and P for the prime families;
    it must be >= 2 (and for the prime families small enough that the tables
    contain the primes).  Raises ValueError if the family comes out empty.
    """
    if kind not in FAREY_KINDS:
        raise ValueError(f"unknown point-set kind {kind!r}")
    parameter = int(parameter)
    if parameter < 2:
        raise ValueError(f"parameter must be >= 2, got {parameter}")
    fracs: set[Fraction] = set()
    if kind == "reduced_farey":
        for q in range(1, parameter + 1):
            for a in range(1, q + 1):
                if math.gcd(a, q) == 1:
                    fracs.add(Fraction(a % q, q))
        guarantee = Fraction(1, parameter * parameter)
    else:
        if parameter > tables.n_max:
            raise ValueError(
                f"tables cover n <= {tables.n_max} < parameter {parameter}"
            )
        ps = tables.primes[tables.primes <= parameter]
        if ps.size == 0:
            raise ValueError(f"no primes <= {parameter}: degenerate point set")
        for p in ps.tolist():
            q = p * p if kind == "prime_square_farey" else p
            for a in range(1, q):
                fracs.add(Fraction(a, q))
        power = 4 if kind == "prime_square_farey" else 2
        guarantee = Fraction(1, parameter**power)
    if not fracs:
        raise ValueError(f"{kind}({parameter}) produced no points")
    # Sort key uses floats for speed; safe because distinct fractions with the
    # parameters accepted here differ by >= 1/parameter^4 >> float resolution.
    ordered = sorted(fracs, key=float)
    gap = _min_circular_gap_exact(ordered)
    if gap < guarantee:
        raise InvariantError(
            f"{kind}({parameter}): certified gap {gap} below analytic bound {guarantee}"
        )
    delta = _round_down(gap)
    points = np.array([float(f) for f in ordered])
    return SpacedPointSet(points=points, delta=delta, kind=f"{kind}({parameter})")


def explicit_point_set(points, delta: float | None = None) -> SpacedPointSet:
    """Wrap explicit float points (reduced mod 1) with a float-level gap check.

    With ``delta=None`` the minimal circular gap of the rounded floats is
    used; certification is thus at float precision only, unlike the exact
    Farey constructors.  Duplicate points (after reduction) raise ValueError.
    """
    pts = np.sort(np.asarray(points, dtype=float) % 1.0)
    if pts.size == 0:
        raise ValueError("empty point set")
    if pts.size == 1:
        measured = 1.0
    else:
        gaps = np.diff(pts)
        wrap = 1.0 - pts[-1] + pts[0]
        measured = float(min(gaps.min(), wrap))
        if measured <= 0.0:
            raise ValueError("points are not distinct modulo 1")
    if delta is None:
        delta = measured
    elif delta > measured:
        raise ValueError(f"claimed delta {delta} exceeds measured gap {measured}")
    return SpacedPointSet(points=pts, delta=float(delta), kind=f"explicit({pts.size})")


def shifted_point_set(base: SpacedPointSet, alpha: float) -> SpacedPointSet:
    """Rotate a point set by alpha (mod 1).  Circular gaps are unchanged."""
    pts = np.sort((base.points + float(alpha)) % 1.0)
    return SpacedPointSet(
        points=pts, delta=base.delta, kind=f"shifted({base.kind},{float(alpha):.6g})"
    )


def large_sieve_check(
    seq: CoefficientSequence,
    point_set: SpacedPointSet,
    shift: float = 0.0,
) -> LargeSieveResult:
    """Evaluate both sides of the large-sieve inequality at the given points.

    Returns (lhs, rhs, ratio); the inequality itself (ratio <= 1 up to
    roundoff slack) is the caller's assertion to make -- this function only
    reports, except that a ratio above 1 + 1e-9 raises InvariantError since
    the inequality is a theorem for any delta-spaced set.
    """
    values = eval_sequence(seq, point_set.points + float(shift))
    lhs = float(np.sum(np.abs(values) ** 2))
    rhs = (seq.N + 1.0 / point_set.delta - 1.0) * l2_norm_sq(seq)
    ratio = lhs / rhs if rhs > 0 else 0.0
    if ratio > 1.0 + RATIO_TOLERANCE:
        raise InvariantError(
            f"large-sieve ratio {ratio!r} exceeds 1 for {point_set.kind} "
            f"(R={len(point_set)}, N={seq.N})"
        )
    return LargeSieveResult(lhs=lhs, rhs=rhs, ratio=ratio)


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
    pi_p = int(np.searchsorted(tables.primes, P, side="right"))
    if pi_p < 1:
        raise ValueError(f"no primes <= {P}")
    delta_inv = float(P) ** 4 if kind == "gstar" else float(P) ** 2
    return (N + delta_inv - 1.0) / pi_p

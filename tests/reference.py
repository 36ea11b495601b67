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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

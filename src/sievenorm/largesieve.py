"""Well-spaced point sets on the circle and the sharp large-sieve inequality.

For points alpha_1..alpha_R in [0,1) that are delta-spaced (circular distance
between distinct points at least delta), every length-N coefficient sequence
satisfies

    sum_r |S(alpha_r)|^2  <=  (N + 1/delta - 1) * sum_n |a_n|^2 .

Every point set here is exact: int64 pairs (numerator, denominator), the
points a/q in [0, 1).  ``SpacedPointSet((num, den))`` is the one constructor
and *certifies* delta at runtime: the pairs are taken mod 1 and sorted, and
every consecutive gap a'/q' - a/q = (a'q - aq')/(qq') is checked by integer
cross-multiplication: each cross-product must be >= 1 (order and
distinctness) and each gap at least 1/max(q)^2.  The exact minimal gap is
only then rounded (downward) to a float.  gcd(a, q) divides a'q - aq', so
only pairs with no unit cross-product take a gcd; Farey neighbours have
a'q - aq' = 1 (Hardy and Wright, Thm. 28).  ``build_point_set`` generates
the three Farey-type families used throughout this package and hands their
pairs to it; nothing about the spacing is taken on faith from the parameter.
``point_count`` gives a family's size from the sieve tables alone, and
``build_point_set`` checks the certified set against it.

Families (``kind`` strings):

``reduced_farey(Q)``
    all reduced fractions a/q, q <= Q (0 represented as 0/1); delta >= 1/Q^2.
``prime_farey(P)``
    a/p for primes p <= P, 1 <= a <= p - 1; delta >= 1/P^2.
``prime_square_farey(P)``
    a/p^2 for primes p <= P, 1 <= a <= p^2 - 1, reduced (2/4 is stored as
    1/2); delta >= 1/P^4.
``exact(R)``
    R given fractions a/q (taken mod 1, stored reduced, distinct), the
    default kind of ``SpacedPointSet``; delta >= 1/max(q)^2.

``large_sieve_check`` evaluates a batch of shifted sequences on one set with
no transform.  Parseval on Z/q and Mobius inversion over d | q give, for the
twisted batch b_n = a_n * e(n * shift),

    sum_{(a,q)=1} |S(a/q)|^2  =  sum_{d | q} mu(q/d) * A_d,
    A_d = d * sum_{r mod d} |sum_{n = r (mod d)} b_n|^2 ,

the Ramanujan-sum expansion c_q(k) = sum_{d | (q,k)} mu(q/d) * d read
backwards.  So every group of a set that is the full coprime class mod q
becomes integer weights w_d on the residue-class energies A_d, built once
per set; lhs is sum_d w_d * A_d, with A_d = d * sum |a_n|^2 once d >= N.
Any other group (only sets outside the Farey families have one) is summed
pointwise with ``eval_sequence``, which also re-derives R(q) for an evenly
strided subset of the full classes as the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .arith import build_tables, prime_count
from .errors import CapacityError, InvariantError
from .expsum import TWO_PI_I, CoefficientSequence, eval_sequence
from .quadrature import l2_norm_sq

FAREY_KINDS = ("reduced_farey", "prime_farey", "prime_square_farey")

#: Ratio slack for the large-sieve inequality check (pure roundoff headroom).
RATIO_TOLERANCE = 1e-9

#: Most points of full classes re-evaluated by the pointwise route on every check.
CROSS_CHECK_POINTS = 256

_INT64_MAX = np.iinfo(np.int64).max


class _Sample(NamedTuple):
    """The cross-check's full classes: the positions ``pos`` of their points,
    the class index ``cls`` of each, their denominators ``q``, and the terms
    ``pair_mu * A_{pair_d}`` of each R(q), by class index ``pair_cls``."""

    pos: np.ndarray
    cls: np.ndarray
    q: np.ndarray
    pair_cls: np.ndarray
    pair_d: np.ndarray
    pair_mu: np.ndarray


@dataclass(frozen=True, eq=False)
class SpacedPointSet:
    """Sorted points in [0, 1) with a certified minimal circular gap.

    ``fractions = (num, den)`` are integers that broadcast to one nonempty
    1-d shape, e.g. ``SpacedPointSet((np.arange(M), M))``.  Each num is taken
    mod its den, the pairs are sorted as given (a/q and ga/gq are one float)
    and ``_min_gap`` certifies them; then each pair that no unit cross-product
    proves reduced is divided by its gcd (every pair first, if the max den as
    given fails ``_check_int64``).  They are stored as read-only int64 arrays
    and ``points`` is ``num / den``, so a denominator that holds phi(q)
    points holds the full coprime class mod q.  ``delta`` is the exact
    minimal circular gap rounded toward zero; a single point is 1-spaced by
    convention.  ``kind`` names the set in messages and defaults to
    ``exact(R)`` for R points.  ``tables``, if given and reaching the max
    den, supply mu and phi for the class weights; the set does not keep
    them, and without them it sieves its own.  Raises ValueError for bad
    arrays, a denominator below 1 or a repeated point (1/2 and 2/4
    included), and CapacityError for a denominator above the limit of
    ``_check_int64``.
    """

    fractions: tuple[np.ndarray, np.ndarray]
    kind: str = ""
    tables: InitVar[object] = None
    delta: float = field(init=False)
    points: np.ndarray = field(init=False)
    # (d, w_d) with w_d != 0: the full classes' sum_{d | q} mu(q/d) * A_d
    _weights: tuple = field(default=(), init=False, repr=False)
    # positions of the points outside every full class, summed pointwise
    _partial: np.ndarray = field(default=None, init=False, repr=False)
    # the full classes that ``_cross_check`` re-derives pointwise
    _sample: _Sample = field(default=None, init=False, repr=False)

    def __post_init__(self, tables) -> None:
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
        try:
            _check_int64(int(den.max()))
        except CapacityError:  # the reduced pairs may still fit: reduce them all first
            g = np.gcd(num, den)
            num, den = num // g, den // g
            _check_int64(int(den.max()))
        # Within that limit distinct points differ by >= 1/max_den^2 > 2^-32,
        # far above float resolution, so the float order is the exact order.
        order = np.argsort(num / den)
        num = num[order]
        den = den[order]
        del order
        kind = self.kind or f"exact({num.size})"
        delta, cross = _min_gap(num, den, kind)
        unit = cross == 1  # gcd(a, q) divides a'q - aq': a unit one proves both pairs reduced
        del cross
        rest = np.flatnonzero(~(unit | np.roll(unit, 1)))
        g = np.gcd(num[rest], den[rest])
        num[rest], den[rest] = num[rest] // g, den[rest] // g
        pts = num / den
        for arr in (num, den, pts):
            arr.setflags(write=False)
        object.__setattr__(self, "fractions", (num, den))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "points", pts)
        self._class_weights(den, int(den.max()), tables)

    def _class_weights(self, den: np.ndarray, max_den: int, tables=None) -> None:
        """Set ``_weights``, ``_partial`` and ``_sample`` from one pass over the pairs (m, d).

        mu and phi come from ``tables`` if they reach ``max_den``, else from new ones.
        """
        if tables is None or tables.n_max < max_den:
            tables = build_tables(max(2, max_den))
        mobius, phi = tables.mobius[: max_den + 1], tables.phi[: max_den + 1]
        full = np.bincount(den, minlength=max_den + 1) == phi
        full[0] = False
        # every pair (m, d) with m * d <= max_den and mu(m) != 0; q = m * d
        m = np.flatnonzero(mobius)
        counts = max_den // m
        m = np.repeat(m, counts)
        d = np.arange(m.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
        q = m * d
        hit = full[q]
        w = np.bincount(d[hit], mobius[m[hit]], max_den + 1).astype(np.int64)
        partial = np.flatnonzero(~full[den])
        # a sequence a_1 = 1 has A_d = d, so sum_d w_d * d counts the full classes
        if int(w @ np.arange(max_den + 1)) != den.size - partial.size:
            raise InvariantError(f"{self.kind}: class weights do not count the full classes")
        ds = np.flatnonzero(w)
        object.__setattr__(self, "_weights", (ds, w[ds]))
        object.__setattr__(self, "_partial", partial)
        # the full classes that fit in CROSS_CHECK_POINTS, at the least stride
        # that keeps their points under it
        eligible = np.flatnonzero(full & (phi <= CROSS_CHECK_POINTS))
        stride = 1
        while phi[eligible[::stride]].sum() > CROSS_CHECK_POINTS:
            stride += 1
        qs = eligible[::stride]
        index = np.full(max_den + 1, -1)
        index[qs] = np.arange(qs.size)
        pos = np.flatnonzero(index[den] >= 0)
        pair = hit & (index[q] >= 0)
        sample = _Sample(pos, index[den[pos]], qs, index[q[pair]], d[pair], mobius[m[pair]])
        object.__setattr__(self, "_sample", sample)

    def __len__(self) -> int:
        return int(self.points.size)


class LargeSieveResult(NamedTuple):
    lhs: float
    rhs: float
    ratio: float


def _check_int64(max_den: int) -> None:
    """Raise CapacityError unless 2*max_den^4 fits in int64 (max_den < 2^15.5).

    It bounds the pairs as given, or if they fail, the reduced pairs.  The
    cross-products need far less (each is below 2*max_den^2, the wrap's
    (a + q)q' included); the limit keeps distinct points more than 2^-32
    apart, so the float ``argsort`` is exact, and keeps ``_class_weights``'
    tables and (m, d) pair arrays small; a wider one would let a few points
    with a huge denominator allocate GiBs.
    """
    if 2 * max_den**4 > _INT64_MAX:
        raise CapacityError(
            f"denominators up to {max_den} exceed the certification limit 2*q^4 < 2^63"
        )


def _min_gap(num: np.ndarray, den: np.ndarray, kind: str) -> tuple[float, np.ndarray]:
    """The exact minimal circular gap of the sorted num/den, rounded down.

    Consecutive pairs, the wrap pair (last, first + 1) included, must have
    cross-product a'q - aq' >= 1: 0 is a repeated point (ValueError), below
    0 the points are out of order (InvariantError), named in lowest terms.
    So each gap (a'q - aq')/(qq') >= 1/max(den)^2, one float for a/q and
    ga/gq.  ``_check_int64(max(den))`` must hold.  Returns (delta, cross).
    """
    cross = np.empty_like(num)
    np.multiply(num[1:], den[:-1], out=cross[:-1])
    cross[:-1] -= num[:-1] * den[1:]
    cross[-1] = (num[0] + den[0]) * den[-1] - num[-1] * den[0]
    i = int(np.argmin(cross))
    if cross[i] < 1:
        j = (i + 1) % num.size  # the wrap pair's second point is first + 1
        a, q = np.array([num[i], num[j] + (j == 0) * den[j]]), den[[i, j]]
        g = np.gcd(a, q)
        pair = f"{a[0] // g[0]}/{q[0] // g[0]} and {a[1] // g[1]}/{q[1] // g[1]}"
        if cross[i] == 0:
            raise ValueError(f"{kind}: points {pair} are not distinct modulo 1")
        raise InvariantError(f"{kind}: points {pair} are out of order")
    # Float division is monotone, so the exact minimum has the smallest float;
    # the slack only widens the exact comparison to near-ties.  Each span
    # q*q' < 2^31 is exact as a float, and the gaps overwrite the spans.
    gaps = np.empty(num.size)
    np.multiply(den[:-1], den[1:], out=gaps[:-1])
    gaps[-1] = den[-1] * den[0]
    np.divide(cross, gaps, out=gaps)
    near = np.flatnonzero(gaps <= gaps.min() * (1.0 + 1e-9))
    del gaps
    span = den[near] * den[(near + 1) % num.size]
    pairs = np.unique(np.stack([cross[near], span], axis=1), axis=0)
    gap = min(Fraction(int(c), int(s)) for c, s in pairs)
    delta = float(gap)  # rounded to nearest; step back one ulp if that overshot
    return (math.nextafter(delta, 0.0) if Fraction(delta) > gap else delta), cross

def _residues(moduli: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (a, q) with q in ``moduli`` and first <= a <= q - 1, as int32 arrays.

    Every family's q and its pair count fit: ``_check_int64`` keeps q below
    2^15.5, and the at most Q(Q + 1)/2 pairs below 2^30.
    """
    moduli = np.asarray(moduli, dtype=np.int32)
    counts = moduli - first
    den = np.repeat(moduli, counts)
    num = np.arange(den.size, dtype=np.int32)
    num -= np.repeat(np.cumsum(counts, dtype=np.int32) - counts - first, counts)
    return num, den


def _check_family(tables, kind: str, parameter: int) -> int:
    """The family's parameter as an int, after the checks ``build_point_set`` lists."""
    if kind not in FAREY_KINDS:
        raise ValueError(f"unknown point-set kind {kind!r}")
    parameter = int(parameter)
    if parameter < 2:
        raise ValueError(f"parameter must be >= 2, got {parameter}")
    _check_int64(parameter**2 if kind == "prime_square_farey" else parameter)
    if parameter > tables.n_max:
        raise ValueError(f"tables cover n <= {tables.n_max} < parameter {parameter}")
    return parameter


def point_count(tables, kind: str, parameter: int) -> int:
    """The number of points in ``build_point_set(tables, kind, parameter)``, from the tables alone.

    sum_{q <= Q} phi(q) for ``reduced_farey`` (q = 1 holds 0/1), and
    sum_{p <= P} (p - 1) or sum_{p <= P} (p^2 - 1) for the prime families.
    Raises as ``build_point_set`` does, and builds no point.
    """
    parameter = _check_family(tables, kind, parameter)
    if kind == "reduced_farey":
        return int(tables.phi[1 : parameter + 1].sum())
    ps = tables.primes[: np.searchsorted(tables.primes, parameter, side="right")].astype(np.int64)
    return int(((ps * ps if kind == "prime_square_farey" else ps) - 1).sum())


def _family(tables, kind: str, parameter: int) -> tuple[np.ndarray, np.ndarray]:
    """The (num, den) pairs of a checked Farey family, for ``SpacedPointSet`` to certify."""
    ps = tables.primes[tables.primes <= parameter].astype(np.int64)
    if kind != "reduced_farey":
        return _residues(ps * ps if kind == "prime_square_farey" else ps, 1)
    num, den = _residues(np.arange(1, parameter + 1), 0)
    keep = np.ones(num.size, dtype=bool)
    for p in ps.tolist():  # block q holds a = 0..q-1; drop each a = 0 (mod p) for p | q
        for q in range(p, parameter + 1, p):
            keep[q * (q - 1) // 2 : q * (q + 1) // 2 : p] = False
    return num[keep], den[keep]


def build_point_set(tables, kind: str, parameter: int) -> SpacedPointSet:
    """Construct one of the Farey families as a certified ``SpacedPointSet``.

    ``parameter`` is Q for ``reduced_farey`` and P for the prime families;
    it must be >= 2 and at most ``tables.n_max``, since the family comes
    from ``tables.primes`` (``reduced_farey`` keeps a/q unless a prime p | q
    divides a, so its pairs are reduced Farey neighbours and take no gcd).
    Raises ValueError for a bad kind or parameter and CapacityError, before
    any array is built, if its denominators exceed the limit of
    ``_check_int64``.  No family repeats a point (a reduced
    a/p^2 is b/p^2 or b/p, each from one a), and every gap of the set is
    >= 1/max(den)^2, the family's 1/Q^2, 1/P^2 or 1/P^4.  The certified set
    must hold ``point_count`` points (InvariantError otherwise), and its
    class weights read mu and phi from ``tables`` where they reach.
    """
    parameter = _check_family(tables, kind, parameter)
    point_set = SpacedPointSet(_family(tables, kind, parameter), f"{kind}({parameter})", tables)
    count = point_count(tables, kind, parameter)
    if len(point_set) != count:
        raise InvariantError(
            f"{point_set.kind}: certified {len(point_set)} points, the tables count {count}"
        )
    return point_set


def _class_energies(coeffs: np.ndarray, n: np.ndarray, row: np.ndarray, moduli) -> np.ndarray:
    """A_d at [t, j], d = moduli[j]: d * sum_r |sum coeffs[i] over row[i] = t, n[i] = r (d)|^2.

    ``row`` is sorted; each A_d is one pair of bincounts (real and imaginary
    parts) on the bins row * d + n % d.
    """
    rows = int(row[-1]) + 1
    re, im = np.ascontiguousarray(coeffs.real), np.ascontiguousarray(coeffs.imag)
    out = np.empty((rows, len(moduli)))
    for j, d in enumerate(moduli):
        bins = row * d + n % d
        sums_re = np.bincount(bins, re, rows * d)
        sums_im = np.bincount(bins, im, rows * d)
        out[:, j] = d * (sums_re * sums_re + sums_im * sums_im).reshape(rows, d).sum(axis=1)
    return out


def _cross_check(seq, point_set, shift, values, energy) -> None:
    """Check R(q) from ``values`` (S at the sample's points) against ``energy`` (its A_d).

    With s = sum |a_n| and k(q) <= 2 phi(q) terms mu(q/d) * A_d in R(q),
    for a shift in [0, 1): the float point a/q + shift (< 2) is within
    1.5 * eps of the exact one and 2*pi times it within 4*pi*eps more, so
    e(n * alpha) drifts in phase by under 7*pi*n*eps < 22 * n * eps.  The
    powers of ``eval_sequence`` add at most 4 * (H + K) * eps <= 16 *
    sqrt(N) * eps <= 16 * N * eps (no chain is longer than H + K < 4 *
    sqrt(N) products), so each pointwise |S|^2 is within
    2 * (22 + 16) * N * eps * s^2.  The twist's phase error, below
    13 * N * eps, moves R(q) by 26 * N * phi(q) * eps * s^2; each A_d's class
    sums and squares lose (2N + 5d) * eps * s^2, over k(q) terms.  That is
    under 106 * N * phi(q) + 5 * k(q) * q, so the bound
    128 * eps * (N * phi(q) + k(q) * q) * s^2 holds, while a misplaced
    coefficient moves some A_d by about |a_n| * s.
    """
    sample = point_set._sample
    qs = sample.q
    pointwise = np.bincount(sample.cls, np.abs(values) ** 2, qs.size)
    energies = np.bincount(sample.pair_cls, sample.pair_mu * energy, qs.size)
    phi = np.bincount(sample.cls, minlength=qs.size)
    terms = np.bincount(sample.pair_cls, minlength=qs.size)
    s = float(np.abs(seq.coeffs).sum())
    bound = 128.0 * np.finfo(float).eps * (seq.N * phi + terms * qs) * s * s
    err = np.abs(pointwise - energies)
    if not np.all(err <= bound):  # NaN fails too
        i = int(np.argmax(~(err <= bound)))
        raise InvariantError(
            f"residue-class energies and pointwise R(q) differ by {err[i]:.3e} > "
            f"{bound[i]:.3e} at q={qs[i]} on {point_set.kind} (N={seq.N}, shift={shift!r})"
        )


def large_sieve_check(
    seqs: Sequence[CoefficientSequence], point_set: SpacedPointSet, shifts: Sequence[float]
) -> list[LargeSieveResult]:
    """(lhs, rhs, ratio) of the large sieve for each ``seqs[t]`` at the points + ``shifts[t]``.

    Judging ratio <= 1 is the caller's job, but a ratio above 1 + 1e-9
    raises InvariantError: the inequality is a theorem for any delta-spaced
    set.  lhs is sum_d w_d * A_d over the set's weights (module docstring)
    plus the pointwise sum over points outside the full classes; one
    ``_class_energies`` call gives every A_d with d below the batch's
    largest N, and A_d = d * sum |a_n|^2 above it, where each residue class
    holds at most one term.  ``eval_sequence`` re-derives R(q) on at most
    CROSS_CHECK_POINTS points of full classes per sequence (``_cross_check``).
    """
    shifts = np.array(shifts, dtype=float)
    if not seqs or shifts.shape != (len(seqs),):
        raise ValueError(f"need one shift per sequence, got {len(seqs)} and {shifts.size}")
    row = np.repeat(np.arange(len(seqs)), [seq.N for seq in seqs])
    n = np.concatenate([np.arange(1, seq.N + 1) for seq in seqs])
    coeffs = np.concatenate([seq.coeffs for seq in seqs])
    coeffs = coeffs * np.exp(TWO_PI_I * shifts[row] * n)
    n_max = max(seq.N for seq in seqs)
    ds, ws = point_set._weights
    pair_d = point_set._sample.pair_d
    moduli = np.union1d(ds[ds < n_max], pair_d[pair_d < n_max])
    small = _class_energies(coeffs, n, row, moduli.tolist())
    l2 = np.array([l2_norm_sq(seq) for seq in seqs])
    lo = ds < n_max
    # the d >= n_max part is l2 times an exact integer
    lhs = small[:, np.searchsorted(moduli, ds[lo])] @ ws[lo] + l2 * float(ws[~lo] @ ds[~lo])
    lo = pair_d < n_max
    pair_energy = np.outer(l2, pair_d.astype(float))
    pair_energy[:, lo] = small[:, np.searchsorted(moduli, pair_d[lo])]
    picked = point_set.points[np.concatenate([point_set._partial, point_set._sample.pos])]
    partial = point_set._partial.size
    results = []
    for seq, shift, seq_lhs, seq_l2, energy in zip(seqs, shifts.tolist(), lhs, l2, pair_energy):
        values = eval_sequence(seq, picked + shift)
        _cross_check(seq, point_set, shift, values[partial:], energy)
        seq_lhs = float(seq_lhs + np.sum(np.abs(values[:partial]) ** 2))
        rhs = (seq.N + 1.0 / point_set.delta - 1.0) * float(seq_l2)
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
    pi_p = prime_count(tables, P)  # ValueError outside 2..n_max, so pi_p >= 1
    delta_inv = float(P) ** 4 if kind == "gstar" else float(P) ** 2
    return (N + delta_inv - 1.0) / pi_p

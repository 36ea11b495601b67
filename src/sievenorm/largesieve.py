"""Well-spaced point sets on the circle and the sharp large-sieve inequality.

For points alpha_1..alpha_R in [0,1) that are delta-spaced (circular distance
between distinct points at least delta), every length-N coefficient sequence
satisfies

    sum_r |S(alpha_r)|^2  <=  (N + 1/delta - 1) * sum_n |a_n|^2 .

Every point set here is exact: ``ClassPointSet(denominators, kind)`` is the
union of the full coprime classes {a/q : 0 <= a < q, (a, q) = 1} over its
increasing denominators, and keeps no point.  Its delta follows from the two
largest denominators q1 > q2 where they are coprime.  Two points of one
class differ modulo 1 by a multiple of 1/q >= 1/(q1*q2), and reduced a/q,
a'/q' with q != q' by a nonzero multiple of 1/lcm(q, q') >= 1/(q*q') >=
1/(q1*q2).  When q1 and q2 are coprime, the a mod q1 with a*q2 = 1 (mod q1)
and a' = (a*q2 - 1)/q1 give a unit cross-product a*q2 - a'*q1 = 1, so the gap
1/(q1*q2) occurs (Farey neighbours; Hardy and Wright, Thm. 28).  So delta =
1/(q1*q2), rounded toward zero as ``_min_gap`` rounds the certified gap.
Where the lemma does not apply (one class, or two largest denominators that
share a factor) the set certifies delta over its own coprime pairs with
``_min_gap``: each cross-product of consecutive sorted pairs must be >= 1, and
the exact minimal gap is only then rounded (downward) to a float.

``build_point_set`` gives the three Farey-type families used throughout this
package as class sets from the sieve tables' primes, the lemma's and the
certified ones alike (``prime_farey(2)`` is the one point 1/2, 1-spaced by
convention; ``prime_square_farey(2)`` has denominators 2 and 4, delta 1/4
where 1/(q1*q2) is 1/8).  ``point_count`` gives a family's size from the
sieve tables alone, and ``build_point_set`` checks the set against it.

Families (``kind`` strings):

``reduced_farey(Q)``
    all reduced fractions a/q, q <= Q (0 represented as 0/1); delta =
    1/(Q(Q - 1)).
``prime_farey(P)``
    a/p for primes p <= P, 1 <= a <= p - 1; delta = 1/(p1*p2) for the two
    largest primes p1 > p2 up to P, and 1 for P = 2.
``prime_square_farey(P)``
    a/p^2 for primes p <= P, 1 <= a <= p^2 - 1, reduced (2/4 is 1/2): the
    classes mod p and p^2; delta = 1/(p1*p2)^2, and 1/4 for P = 2.

``large_sieve_check`` evaluates a batch of shifted sequences on one set with
no transform.  Parseval on Z/q and Mobius inversion over d | q give, for the
twisted batch b_n = a_n * e(n * shift), each shift taken mod 1,

    sum_{(a,q)=1} |S(a/q)|^2  =  sum_{d | q} mu(q/d) * A_d,
    A_d = d * sum_{r mod d} |sum_{n = r (mod d)} b_n|^2 ,

the Ramanujan-sum expansion c_q(k) = sum_{d | (q,k)} mu(q/d) * d read
backwards.  So the classes of a set become integer weights w_d on the
residue-class energies A_d, built once per set; lhs is sum_d w_d * A_d, with
A_d = d * sum |a_n|^2 once d >= N.  ``eval_sequence`` re-derives R(q) for an
evenly strided subset of the classes as the cross-check.
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
    """The cross-check's full classes: their ``points`` in ascending order,
    the class index ``cls`` of each, their denominators ``q``, and the terms
    ``pair_mu * A_{pair_d}`` of each R(q), by class index ``pair_cls``."""

    points: np.ndarray
    cls: np.ndarray
    q: np.ndarray
    pair_cls: np.ndarray
    pair_d: np.ndarray
    pair_mu: np.ndarray


@dataclass(frozen=True, eq=False)
class ClassPointSet:
    """The union of the full coprime classes {a/q : 0 <= a < q, (a, q) = 1}, q in ``denominators``.

    It keeps the increasing denominators (read-only int64), ``delta`` and
    its size for ``len``.  delta is 1/(q1*q2) where the two largest are
    coprime (module docstring); otherwise ``_min_gap`` certifies the set's
    own coprime pairs, the only points it makes besides those of the classes
    ``_cross_check`` samples.  ``tables``, if given and reaching the largest
    denominator, supply mu and phi for the class weights; the set does not
    keep them, and without them it sieves its own.  Raises ValueError unless
    the denominators are nonempty integers, at least 1 and increasing, and
    CapacityError for a denominator above the limit of ``_check_int64``.
    """

    denominators: np.ndarray
    kind: str
    tables: InitVar[object] = None
    delta: float = field(init=False)
    # (d, w_d) with w_d != 0: the classes' sum_{d | q} mu(q/d) * A_d
    _weights: tuple = field(default=(), init=False, repr=False)
    # the classes that ``_cross_check`` re-derives pointwise
    _sample: _Sample = field(default=None, init=False, repr=False)
    _size: int = field(default=0, init=False, repr=False)

    def __post_init__(self, tables) -> None:
        dens = np.asarray(self.denominators)
        bad = not np.issubdtype(dens.dtype, np.integer) or dens.ndim != 1 or dens.size == 0
        if bad or dens[0] < 1 or np.any(dens[1:] <= dens[:-1]):
            raise ValueError(f"{self.kind}: need increasing integer denominators >= 1")
        dens = dens.astype(np.int64)
        _check_int64(int(dens[-1]))
        dens.setflags(write=False)
        if dens.size > 1 and math.gcd(int(dens[-1]), int(dens[-2])) == 1:
            delta = _round_down(Fraction(1, int(dens[-1]) * int(dens[-2])))
        else:
            delta = _min_gap(*_coprime_classes(dens), self.kind)
        mobius, phi = _mu_phi(tables, int(dens[-1]))
        full = np.zeros(phi.size, dtype=bool)
        full[dens] = True
        size = int(phi[dens].sum())
        weights, sample = _class_weights(full, mobius, phi, size, self.kind)
        object.__setattr__(self, "denominators", dens)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_sample", sample)
        object.__setattr__(self, "_size", size)

    def __len__(self) -> int:
        return self._size


class LargeSieveResult(NamedTuple):
    lhs: float
    rhs: float
    ratio: float


def _check_int64(max_den: int) -> None:
    """Raise CapacityError unless 2*max_den^4 fits in int64 (max_den < 2^15.5).

    It bounds the reduced pairs.  The cross-products need far less (each is
    below 2*max_den^2, the wrap's (a + q)q' included); the limit keeps
    distinct points more than 2^-32 apart, so the float ``argsort`` is exact,
    and keeps ``_class_weights``' tables and (m, d) pair arrays small; a
    wider one would let a few points with a huge denominator allocate GiBs.
    """
    if 2 * max_den**4 > _INT64_MAX:
        raise CapacityError(
            f"denominators up to {max_den} exceed the certification limit 2*q^4 < 2^63"
        )


def _round_down(gap: Fraction) -> float:
    """``gap`` as a float, rounded toward zero."""
    delta = float(gap)  # rounded to nearest; step back one ulp if that overshot
    return math.nextafter(delta, 0.0) if Fraction(delta) > gap else delta


def _min_gap(num: np.ndarray, den: np.ndarray, kind: str) -> float:
    """The exact minimal circular gap of the sorted, reduced int64 num/den, rounded down.

    Consecutive pairs, the wrap pair (last, first + 1) included, must have
    cross-product a'q - aq' >= 1: 0 is a repeated point (ValueError), below
    0 the points are out of order (InvariantError).  So each gap
    (a'q - aq')/(qq') >= 1/max(den)^2.  ``_check_int64(max(den))`` must hold.
    """
    cross = np.empty_like(num)
    np.multiply(num[1:], den[:-1], out=cross[:-1])
    cross[:-1] -= num[:-1] * den[1:]
    cross[-1] = (num[0] + den[0]) * den[-1] - num[-1] * den[0]
    i = int(np.argmin(cross))
    if cross[i] < 1:
        j = (i + 1) % num.size  # the wrap pair's second point is first + 1
        pair = f"{num[i]}/{den[i]} and {num[j] + (j == 0) * den[j]}/{den[j]}"
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
    pairs = set(zip(cross[near].tolist(), span.tolist()))
    return _round_down(min(Fraction(c, s) for c, s in pairs))


def _mu_phi(tables, max_den: int) -> tuple[np.ndarray, np.ndarray]:
    """mu and phi on 0..max_den, from ``tables`` if they reach max_den, else from new ones."""
    if tables is None or tables.n_max < max_den:
        tables = build_tables(max(2, max_den))
    return tables.mobius[: max_den + 1], tables.phi(max_den)


def _class_weights(full, mobius, phi, count: int, kind: str) -> tuple[tuple, _Sample]:
    """The weights (d, w_d) and the cross-check ``_Sample`` of the full classes q with ``full[q]``.

    One pass over the pairs (m, d) with m * d <= max_den = ``full.size - 1``
    builds both.  ``count`` is the number of points in the full classes.
    Raises InvariantError if the weights do not count ``count`` points.
    """
    max_den = full.size - 1
    # every pair (m, d) with m * d <= max_den and mu(m) != 0; q = m * d
    m = np.flatnonzero(mobius)
    counts = max_den // m
    m = np.repeat(m, counts)
    d = np.arange(m.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    q = m * d
    hit = full[q]
    w = np.bincount(d[hit], mobius[m[hit]], max_den + 1).astype(np.int64)
    # a sequence a_1 = 1 has A_d = d, so sum_d w_d * d counts the full classes
    if int(w @ np.arange(max_den + 1)) != count:
        raise InvariantError(f"{kind}: class weights do not count the full classes")
    ds = np.flatnonzero(w)
    # the full classes that fit in CROSS_CHECK_POINTS, at the least stride
    # that keeps their points under it
    eligible = np.flatnonzero(full & (phi <= CROSS_CHECK_POINTS))
    stride = 1
    while phi[eligible[::stride]].sum() > CROSS_CHECK_POINTS:
        stride += 1
    qs = eligible[::stride]
    index = np.full(max_den + 1, -1)
    index[qs] = np.arange(qs.size)
    num, den = _coprime_classes(qs)
    pair = hit & (index[q] >= 0)
    sample = _Sample(num / den, index[den], qs, index[q[pair]], d[pair], mobius[m[pair]])
    return (ds, w[ds]), sample


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


def _coprime_classes(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a, q) with (a, q) = 1 of the classes ``qs``, int64, in ascending order of a/q."""
    num, den = _residues(qs, 0)
    coprime = np.gcd(num, den) == 1
    num, den = num[coprime].astype(np.int64), den[coprime].astype(np.int64)
    order = np.argsort(num / den)
    return num[order], den[order]


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
        return int(tables.phi(parameter)[1:].sum())
    ps = tables.primes[: np.searchsorted(tables.primes, parameter, side="right")].astype(np.int64)
    return int(((ps * ps if kind == "prime_square_farey" else ps) - 1).sum())


def build_point_set(tables, kind: str, parameter: int) -> ClassPointSet:
    """One of the Farey families, as a ``ClassPointSet``.

    ``parameter`` is Q for ``reduced_farey`` and P for the prime families;
    it must be >= 2 and at most ``tables.n_max``, since the family comes
    from ``tables.primes``.  Raises ValueError for a bad kind or parameter
    and CapacityError, before any array is built, if its denominators exceed
    the limit of ``_check_int64``.  The family's classes are those of the
    denominators q <= Q, p <= P, or p and p^2 for p <= P.  The set must
    hold ``point_count`` points (InvariantError otherwise), and its class
    weights read mu and phi from ``tables`` where they reach.
    """
    parameter = _check_family(tables, kind, parameter)
    if kind == "reduced_farey":
        dens = np.arange(1, parameter + 1)
    else:
        ps = tables.primes[tables.primes <= parameter].astype(np.int64)
        dens = ps if kind == "prime_farey" else np.sort(np.concatenate([ps, ps * ps]))
    point_set = ClassPointSet(dens, f"{kind}({parameter})", tables)
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
    for the shift in [0, 1) that ``large_sieve_check`` passes: the float
    point a/q + shift (< 2) is within 1.5 * eps of the exact one and 2*pi
    times it within 4*pi*eps more, so e(n * alpha) drifts in phase by under
    7*pi*n*eps < 22 * n * eps.  The
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
    seqs: Sequence[CoefficientSequence],
    point_set: ClassPointSet,
    shifts: Sequence[float],
) -> list[LargeSieveResult]:
    """(lhs, rhs, ratio) of the large sieve for each ``seqs[t]`` at the points + ``shifts[t]``.

    Each shift is taken mod 1, so a shift and its fractional part give the
    same bits.  Judging ratio <= 1 is the caller's job, but a ratio above
    1 + 1e-9 raises InvariantError: the inequality is a theorem for any
    delta-spaced set.  lhs is sum_d w_d * A_d over the set's weights (module
    docstring); one ``_class_energies`` call gives every A_d with d below the
    batch's largest N, and A_d = d * sum |a_n|^2 above it, where each residue
    class holds at most one term.  ``eval_sequence`` re-derives R(q) on at
    most CROSS_CHECK_POINTS points of the classes per sequence
    (``_cross_check``).  A shift that is not finite is a ValueError.
    """
    shifts = np.array(shifts, dtype=float)
    if not seqs or shifts.shape != (len(seqs),):
        raise ValueError(f"need one shift per sequence, got {len(seqs)} and {shifts.size}")
    if not np.all(np.isfinite(shifts)):
        raise ValueError(f"shifts must be finite, got {shifts.tolist()}")
    shifts %= 1.0
    row = np.repeat(np.arange(len(seqs)), [seq.N for seq in seqs])
    n = np.concatenate([np.arange(1, seq.N + 1) for seq in seqs])
    coeffs = np.concatenate([seq.coeffs for seq in seqs])
    coeffs = coeffs * np.exp(TWO_PI_I * shifts[row] * n)
    n_max = max(seq.N for seq in seqs)
    ds, ws = point_set._weights
    pair_d = point_set._sample.pair_d
    used = np.zeros(n_max, dtype=bool)
    used[ds[ds < n_max]] = used[pair_d[pair_d < n_max]] = True
    moduli = np.flatnonzero(used)
    small = _class_energies(coeffs, n, row, moduli.tolist())
    l2 = np.array([l2_norm_sq(seq) for seq in seqs])
    lo = ds < n_max
    # the d >= n_max part is l2 times an exact integer
    lhs = small[:, np.searchsorted(moduli, ds[lo])] @ ws[lo] + l2 * float(ws[~lo] @ ds[~lo])
    lo = pair_d < n_max
    pair_energy = np.outer(l2, pair_d.astype(float))
    pair_energy[:, lo] = small[:, np.searchsorted(moduli, pair_d[lo])]
    results = []
    for seq, shift, seq_lhs, seq_l2, energy in zip(seqs, shifts.tolist(), lhs, l2, pair_energy):
        values = eval_sequence(seq, point_set._sample.points + shift)
        _cross_check(seq, point_set, shift, values, energy)
        seq_lhs = float(seq_lhs)
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

"""Sieve-backed arithmetic tables and coefficient-sequence factories.

Two passes build the tables.  The first writes the smallest prime factor
spf by strided slices over the multiples of each prime p <= sqrt(n_max),
largest p first, so the smallest writes last; an n >= 2 left at 0 is prime.
The second reads each n as p * m with p = spf(n): mu(n) = 0 or -mu(m), as p
does or does not divide m.  Since m <= n / 2, every n in a block [lo, hi)
with hi <= 2 * lo reads only below lo, so each block is a few vectorised
gathers from the blocks before it.  phi(n) = phi(m) * p or phi(m) * (p - 1)
runs the same blocks, but only on the first read of phi, and only to the n
that read asks for; Lambda is log p at each prime power p^k, likewise
derived on its first read.  Build once, share across all experiments -- the
tables object is read-only and cheap to pass around.

Also here: Ramanujan sums c_q(n) in closed form and by direct summation
(two independent routes, kept apart for cross-checking), and the factory
turning a name like ``"mobius"`` or ``"chi3_on_primes"`` into a
:class:`~sievenorm.expsum.CoefficientSequence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .expsum import TWO_PI_I, CoefficientSequence

#: Largest table size accepted by :func:`build_tables`.
TABLE_BUDGET = 1 << 26

# Most entries in one block of the recurrences over n = spf(n) * m, so each
# block's gathers stay near 10 bytes an entry, about 0.6 MiB.
_CHUNK = 1 << 16

SEQUENCE_KINDS = (
    "mobius",
    "mangoldt",
    "prime_indicator",
    "theta",
    "chi3",
    "chi3_on_primes",
    "ones",
    "random_complex",
    "squarefree_random",
    "random_primes",
)

# chi3 is the nontrivial character mod 3: 1, -1, 0 on residues 1, 2, 0.
_CHI3 = np.array([0.0, 1.0, -1.0])


@dataclass(frozen=True, eq=False)
class ArithmeticTables:
    """Read-only arithmetic tables for 0..n_max.

    ``spf[n]`` is the smallest prime factor of n (0 for n < 2); ``mobius`` is
    mu(n); ``primes`` lists all primes <= n_max in increasing order.  phi and
    Lambda are methods: ``phi(n)`` and ``mangoldt(n)`` return them on 0..n.

    Each table has the narrowest dtype that holds it exactly: ``spf`` and
    phi are int32, as spf(n) and phi(n) are at most n <= TABLE_BUDGET
    (2^26) < 2^31; ``mobius`` is int8 (-1, 0, 1); Lambda is float64 and
    ``primes`` int64.  Comparisons, gathers, ``bincount`` weights (cast to
    float64), ``np.sum``/``np.cumsum`` (which accumulate in int64) and
    ``int()`` read them exactly.  ``np.dot`` and ``@`` do not widen: a dot of
    two int8 slices wraps once its value passes 127, so widen one operand
    first.
    """

    n_max: int
    spf: np.ndarray
    mobius: np.ndarray
    primes: np.ndarray
    # the phi and Lambda prefixes derived so far, keyed by the function that
    # derives each; threads that race on a read store equal prefixes, each
    # valid, so no lock is needed
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside tables (n_max={self.n_max})")
        return n >= 2 and int(self.spf[n]) == n

    def phi(self, n: int) -> np.ndarray:
        """Euler's phi on 0..n, read-only (phi(0) = 0).  Requires 0 <= n <= n_max."""
        return self._prefix(_phi_prefix, n)

    def mangoldt(self, n: int) -> np.ndarray:
        """von Mangoldt's Lambda on 0..n, read-only, float64.  Requires 0 <= n <= n_max."""
        return self._prefix(_mangoldt_prefix, n)

    def _prefix(self, derive, n: int) -> np.ndarray:
        """``derive``'s table on 0..n, from the prefix kept for it.

        A prefix to k < n is replaced by one to max(n, 2k), capped at n_max,
        so any run of reads derives O(largest n) entries in all and keeps a
        prefix to less than twice the largest n asked.
        """
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside tables (n_max={self.n_max})")
        kept = self._derived.get(derive)
        if kept is None or kept.size <= n:
            grown = n if kept is None else min(max(n, 2 * (kept.size - 1)), self.n_max)
            kept = derive(self, grown)
            kept.setflags(write=False)
            self._derived[derive] = kept
        return kept[: n + 1]


def _blocks(stop: int):
    """The blocks [lo, hi) that tile 2..stop - 1, with hi <= 2 * lo and at most _CHUNK entries.

    Every n in a block reads n / spf(n) <= n / 2 < lo, so the recurrences fill
    each block from the blocks before it.
    """
    lo = 2
    while lo < stop:
        hi = min(2 * lo, lo + _CHUNK, stop)
        yield lo, hi
        lo = hi


def _phi_prefix(tables: ArithmeticTables, n: int) -> np.ndarray:
    """phi on 0..n: phi(p * m) = phi(m) * (p - 1 + [p | m]) with p = spf(p * m)."""
    spf = tables.spf
    phi = np.empty(n + 1, dtype=np.int32)
    phi[:2] = (0, 1)[: n + 1]
    for lo, hi in _blocks(n + 1):
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int32)
        m //= p
        np.multiply(phi[m], p - 1 + (spf[m] == p), out=phi[lo:hi])
    return phi


def _mangoldt_prefix(tables: ArithmeticTables, n: int) -> np.ndarray:
    """Lambda on 0..n: ``math.log(p)`` at each prime p <= n, copied to its powers p^k <= n."""
    ps = tables.primes[: np.searchsorted(tables.primes, n, side="right")]
    lam = np.zeros(n + 1)
    lam[ps] = list(map(math.log, ps.tolist()))
    ps = ps[: np.searchsorted(ps, math.isqrt(n), side="right")]
    power = ps * ps
    while ps.size:
        lam[power] = lam[ps]
        more = power <= n // ps  # the next power is still <= n
        ps, power = ps[more], power[more] * ps[more]
    return lam


def build_tables(n_max: int) -> ArithmeticTables:
    """Sieve up to n_max (inclusive) in the two passes of the module docstring.

    The primes <= sqrt(n_max) that pass 1 strides over come from a small
    boolean sieve.  Pass 2 computes mu alone; phi and Lambda are derived on
    their first read.  n_max must be at least 2; sizes beyond the module
    budget (2^26) raise :class:`CapacityError` rather than silently
    thrashing memory.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > TABLE_BUDGET:
        raise CapacityError(f"n_max {n_max} exceeds table budget {TABLE_BUDGET}")
    root = math.isqrt(n_max)
    sieve = np.ones(root + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    small = np.flatnonzero(sieve)  # the primes <= sqrt(n_max)
    spf = np.zeros(n_max + 1, dtype=np.int32)
    for p in small[::-1].tolist():
        spf[p::p] = p
    large = np.flatnonzero(spf[2:] == 0) + 2  # the primes above sqrt(n_max)
    spf[large] = large
    primes = np.concatenate([small, large])
    mobius = np.empty(n_max + 1, dtype=np.int8)
    mobius[:2] = (0, 1)
    for lo, hi in _blocks(n_max + 1):
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int32)
        m //= p
        np.negative(mobius[m], out=mobius[lo:hi])[spf[m] == p] = 0  # 0 where p^2 divides n

    for arr in (spf, mobius, primes):
        arr.setflags(write=False)
    return ArithmeticTables(n_max=n_max, spf=spf, mobius=mobius, primes=primes)


def prime_count(tables: ArithmeticTables, x: int) -> int:
    """pi(x): number of primes <= x.  Requires 2 <= x <= n_max."""
    if not 2 <= x <= tables.n_max:
        raise ValueError(f"x={x} outside 2..{tables.n_max}")
    return int(np.searchsorted(tables.primes, x, side="right"))


def squarefree_count(tables: ArithmeticTables, Q: int) -> int:
    """Number of squarefree integers in 1..Q."""
    if not 1 <= Q <= tables.n_max:
        raise ValueError(f"Q={Q} outside 1..{tables.n_max}")
    return int(np.count_nonzero(tables.mobius[1 : Q + 1]))


def ramanujan_sum(tables: ArithmeticTables, q: int, n: int) -> int:
    """c_q(n) by the closed form mu(q/g) * phi(q) / phi(q/g), g = gcd(q, |n|).

    Evenness in n is built in via |n|; n = 0 gives g = q and hence phi(q).
    Always an integer.
    """
    if not 1 <= q <= tables.n_max:
        raise ValueError(f"q={q} outside 1..{tables.n_max}")
    g = math.gcd(q, abs(n))
    d = q // g
    mu = int(tables.mobius[d])
    if mu == 0:
        return 0
    phi = tables.phi(q)
    return mu * int(phi[q]) // int(phi[d])


@lru_cache(maxsize=512)
def _coprime_residues(q: int) -> np.ndarray:
    a = np.arange(1, q + 1)
    out = a[np.gcd(a, q) == 1]
    out.setflags(write=False)
    return out


def ramanujan_sum_direct(q: int, n: int) -> int:
    """c_q(n) = sum over residues a coprime to q of e(a n / q), summed directly.

    Independent oracle for :func:`ramanujan_sum`: no sieve tables, no
    multiplicative identities.  Angles are reduced exactly via (a*n) mod q
    before any floating-point work; the imaginary part must vanish to 1e-9
    and the real part must land within 1e-6 of an integer.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    n_mod = int(n) % q  # e() is 1-periodic, and a * n_mod cannot overflow
    angles = ((_coprime_residues(q) * n_mod) % q) / q
    total = complex(np.sum(np.exp(TWO_PI_I * angles)))
    if abs(total.imag) > 1e-9:
        raise ArithmeticError(f"c_{q}({n}): imaginary residue {total.imag:.3e}")
    nearest = round(total.real)
    if abs(total.real - nearest) > 1e-6:
        raise ArithmeticError(f"c_{q}({n}): real part {total.real!r} not near an integer")
    return int(nearest)


def coefficient_sequence(
    tables: ArithmeticTables, kind: str, N: int, seed: int = 0
) -> CoefficientSequence:
    """Build the named coefficient sequence a_1..a_N.

    Deterministic kinds ignore ``seed``.  Random kinds (``random_complex``,
    ``squarefree_random``, ``random_primes``) draw magnitudes uniform in
    [1/2, 1] and phases uniform in [0, 2*pi) from
    ``numpy.random.default_rng(seed)``; ``squarefree_random`` then masks them
    to the squarefree n and ``random_primes`` to the primes.
    """
    if kind not in SEQUENCE_KINDS:
        raise ValueError(f"unknown sequence kind {kind!r}")
    if not 1 <= N <= tables.n_max:
        raise ValueError(f"N={N} outside 1..{tables.n_max}")
    n = np.arange(1, N + 1)
    prime = tables.spf[1 : N + 1] == n
    if kind == "mobius":
        coeffs = tables.mobius[1 : N + 1].astype(np.complex128)
    elif kind == "mangoldt":
        coeffs = tables.mangoldt(N)[1:].astype(np.complex128)
    elif kind == "prime_indicator":
        coeffs = prime.astype(np.complex128)
    elif kind == "theta":
        logs = np.zeros(N)
        logs[prime] = np.log(n[prime])
        coeffs = logs.astype(np.complex128)
    elif kind == "chi3":
        coeffs = _CHI3[n % 3].astype(np.complex128)
    elif kind == "chi3_on_primes":
        coeffs = (_CHI3[n % 3] * prime).astype(np.complex128)
    elif kind == "ones":
        coeffs = np.ones(N, dtype=np.complex128)
    else:
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0.5, 1.0, N)
        phase = rng.uniform(0.0, 2.0 * math.pi, N)
        coeffs = mag * np.exp(1j * phase)
        if kind == "squarefree_random":
            coeffs = coeffs * (tables.mobius[1 : N + 1] != 0)
        elif kind == "random_primes":
            coeffs = coeffs * prime
    return CoefficientSequence(N=N, coeffs=coeffs)

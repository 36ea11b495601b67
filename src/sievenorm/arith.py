"""Sieve-backed arithmetic tables and coefficient-sequence factories.

Two passes build every table.  The first writes the smallest prime factor
spf by strided slices over the multiples of each prime p <= sqrt(n_max),
largest p first, so the smallest writes last; an n >= 2 left at 0 is prime.
The second reads each n as p * m with p = spf(n): mu(n) = 0 or -mu(m),
phi(n) = phi(m) * p or phi(m) * (p - 1), and Lambda(n) = Lambda(m) or 0, as
p does or does not divide m.  Since m <= n / 2, every n in [2^k, 2^(k+1))
reads only below 2^k, so each dyadic block is a few vectorised gathers from
the blocks before it.  Build once, share across all experiments -- the
tables object is immutable and cheap to pass around.

Also here: Ramanujan sums c_q(n) in closed form and by direct summation
(two independent routes, kept apart for cross-checking), and the factory
turning a name like ``"mobius"`` or ``"chi3_on_primes"`` into a
:class:`~sievenorm.expsum.CoefficientSequence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .expsum import TWO_PI_I, CoefficientSequence

#: Largest table size accepted by :func:`build_tables`.
TABLE_BUDGET = 1 << 26

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

    ``spf[n]`` is the smallest prime factor of n (0 for n < 2); ``mobius``,
    ``phi`` and ``mangoldt`` are the usual mu(n), phi(n), Lambda(n); ``primes``
    lists all primes <= n_max in increasing order.

    Each table has the narrowest dtype that holds it exactly: ``spf`` and
    ``phi`` are int32, as spf(n) and phi(n) are at most n <= TABLE_BUDGET
    (2^26) < 2^31; ``mobius`` is int8 (-1, 0, 1); ``mangoldt`` is float64
    and ``primes`` int64.  Comparisons, gathers, ``bincount`` weights (cast to
    float64), ``np.sum``/``np.cumsum`` (which accumulate in int64) and
    ``int()`` read them exactly.  ``np.dot`` and ``@`` do not widen: a dot of
    two int8 slices wraps once its value passes 127, so widen one operand
    first.
    """

    n_max: int
    spf: np.ndarray
    mobius: np.ndarray
    phi: np.ndarray
    mangoldt: np.ndarray
    primes: np.ndarray

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside tables (n_max={self.n_max})")
        return n >= 2 and int(self.spf[n]) == n


def build_tables(n_max: int) -> ArithmeticTables:
    """Sieve up to n_max (inclusive) in the two passes of the module docstring.

    The primes <= sqrt(n_max) that pass 1 strides over come from a small
    boolean sieve.  Lambda is ``math.log(p)`` at each prime p, and pass 2
    copies it to the higher powers of p.  n_max must be at least 2; sizes
    beyond the module budget (2^26) raise :class:`CapacityError` rather than
    silently thrashing memory.
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
    mangoldt = np.zeros(n_max + 1)
    mangoldt[primes] = list(map(math.log, primes.tolist()))
    mobius = np.empty(n_max + 1, dtype=np.int8)
    phi = np.empty(n_max + 1, dtype=np.int32)
    mobius[:2] = phi[:2] = (0, 1)
    for k in range(1, n_max.bit_length()):
        lo, hi = 1 << k, min(2 << k, n_max + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int32)
        m //= p
        same = spf[m] == p  # p^2 divides n
        np.negative(mobius[m], out=mobius[lo:hi])[same] = 0
        np.multiply(phi[m], p - 1 + same, out=phi[lo:hi])
        mangoldt[lo:hi][same] = mangoldt[m[same]]  # 0 unless m is a power of p

    for arr in (spf, mobius, phi, mangoldt, primes):
        arr.setflags(write=False)
    return ArithmeticTables(
        n_max=n_max, spf=spf, mobius=mobius, phi=phi, mangoldt=mangoldt, primes=primes
    )


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
    return mu * int(tables.phi[q]) // int(tables.phi[d])


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
        coeffs = tables.mangoldt[1 : N + 1].astype(np.complex128)
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

"""Exponential sums and Fejer-type kernels with two independent evaluation routes.

The basic object is the geometric exponential sum

    F_N(alpha) = sum_{n=1}^{N} e(n * alpha),        e(x) = exp(2*pi*i*x),

and its normalized square T_N = |F_N|^2 / N, the Fejer kernel, whose spectral
expansion is sum_{|k| <= N} (1 - |k|/N) e(k*alpha).  On top of T_N this module
builds kernels that average translates of T_N (or of |F_N|^2) over structured
sets of rationals:

``fejer``
    T_N itself.
``gstar``
    mean over primes p <= P of sum_{a=1}^{p^2} T_N(alpha - a/p^2); its
    spectral coefficients vanish on squarefree frequencies.
``h``
    mean over primes p <= P of sum_{a=1}^{p} T_N(alpha - a/p); coefficients
    vanish exactly on k = +-1 and on |k| with least prime factor > P.
``h_truncated``
    ``h`` with the frequencies |k| <= P removed, which costs at most 3P in
    sup norm.
``k_part3``
    sum over q <= Q of mu(q) * sum_{a <= q, (a,q)=1} |F_N(alpha - a/q)|^2,
    a signed (not nonnegative) kernel used against prime-power weights.

Every kernel can be evaluated both from its translate definition
(``eval_kernel``) and from its coefficients (``eval_kernel_spectral``,
``grid_eval_kernel``); the two routes share no code so tests can play them
against each other.  All coefficients have one form, a sum of spike trains
w*[q | k] over (modulus q, weight w) pairs, each written by a strided slice;
sum_{a=1}^{q} T_N(alpha - a/q) has the train q*[q | k].  ``fejer`` is the
single pair (1, 1); ``gstar`` takes (p^2, p^2) and ``h`` (p, p), each a mean
over p <= P.  ``k_part3`` sums Ramanujan sums c_q(k) over the residues
coprime to q, and the divisor identity c_q(k) = sum_{d | (q,k)} mu(q/d) * d
(Hardy-Wright 16.6) turns N * sum_{q <= Q} mu(q) * c_q(k) into the pairs
(d, N*d*W_d), d <= Q, with W_d = sum_{m <= Q/d} mu(dm) * mu(m): products of
mu over d*m, which share no code with the prime-power closed form of
``experiments.mobius_ramanujan_weighted_sum``, so the two routes to that sum
stay independent.

Sums on the uniform grids fold the coefficients into bins k mod M (exact
aliasing) and take one inverse FFT.  A sequence, complex in general, takes a
complex one (``_inverse_fold``).  Kernel weights are real and even, so their
bins are too, and half of them, folded straight into ``irfft``'s complex
input, give all M real values.  The large sieve takes no transform
(``largesieve`` sums residue-class energies instead).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, InvariantError

if TYPE_CHECKING:  # pragma: no cover
    from .arith import ArithmeticTables

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2.0j * math.pi

KERNEL_KINDS = ("fejer", "gstar", "h", "h_truncated", "k_part3")

#: Hard ceiling on grid sizes / dense coefficient arrays (number of samples).
GRID_BUDGET = 1 << 24

# Evaluating sum a_n e(n alpha) at a batch of points materializes a
# points-by-N table of powers; cap its element count so memory stays bounded.
_POINT_CHUNK_ELEMS = 1 << 22


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Finite sequence a_1..a_N.

    ``coeffs[j]`` stores a_{j+1}; the array is frozen on construction.
    """

    N: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        c = np.array(self.coeffs, dtype=np.complex128, copy=True).reshape(-1)
        if c.shape != (self.N,):
            raise ValueError(f"expected {self.N} coefficients, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def coeff(self, n: int) -> complex:
        """Return a_n (1-indexed)."""
        if not 1 <= n <= self.N:
            raise ValueError(f"index {n} outside 1..{self.N}")
        return complex(self.coeffs[n - 1])


@dataclass(frozen=True)
class KernelSpec:
    """Parameters selecting one kernel: kind, length N, and P or Q.

    Defaults when the side parameter is omitted: ``gstar`` uses
    P = max(2, floor(N^(1/4))), ``h``/``h_truncated`` use
    P = max(2, floor(sqrt(N))), ``k_part3`` uses Q = max(1, floor(sqrt(N))).
    ``fejer`` takes no side parameter.  Roots are exact integer roots, not
    float powers.
    """

    kind: str
    N: int
    P: int | None = None
    Q: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.kind == "fejer":
            if self.P is not None or self.Q is not None:
                raise ValueError("fejer kernel takes no P or Q")
        elif self.kind in ("gstar", "h", "h_truncated"):
            if self.Q is not None:
                raise ValueError(f"{self.kind} kernel takes P, not Q")
            if self.P is None:
                root = isqrt(isqrt(self.N)) if self.kind == "gstar" else isqrt(self.N)
                object.__setattr__(self, "P", max(2, root))
            elif self.P < 2:
                raise ValueError(f"P must be >= 2, got {self.P}")
        else:  # k_part3
            if self.P is not None:
                raise ValueError("k_part3 kernel takes Q, not P")
            if self.Q is None:
                object.__setattr__(self, "Q", max(1, isqrt(self.N)))
            elif self.Q < 1:
                raise ValueError(f"Q must be >= 1, got {self.Q}")


@dataclass(frozen=True, eq=False)
class GridEvaluation:
    """Values of a kernel on the uniform grid j/M, or of a sequence on j/M or a shift of it.

    ``values`` is read-only.  An ndarray that owns its memory is frozen in
    place, so handing one over gives it up; a view or any other input is
    copied first, so the caller's base array cannot change the values.
    """

    M: int
    values: np.ndarray
    spec: object = None

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        v = self.values
        if not isinstance(v, np.ndarray) or v.base is not None:
            v = np.array(v)
        if v.shape != (self.M,):
            raise ValueError(f"expected {self.M} values, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# scalar building blocks


def distance_to_nearest_integer(x):
    """||x||: distance from x to the nearest integer, in [0, 1/2].

    Accepts scalars or arrays; ties (half-integers) give exactly 0.5.
    """
    arr = np.asarray(x, dtype=float)
    d = np.abs(arr - np.rint(arr))
    if d.ndim == 0:
        return float(d)
    return d


def eval_F(N: int, alpha: float) -> complex:
    """F_N(alpha) = sum_{n=1}^N e(n*alpha) via the closed sine-ratio form.

    Within 1/(4N^2) of an integer the sine ratio loses relative accuracy, so
    the sum is taken directly there instead.  |F_N| <= N always holds; tiny
    roundoff excesses are clipped back to the bound.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a = float(alpha)
    if distance_to_nearest_integer(a) < 1.0 / (4.0 * N * N):
        val = complex(np.sum(np.exp(TWO_PI_I * a * np.arange(1, N + 1))))
    else:
        ratio = math.sin(math.pi * N * a) / math.sin(math.pi * a)
        phase = TWO_PI * a * (N + 1) / 2.0
        val = complex(math.cos(phase), math.sin(phase)) * ratio
    mag = abs(val)
    if mag > N:
        val *= N / mag
    return val


def eval_T(N: int, alpha):
    """Fejer kernel T_N(alpha) = |F_N(alpha)|^2 / N at a point or an array of points.

    Within 1/(4N^2) of an integer the sine ratio loses relative accuracy, so
    the value comes from ``eval_F`` there.  A scalar gives a float and an
    array an array, as in ``distance_to_nearest_integer``.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a = np.asarray(alpha, dtype=float)
    t = a.reshape(-1)
    near = distance_to_nearest_integer(t) < 1.0 / (4.0 * N * N)
    ratio = np.sin(np.pi * N * t) / np.where(near, 1.0, np.sin(np.pi * t))
    out = ratio * ratio / N
    for i in np.flatnonzero(near):
        f = eval_F(N, float(t[i]))
        out[i] = (f.real * f.real + f.imag * f.imag) / N
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


def eval_sequence(seq: CoefficientSequence, alphas) -> np.ndarray:
    """S(alpha) = sum_n a_n e(n*alpha) at arbitrary points (1-d array out).

    Powers of e(alpha) are built by cumulative products in chunks; relative
    drift is of order N * machine-eps, comfortably below the tolerances used
    anywhere in this package.  This pointwise route shares no code with the
    fold-and-FFT grids (``grid_eval_sequence``) or the residue-class energies
    of the large sieve, which it cross-checks.
    """
    pts = np.atleast_1d(np.asarray(alphas, dtype=float)).reshape(-1)
    out = np.empty(pts.shape[0], dtype=np.complex128)
    step = max(1, _POINT_CHUNK_ELEMS // max(1, seq.N))
    for i in range(0, pts.shape[0], step):
        z = np.exp(TWO_PI_I * pts[i : i + step])
        powers = np.multiply.accumulate(np.broadcast_to(z[:, None], (z.shape[0], seq.N)), axis=1)
        out[i : i + step] = powers @ seq.coeffs
    return out


# ---------------------------------------------------------------------------
# kernel coefficients (spectral route)


# Coefficients live as long as the tables they were built from, one dict of
# specs per tables object: every spec a suite asks for stays cached across its
# passes, however many ladder N it has, and goes when the tables go.
_COEFFICIENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _build_coefficients(tables: "ArithmeticTables", spec: KernelSpec) -> np.ndarray:
    N = spec.N
    if spec.kind == "fejer":
        trains, count = [(1, 1)], 1
    elif spec.kind == "k_part3":
        # the divisor form: N * sum_{d <= Q, d | k} d * W_d, W_d = sum_{m <= Q/d} mu(dm) mu(m)
        mob = tables.mobius
        trains, count = [], 1
        for d in np.flatnonzero(mob[: spec.Q + 1]).tolist():
            m = np.arange(1, spec.Q // d + 1)
            w_d = int(np.dot(mob[d * m].astype(np.int64), mob[m]))  # int8 dot would wrap
            if w_d:
                trains.append((d, float(N) * d * w_d))
    else:
        ps = tables.primes[tables.primes <= spec.P].tolist()
        moduli = [p * p if spec.kind == "gstar" else p for p in ps]
        trains, count = [(q, q) for q in moduli], len(moduli)
    coef = np.zeros(2 * N + 1)
    for q, weight in trains:
        # the spike train weight*[q | k]: index i holds k = i - N, so q | k at i = N mod q
        coef[N % q :: q] += weight
    coef /= count
    if spec.kind == "h_truncated":
        coef[max(0, N - spec.P) : N + spec.P + 1] = 0.0
    coef.setflags(write=False)
    return coef


def kernel_coefficients(tables: "ArithmeticTables", spec: KernelSpec) -> np.ndarray:
    """Fourier coefficients c_k, k = -N..N, as a read-only length-2N+1 array.

    Index k + N stores c_k, a sum of spike trains w*[q | k] over (modulus q,
    weight w) pairs: (1, 1) for ``fejer``; the mean of (q, q) over q = p^2
    (``gstar``) or q = p (``h``), p <= P prime; and (d, N*d*W_d), d <= Q, for
    ``k_part3`` = N * sum_{q <= Q} mu(q) * c_q(k) (see the module docstring).
    ``h_truncated`` is ``h`` with |k| <= P zeroed.  Every term is an integer
    below 2^53, so the sums are exact.  ValueError if the tables do not reach
    P or Q.
    """
    _check_coverage(tables, spec)
    cache = _COEFFICIENTS.setdefault(tables, {})
    coef = cache.get(spec)
    if coef is None:
        coef = cache[spec] = _build_coefficients(tables, spec)
    return coef


def _check_coverage(tables: "ArithmeticTables", spec: KernelSpec) -> None:
    side, name = (spec.Q, "Q") if spec.kind == "k_part3" else (spec.P, "P")
    if side is not None and side > tables.n_max:
        raise ValueError(f"tables cover n <= {tables.n_max} < {name} = {side}")


def spectral_weights(tables: "ArithmeticTables", spec: KernelSpec) -> np.ndarray:
    """Weights (1 - |k|/N) * c_k, k = -N..N, of the kernel's expansion."""
    N = spec.N
    return (1.0 - np.abs(np.arange(-N, N + 1)) / N) * kernel_coefficients(tables, spec)


# ---------------------------------------------------------------------------
# kernel evaluation from translates (primary route)


def _translate_scheme(tables: "ArithmeticTables", spec: KernelSpec):
    """(shifts, weights) so that the kernel is sum_i weights[i]*T_N(x - shifts[i]).

    Ordering is deterministic: ascending prime (or modulus q), then ascending
    residue a.  Weights are in T_N units; for ``k_part3`` they carry the
    factor N so that weight * T_N = mu(q) * |F_N|^2.  ValueError if the
    tables do not reach P or Q.
    """
    _check_coverage(tables, spec)
    if spec.kind == "k_part3":
        mob = tables.mobius
        moduli = np.flatnonzero(mob[: spec.Q + 1]).tolist()  # mu(q) = 0 adds nothing
        residues = [np.arange(1, q + 1) for q in moduli]
        residues = [a[np.gcd(a, q) == 1] for a, q in zip(residues, moduli)]
        weights = np.repeat(mob[moduli] * float(spec.N), [a.size for a in residues])
    else:
        ps = tables.primes[tables.primes <= spec.P].tolist()
        moduli = [p * p if spec.kind == "gstar" else p for p in ps]
        residues = [np.arange(1, q + 1) for q in moduli]
        weights = np.full(sum(moduli), 1.0 / len(moduli))
    shifts = np.concatenate([a / q for a, q in zip(residues, moduli)])
    return shifts, weights


def eval_kernel(tables: "ArithmeticTables", spec: KernelSpec, alpha: float) -> float:
    """Kernel value at one point, computed from the translate definition.

    This is the primary route; ``eval_kernel_spectral`` recomputes the same
    value from Fourier coefficients.
    """
    a = float(alpha)
    if spec.kind == "fejer":
        return eval_T(spec.N, a)
    shifts, weights = _translate_scheme(tables, spec)
    total = float(np.dot(weights, eval_T(spec.N, a - shifts)))
    if spec.kind == "h_truncated":
        total -= _low_frequency_value(tables, spec, a)
    return total


def _low_frequency_value(tables: "ArithmeticTables", spec: KernelSpec, alpha: float) -> float:
    """sum_{|k| <= P} (1 - |k|/N)*d_k*e(k alpha) for the h-kernel coefficients d."""
    N = spec.N
    k = np.arange(min(spec.P, N) + 1)
    w = (1.0 - k / N) * kernel_coefficients(tables, KernelSpec("h", N, P=spec.P))[N + k]
    return float(w[0] + 2.0 * np.dot(w[1:], np.cos(TWO_PI * alpha * k[1:])))


def eval_kernel_spectral(tables: "ArithmeticTables", spec: KernelSpec, alpha: float) -> float:
    """Kernel value from its Fourier expansion (independent check route)."""
    N = spec.N
    w = spectral_weights(tables, spec)
    k = np.arange(1, N + 1)
    # Coefficients are even in k, so the sum folds onto cosines.
    return float(w[N] + 2.0 * np.dot(w[N + 1 :], np.cos(TWO_PI * float(alpha) * k)))


# ---------------------------------------------------------------------------
# uniform-grid evaluation


def _check_grid(M: int) -> None:
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if M > GRID_BUDGET:
        raise CapacityError(f"grid size {M} exceeds budget {GRID_BUDGET}")


def _inverse_fold(coeffs: np.ndarray, k: np.ndarray, M: int) -> np.ndarray:
    """M * inverse FFT of the bins b[r] = sum of coeffs[i] over k[i] = r (mod M).

    Folding aliases exactly: sum_r b[r] e(r*j/M) equals the sum of
    coeffs[i] * e(k[i]*j/M) for every integer j, so the result holds that
    sum at j/M, j = 0..M-1, whatever M is.  The result is a fresh array that
    owns its memory.  ``coeffs`` are complex (a sequence's); real even kernel
    weights take the ``irfft`` of ``grid_eval_kernel`` instead.
    """
    values = np.zeros(M, dtype=np.complex128)
    np.add.at(values, k % M, coeffs)
    np.fft.ifft(values, out=values)
    values *= M
    return values


def grid_eval_sequence(seq: CoefficientSequence, M: int, shift: float = 0.0) -> GridEvaluation:
    """S((j + shift)/M) for j = 0..M-1, from one inverse FFT of length M.

    The coefficients are twisted by e(n*shift/M) and folded into frequency
    bins n mod M (exact aliasing, so M may be below N + 1).  ``GRID_BUDGET``
    caps M, the length of every array allocated here.  At shift = 0 and
    M >= N + 1 each a_n sits alone in bin n.  The pointwise route
    ``eval_sequence`` shares no code with this one; the L1 quadrature's row
    transforms (``quadrature._row_sum``) are checked against this grid.
    """
    _check_grid(M)
    n = np.arange(1, seq.N + 1)
    coeffs = seq.coeffs * np.exp(TWO_PI_I * (shift / M) * n) if shift else seq.coeffs
    return GridEvaluation(M=M, values=_inverse_fold(coeffs, n, M), spec=seq)


def grid_eval_kernel(tables: "ArithmeticTables", spec: KernelSpec, M: int) -> GridEvaluation:
    """Kernel values at j/M, j = 0..M-1, as a real array.

    The 2N+1 spectral weights are real and even bit for bit: k and -k get
    the same additions in the same order, which is checked exactly
    (``InvariantError`` otherwise).  Folded into bins modulo M (exact
    aliasing), they give bins b[r] = b[M - r] up to roundoff, so one
    ``irfft`` of b[0..M//2] yields all M values.  Only those M//2 + 1 bins
    are kept, in the complex buffer that ``irfft`` reads: one ``np.add.at``
    adds each weight in order of k, as a length-M ``np.bincount`` would, so
    every M, aliased or not, gives that fold's bits.  ``GRID_BUDGET`` caps M.
    """
    _check_grid(M)
    w = spectral_weights(tables, spec)
    if not np.array_equal(w, w[::-1]):
        raise InvariantError(f"spectral weights of {spec} are not even in k")
    half = M // 2
    bins = np.arange(-spec.N, spec.N + 1) % M
    np.minimum(bins, half + 1, out=bins)  # bins past M//2 share one slot irfft never reads
    b = np.zeros(half + 2, dtype=np.complex128)
    np.add.at(b.real, bins, w)
    v = np.fft.irfft(b[: half + 1], n=M, norm="forward")
    return GridEvaluation(M=M, values=v, spec=spec)


def duality_gap(tables: "ArithmeticTables", spec: KernelSpec, alphas) -> float:
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

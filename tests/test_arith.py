import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievenorm as sn
from sievenorm.errors import CapacityError


def trial_division_tables(n_max):
    """spf, mu, phi, Lambda and the primes up to n_max, factoring each n by trial division."""
    spf, mobius, phi, mangoldt, primes = [0, 0], [0, 1], [0, 1], [0.0, 0.0], []
    for n in range(2, n_max + 1):
        factors, m, d = [], n, 2
        while d * d <= m:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            if k:
                factors.append((d, k))
            d += 1
        if m > 1:
            factors.append((m, 1))
        spf.append(factors[0][0])
        squarefree = all(k == 1 for _, k in factors)
        mobius.append((-1) ** len(factors) if squarefree else 0)
        phi.append(math.prod(p ** (k - 1) * (p - 1) for p, k in factors))
        mangoldt.append(math.log(factors[0][0]) if len(factors) == 1 else 0.0)
        if factors == [(n, 1)]:
            primes.append(n)
    return spf, mobius, phi, mangoldt, primes


# sha256 of each table's bytes at n_max = 2^20, recorded from the prime-slice
# sieve that updated mu, phi and Lambda on the multiples of each prime; the
# integer tables are hashed widened to int64, the dtype they were pinned in
TABLES_2_20 = {
    "spf": "210f92d85832b9ac0f8125901d36884525bded65cc26d29afb083c20cdb8ee10",
    "mobius": "c5dd2938518cc813ff04a2296858fd893760fc937eb51567bea9445a3cf75856",
    "phi": "73d3b68fda66b02b985d9af6c17b7f5311570e88d8a182aa6cd9b138d3d18ceb",
    "mangoldt": "a83bd6ea9c0054e7d4eeee9fa469a427de4f91454471aeffbee1a0635d096395",
    "primes": "7f38ca3bca3d3b8448b19b977e1b4f7985d5446991c6bcf4648ed85eb9723f3b",
}


class TestBuildTables:
    # the dyadic block edges 2^k - 1, 2^k, 2^k + 1 and the sqrt(n_max) edges 31^2 - 1, 31^2
    @pytest.mark.parametrize(
        "n_max",
        [2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 960, 961, 1023, 1024,
         1025, 10_000],
    )
    def test_matches_trial_division(self, n_max):
        t = sn.build_tables(n_max)
        spf, mobius, phi, mangoldt, primes = trial_division_tables(n_max)
        assert t.spf.tolist() == spf
        assert t.mobius.tolist() == mobius
        assert t.phi.tolist() == phi
        assert t.mangoldt.tolist() == mangoldt  # math.log(p) at each prime power, bit for bit
        assert t.primes.tolist() == primes

    def test_pinned_at_2_20(self, tables_big):
        for name, digest in TABLES_2_20.items():
            table = getattr(tables_big, name)
            if table.dtype.kind == "i":
                table = table.astype(np.int64)
            assert hashlib.sha256(table.tobytes()).hexdigest() == digest, name

    def test_narrow_dtypes_at_2_20(self, tables_big):
        dtypes = {name: getattr(tables_big, name).dtype for name in TABLES_2_20}
        assert dtypes == {
            "spf": np.int32,
            "mobius": np.int8,
            "phi": np.int32,
            "mangoldt": np.float64,
            "primes": np.int64,
        }
        assert sum(getattr(tables_big, name).nbytes for name in TABLES_2_20) <= 18 << 20
        # spf(n) and phi(n) are at most n, so int32 holds every size the budget allows
        assert np.iinfo(tables_big.spf.dtype).max >= sn.arith.TABLE_BUDGET

    def test_build_peak_stays_near_what_it_keeps(self):
        # four full-length tables are kept; the block temporaries stay within half as much more
        tracemalloc.start()
        try:
            t = sn.build_tables(1 << 20)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= sum(getattr(t, k).nbytes for k in TABLES_2_20)
        assert peak <= 1.5 * kept

    def test_mobius_first_ten(self, tables):
        assert tables.mobius[1:11].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_mangoldt_values(self, tables):
        assert tables.mangoldt[8] == pytest.approx(math.log(2))
        assert tables.mangoldt[6] == 0.0
        assert tables.mangoldt[7] == pytest.approx(math.log(7))
        assert tables.mangoldt[1] == 0.0

    def test_phi_spot_values(self, tables):
        assert tables.phi[1] == 1
        assert tables.phi[12] == 4
        assert tables.phi[97] == 96

    def test_spf_and_prime_list(self, tables):
        assert tables.spf[1] == 0
        assert tables.spf[2] == 2
        assert tables.spf[15] == 3
        assert tables.primes[:5].tolist() == [2, 3, 5, 7, 11]
        assert tables.is_prime(4093)
        assert not tables.is_prime(4095)

    def test_minimal_tables(self):
        t = sn.build_tables(2)
        assert t.primes.tolist() == [2]
        assert t.mobius[2] == -1
        assert t.phi[2] == 1

    def test_tables_are_read_only(self, tables):
        with pytest.raises(ValueError):
            tables.mobius[3] = 7

    def test_validation(self):
        with pytest.raises(ValueError):
            sn.build_tables(1)
        with pytest.raises(CapacityError):
            sn.build_tables((1 << 26) + 1)

    def test_mertens_bound(self, tables):
        # partial sums of mu stay well under N^0.6 at these desk scales
        cums = np.cumsum(tables.mobius[1:])
        for n in (100, 500, 1000, 4096):
            assert abs(int(cums[n - 1])) <= n**0.6

    def test_mangoldt_sq_ratio_trend(self, tables_mid):
        # sum Lambda(n)^2 / (N log N) creeps upward along the ladder; no rate
        # is asserted, only the trend and a loose band.
        ratios = []
        for n in (1 << 10, 1 << 12, 1 << 14, 1 << 16):
            lam = tables_mid.mangoldt[1 : n + 1]
            ratios.append(float(np.dot(lam, lam)) / (n * math.log(n)))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(0.5 < r < 1.05 for r in ratios)


class TestPrimeCount:
    def test_frozen_values(self, tables):
        assert sn.prime_count(tables, 100) == 25
        assert sn.prime_count(tables, 17) == 7
        assert sn.prime_count(tables, 2) == 1
        assert sn.prime_count(tables, 1000) == 168

    def test_range_validation(self, tables):
        with pytest.raises(ValueError):
            sn.prime_count(tables, 1)
        with pytest.raises(ValueError):
            sn.prime_count(tables, tables.n_max + 1)

    def test_chebyshev_floor_small_range(self, tables):
        is_p = np.zeros(tables.n_max + 1)
        is_p[tables.primes] = 1
        pi = np.cumsum(is_p)
        n = np.arange(17, tables.n_max + 1)
        assert np.min(pi[n] * np.log(n) / n) > 1.0


class TestSquarefreeCount:
    def test_frozen_values(self, tables):
        assert sn.squarefree_count(tables, 10) == 7
        assert sn.squarefree_count(tables, 1) == 1

    def test_density_band(self, tables_mid):
        # 6/pi^2 with a 2/sqrt(Q) relative window, for Q >= 100
        for q in (100, 1000, 4096, 1 << 16):
            count = sn.squarefree_count(tables_mid, q)
            center = 6.0 * q / math.pi**2
            slack = 2.0 * q**-0.5
            assert center * (1 - slack) <= count <= center * (1 + slack)

    def test_ten_thousand(self, tables_mid):
        assert sn.squarefree_count(tables_mid, 10**4) == pytest.approx(6079.3, rel=0.01)


class TestRamanujanSum:
    def test_frozen_closed_form(self, tables):
        assert sn.ramanujan_sum(tables, 5, 3) == -1
        assert sn.ramanujan_sum(tables, 1, 7) == 1
        assert sn.ramanujan_sum(tables, 6, 4) == -1

    def test_frozen_direct(self):
        assert sn.ramanujan_sum_direct(4, 2) == -2
        assert sn.ramanujan_sum_direct(3, 3) == 2
        assert sn.ramanujan_sum_direct(2, 1) == -1

    def test_n_zero_gives_phi(self, tables):
        for q in range(1, 21):
            assert sn.ramanujan_sum(tables, q, 0) == int(tables.phi[q])

    def test_even_in_n(self, tables):
        for q in (7, 12, 30):
            for n in range(-15, 16):
                assert sn.ramanujan_sum(tables, q, n) == sn.ramanujan_sum(tables, q, -n)

    @settings(deadline=None, max_examples=120)
    @given(q=st.integers(1, 60), n=st.integers(-200, 200))
    def test_closed_matches_direct(self, tables, q, n):
        assert sn.ramanujan_sum(tables, q, n) == sn.ramanujan_sum_direct(q, n)

    def test_mobius_weighted_sum_at_primes(self, tables):
        # sum_{q <= Q} mu(q) c_q(n) equals sum_{q <= Q} mu(q)^2 whenever n is a
        # prime exceeding Q (each term reduces to mu(q)^2 then).
        for Q in (5, 20, 50):
            rhs = int(np.sum(tables.mobius[1 : Q + 1] ** 2))
            for n in (53, 101, 199):
                assert n > Q
                lhs = sum(
                    int(tables.mobius[q]) * sn.ramanujan_sum(tables, q, n)
                    for q in range(1, Q + 1)
                )
                assert lhs == rhs

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            sn.ramanujan_sum(tables, 0, 3)
        with pytest.raises(ValueError):
            sn.ramanujan_sum(tables, tables.n_max + 1, 3)
        with pytest.raises(ValueError):
            sn.ramanujan_sum_direct(0, 1)


class TestCoefficientSequence:
    def test_frozen_examples(self, tables):
        chi3 = sn.coefficient_sequence(tables, "chi3", 5)
        assert chi3.coeffs.real.tolist() == [1, -1, 0, 1, -1]
        ind = sn.coefficient_sequence(tables, "prime_indicator", 6)
        assert ind.coeffs.real.tolist() == [0, 1, 1, 0, 1, 0]
        mob = sn.coefficient_sequence(tables, "mobius", 4)
        assert mob.coeffs.real.tolist() == [1, -1, -1, 0]

    def test_theta_values(self, tables):
        th = sn.coefficient_sequence(tables, "theta", 12)
        assert th.coeff(7) == pytest.approx(math.log(7))
        assert th.coeff(9) == 0.0
        assert th.coeff(1) == 0.0

    def test_chi3_on_primes(self, tables):
        seq = sn.coefficient_sequence(tables, "chi3_on_primes", 12)
        assert seq.coeff(7) == pytest.approx(1.0)  # 7 = 1 mod 3
        assert seq.coeff(5) == pytest.approx(-1.0)  # 5 = 2 mod 3
        assert seq.coeff(3) == 0.0  # character vanishes at 3
        assert seq.coeff(9) == 0.0  # not prime

    def test_random_kinds_deterministic(self, tables):
        a = sn.coefficient_sequence(tables, "random_complex", 64, seed=9)
        b = sn.coefficient_sequence(tables, "random_complex", 64, seed=9)
        c = sn.coefficient_sequence(tables, "random_complex", 64, seed=10)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_random_magnitudes(self, tables):
        seq = sn.coefficient_sequence(tables, "random_complex", 256, seed=0)
        mags = np.abs(seq.coeffs)
        assert mags.min() >= 0.5 - 1e-12
        assert mags.max() <= 1.0 + 1e-12

    def test_squarefree_random_support(self, tables):
        seq = sn.coefficient_sequence(tables, "squarefree_random", 200, seed=4)
        mu = tables.mobius[1:201]
        assert np.all(seq.coeffs[mu == 0] == 0)
        on = np.abs(seq.coeffs[mu != 0])
        assert on.min() >= 0.5 - 1e-12

    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_primes_is_the_random_draw_on_the_primes(self, tables, seed):
        N = 1024
        draw = sn.coefficient_sequence(tables, "random_complex", N, seed=seed).coeffs
        seq = sn.coefficient_sequence(tables, "random_primes", N, seed=seed)
        prime = np.isin(np.arange(1, N + 1), tables.primes)
        np.testing.assert_array_equal(seq.coeffs[prime], draw[prime])
        assert np.all(seq.coeffs[~prime] == 0)

    def test_mangoldt_sequence_matches_table(self, tables):
        seq = sn.coefficient_sequence(tables, "mangoldt", 50)
        np.testing.assert_allclose(seq.coeffs.real, tables.mangoldt[1:51])

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            sn.coefficient_sequence(tables, "nope", 10)
        with pytest.raises(ValueError):
            sn.coefficient_sequence(tables, "ones", 0)
        with pytest.raises(ValueError):
            sn.coefficient_sequence(tables, "ones", tables.n_max + 1)

    def test_coeff_accessor(self, tables):
        seq = sn.coefficient_sequence(tables, "ones", 8)
        assert seq.coeff(1) == 1
        with pytest.raises(ValueError):
            seq.coeff(0)
        with pytest.raises(ValueError):
            seq.coeff(9)

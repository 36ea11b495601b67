import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievenorm as sn
import sievenorm.expsum as expsum
from sievenorm.errors import CapacityError, InvariantError
from sievenorm.expsum import TWO_PI_I

ALPHAS = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)


def naive_F(N, alpha):
    return complex(np.sum(np.exp(TWO_PI_I * alpha * np.arange(1, N + 1))))


# sha256 of kernel_coefficients(k_part3, N) bytes at the default Q, recorded
# from a build that took each c_q by a length-q FFT of its residue mask
K_PART3_LADDER = {
    1 << 10: "c25567499d86693272ce853f67b0a6a8d241efda9481dcf66a79d8b7799c070a",
    1 << 12: "2eaac9eb44b944475830a493f5eb7b4d9d22dbcc82075c86ed40a99d3dcee593",
    1 << 14: "356f394c1def0f014665fcb70c772c2f3b2c10d5ef2ec553c401f639f67fb980",
    1 << 16: "9078a41bd817f5c7b5bbaf35770291be003b43dae73596fef8db77328b7872cb",
}


def direct_k_part3(tables, N, Q):
    """N * sum_{q <= Q} mu(q) c_q(k), k = -N..N, with c_q(k mod q) summed directly."""
    k = np.arange(-N, N + 1)
    total = np.zeros(2 * N + 1, dtype=np.int64)
    for q in range(1, Q + 1):
        if tables.mobius[q]:
            c_q = np.array([sn.ramanujan_sum_direct(q, r) for r in range(q)])
            total += int(tables.mobius[q]) * c_q[k % q]
    return N * total.astype(float)


class TestEvalF:
    def test_frozen_values(self):
        assert sn.eval_F(5, 0.0) == pytest.approx(5.0)
        assert abs(sn.eval_F(2, 0.5)) == pytest.approx(0.0, abs=1e-12)
        assert sn.eval_F(100, 0.3) == pytest.approx(naive_F(100, 0.3), abs=1e-10)

    @settings(deadline=None, max_examples=150)
    @given(N=st.integers(1, 64), alpha=ALPHAS)
    def test_matches_direct_sum(self, N, alpha):
        assert sn.eval_F(N, alpha) == pytest.approx(naive_F(N, alpha), abs=1e-9 * N)

    @settings(deadline=None, max_examples=150)
    @given(N=st.integers(1, 300), alpha=ALPHAS)
    def test_magnitude_bound(self, N, alpha):
        assert abs(sn.eval_F(N, alpha)) <= N

    def test_near_integer_fallback(self):
        # points inside the sine-ratio danger zone still match the direct sum
        for N in (10, 100, 1000):
            for eps in (0.0, 1e-12, 1.0 / (8.0 * N * N)):
                assert sn.eval_F(N, 1.0 + eps) == pytest.approx(
                    naive_F(N, 1.0 + eps), abs=1e-9 * N
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            sn.eval_F(0, 0.3)


class TestEvalT:
    def test_frozen_values(self):
        assert sn.eval_T(8, 0.0) == pytest.approx(8.0)
        assert sn.eval_T(8, 3.0 / 8.0) == pytest.approx(0.0, abs=1e-12)

    def test_spectral_cross_check(self):
        # T_N(alpha) = sum_{|k| <= N} (1 - |k|/N) e(k alpha), summed naively
        N, alpha = 64, 0.237
        k = np.arange(-N, N + 1)
        spectral = float(np.sum((1 - np.abs(k) / N) * np.exp(TWO_PI_I * k * alpha)).real)
        assert sn.eval_T(N, alpha) == pytest.approx(spectral, abs=1e-8)

    @settings(deadline=None, max_examples=100)
    @given(N=st.integers(1, 128), alpha=ALPHAS)
    def test_nonnegative_and_consistent_with_F(self, N, alpha):
        t = sn.eval_T(N, alpha)
        assert t >= 0.0
        assert t == pytest.approx(abs(sn.eval_F(N, alpha)) ** 2 / N, rel=1e-9, abs=1e-9)

    def test_array_matches_scalar(self):
        # the array form keeps eval_F's fallback within 1/(4N^2) of an integer
        N = 64
        alphas = np.array(
            [[0.0, 1e-12, 1.0 / (8.0 * N * N), 1.0 - 1e-9], [0.237, 0.5, 3.0 / 8.0, -2.0]]
        )
        got = sn.eval_T(N, alphas)
        assert got.shape == alphas.shape
        want = [[sn.eval_T(N, float(a)) for a in row] for row in alphas]
        assert got.tolist() == want
        from_f = [[abs(sn.eval_F(N, float(a))) ** 2 / N for a in row] for row in alphas]
        np.testing.assert_allclose(got, from_f, rtol=1e-9, atol=1e-9)
        assert isinstance(sn.eval_T(N, 0.25), float)

    def test_fejer_decay_bound(self, rng):
        # T_N <= 4 * min(N, 1/(N ||alpha||^2)) across a large random sample
        for N in (64, 256):
            alphas = rng.uniform(0.0, 1.0, 10_000)
            dist = sn.distance_to_nearest_integer(alphas)
            cap = 4.0 * np.minimum(N, 1.0 / (N * np.maximum(dist, 1e-300) ** 2))
            vals = np.array([sn.eval_T(N, a) for a in alphas])
            assert np.all(vals <= cap + 1e-9)


class TestDistance:
    def test_frozen_values(self):
        assert sn.distance_to_nearest_integer(0.7) == pytest.approx(0.3)
        assert sn.distance_to_nearest_integer(-1.5) == pytest.approx(0.5)
        assert sn.distance_to_nearest_integer(3.0) == 0.0

    def test_array_input(self):
        out = sn.distance_to_nearest_integer(np.array([0.25, 1.75, -0.1]))
        np.testing.assert_allclose(out, [0.25, 0.25, 0.1])

    @settings(deadline=None, max_examples=200)
    @given(x=st.floats(-100, 100, allow_nan=False))
    def test_properties(self, x):
        d = sn.distance_to_nearest_integer(x)
        assert 0.0 <= d <= 0.5
        assert sn.distance_to_nearest_integer(-x) == pytest.approx(d, abs=1e-12)
        assert sn.distance_to_nearest_integer(x + 1.0) == pytest.approx(d, abs=1e-9)


class TestKernelSpec:
    def test_defaults(self):
        assert sn.KernelSpec("gstar", 256).P == 4
        assert sn.KernelSpec("h", 256).P == 16
        assert sn.KernelSpec("h_truncated", 100).P == 10
        assert sn.KernelSpec("k_part3", 4).Q == 2
        assert sn.KernelSpec("fejer", 7).P is None
        # tiny N clamps up to the minimum legal P
        assert sn.KernelSpec("gstar", 4).P == 2
        assert sn.KernelSpec("gstar", 20).P == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            sn.KernelSpec("fejer", 8, P=3)
        with pytest.raises(ValueError):
            sn.KernelSpec("gstar", 8, Q=3)
        with pytest.raises(ValueError):
            sn.KernelSpec("gstar", 8, P=1)
        with pytest.raises(ValueError):
            sn.KernelSpec("k_part3", 8, P=2)
        with pytest.raises(ValueError):
            sn.KernelSpec("k_part3", 8, Q=0)
        with pytest.raises(ValueError):
            sn.KernelSpec("nope", 8)
        with pytest.raises(ValueError):
            sn.KernelSpec("fejer", 0)


class TestKernelCoefficients:
    def test_frozen_gstar(self, tables):
        spec = sn.KernelSpec("gstar", 20, P=2)
        c = sn.kernel_coefficients(tables, spec)
        assert c[20 + 4] == pytest.approx(4.0)
        assert c[20 + 6] == pytest.approx(0.0)
        assert c[20 + 0] == pytest.approx(4.0)
        np.testing.assert_allclose(c, c[::-1])  # even in k

    def test_frozen_h(self, tables):
        spec = sn.KernelSpec("h", 20, P=3)
        d = sn.kernel_coefficients(tables, spec)
        assert d[20 + 6] == pytest.approx(2.5)
        assert d[20 + 1] == pytest.approx(0.0)
        assert d[20 + 0] == pytest.approx(2.5)

    def test_gstar_vanishes_on_squarefree(self, tables):
        N, P = 100, 3
        c = sn.kernel_coefficients(tables, sn.KernelSpec("gstar", N, P=P))
        for k in range(-N, N + 1):
            if k != 0 and tables.mobius[abs(k)] != 0:
                assert c[N + k] == 0.0

    def test_h_zero_pattern(self, tables):
        N, P = 60, 5
        d = sn.kernel_coefficients(tables, sn.KernelSpec("h", N, P=P))
        for k in range(1, N + 1):
            spf = int(tables.spf[k]) if k > 1 else 0
            expect_zero = k == 1 or spf > P
            assert (d[N + k] == 0.0) == expect_zero

    def test_h_truncated_zeroes_low_band(self, tables):
        N, P = 64, 8
        d_full = sn.kernel_coefficients(tables, sn.KernelSpec("h", N, P=P))
        d_trunc = sn.kernel_coefficients(tables, sn.KernelSpec("h_truncated", N, P=P))
        assert np.all(d_trunc[N - P : N + P + 1] == 0.0)
        np.testing.assert_array_equal(d_trunc[: N - P], d_full[: N - P])
        np.testing.assert_array_equal(d_trunc[N + P + 1 :], d_full[N + P + 1 :])

    def test_fejer_is_the_single_modulus_one(self, tables):
        for N in (1, 2, 17):
            c = sn.kernel_coefficients(tables, sn.KernelSpec("fejer", N))
            assert c.tolist() == [1.0] * (2 * N + 1)
        assert sn.kernel_coefficients(tables, sn.KernelSpec("k_part3", 8)).shape == (17,)

    @pytest.mark.parametrize("kind", ["gstar", "h"])
    def test_spike_trains_at_large_p(self, tables_mid, kind):
        # the mean of q*[q | k] over q = p^2 (gstar) or q = p (h), p <= P, exactly
        N, P = 64, 30_000
        k = np.arange(-N, N + 1)
        ps = tables_mid.primes[tables_mid.primes <= P]
        moduli = ps * ps if kind == "gstar" else ps
        want = np.mean([np.where(k % q == 0, q, 0) for q in moduli.tolist()], axis=0)
        got = sn.kernel_coefficients(tables_mid, sn.KernelSpec(kind, N, P=P))
        np.testing.assert_array_equal(got, want)

    def test_k_part3_is_mobius_weighted_ramanujan_sum(self, tables):
        # N * sum_{q <= Q} mu(q) c_q(k), exactly, at Q = 1, 2, 6, a prime and N
        N = 48
        for Q in (1, 2, 6, 47, 48):
            c = sn.kernel_coefficients(tables, sn.KernelSpec("k_part3", N, Q=Q))
            np.testing.assert_array_equal(c, direct_k_part3(tables, N, Q))

    @settings(deadline=None, max_examples=40)
    @given(N=st.integers(1, 40), data=st.data())
    def test_k_part3_matches_direct_sums(self, tables, N, data):
        Q = data.draw(st.integers(1, N), label="Q")
        c = sn.kernel_coefficients(tables, sn.KernelSpec("k_part3", N, Q=Q))
        np.testing.assert_array_equal(c, direct_k_part3(tables, N, Q))

    @pytest.mark.parametrize("N", sorted(K_PART3_LADDER))
    def test_k_part3_ladder_pinned(self, tables_mid, N):
        c = sn.kernel_coefficients(tables_mid, sn.KernelSpec("k_part3", N))
        assert hashlib.sha256(c.tobytes()).hexdigest() == K_PART3_LADDER[N]


class TestSpikeTrainOrthogonality:
    def test_small_moduli(self):
        # sum_{a=1}^q e(a n / q) = q * [q | n], to 1e-9, for q <= 50, |n| <= 200
        n = np.arange(-200, 201)
        for q in range(1, 51):
            a = np.arange(1, q + 1)
            sums = np.exp(TWO_PI_I * np.outer(a, n) / q).sum(axis=0)
            expected = np.where(n % q == 0, q, 0.0)
            assert np.max(np.abs(sums - expected)) <= 1e-9


class TestTranslationIdentity:
    def test_fejer_translates_match_spike_spectrum(self, tables, rng):
        # sum_{a=1}^q T_N(alpha - a/q) == sum_{|k|<=N} (1-|k|/N) q [q|k] e(k alpha)
        for q in range(1, 11):
            for N in (8, 64):
                alpha = float(rng.uniform())
                lhs = sum(sn.eval_T(N, alpha - a / q) for a in range(1, q + 1))
                k = np.arange(-N, N + 1)
                coef = np.where(k % q == 0, float(q), 0.0) * (1 - np.abs(k) / N)
                rhs = float(np.sum(coef * np.exp(TWO_PI_I * k * alpha)).real)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestDuality:
    @pytest.mark.parametrize(
        "spec",
        [
            sn.KernelSpec("gstar", 256, P=4),
            sn.KernelSpec("h", 256, P=16),
            sn.KernelSpec("h_truncated", 128, P=8),
            sn.KernelSpec("fejer", 64),
        ],
        ids=lambda s: f"{s.kind}-{s.N}",
    )
    def test_translate_vs_spectral(self, tables, spec, rng):
        alphas = rng.uniform(0.0, 1.0, 100)
        assert sn.duality_gap(tables, spec, alphas) <= 1e-6

    def test_frozen_point(self, tables):
        spec = sn.KernelSpec("gstar", 256, P=4)
        assert sn.duality_gap(tables, spec, [0.41]) <= 1e-6

    @pytest.mark.parametrize(
        "spec",
        [
            sn.KernelSpec("gstar", 64, P=100),
            sn.KernelSpec("h", 64, P=100),
            sn.KernelSpec("h_truncated", 64, P=100),
            sn.KernelSpec("k_part3", 64, Q=100),
        ],
        ids=lambda s: s.kind,
    )
    def test_both_routes_need_tables_up_to_the_side_parameter(self, spec):
        # tables to 64 hold the primes <= 61 only, so P = 100 must not pass as P = 61
        small = sn.build_tables(64)
        for route in (sn.eval_kernel, sn.eval_kernel_spectral):
            with pytest.raises(ValueError, match="tables cover n <= 64"):
                route(small, spec, 0.1)

    @pytest.mark.parametrize("route", [sn.eval_kernel, sn.eval_kernel_spectral])
    def test_route_caches_let_the_tables_go(self, route):
        tables = sn.build_tables(256)
        assert route(tables, sn.KernelSpec("h", 256), 0.1) == route(
            tables, sn.KernelSpec("h", 256), 0.1
        )
        ref = weakref.ref(tables)
        del tables
        gc.collect()
        assert ref() is None

    def test_k_part3_duality(self, tables_mid, rng):
        for N in (1 << 8, 1 << 14):
            alphas = np.concatenate([[0.0, 0.5, 1.0 / 3.0], rng.uniform(0.0, 1.0, 5)])
            assert sn.duality_gap(tables_mid, sn.KernelSpec("k_part3", N), alphas) <= 1e-9


class TestLowFrequencyValue:
    @settings(deadline=None, max_examples=60)
    @given(N=st.integers(1, 2048), P=st.integers(2, 4096), alpha=ALPHAS)
    def test_slice_matches_full_spectral_weights(self, tables, N, P, alpha):
        # the helper reads 2*min(P, N) + 1 weights; the full formula builds all 2N + 1
        w = sn.spectral_weights(tables, sn.KernelSpec("h", N, P=P))
        k = np.arange(1, min(P, N) + 1)
        full = float(w[N] + 2.0 * np.dot(w[N + k], np.cos(expsum.TWO_PI * alpha * k)))
        spec = sn.KernelSpec("h_truncated", N, P=P)
        assert expsum._low_frequency_value(tables, spec, alpha) == full


class TestKPart3:
    def test_frozen_origin_value(self, tables):
        # only q=1 contributes: |F_4(0)|^2 = 16
        assert sn.eval_kernel(tables, sn.KernelSpec("k_part3", 4, Q=1), 0.0) == pytest.approx(16.0)

    def test_matches_ramanujan_expansion(self, tables, rng):
        # cross-check against sum_{|k|<=N} (N-|k|) (sum_{q<=Q} mu(q) c_q(k)) e(k alpha)
        N, Q = 48, 6
        k = np.arange(-N, N + 1)
        coef = np.zeros(2 * N + 1)
        for q in range(1, Q + 1):
            mq = int(tables.mobius[q])
            if mq == 0:
                continue
            coef += mq * np.array([sn.ramanujan_sum(tables, q, int(kk)) for kk in k], float)
        weights = (N - np.abs(k)) * coef
        spec = sn.KernelSpec("k_part3", N, Q=Q)
        for alpha in rng.uniform(0.0, 1.0, 8):
            rhs = float(np.sum(weights * np.exp(TWO_PI_I * k * alpha)).real)
            assert sn.eval_kernel(tables, spec, alpha) == pytest.approx(
                rhs, rel=1e-9, abs=1e-6 * N
            )


class TestEvalSequence:
    def test_matches_naive_loop(self, tables, rng):
        coeffs = rng.normal(size=30) + 1j * rng.normal(size=30)
        seq = sn.CoefficientSequence(30, coeffs)
        pts = rng.uniform(0, 1, 10)
        got = sn.eval_sequence(seq, pts)
        for i, alpha in enumerate(pts):
            want = sum(coeffs[n - 1] * np.exp(TWO_PI_I * n * alpha) for n in range(1, 31))
            assert got[i] == pytest.approx(want, abs=1e-10)


    @pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 1000, 4097])
    def test_two_level_powers_stay_within_the_stated_drift(self, rng, N):
        # H*K >= N pads the coefficients; the reference reduces n*a mod q in integers,
        # so it takes e(n*a/q) with no phase drift at all
        coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
        seq = sn.CoefficientSequence(N, coeffs)
        q = 9973
        a = np.array([0, 1, 17, 4986, 4987, 9972, *rng.integers(0, q, 20)])
        got = sn.eval_sequence(seq, a / q)
        n = np.arange(1, N + 1)
        want = np.exp((TWO_PI_I / q) * (np.multiply.outer(a, n) % q)) @ coeffs
        s = np.abs(coeffs).sum()
        # largesieve._cross_check's drift: 22 * N * eps of phase, 16 * sqrt(N) * eps of powers
        bound = (22 * N + 16 * math.sqrt(N)) * np.finfo(float).eps * s
        assert np.max(np.abs(got - want)) <= bound


class TestKernelRow:
    """Rows of the split M = D*B against the whole-grid reference."""

    @pytest.mark.parametrize("kind", sn.KERNEL_KINDS)
    @pytest.mark.parametrize("M", [8 * 128, 1000, 8 * 128 + 1, 200, 7])
    def test_rows_rebuild_the_grid(self, tables, kind, M):
        # M = 8N splits into 4 rows of 2N; 1000 = 4 * 250 (B not a power of
        # two); 1025 = 5 * 205 is odd; 200 < 2N + 1 aliases into 4 rows of 50;
        # 7 = 7 * 1 folds 257 weights into each one-bin row, residue by residue
        spec = sn.KernelSpec(kind, 128)
        B = expsum.row_split(M, max(1, M // 4))
        D = M // B
        rows = [expsum.kernel_row(tables, spec, M, B, s) for s in range(D)]
        want = sn.grid_eval_kernel(tables, spec, M).values
        got = np.stack(rows, axis=1).reshape(M)  # sample j = D*i + s
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for s in range(1, D):  # the mirror: row D - s is row s reversed
            assert np.max(np.abs(rows[D - s] - rows[s][::-1])) <= 1e-12 * np.max(np.abs(want))

    def test_split_takes_the_largest_divisor_near_the_width(self):
        assert expsum.row_split(8 * 1024, 2 * 1024) == 2 * 1024
        assert expsum.row_split(1 << 24, 1 << 22) == expsum._CHUNK
        assert expsum.row_split(1001, 250) == 143
        assert expsum.row_split(211, 52) == 211  # prime: one row
        assert expsum.row_split(2 * 211, 105) == 2 * 211

    def test_asymmetric_coefficients_raise(self, tables, monkeypatch):
        spec = sn.KernelSpec("gstar", 64, P=2)
        c = np.array(sn.kernel_coefficients(tables, spec))
        c[0] += 1e-12
        monkeypatch.setattr(expsum, "kernel_coefficients", lambda tables, spec: c)
        with pytest.raises(InvariantError, match="not even"):
            expsum.kernel_row(tables, spec, 512, 128, 0)


class TestGridEvalSequence:
    def test_frozen_examples(self, tables):
        ones3 = sn.coefficient_sequence(tables, "ones", 3)
        assert sn.grid_eval_sequence(ones3, 4).values[0] == pytest.approx(3.0)
        ones4 = sn.coefficient_sequence(tables, "ones", 4)
        assert abs(sn.grid_eval_sequence(ones4, 4).values[1]) == pytest.approx(0.0, abs=1e-12)

    def test_spot_check_against_pointwise(self, tables):
        seq = sn.coefficient_sequence(tables, "random_complex", 100, seed=3)
        grid = sn.grid_eval_sequence(seq, 512)
        for j in (7, 131, 500):
            want = sn.eval_sequence(seq, [j / 512.0])[0]
            assert grid.values[j] == pytest.approx(want, abs=1e-9)

    def test_direct_path_small_grid(self, tables):
        # M < N + 1 folds the coefficients mod M before the FFT
        seq = sn.coefficient_sequence(tables, "random_complex", 40, seed=5)
        grid = sn.grid_eval_sequence(seq, 16)
        want = sn.eval_sequence(seq, np.arange(16) / 16.0)
        np.testing.assert_allclose(grid.values, want, atol=1e-10)

    @pytest.mark.parametrize("M", [16, 64, 100, 101, 512])
    @pytest.mark.parametrize("shift", [0.5, 0.3, 3.75])
    def test_shifted_grid_matches_pointwise(self, tables, M, shift):
        # M <= N folds the coefficients, M > N places each in its own bin
        seq = sn.coefficient_sequence(tables, "random_complex", 100, seed=9)
        grid = sn.grid_eval_sequence(seq, M, shift=shift)
        want = sn.eval_sequence(seq, (np.arange(M) + shift) / M)
        np.testing.assert_allclose(grid.values, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("M", [16, 512])
    def test_grid_is_handed_over(self, tables, M, monkeypatch):
        # the transformed array becomes the grid itself: GridEvaluation would
        # copy a view (16 MiB at M = 2^20), so the primitive must own its memory
        made, inverse_fold = [], expsum._inverse_fold

        def spy(*args):
            made.append(inverse_fold(*args))
            return made[-1]

        monkeypatch.setattr(expsum, "_inverse_fold", spy)
        seq = sn.coefficient_sequence(tables, "random_complex", 100, seed=9)
        grid = sn.grid_eval_sequence(seq, M, shift=0.5)
        assert grid.values.base is None and grid.values is made[0]

    def test_budget(self, tables):
        seq = sn.coefficient_sequence(tables, "ones", 4)
        with pytest.raises(CapacityError):
            sn.grid_eval_sequence(seq, 1 << 25)
        with pytest.raises(ValueError):
            sn.grid_eval_sequence(seq, 0)


class TestGridEvalKernel:
    def test_frozen_fejer(self, tables):
        grid = sn.grid_eval_kernel(tables, sn.KernelSpec("fejer", 4), 8)
        assert grid.values[0] == pytest.approx(4.0)

    def test_gstar_grid_matches_pointwise(self, tables, rng):
        spec = sn.KernelSpec("gstar", 64, P=2)
        grid = sn.grid_eval_kernel(tables, spec, 256)
        for j in rng.integers(0, 256, 10):
            want = sn.eval_kernel(tables, spec, j / 256.0)
            assert grid.values[j] == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_h_truncated_stays_near_fejer(self, tables):
        N, P, M = 64, 8, 256
        ht = sn.grid_eval_kernel(tables, sn.KernelSpec("h_truncated", N, P=P), M)
        h = sn.grid_eval_kernel(tables, sn.KernelSpec("h", N, P=P), M)
        gap = float(np.max(np.abs(h.values - ht.values)))
        assert gap <= 3.0 * P * (1.0 + 1e-9)

    def test_k_part3_grid_matches_pointwise(self, tables):
        for N, Q, M in ((100, 10, 512), (4096, 64, 4 * 4096)):
            spec = sn.KernelSpec("k_part3", N, Q=Q)
            grid = sn.grid_eval_kernel(tables, spec, M)
            for j in (0, 1, M // 10 + 1, M // 2, M - 12):
                want = sn.eval_kernel(tables, spec, j / M)
                assert grid.values[j] == pytest.approx(want, rel=1e-8, abs=1e-6)

    def test_matches_spectral_at_exact_resolution(self, tables):
        # M = 2N + 1 is the smallest alias-free grid
        spec = sn.KernelSpec("gstar", 64, P=2)
        M = 129
        grid = sn.grid_eval_kernel(tables, spec, M)
        for j in (0, 17, 64, 100):
            want = sn.eval_kernel_spectral(tables, spec, j / M)
            assert grid.values[j] == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize(
        "spec, M",
        [(sn.KernelSpec("gstar", 64, P=2), 100), (sn.KernelSpec("k_part3", 100, Q=10), 150)],
        ids=["gstar", "k_part3"],
    )
    def test_aliased_grid_matches_translates(self, tables, spec, M):
        # M < 2N + 1 folds the 2N + 1 weights mod M before the inverse FFT
        grid = sn.grid_eval_kernel(tables, spec, M)
        want = [sn.eval_kernel(tables, spec, j / M) for j in range(M)]
        np.testing.assert_allclose(grid.values, want, rtol=1e-8, atol=1e-6)
        assert grid.values.base is None

    @pytest.mark.parametrize(
        "spec, M",
        [
            (sn.KernelSpec("fejer", 16), 33),
            (sn.KernelSpec("gstar", 64, P=3), 129),
            (sn.KernelSpec("h", 64, P=8), 127),
            (sn.KernelSpec("h_truncated", 64, P=8), 45),
            (sn.KernelSpec("k_part3", 100, Q=10), 151),
            (sn.KernelSpec("k_part3", 100, Q=10), 7),
        ],
        ids=["fejer-33", "gstar-129", "h-127", "h_truncated-45", "k_part3-151", "k_part3-7"],
    )
    def test_odd_and_aliased_irfft_grids_match_translates(self, tables, spec, M):
        # irfft of the bins b[0..M//2] gives all M values at odd M and under aliasing
        grid = sn.grid_eval_kernel(tables, spec, M)
        want = [sn.eval_kernel(tables, spec, j / M) for j in range(M)]
        np.testing.assert_allclose(grid.values, want, rtol=1e-8, atol=1e-6)

    @pytest.mark.parametrize("kind", sn.KERNEL_KINDS)
    @pytest.mark.parametrize(
        "factor, extra", [(1, 0), (2, 0), (2, 1), (8, 0)], ids=["N", "2N", "2N+1", "8N"]
    )
    def test_half_spectrum_fold_matches_full_bincount(self, tables, kind, factor, extra):
        # the reference folds all M bins with one length-M real bincount, as
        # grid_eval_kernel once did; M = N aliases, M = 2N only k = +-N, and
        # M = 2N + 1 is the smallest alias-free grid
        for N in (64, 101):
            spec, M = sn.KernelSpec(kind, N), factor * N + extra
            w = sn.spectral_weights(tables, spec)
            bins = np.bincount(np.arange(-N, N + 1) % M, weights=w, minlength=M)
            want = np.fft.irfft(bins[: M // 2 + 1], n=M, norm="forward")
            got = sn.grid_eval_kernel(tables, spec, M).values
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_asymmetric_weights_raise(self, tables, monkeypatch):
        spec = sn.KernelSpec("gstar", 64, P=2)
        w = np.array(sn.spectral_weights(tables, spec))
        w[0] += 1e-12
        monkeypatch.setattr(expsum, "spectral_weights", lambda tables, spec: w)
        with pytest.raises(InvariantError, match="not even"):
            sn.grid_eval_kernel(tables, spec, 256)

    def test_values_are_read_only(self, tables):
        grid = sn.grid_eval_kernel(tables, sn.KernelSpec("fejer", 8), 32)
        with pytest.raises(ValueError):
            grid.values[0] = 1.0

    def test_caller_base_array_cannot_change_values(self):
        base = np.arange(8.0)
        grid = sn.GridEvaluation(M=4, values=base[::2])
        base[:] = -1.0
        assert grid.values.tolist() == [0.0, 2.0, 4.0, 6.0]
        with pytest.raises(ValueError):
            grid.values[0] = 1.0
        owned = np.arange(4.0)
        assert sn.GridEvaluation(M=4, values=owned).values is owned  # frozen, not copied
        assert not owned.flags.writeable


class TestCoefficientSequenceType:
    def test_validation(self):
        with pytest.raises(ValueError):
            sn.CoefficientSequence(0, [])
        with pytest.raises(ValueError):
            sn.CoefficientSequence(3, [1.0, 2.0])

    def test_coeffs_read_only(self):
        seq = sn.CoefficientSequence(3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            seq.coeffs[0] = 5.0

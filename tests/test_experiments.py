import dataclasses
import inspect
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import sievenorm as sn
import sievenorm.cli as cli
import sievenorm.experiments as experiments
import sievenorm.expsum as expsum
from sievenorm.experiments import (
    EXPERIMENTS,
    GAP_KINDS,
    ExperimentRow,
    SuiteConfig,
    kernel_gap_rows,
    lambda_kernel_integral_row,
    lambda_l1_bounds,
    large_sieve_trials,
    mangoldt_weighted_sum_row,
    mobius_ramanujan_weighted_sum,
    prime_count_floor_row,
    prime_support_experiments,
    run_suite,
    sieve_check_row,
    squarefree_theorem_ratio,
)


def brute_weighted_sum(tables, N, Q):
    total = 0.0
    for q in range(1, Q + 1):
        mq = tables.mobius[q]
        if mq == 0:
            continue
        inner = 0.0
        for n in range(1, N + 1):
            lam = tables.mangoldt[n]
            if lam:
                inner += (N - n) * lam * sn.ramanujan_sum(tables, q, -n)
        total += mq * inner
    return total


class TestWeightedSum:
    def test_matches_brute_force(self, tables):
        for N, Q in [(16, 1), (30, 5), (64, 8), (50, 7)]:
            fast = mobius_ramanujan_weighted_sum(tables, N, Q)
            assert fast == pytest.approx(brute_weighted_sum(tables, N, Q), rel=1e-12)

    def test_q1_is_chebyshev_weighted(self, tables):
        # c_1(n) = 1, so Q = 1 reduces to sum (N - n) Lambda(n)
        lam = tables.mangoldt[:17]
        expected = sum((16 - n) * lam[n] for n in range(1, 17))
        assert mobius_ramanujan_weighted_sum(tables, 16, 1) == pytest.approx(expected)

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            mobius_ramanujan_weighted_sum(tables, 16, 0)
        with pytest.raises(ValueError):
            mobius_ramanujan_weighted_sum(tables, 16, 17)
        with pytest.raises(ValueError):
            mobius_ramanujan_weighted_sum(tables, tables.n_max + 1, 4)


class TestVaughanV:
    """The weighted sum's two routes, through the lambda_kernel_integral row."""

    @pytest.mark.parametrize("N,Q", [(64, 4), (256, 16)])
    def test_routes_agree_tightly(self, tables, N, Q):
        row = lambda_kernel_integral_row(tables, N, Q)
        v_spectral, v_quadrature = row.measured["v_spectral"], row.measured["v_quadrature"]
        assert row.measured["routes_agree"]
        assert v_quadrature == pytest.approx(v_spectral, rel=1e-9, abs=1e-6 * N * N)
        assert row.reference["target"] == pytest.approx(3.0 * Q * N * N / math.pi**2)

    @pytest.mark.parametrize("N,Q", [(256, 16), (1024, 32), (4096, 64)])
    def test_route_gap_within_roundoff_bound(self, tables, N, Q):
        row = lambda_kernel_integral_row(tables, N, Q)
        assert row.passed
        assert row.ratios["route_gap_over_bound"] <= 1.0

    def test_routes_disagree_on_a_1e9_perturbation(self, tables, tables_mid, monkeypatch):
        # coefficients off by 1e-9 relative put the quadrature route far outside the bound
        original = experiments.kernel_coefficients
        monkeypatch.setattr(
            experiments, "kernel_coefficients", lambda t, spec: original(t, spec) * (1.0 + 1e-9)
        )
        for t, N, Q in [(tables, 1024, 32), (tables_mid, 65536, 256)]:
            row = lambda_kernel_integral_row(t, N, Q)
            v_spectral = row.measured["v_spectral"]
            assert row.measured["v_quadrature"] == pytest.approx(v_spectral, rel=2e-9)
            assert not row.measured["routes_agree"]
            assert row.ratios["route_gap_over_bound"] > 1.0

    @pytest.mark.parametrize("N", [64, 256, 1024, 4096])
    def test_parseval_sum_matches_the_grid_mean(self, tables, N):
        # the rectangle rule on 4N points is exact for the degree-2N product S_Lambda * K
        M = 4 * N
        spec = sn.KernelSpec("k_part3", N)
        s_grid = sn.grid_eval_sequence(sn.coefficient_sequence(tables, "mangoldt", N), M).values
        mean = complex(np.dot(s_grid, sn.grid_eval_kernel(tables, spec, M).values)) / M
        v_quadrature = lambda_kernel_integral_row(tables, N).measured["v_quadrature"]
        assert mean.real == pytest.approx(v_quadrature, rel=1e-12)
        assert abs(mean.imag) <= 1e-12 * abs(v_quadrature)

    def test_row_builds_no_grid_at_2_18(self, tables_big):
        # S_Lambda and the kernel on 4N points would peak at 52 MiB here
        tracemalloc.start()
        try:
            lambda_kernel_integral_row(tables_big, 1 << 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_default_q(self, tables):
        assert lambda_kernel_integral_row(tables, 256).params["q"] == 16

    def test_ratio_tightens_with_n(self, tables_mid):
        small = lambda_kernel_integral_row(tables_mid, 10**3).ratios["v_over_target"]
        large = lambda_kernel_integral_row(tables_mid, 10**4).ratios["v_over_target"]
        assert 0.7 <= large <= 1.3
        assert abs(large - 1.0) < abs(small - 1.0)

    def test_crude_magnitude_bound(self, tables):
        # |c_q| <= phi(q) termwise, so |V| <= sum_{q<=Q} phi(q) * sum (N-n) Lambda(n)
        N, Q = 128, 11
        row = lambda_kernel_integral_row(tables, N, Q)
        lam = tables.mangoldt[: N + 1]
        cheb = float(np.dot(N - np.arange(N + 1), lam))
        crude = float(np.sum(tables.phi[1 : Q + 1])) * cheb
        assert abs(row.measured["v_spectral"]) <= crude


def gap_row(tables, N, kind, M=None):
    """The kernel_gap row of one (kind, N), by a one-element ``kernel_gap_rows`` call."""
    (row,) = kernel_gap_rows(tables, [N], None, [kind], M)
    return row


class TestKernelGapScan:
    """One (kind, N) at a time."""

    @pytest.mark.parametrize("kind", ["gstar", "h", "h_truncated"])
    def test_invariants_hold_at_1024(self, tables, kind):
        row = gap_row(tables, 1024, kind)
        assert row.experiment == "kernel_gap"
        assert row.params["kind"] == kind and row.params["n"] == 1024
        assert row.params["m"] == 8192
        assert row.measured["invariant_ok"] is True
        assert row.passed is True
        assert row.measured["max_gap"] <= row.reference["certified_ceiling"]
        assert row.ratios["gap_over_certified"] <= 1.0
        if kind != "h_truncated":
            assert row.measured["min_kernel_value"] >= row.reference["nonneg_floor"]

    def test_default_p(self, tables):
        assert gap_row(tables, 1024, "gstar").params["p"] == 5
        assert gap_row(tables, 1024, "h").params["p"] == 32

    def test_truncation_fields(self, tables):
        row = gap_row(tables, 256, "h_truncated")
        P = row.params["p"]
        assert row.measured["truncation_gap"] <= 3.0 * P * (1.0 + 1e-9)
        assert row.reference["truncation_ceiling"] == 3.0 * P
        assert row.reference["truncation_tolerance"] == 3.0 * P * (1.0 + 1e-9)
        assert row.ratios["truncation_over_3p"] <= 1.0 + 1e-9

    def test_low_resolution_warning(self, tables):
        with pytest.warns(UserWarning, match="under-resolve"):
            row = gap_row(tables, 256, "h", M=512)
        assert "under-resolve" in row.detail

    def test_validation(self, tables):
        for kind in ("fejer", "k_part3"):
            row = gap_row(tables, 256, kind)
            assert row.measured == {"invariant_ok": True, "error": "ValueError"}
            assert row.params == {"n": 256, "p": None, "kind": kind, "m": None}
            assert not row.passed
            assert row.detail.startswith("ValueError: kernel gap scan needs one of")


class TestKernelGapRows:
    """The suite's kernel_gap job: the whole ladder, T_N's grid shared per N."""

    def spy(self, monkeypatch):
        calls, original = [], experiments.grid_eval_kernel

        def counted(tables, spec, M):
            calls.append((spec.kind, spec.N, M))
            return original(tables, spec, M)

        monkeypatch.setattr(experiments, "grid_eval_kernel", counted)
        return calls

    def test_warm_peak_holds_two_grids_and_a_half_spectrum(self, tables_mid):
        # T_N's and one kernel's 4 MiB grid at N = 2^16, plus the kernel's
        # 4 MiB half spectrum and irfft's output while it is built
        kernel_gap_rows(tables_mid, [1 << 16])  # warm: the coefficients are cached
        tracemalloc.start()
        try:
            kernel_gap_rows(tables_mid, [1 << 16])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20

    def test_default_ladder_builds_each_grid_once_per_pass(self, tables_mid, monkeypatch):
        calls = self.spy(monkeypatch)
        cfg = SuiteConfig(experiments=(("kernel_gap", {}),))
        first = run_suite(cfg, tables=tables_mid)
        kinds = ("fejer", *GAP_KINDS)
        each_once = sorted((k, n, 8 * n) for n in experiments.DEFAULT_LADDER for k in kinds)
        assert sorted(calls) == each_once
        calls.clear()
        # no grid outlives a pass: the second builds all 16 again
        second = run_suite(cfg, tables=tables_mid)
        assert sorted(calls) == each_once
        calls.clear()
        scans = [
            gap_row(tables_mid, n, kind) for kind in GAP_KINDS for n in experiments.DEFAULT_LADDER
        ]
        assert len(calls) == 24  # one row at a time: T_N and the kind's own grid
        assert _strip_runtime(first) == scans
        assert _strip_runtime(second) == scans

    def test_lone_h_truncated_row_builds_no_h_grid(self, tables, monkeypatch):
        calls = self.spy(monkeypatch)
        gap_row(tables, 256, "h_truncated")
        assert calls == [("fejer", 256, 2048), ("h_truncated", 256, 2048)]

    def test_truncation_gap_is_the_low_frequency_value_at_zero(self, tables_mid):
        ladder = experiments.DEFAULT_LADDER
        rows = kernel_gap_rows(tables_mid, ladder, None, ["h_truncated"])
        for row, N in zip(rows, ladder):
            spec = expsum.KernelSpec("h_truncated", N)
            assert row.measured["truncation_gap"] == expsum._low_frequency_value(
                tables_mid, spec, 0.0
            )

    def test_failing_grid_fails_only_the_rows_that_read_it(self, tables, monkeypatch):
        original = experiments.grid_eval_kernel

        def no_h(tables, spec, M):
            if spec.kind == "h" and spec.N == 128:
                raise MemoryError("no room for h")
            return original(tables, spec, M)

        monkeypatch.setattr(experiments, "grid_eval_kernel", no_h)
        rows = experiments.kernel_gap_rows(tables, [64, 128])
        assert [(r.params["kind"], r.params["n"]) for r in rows] == [
            (kind, n) for kind in GAP_KINDS for n in (64, 128)
        ]
        failed = [r for r in rows if "error" in r.measured]
        # h_truncated reads no h grid: its truncation cost comes from h's coefficients
        assert [r.params for r in failed] == [{"n": 128, "p": None, "kind": "h", "m": None}]
        assert all(r.detail == "MemoryError: no room for h" for r in failed)
        assert all(r.passed for r in rows if r not in failed)

    def test_rejected_p_gives_error_rows(self, tables):
        rows = experiments.kernel_gap_rows(tables, [64, 128], 1)
        assert [r.params for r in rows] == [
            {"n": n, "p": 1, "kind": kind, "m": None} for kind in GAP_KINDS for n in (64, 128)
        ]
        assert all(r.measured == {"invariant_ok": True, "error": "ValueError"} for r in rows)
        assert all(r.detail == "ValueError: P must be >= 2, got 1" for r in rows)
        assert not any(r.passed for r in rows)

    def test_direct_call_times_no_row(self, tables):
        # run_job gives the job's rows their time; called directly, result and error rows read 0.0
        rows = kernel_gap_rows(tables, [64], kind=["gstar", "fejer"])
        assert [r.measured.get("error") for r in rows] == [None, "ValueError"]
        assert [r.runtime_s for r in rows] == [0.0, 0.0]


# Rows recorded at commit 3db415c, before the weighted-sum report and the
# one-row gap scan were folded into the row functions: (measured, ratios) per
# (N, Q), and per (m, kind, N) for kernel_gap.  The fold keeps them bit for bit.
# The lambda_kernel_integral pins at N = 256 were re-recorded when v_quadrature
# became the Parseval sum: it moved by 2e-16 relative and the route gap to 0.
LAMBDA_KERNEL_PINS = {
    (64, 8): (
        {
            "v_spectral": 8097.4754214632885,
            "v_quadrature": 8097.4754214632885,
            "routes_agree": True,
            "invariant_ok": True,
        },
        {"v_over_target": 0.8129768784320778, "route_gap_over_bound": 0.0},
    ),
    (256, 16): (
        {
            "v_spectral": 289097.16534376994,
            "v_quadrature": 289097.16534376994,
            "routes_agree": True,
            "invariant_ok": True,
        },
        {"v_over_target": 0.9070315855087693, "route_gap_over_bound": 0.0},
    ),
    (1024, 32): (
        {
            "v_spectral": 9323479.675567752,
            "v_quadrature": 9323479.675567752,
            "routes_agree": True,
            "invariant_ok": True,
        },
        {"v_over_target": 0.9141271912997033, "route_gap_over_bound": 0.0},
    ),
}
GAP_PINS = {
    (None, "gstar", 64): (
        {"max_gap": 64.0, "min_kernel_value": 0.0, "grid_m": 512, "invariant_ok": True},
        {"gap_over_certified": 0.810126582278481, "gap_over_scale": 0.6800929643978596},
    ),
    (None, "gstar", 128): (
        {
            "max_gap": 64.5625,
            "min_kernel_value": 0.05515209459025171,
            "grid_m": 1024,
            "invariant_ok": True,
        },
        {"gap_over_certified": 0.6207932692307693, "gap_over_scale": 0.3496627433309262},
    ),
    (None, "h", 64): (
        {
            "max_gap": 16.27206386791208,
            "min_kernel_value": 0.04740919075065464,
            "grid_m": 512,
            "invariant_ok": True,
        },
        {"gap_over_certified": 0.5125059485956561, "gap_over_scale": 0.4890755384846926},
    ),
    (None, "h", 128): (
        {
            "max_gap": 26.202875236889767,
            "min_kernel_value": 0.0727540613357048,
            "grid_m": 1024,
            "invariant_ok": True,
        },
        {"gap_over_certified": 0.5282837749372937, "gap_over_scale": 0.47733190434652584},
    ),
    (None, "h_truncated", 64): (
        {
            "max_gap": 16.1015625,
            "min_kernel_value": -14.331677458042137,
            "grid_m": 512,
            "truncation_gap": 16.1484375,
            "invariant_ok": True,
        },
        {
            "gap_over_certified": 0.28881726457399104,
            "gap_over_scale": 0.2811465544364555,
            "truncation_over_3p": 0.6728515625,
        },
    ),
    (None, "h_truncated", 128): (
        {
            "max_gap": 24.28705429800536,
            "min_kernel_value": -21.83840872456857,
            "grid_m": 1024,
            "truncation_gap": 23.278125000000003,
            "invariant_ok": True,
        },
        {
            "gap_over_certified": 0.2940321343584184,
            "gap_over_scale": 0.2763206622331733,
            "truncation_over_3p": 0.7053977272727273,
        },
    ),
    (1024, "gstar", 64): (
        {"max_gap": 64.0, "min_kernel_value": 0.0, "grid_m": 1024, "invariant_ok": True},
        {"gap_over_certified": 0.810126582278481, "gap_over_scale": 0.6800929643978596},
    ),
    (1024, "gstar", 128): (
        {
            "max_gap": 64.5625,
            "min_kernel_value": 0.05515209459025171,
            "grid_m": 1024,
            "invariant_ok": True,
        },
        {"gap_over_certified": 0.6207932692307693, "gap_over_scale": 0.3496627433309262},
    ),
    (1024, "h", 64): (
        {
            "max_gap": 16.272063867912085,
            "min_kernel_value": 0.047409190750655084,
            "grid_m": 1024,
            "invariant_ok": True,
        },
        {"gap_over_certified": 0.5125059485956562, "gap_over_scale": 0.4890755384846927},
    ),
    (1024, "h", 128): (
        {
            "max_gap": 26.202875236889767,
            "min_kernel_value": 0.0727540613357048,
            "grid_m": 1024,
            "invariant_ok": True,
        },
        {"gap_over_certified": 0.5282837749372937, "gap_over_scale": 0.47733190434652584},
    ),
    (1024, "h_truncated", 64): (
        {
            "max_gap": 16.1015625,
            "min_kernel_value": -14.331677458042137,
            "grid_m": 1024,
            "truncation_gap": 16.1484375,
            "invariant_ok": True,
        },
        {
            "gap_over_certified": 0.28881726457399104,
            "gap_over_scale": 0.2811465544364555,
            "truncation_over_3p": 0.6728515625,
        },
    ),
    (1024, "h_truncated", 128): (
        {
            "max_gap": 24.28705429800536,
            "min_kernel_value": -21.83840872456857,
            "grid_m": 1024,
            "truncation_gap": 23.278125000000003,
            "invariant_ok": True,
        },
        {
            "gap_over_certified": 0.2940321343584184,
            "gap_over_scale": 0.2763206622331733,
            "truncation_over_3p": 0.7053977272727273,
        },
    ),
}


@pytest.mark.parametrize("N,Q", sorted(LAMBDA_KERNEL_PINS))
def test_lambda_kernel_integral_row_is_pinned(tables, N, Q):
    row = lambda_kernel_integral_row(tables, N, Q)
    assert (row.measured, row.ratios) == LAMBDA_KERNEL_PINS[N, Q]


@pytest.mark.parametrize("m", [None, 1024])
def test_kernel_gap_rows_are_pinned(tables, m):
    rows = kernel_gap_rows(tables, [64, 128], None, GAP_KINDS, m)
    pinned = [GAP_PINS[m, kind, n] for kind in GAP_KINDS for n in (64, 128)]
    assert [(r.measured, r.ratios) for r in rows] == pinned


class TestSquarefreeRatio:
    def test_row_shape_and_autocorrelation(self, tables):
        row = squarefree_theorem_ratio(tables, 512, seed=42)
        assert row.experiment == "squarefree_l1"
        assert row.measured["invariant_ok"] is True
        assert row.passed is True
        assert "l1_autocorrelation" in row.measured
        assert row.measured["l1_autocorrelation"] <= row.reference["autocorrelation_bound"]
        assert row.ratios["ratio_mobius"] >= row.reference["empirical_floor"]

    def test_floor_miss_names_itself(self, tables):
        row = squarefree_theorem_ratio(tables, 1024, floor=1e9)
        assert row.passed is False
        assert row.measured["invariant_ok"] is True
        assert row.detail == (
            "mobius growth ratio below floor; random growth ratio below floor; "
            "mobius l1 below its floor"
        )

    def test_autocorrelation_gated_off_above_512(self, tables):
        row = squarefree_theorem_ratio(tables, 1024)
        assert "l1_autocorrelation" not in row.measured

    def test_odd_n_rejected(self, tables):
        with pytest.raises(ValueError):
            squarefree_theorem_ratio(tables, 15)


class TestPrimeSupport:
    def test_three_variants(self, tables):
        rows = prime_support_experiments(tables, 1024, seed=0)
        assert [r.params["variant"] for r in rows] == [
            "prime_indicator",
            "chi3_on_primes",
            "random_primes",
        ]
        for row in rows:
            assert row.experiment == "prime_l1"
            assert row.ratios["growth_ratio"] >= 0.1
            assert row.passed is True
        chi_row = rows[1]
        assert isinstance(chi_row.measured["chi3_prime_partial_sum"], int)

    def test_floor_miss_names_itself(self, tables):
        row = prime_support_experiments(tables, 1024, floor=1e9)[0]
        assert row.passed is False
        assert row.measured["invariant_ok"] is True
        assert row.detail == "growth ratio below floor"

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            prime_support_experiments(tables, 2)


class TestKernelAnnihilation:
    """The convolution of a kernel with sequences its coefficients avoid is 0.

    With M >= 2N + 1 grid points the discrete mean over beta = j/M picks out
    exactly the frequency-matched terms, so the result is an identity, not an
    approximation.
    """

    @pytest.mark.parametrize("P", [2, 3])
    def test_gstar_annihilates_squarefree_support(self, tables, rng, P):
        N = 64
        M = 2 * N + 2
        spec = sn.KernelSpec("gstar", N, P=P)
        seq = sn.coefficient_sequence(tables, "squarefree_random", N, seed=7)
        s_grid = sn.grid_eval_sequence(seq, M).values
        scale = N * float(np.sum(np.abs(seq.coeffs)))
        for alpha in rng.uniform(0, 1, 10):
            k_vals = np.array(
                [sn.eval_kernel(tables, spec, alpha - j / M) for j in range(M)]
            )
            mean = np.dot(k_vals, s_grid) / M
            assert abs(mean) <= 1e-6 * scale

    def test_h_truncated_annihilates_prime_support(self, tables, rng):
        N = 64
        M = 2 * N + 2
        spec = sn.KernelSpec("h_truncated", N, P=8)
        seq = sn.coefficient_sequence(tables, "random_primes", N, seed=11)
        s_grid = sn.grid_eval_sequence(seq, M).values
        scale = N * float(np.sum(np.abs(seq.coeffs)))
        for alpha in rng.uniform(0, 1, 10):
            k_vals = np.array(
                [sn.eval_kernel(tables, spec, alpha - j / M) for j in range(M)]
            )
            mean = np.dot(k_vals, s_grid) / M
            assert abs(mean) <= 1e-6 * scale

    def test_h_does_not_annihilate_small_primes(self, tables, rng):
        # the untruncated kernel keeps its low-frequency band, so the same
        # integral against a prime-supported sequence is decidedly nonzero
        N = 64
        M = 2 * N + 2
        spec = sn.KernelSpec("h", N, P=8)
        seq = sn.coefficient_sequence(tables, "prime_indicator", N)
        s_grid = sn.grid_eval_sequence(seq, M).values
        k_vals = np.array([sn.eval_kernel(tables, spec, -j / M) for j in range(M)])
        mean = np.dot(k_vals, s_grid) / M
        assert abs(mean) > 1e-3


class TestLambdaL1Bounds:
    def test_row_at_1024(self, tables):
        row = lambda_l1_bounds(tables, 1024)
        assert row.experiment == "lambda_l1"
        assert row.params["q"] == 32
        assert row.measured["invariant_ok"] is True
        assert row.passed is True
        assert row.measured["v_spectral"] == pytest.approx(
            mobius_ramanujan_weighted_sum(tables, 1024, 32)
        )
        assert row.measured["l1"] >= row.reference["analytic_lower"]
        assert 0.15 <= row.ratios["l1_over_sqrt_n"]
        assert row.ratios["l1_over_sqrt_nlogn"] <= math.sqrt(0.75)


class TestMangoldtWeightedSum:
    def test_band_at_2_14(self, tables_mid):
        row = mangoldt_weighted_sum_row(tables_mid, 1 << 14)
        assert 0.9 <= row.ratios["sum_over_target"] <= 1.1
        assert row.passed is True

    def test_small_n_records_without_gating(self, tables):
        row = mangoldt_weighted_sum_row(tables, 64)
        assert row.passed is True  # band only applies from 16384
        assert row.ratios["sum_over_target"] > 0

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            mangoldt_weighted_sum_row(tables, 1)


class TestPrimeCountFloor:
    def test_holds_on_tables(self, tables):
        row = prime_count_floor_row(tables)
        assert row.passed is True
        assert row.measured["min_ratio"] > 1.0
        assert 17 <= row.measured["argmin_n"] <= tables.n_max

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            prime_count_floor_row(tables, 16)

    @staticmethod
    def brute(tables, n_hi):
        """pi(n) * log(n) / n at every n in 17..n_hi, pi from a cumulative sum."""
        is_prime = np.zeros(n_hi + 1, dtype=np.int64)
        is_prime[tables.primes[tables.primes <= n_hi]] = 1
        n = np.arange(17, n_hi + 1)
        return n, np.cumsum(is_prime)[n] * np.log(n) / n

    def test_matches_every_n(self, tables):
        n, vals = self.brute(tables, 4000)
        for n_max in range(17, 4001):
            row = prime_count_floor_row(tables, n_max)
            arg = int(np.argmin(vals[: n_max - 16]))
            assert (row.measured["min_ratio"], row.measured["argmin_n"]) == (vals[arg], n[arg])

    @pytest.mark.parametrize("n_max", [10**6, 1 << 20])
    def test_matches_at_scale(self, tables_big, n_max):
        n, vals = self.brute(tables_big, n_max)
        arg = int(np.argmin(vals))
        row = prime_count_floor_row(tables_big, n_max)
        assert (row.measured["min_ratio"], row.measured["argmin_n"]) == (vals[arg], n[arg])


class TestLargeSieveTrials:
    def test_peak_holds_one_point_set(self, tables):
        # building reduced_farey(1000) peaks near 21 MiB on its own, so the
        # pass stays near that only while the other 33 sets are not kept
        tracemalloc.start()
        try:
            large_sieve_trials(tables, trials=200, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_each_drawn_set_is_built_once_and_dropped(self, tables, monkeypatch):
        alive, built, original = [], [], experiments.build_point_set

        def tracked(tables, kind, param):
            ps = original(tables, kind, param)
            built.append((kind, param))
            alive.append(weakref.ref(ps))
            assert sum(ref() is not None for ref in alive) == 1
            return ps

        monkeypatch.setattr(experiments, "build_point_set", tracked)
        large_sieve_trials(tables, trials=200, seed=7)
        assert len(built) == len(set(built)) == 34

    def test_small_batch(self, tables):
        row = large_sieve_trials(tables, trials=25, seed=3, max_param=165)
        assert row.experiment == "large_sieve"
        assert row.params == {"trials": 25, "seed": 3, "max_param": 165}
        assert row.measured["max_ratio"] <= 1.0 + 1e-9
        assert row.measured["mean_ratio"] <= row.measured["max_ratio"]
        assert row.measured["margin"] == 1.0 - row.measured["max_ratio"]
        assert row.passed is True
        assert row.detail.startswith("worst:")

    @pytest.mark.parametrize(
        "seed, max_ratio, mean_ratio, detail",
        [
            (0, 0.560028099980237, 0.1182869633344322, "worst: prime_farey(5), ones, N=12"),
            (7, 0.8869692017648645, 0.12681957750464826, "worst: prime_square_farey(3), ones, N=301"),
        ],
    )
    def test_batching_keeps_per_trial_values(self, tables, seed, max_ratio, mean_ratio, detail):
        # recorded with one check per trial, in trial order (the same with
        # 2^12 and 2^20 tables); batching and the residue-class energies
        # move lhs only by roundoff
        row = large_sieve_trials(tables, trials=200, seed=seed)
        assert row.measured["max_ratio"] == pytest.approx(max_ratio, rel=1e-12)
        assert row.measured["mean_ratio"] == pytest.approx(mean_ratio, rel=1e-12)
        assert row.detail == detail

    @pytest.mark.parametrize(
        "trials, seed, max_ratio, mean_ratio, detail",
        [
            (
                200,
                7,
                0.8869692017648647,
                0.12681957750464828,
                "worst: prime_square_farey(3), ones, N=301",
            ),
            (1000, 0, 0.847629757720238, 0.11852263446620641, "worst: prime_farey(5), ones, N=83"),
        ],
    )
    def test_row_is_pinned(self, tables, trials, seed, max_ratio, mean_ratio, detail):
        # recorded at commit 7483334, before point sets were certified by
        # their cross-products; the row keeps every bit
        row = large_sieve_trials(tables, trials, seed=seed)
        assert row.measured["max_ratio"] == max_ratio
        assert row.measured["mean_ratio"] == mean_ratio
        assert row.measured["margin"] == 1.0 - max_ratio
        assert row.detail == detail

    def test_window_boundaries_keep_values(self, tables, monkeypatch):
        whole = large_sieve_trials(tables, trials=25, seed=3, max_param=165)
        monkeypatch.setattr(experiments, "_TRIAL_WINDOW", 7)
        windowed = large_sieve_trials(tables, trials=25, seed=3, max_param=165)
        for key in ("max_ratio", "mean_ratio"):
            assert windowed.measured[key] == pytest.approx(whole.measured[key], rel=1e-12)
        assert windowed.detail == whole.detail

    def test_sieve_check_margin(self, tables):
        row = sieve_check_row(tables, "reduced_farey", 22, 128, shift=0.3)
        assert row.measured["margin"] == 1.0 - row.ratios["lhs_over_rhs"]
        assert row.measured["margin"] > 0.0

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            large_sieve_trials(tables, trials=0)
        with pytest.raises(ValueError):
            large_sieve_trials(tables, trials=5, max_param=1)


def _strip_runtime(rows):
    return [dataclasses.replace(r, runtime_s=0.0) for r in rows]


class TestRunSuite:
    def test_run_job_splits_job_time_evenly(self, tables):
        direct = prime_support_experiments(tables, 64)
        assert [r.runtime_s for r in direct] == [0.0, 0.0, 0.0]
        (job,) = experiments.expand("prime_l1", {"n": 64})
        rows = experiments.run_job(tables, *job)
        assert _strip_runtime(rows) == direct
        assert rows[0].runtime_s > 0.0
        assert [r.runtime_s for r in rows] == [rows[0].runtime_s] * 3

    def test_empty_config(self):
        assert run_suite(SuiteConfig()) == []

    def test_single_experiment(self, tables):
        cfg = SuiteConfig(experiments=(("kernel_gap", {"n": 256, "kind": "gstar"}),))
        rows = run_suite(cfg, tables=tables)
        assert len(rows) == 1
        assert rows[0].experiment == "kernel_gap"
        assert rows[0].params["n"] == 256

    def test_errors_are_rows_not_exceptions(self, tables):
        cfg = SuiteConfig(
            experiments=(
                ("squarefree_l1", {"n": 15}),  # odd: raises inside the thunk
                ("mangoldt_weighted_sum", {"n": 64}),
            )
        )
        rows = run_suite(cfg, tables=tables)
        assert len(rows) == 2
        assert rows[0].passed is False
        assert "ValueError" in rows[0].detail
        assert rows[0].measured["error"] == "ValueError"
        assert "error" not in rows[1].measured
        assert rows[0].measured["invariant_ok"] is True  # not an invariant failure
        assert rows[1].passed is True

    def test_unknown_experiment_name(self, tables):
        cfg = SuiteConfig(experiments=(("bogus", {}),))
        rows = run_suite(cfg, tables=tables)
        assert len(rows) == 1
        assert rows[0].passed is False
        assert "unknown experiment" in rows[0].detail

    def test_unknown_parameter_is_captured(self, tables):
        cfg = SuiteConfig(experiments=(("kernel_gap", {"n": 64, "zeta": 1}),))
        rows = run_suite(cfg, tables=tables)
        assert len(rows) == 1
        assert rows[0].passed is False
        assert "zeta" in rows[0].detail

    @pytest.mark.parametrize(
        "name, block, key",
        [("norm", {"kind": "ones", "n": []}, "n"), ("kernel_gap", {"kind": []}, "kind")],
        ids=["norm_n", "kernel_gap_kind"],
    )
    def test_empty_ladder_list_is_error_row(self, tables, name, block, key):
        rows = run_suite(SuiteConfig(experiments=((name, block),)), tables=tables)
        assert len(rows) == 1
        assert rows[0].measured["error"] == "ValueError"
        assert f"{name}: {key} takes at least one value" in rows[0].detail

    @pytest.mark.parametrize("name", ["kernel_gap", "lambda_l1", "lambda_kernel_integral"])
    def test_n_below_two_is_error_row(self, tables, name):
        rows = run_suite(SuiteConfig(experiments=((name, {"n": 1}),)), tables=tables)
        assert len(rows) == 1
        assert rows[0].passed is False
        assert rows[0].measured["error"] == "ValueError"
        assert "n must be >= 2, got 1" in rows[0].detail

    @pytest.mark.parametrize(
        "name, block, row, message",
        [
            ("squarefree_l1", {"n": [64, 1023]}, "squarefree_theorem_ratio", "n must be even"),
            ("lambda_l1", {"n": [64, 128], "q": 100}, "lambda_l1_bounds", "q must be <= n"),
            (
                "lambda_kernel_integral",
                {"n": 64, "q": 65},
                "lambda_kernel_integral_row",
                "q must be <= n",
            ),
        ],
        ids=["odd_n", "lambda_l1_q_above_n", "lambda_kernel_integral_q_above_n"],
    )
    def test_cross_key_check_runs_before_any_job(
        self, tables, monkeypatch, name, block, row, message
    ):
        calls = []
        original = getattr(experiments, row)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, row, counted)
        rows = run_suite(SuiteConfig(experiments=((name, block),)), tables=tables)
        assert calls == []
        assert len(rows) == 1
        assert rows[0].measured["error"] == "ValueError"
        assert f"{name}: {message}" in rows[0].detail

    def test_deterministic_modulo_runtime(self, tables):
        cfg = SuiteConfig(
            seed=5,
            experiments=(
                ("kernel_gap", {"n": [64, 128], "kind": "gstar"}),
                ("mangoldt_weighted_sum", {"n": 64}),
                ("large_sieve", {"trials": 5, "max_param": 22}),
            ),
        )
        a = run_suite(cfg, tables=tables)
        b = run_suite(cfg, tables=tables)
        assert _strip_runtime(a) == _strip_runtime(b)

    def test_workers_preserve_order_and_values(self, tables):
        base = (
            ("kernel_gap", {"n": [64, 128], "kind": "h"}),
            ("prime_l1", {"n": 64}),
            ("mangoldt_weighted_sum", {"n": [64, 128]}),
        )
        serial = run_suite(SuiteConfig(experiments=base, workers=1), tables=tables)
        threaded = run_suite(SuiteConfig(experiments=base, workers=2), tables=tables)
        assert _strip_runtime(serial) == _strip_runtime(threaded)

    def test_second_pass_builds_no_coefficients(self, monkeypatch):
        # 8 ladder N ask for 40 kernel specs: the first pass builds each once,
        # and the second finds every one in the per-tables store
        built, build = [], expsum._build_coefficients

        def spy(tables, spec):
            built.append(spec)
            return build(tables, spec)

        monkeypatch.setattr(expsum, "_build_coefficients", spy)
        ns = [16, 24, 32, 40, 48, 56, 64, 72]
        cfg = SuiteConfig(
            experiments=(("kernel_gap", {"n": ns}), ("lambda_kernel_integral", {"n": ns}))
        )
        tables = sn.build_tables(4096)  # fresh, so nothing is cached for it yet
        run_suite(cfg, tables=tables)
        assert len(set(built)) == 40
        built.clear()
        rows = run_suite(cfg, tables=tables)
        assert built == []
        assert all(row.passed for row in rows)

    def test_required_nmax_reads_ladder_lists(self):
        (job,) = experiments.expand("kernel_gap", {"n": [64, 8192], "p": 9000})
        assert job[1]["n"] == [64, 8192] and job[1]["kind"] == list(GAP_KINDS)
        assert experiments.required_nmax([job]) == 9000
        assert experiments.required_nmax(experiments.expand("kernel_gap", {"n": 64})) == 4096

    def test_trend_summary_rows(self, tables):
        cfg = SuiteConfig(
            experiments=(
                ("squarefree_l1", {"n": [64, 128]}),
                ("lambda_kernel_integral", {"n": [64, 128]}),
            )
        )
        rows = run_suite(cfg, tables=tables)
        names = [r.experiment for r in rows]
        assert names.count("squarefree_l1_trend") == 1
        assert names.count("lambda_kernel_integral_trend") == 1
        trend = rows[names.index("squarefree_l1_trend")]
        assert trend.params["n"] == [64, 128]
        assert len(trend.measured["ratios"]) == 2


#: One small block per registered experiment and the exact params of its rows.
#: perfbench identifies a row by its experiment and params (without the seed),
#: so these must not change when the registry does.
ROW_IDENTITY_BLOCKS = (
    ("kernel_gap", {"n": 64, "kind": "h"}),
    ("squarefree_l1", {"n": [64, 128]}),
    ("prime_l1", {"n": 64}),
    ("lambda_kernel_integral", {"n": [64, 128]}),
    ("lambda_l1", {"n": 64}),
    ("mangoldt_weighted_sum", {"n": 64}),
    ("large_sieve", {"trials": 3, "max_param": 22}),
    ("prime_count_floor", {"n_max": 4096}),
    ("norm", {"kind": "mobius", "n": 64}),
    ("sieve_check", {"set_kind": "prime_farey", "param": 5, "n": 32}),
)
ROW_IDENTITY = [
    ("kernel_gap", {"kind": "h", "n": 64, "p": 8, "m": 512}),
    ("squarefree_l1", {"n": 64, "seed": 3, "rel_tol": 1e-4, "floor": 0.1}),
    ("squarefree_l1", {"n": 128, "seed": 3, "rel_tol": 1e-4, "floor": 0.1}),
    *(
        ("prime_l1", {"variant": v, "n": 64, "seed": 3, "rel_tol": 1e-4, "floor": 0.1})
        for v in ("prime_indicator", "chi3_on_primes", "random_primes")
    ),
    ("lambda_kernel_integral", {"n": 64, "q": 8, "rel_tol": 1e-4}),
    ("lambda_kernel_integral", {"n": 128, "q": 11, "rel_tol": 1e-4}),
    ("lambda_l1", {"n": 64, "q": 8, "rel_tol": 1e-4}),
    ("mangoldt_weighted_sum", {"n": 64}),
    ("large_sieve", {"trials": 3, "seed": 3, "max_param": 22}),
    ("prime_count_floor", {"n_max": 4096}),
    ("norm", {"kind": "mobius", "n": 64, "rel_tol": 1e-4, "seed": 3}),
    (
        "sieve_check",
        {
            "set_kind": "prime_farey",
            "param": 5,
            "kind": "random_complex",
            "n": 32,
            "shift": 0.0,
            "seed": 3,
        },
    ),
    ("squarefree_l1_trend", {"n": [64, 128]}),
    ("lambda_kernel_integral_trend", {"n": [64, 128]}),
]
_PRIME_L1_SHAPE = (
    ["l1", "converged", "invariant_ok"],
    ["empirical_floor", "floor_note"],
    ["growth_ratio"],
)
#: The measured, reference and ratios keys, in order, of the rows above, by
#: (experiment, variant); they are the rows' CSV layout.
ROW_SHAPE = {
    ("kernel_gap", None): (
        ["max_gap", "min_kernel_value", "grid_m", "invariant_ok"],
        ["certified_ceiling", "scale_ceiling", "nonneg_floor", "scale_note"],
        ["gap_over_certified", "gap_over_scale"],
    ),
    ("squarefree_l1", None): (
        ["l1_mobius", "l1_random", "converged", "l1_autocorrelation", "invariant_ok"],
        ["empirical_floor", "mobius_l1_floor", "floor_note", "autocorrelation_bound"],
        ["ratio_mobius", "ratio_random"],
    ),
    ("prime_l1", "prime_indicator"): _PRIME_L1_SHAPE,
    ("prime_l1", "chi3_on_primes"): (
        ["l1", "converged", "chi3_prime_partial_sum", "invariant_ok"],
        ["empirical_floor", "floor_note"],
        ["growth_ratio"],
    ),
    ("prime_l1", "random_primes"): _PRIME_L1_SHAPE,
    ("lambda_kernel_integral", None): (
        ["v_spectral", "v_quadrature", "routes_agree", "invariant_ok"],
        ["target", "band", "band_applies_from_n"],
        ["v_over_target", "route_gap_over_bound"],
    ),
    ("lambda_l1", None): (
        ["l1", "v_spectral", "converged", "invariant_ok"],
        [
            "analytic_lower",
            "asymptotic_lower_eps05",
            "bracket_lower_const",
            "bracket_upper_const",
            "bracket_applies_from_n",
        ],
        ["l1_over_sqrt_n", "l1_over_sqrt_nlogn", "l1_over_analytic_lower"],
    ),
    ("mangoldt_weighted_sum", None): (
        ["weighted_sum", "invariant_ok"],
        ["target", "band", "band_applies_from_n"],
        ["sum_over_target"],
    ),
    ("large_sieve", None): (
        ["max_ratio", "mean_ratio", "margin", "invariant_ok"],
        ["ratio_bound"],
        ["max_ratio"],
    ),
    ("prime_count_floor", None): (
        ["min_ratio", "argmin_n", "invariant_ok"],
        ["floor", "applies_from_n"],
        ["min_ratio"],
    ),
    ("norm", None): (
        ["l1", "l2_sq", "converged", "last_delta", "grids", "invariant_ok"],
        ["cauchy_ceiling"],
        ["l1_over_l2", "l1_over_sqrt_n", "l1_over_sqrt_nlogn", "growth_ratio"],
    ),
    ("sieve_check", None): (
        ["lhs", "rhs", "points", "delta", "margin", "invariant_ok"],
        ["ratio_bound"],
        ["lhs_over_rhs"],
    ),
    ("squarefree_l1_trend", None): (["ratios", "invariant_ok"], ["requirement"], []),
    ("lambda_kernel_integral_trend", None): (
        ["abs_gap_first", "abs_gap_last", "invariant_ok"],
        ["requirement"],
        [],
    ),
}


def test_row_identity_per_experiment(tables):
    assert {name for name, _ in ROW_IDENTITY_BLOCKS} == set(EXPERIMENTS)
    rows = run_suite(SuiteConfig(seed=3, experiments=ROW_IDENTITY_BLOCKS), tables=tables)
    assert [r.measured.get("error") for r in rows] == [None] * len(rows)
    got = [(r.experiment, list(r.params.items())) for r in rows]
    assert got == [(name, list(params.items())) for name, params in ROW_IDENTITY]
    shapes = [(list(r.measured), list(r.reference), list(r.ratios)) for r in rows]
    assert shapes == [ROW_SHAPE[r.experiment, r.params.get("variant")] for r in rows]


def test_schema_order_is_row_function_order():
    # run_job calls row(tables, *params.values()), so the schema order is the call order
    for name, spec in EXPERIMENTS.items():
        signature = list(inspect.signature(getattr(experiments, spec.row)).parameters)
        assert list(spec.params) == [arg.lower() for arg in signature[1:]], name
    # a command's flags are its first experiment's keys, so the others must take the same
    for command, (_, names) in cli.COMMANDS.items():
        assert all(EXPERIMENTS[n].params == EXPERIMENTS[names[0]].params for n in names), command


#: Blocks that reach every L1 row's branches: squarefree_l1 with and without
#: the autocorrelation check (N <= 512), prime_l1 failing its floor, lambda_l1
#: below and at its bracket's N, and norm at N = 1 and unconverged.
L1_LAYOUT_BLOCKS = (
    ("squarefree_l1", {"n": [64, 1024]}),
    ("prime_l1", {"n": 64, "floor": 1e9}),
    ("lambda_l1", {"n": [64, 1024]}),
    ("norm", {"kind": "mobius", "n": [1, 64]}),
    ("norm", {"kind": "ones", "n": 16, "rel_tol": 1e-15}),
)
_SQUAREFREE_KEYS = (["n", "seed", "rel_tol", "floor"], ["l1_mobius", "l1_random", "converged"])
_PRIME_KEYS = ["variant", "n", "seed", "rel_tol", "floor"]
_PRIME_REFERENCE = ["empirical_floor", "floor_note"]
_PRIME_DETAIL = "growth ratio below floor"
_LAMBDA_LAYOUT = (
    "lambda_l1",
    ["n", "q", "rel_tol"],
    ["l1", "v_spectral", "converged", "invariant_ok"],
    [
        "analytic_lower",
        "asymptotic_lower_eps05",
        "bracket_lower_const",
        "bracket_upper_const",
        "bracket_applies_from_n",
    ],
    ["l1_over_sqrt_n", "l1_over_sqrt_nlogn", "l1_over_analytic_lower"],
    "",
)
_NORM_KEYS = (
    ["kind", "n", "rel_tol", "seed"],
    ["l1", "l2_sq", "converged", "last_delta", "grids", "invariant_ok"],
)
_NORM_RATIOS = ["l1_over_l2", "l1_over_sqrt_n", "l1_over_sqrt_nlogn"]
_UNCONVERGED = "quadrature did not converge (warning)"
#: Per row of the blocks above: experiment, then the keys of params, measured,
#: reference and ratios in order, then the detail -- the row's CSV layout.
L1_LAYOUT = [
    (
        "squarefree_l1",
        _SQUAREFREE_KEYS[0],
        [*_SQUAREFREE_KEYS[1], "l1_autocorrelation", "invariant_ok"],
        ["empirical_floor", "mobius_l1_floor", "floor_note", "autocorrelation_bound"],
        ["ratio_mobius", "ratio_random"],
        "",
    ),
    (
        "squarefree_l1",
        _SQUAREFREE_KEYS[0],
        [*_SQUAREFREE_KEYS[1], "invariant_ok"],
        ["empirical_floor", "mobius_l1_floor", "floor_note"],
        ["ratio_mobius", "ratio_random"],
        "",
    ),
    *(
        ("prime_l1", _PRIME_KEYS, measured, _PRIME_REFERENCE, ["growth_ratio"], _PRIME_DETAIL)
        for measured in (
            ["l1", "converged", "invariant_ok"],
            ["l1", "converged", "chi3_prime_partial_sum", "invariant_ok"],
            ["l1", "converged", "invariant_ok"],
        )
    ),
    _LAMBDA_LAYOUT,
    _LAMBDA_LAYOUT,
    ("norm", *_NORM_KEYS, ["cauchy_ceiling"], _NORM_RATIOS[:2], ""),
    ("norm", *_NORM_KEYS, ["cauchy_ceiling"], [*_NORM_RATIOS, "growth_ratio"], ""),
    ("norm", *_NORM_KEYS, ["cauchy_ceiling"], _NORM_RATIOS, _UNCONVERGED),
    ("squarefree_l1_trend", ["n"], ["ratios", "invariant_ok"], ["requirement"], [], ""),
]


def test_l1_row_layout(tables):
    rows = run_suite(SuiteConfig(seed=3, experiments=L1_LAYOUT_BLOCKS), tables=tables)
    keys = [[list(r.params), list(r.measured), list(r.reference), list(r.ratios)] for r in rows]
    got = [(r.experiment, *k, r.detail) for r, k in zip(rows, keys)]
    assert got == L1_LAYOUT


@pytest.mark.parametrize(
    "name, block, sequences, transforms",
    [
        ("squarefree_l1", {"n": 512}, 2, 3),  # the autocorrelation check's own l1_norm
        ("squarefree_l1", {"n": 1024}, 2, 2),
        ("prime_l1", {"n": 64}, 3, 3),
        ("lambda_l1", {"n": 64}, 1, 1),
        ("norm", {"kind": "mobius", "n": 64}, 1, 1),
    ],
)
def test_l1_row_call_counts(tables, monkeypatch, name, block, sequences, transforms):
    # perfbench wraps these two names where the rows look them up, in experiments
    calls = []
    for attr in ("coefficient_sequence", "l1_norm"):

        def counted(*args, _attr=attr, _original=getattr(experiments, attr), **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, attr, counted)
    rows = run_suite(SuiteConfig(experiments=((name, block),)), tables=tables)
    assert all(row.passed for row in rows)
    assert calls.count("coefficient_sequence") == sequences
    assert calls.count("l1_norm") == transforms


class TestInvariantViolations:
    def test_reporting(self):
        ok = ExperimentRow("a", {}, {"invariant_ok": True}, {}, {}, True, 0.0)
        bad = ExperimentRow("b", {"n": 4}, {"invariant_ok": False}, {}, {}, False, 0.0, "boom")
        legacy = ExperimentRow("c", {}, {}, {}, {}, True, 0.0)
        out = sn.invariant_violations([ok, bad, legacy])
        assert len(out) == 1
        assert "b" in out[0] and "boom" in out[0]


class TestExperimentRowCoercion:
    def test_numpy_scalars_become_plain(self):
        row = ExperimentRow(
            experiment="x",
            params={"n": np.int64(5)},
            measured={"v": np.float64(1.5), "flag": np.bool_(True)},
            reference={"arr": [np.float64(0.25), np.int64(2)]},
            ratios={},
            passed=np.bool_(True),
            runtime_s=np.float64(0.1),
        )
        assert type(row.params["n"]) is int
        assert type(row.measured["v"]) is float
        assert type(row.measured["flag"]) is bool
        assert [type(v) for v in row.reference["arr"]] == [float, int]
        assert type(row.passed) is bool
        assert type(row.runtime_s) is float

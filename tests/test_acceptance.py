"""End-to-end acceptance checks, one per advertised guarantee.

Each test exercises a guarantee at its stated tolerance and appends one
PASS/FAIL line to a report printed when the session ends.  These runs are
deliberately heavier than the unit tests (full N-ladders, a 1000-trial
randomized sweep, the complete default suite), so the file takes a few
minutes; everything else in tests/ stays fast.
"""

import math
import time

import numpy as np
import pytest

import sievenorm as sn
from sievenorm.experiments import (
    expand,
    kernel_gap_rows,
    lambda_kernel_integral_row,
    lambda_l1_bounds,
    mangoldt_weighted_sum_row,
    prime_count_floor_row,
    prime_support_experiments,
    run_job,
    run_suite,
    squarefree_theorem_ratio,
)

LADDER7 = tuple(1 << k for k in range(10, 17))
LADDER_EVEN = (1 << 10, 1 << 12, 1 << 14, 1 << 16)


@pytest.fixture(scope="session")
def report(pytestconfig):
    lines = []
    yield lines
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    with capman.global_and_fixture_disabled():
        print()
        print("=" * 78)
        print("acceptance report")
        print("=" * 78)
        for line in lines:
            print(line)
        print("=" * 78)


def check(report, ok: bool, tag: str, text: str) -> None:
    report.append(f"{'PASS' if ok else 'FAIL'} [{tag}] {text}")
    assert ok, f"[{tag}] {text}"


def test_a01_mean_square_identity(report, tables_mid):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (64, 512, 4096):
        for seed in range(50):
            seq = sn.coefficient_sequence(tables_mid, "random_complex", n, seed=seed)
            exact = sn.l2_norm_sq(seq)
            quad = sn.l2_norm_sq_quadrature(seq)
            worst = max(worst, abs(quad - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    check(
        report,
        ok,
        "A01",
        f"grid mean-square equals coefficient energy, 150 random sequences "
        f"(worst rel err {worst:.2e}, {elapsed:.1f}s < 10s)",
    )


def test_a02_ramanujan_oracle_agreement(report, tables_mid):
    t0 = time.perf_counter()
    mismatches = 0
    for q in range(1, 201):
        for n in range(-200, 201):
            if sn.ramanujan_sum(tables_mid, q, n) != sn.ramanujan_sum_direct(q, n):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    check(
        report,
        ok,
        "A02",
        f"closed-form and direct Ramanujan sums agree, q <= 200, |n| <= 200 "
        f"({mismatches} mismatches, {elapsed:.1f}s < 5s)",
    )


def test_a03_weighted_sum_route_agreement(report, tables_mid):
    t0 = time.perf_counter()
    rows = [
        lambda_kernel_integral_row(tables_mid, n, q).measured
        for n, q in ((256, 16), (1024, 32), (4096, 64))
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r["routes_agree"] for r in rows) and elapsed < 60.0
    gaps = ", ".join(f"{abs(r['v_spectral'] - r['v_quadrature']):.2e}" for r in rows)
    check(
        report,
        ok,
        "A03",
        f"spectral and quadrature routes agree at (256,16),(1024,32),(4096,64) "
        f"(abs gaps {gaps}, {elapsed:.1f}s < 60s)",
    )


def test_a04_spike_orthogonality_and_duality(report, tables_mid):
    ns = np.arange(-200, 201)
    worst = 0.0
    for q in range(1, 51):
        residues = np.array([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
        direct = np.exp(2j * np.pi * np.outer(residues, ns) / q).sum(axis=0)
        closed = np.array([sn.ramanujan_sum(tables_mid, q, int(n)) for n in ns])
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    alphas = np.random.default_rng(2024).uniform(0.0, 1.0, 100)
    gap_g = sn.duality_gap(tables_mid, sn.KernelSpec("gstar", 256, P=4), alphas)
    gap_h = sn.duality_gap(tables_mid, sn.KernelSpec("h", 256, P=16), alphas)
    ok = worst <= 1e-9 and max(gap_g, gap_h) <= 1e-6
    check(
        report,
        ok,
        "A04",
        f"coprime spike trains reproduce Ramanujan sums (err {worst:.2e} <= 1e-9); "
        f"translate/spectral duality gap <= 1e-6 at 100 points "
        f"(gstar {gap_g:.2e}, h {gap_h:.2e})",
    )


def test_a05_large_sieve_thousand_trials(report, tables_mid):
    # through run_job, which times the row
    (job,) = expand("large_sieve", {"trials": 1000, "seed": 0})
    (row,) = run_job(tables_mid, *job)
    ok = row.passed and row.measured["max_ratio"] <= 1.0 + 1e-9
    check(
        report,
        ok,
        "A05",
        f"1000 randomized large-sieve trials stay below the bound "
        f"(max ratio {row.measured['max_ratio']:.4f}, {row.runtime_s:.1f}s)",
    )


def test_a06_gstar_gap_ceilings(report, tables_mid):
    rows = kernel_gap_rows(tables_mid, LADDER7, None, ["gstar"])
    ok = all(r.measured["invariant_ok"] for r in rows)
    worst = max(r.ratios["gap_over_certified"] for r in rows)
    check(
        report,
        ok,
        "A06",
        f"gstar deviation from the mean-square kernel stays under its certified "
        f"ceiling and above the nonnegativity floor for N in 2^10..2^16 "
        f"(worst gap/ceiling {worst:.3f})",
    )


def test_a07_h_gap_ceilings(report, tables_mid):
    rows = kernel_gap_rows(tables_mid, LADDER7, None, ["h"])
    ok = all(r.measured["invariant_ok"] for r in rows)
    worst = max(r.ratios["gap_over_certified"] for r in rows)
    check(
        report,
        ok,
        "A07",
        f"h deviation stays under its certified ceiling and above the "
        f"nonnegativity floor for N in 2^10..2^16 (worst gap/ceiling {worst:.3f})",
    )


def test_a08_l1_analytic_lower_bound(report, tables_mid):
    rows = [lambda_l1_bounds(tables_mid, n) for n in (1 << k for k in range(10, 15))]
    ok = all(r.measured["invariant_ok"] for r in rows)
    margins = ", ".join(f"{r.ratios['l1_over_analytic_lower']:.2f}" for r in rows)
    check(
        report,
        ok,
        "A08",
        f"L1 of the von Mangoldt sum clears its weighted-sum lower bound for "
        f"N in 2^10..2^14 (l1/bound: {margins})",
    )


def test_a09_truncation_cost(report, tables_mid):
    rows = kernel_gap_rows(tables_mid, LADDER_EVEN, None, ["h_truncated"])
    ok = all(
        r.measured["truncation_gap"] <= 3.0 * r.params["p"] * (1.0 + 1e-9) for r in rows
    )
    worst = max(r.ratios["truncation_over_3p"] for r in rows)
    check(
        report,
        ok,
        "A09",
        f"removing the low-frequency band moves h by at most 3P in sup norm "
        f"for N in the even ladder (worst gap/3P {worst:.3f})",
    )


def test_a10_weighted_sum_band_tightens(report, tables_mid):
    t0 = time.perf_counter()
    lo = lambda_kernel_integral_row(tables_mid, 1 << 10, 32).ratios["v_over_target"]
    hi = lambda_kernel_integral_row(tables_mid, 1 << 14, 128).ratios["v_over_target"]
    elapsed = time.perf_counter() - t0
    ok = 0.6 <= hi <= 1.4 and abs(hi - 1.0) < abs(lo - 1.0) and elapsed < 120.0
    check(
        report,
        ok,
        "A10",
        f"weighted-sum ratio sits in [0.6, 1.4] at N=2^14 and is closer to 1 "
        f"than at N=2^10 ({hi:.3f} vs {lo:.3f}, {elapsed:.0f}s < 120s)",
    )


def test_a11_mangoldt_l1_bracket(report, tables_mid):
    t0 = time.perf_counter()
    consts = []
    for n in (1 << 12, 1 << 14, 1 << 16):
        est = sn.l1_norm(sn.coefficient_sequence(tables_mid, "mangoldt", n))
        consts.append(
            (est.value / math.sqrt(n), est.value / math.sqrt(n * math.log(n)))
        )
    elapsed = time.perf_counter() - t0
    ok = (
        all(lo >= 0.15 and hi <= math.sqrt(0.75) for lo, hi in consts)
        and elapsed < 180.0
    )
    rendered = ", ".join(f"({lo:.2f}, {hi:.3f})" for lo, hi in consts)
    check(
        report,
        ok,
        "A11",
        f"L1(mangoldt) bracketed by 0.15*sqrt(N) and sqrt(0.75*N*log N) at "
        f"N in 2^12..2^16 (sqrt-N and sqrt-NlogN constants: {rendered}; "
        f"{elapsed:.0f}s < 180s)",
    )


def test_a12_squarefree_floor_and_trend(report, tables_mid):
    rows = [squarefree_theorem_ratio(tables_mid, n, seed=0) for n in LADDER_EVEN]
    ratios = [r.ratios["ratio_mobius"] for r in rows]
    floors_ok = all(
        r.ratios["ratio_mobius"] >= 0.1
        and r.ratios["ratio_random"] >= 0.1
        and r.measured["invariant_ok"]
        for r in rows
    )
    # 0.999 multiplicative slack tolerates float-level ties between rungs
    trend_ok = all(b >= a * 0.999 for a, b in zip(ratios, ratios[1:]))
    ok = floors_ok and trend_ok
    check(
        report,
        ok,
        "A12",
        f"squarefree-support growth ratios clear the 0.1 floor and are "
        f"non-decreasing along the even ladder ({', '.join(f'{r:.2f}' for r in ratios)})",
    )


def test_a13_prime_support_floors(report, tables_mid):
    worst = math.inf
    ok = True
    for n in LADDER_EVEN:
        for row in prime_support_experiments(tables_mid, n, seed=0):
            worst = min(worst, row.ratios["growth_ratio"])
            ok = ok and row.ratios["growth_ratio"] >= 0.1
    check(
        report,
        ok,
        "A13",
        f"prime-support growth ratios (indicator, character, random) clear the "
        f"0.1 floor along the even ladder (worst {worst:.2f})",
    )


def test_a14_chebyshev_weighted_band(report, tables_mid):
    rows = [mangoldt_weighted_sum_row(tables_mid, n) for n in (1 << 14, 1 << 16)]
    ok = all(0.9 <= r.ratios["sum_over_target"] <= 1.1 for r in rows)
    rendered = ", ".join(f"{r.ratios['sum_over_target']:.4f}" for r in rows)
    check(
        report,
        ok,
        "A14",
        f"sum (N-n) Lambda(n) sits within 10% of N^2/2 at N=2^14, 2^16 ({rendered})",
    )


def test_a15_prime_count_floor_to_1e6(report, tables_big):
    row = prime_count_floor_row(tables_big, 10**6)
    ok = row.passed and row.measured["min_ratio"] > 1.0
    check(
        report,
        ok,
        "A15",
        f"pi(n) log n / n stays above 1 for 17 <= n <= 10^6 "
        f"(min {row.measured['min_ratio']:.4f} at n={row.measured['argmin_n']})",
    )


def test_a16_default_suite_clean(report, tables_big):
    t0 = time.perf_counter()
    rows = run_suite(None, tables=tables_big)
    elapsed = time.perf_counter() - t0
    violations = sn.invariant_violations(rows)
    failed = [r for r in rows if not r.passed]
    ok = not violations and not failed and elapsed < 600.0
    detail = "; ".join(f"{r.experiment}({r.params})" for r in failed) or "none"
    check(
        report,
        ok,
        "A16",
        f"default suite: {len(rows)} rows in {elapsed:.0f}s < 600s, "
        f"{len(violations)} invariant violations, failed rows: {detail}",
    )

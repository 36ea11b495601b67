import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievenorm as sn
import sievenorm.expsum as expsum
import sievenorm.quadrature as quadrature
from sievenorm.errors import CapacityError, InvariantError
from sievenorm.expsum import grid_eval_sequence


def random_sequence(N, seed):
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.5, 1.0, N)
    phase = rng.uniform(0.0, 2.0 * math.pi, N)
    return sn.CoefficientSequence(N, mag * np.exp(1j * phase))


def check_row_sums(seq, monkeypatch):
    # _row_sum against one-shot means on the first grid M, the odd samples of
    # its doubling (M points at shift 1/2) and 2M; then again with _CHUNK
    # below L, where the coefficients fold into _CHUNK bins
    L = 1 << (seq.N - 1).bit_length()
    M = quadrature.OVERSAMPLE_START * L
    for chunk in sorted({expsum._CHUNK, max(1, L // 4)}, reverse=True):
        monkeypatch.setattr(expsum, "_CHUNK", chunk)
        for G, shift, odd in [(M, 0.0, False), (M, 0.5, True), (2 * M, 0.0, False)]:
            one_shot = float(np.mean(np.abs(grid_eval_sequence(seq, G, shift=shift).values)))
            row_sum = quadrature._row_sum(seq, 2 * G if odd else G, odd)
            assert row_sum / G == pytest.approx(one_shot, rel=1e-12)


def check_chunked_transforms(seq, monkeypatch):
    # with _CHUNK = 256 < L = 1024 every ifft batch is one folded row of 256
    # points, and the refinement visits the same grids with the same values
    whole = sn.l1_norm(seq, rel_tol=1e-9)
    sizes, ifft = [], np.fft.ifft

    def recorded(x, *args, **kwargs):
        sizes.append(x.size)
        return ifft(x, *args, **kwargs)

    monkeypatch.setattr(expsum, "_CHUNK", 256)
    monkeypatch.setattr(np.fft, "ifft", recorded)
    chunked = sn.l1_norm(seq, rel_tol=1e-9)
    assert sizes and max(sizes) <= 256
    assert [m for m, _ in whole.grids] == [m for m, _ in chunked.grids]
    for (_, va), (_, vb) in zip(whole.grids, chunked.grids):
        assert vb == pytest.approx(va, rel=1e-12)


# L1 grids of the six ladder sequences (seed 7, default rel_tol), as the
# earlier one-transform-per-grid quadrature gave them; rows move them by
# roundoff only.
LADDER_GRIDS = {
    ("mobius", 1024): ((16384, 21.872477397237915), (32768, 21.87249515443661)),
    ("mobius", 4096): ((65536, 44.17096284990068), (131072, 44.17089320605266)),
    ("squarefree_random", 1024): ((16384, 17.025147675955825), (32768, 17.025091838855182)),
    ("squarefree_random", 4096): ((65536, 33.8706905778899), (131072, 33.870692037801135)),
    ("prime_indicator", 1024): ((16384, 8.975574361342728), (32768, 8.975576652633148)),
    ("prime_indicator", 4096): ((65536, 15.879864219450049), (131072, 15.879890469955878)),
    ("chi3_on_primes", 1024): ((16384, 8.759818291982128), (32768, 8.759790664239244)),
    ("chi3_on_primes", 4096): ((65536, 15.558418765503749), (131072, 15.55844490493919)),
    ("random_primes", 1024): ((16384, 8.92466156632386), (32768, 8.924646957885194)),
    ("random_primes", 4096): ((65536, 16.119470465894707), (131072, 16.11948234007341)),
    ("mangoldt", 1024): ((16384, 51.985792755776316), (32768, 51.98749602163606)),
    ("mangoldt", 4096): ((65536, 114.290017514078), (131072, 114.29116937138286)),
}
# M lists and ``converged`` of refinements that run many doublings (seed 7).
_DEEP_1000 = [16384, 32768, 65536, 131072, 262144, 524288, 1048576]
_DEEP_64 = [1024, 2048, 4096, 8192, 16384, 32768, 65536]
DEEP_GRIDS = {
    ("random_complex", 1000, 1e-9): (_DEEP_1000, True),
    ("mobius", 1000, 1e-9): (_DEEP_1000, True),
    ("random_complex", 64, 1e-13): (_DEEP_64, True),
    ("mobius", 64, 1e-13): (_DEEP_64, True),
}


class TestL2:
    @settings(deadline=None, max_examples=60)
    @given(N=st.integers(1, 512), seed=st.integers(0, 10_000))
    def test_parseval(self, N, seed):
        seq = random_sequence(N, seed)
        exact = sn.l2_norm_sq(seq)
        quad = sn.l2_norm_sq_quadrature(seq)
        assert quad == pytest.approx(exact, rel=1e-9)

    def test_parseval_large(self, tables):
        seq = sn.coefficient_sequence(tables, "random_complex", 4096, seed=11)
        assert sn.l2_norm_sq_quadrature(seq) == pytest.approx(sn.l2_norm_sq(seq), rel=1e-9)

    def test_exact_value(self, tables):
        seq = sn.coefficient_sequence(tables, "mobius", 100)
        assert sn.l2_norm_sq(seq) == pytest.approx(sn.squarefree_count(tables, 100))


class TestL1Norm:
    def test_single_frequency(self):
        seq = sn.CoefficientSequence(1, [1.0])
        assert sn.l1_norm(seq).value == pytest.approx(1.0, abs=1e-9)
        seq3 = sn.CoefficientSequence(3, [0.0, 0.0, 2.0 + 1.0j])
        assert sn.l1_norm(seq3).value == pytest.approx(abs(2.0 + 1.0j), rel=1e-9)

    def test_zero_sequence(self):
        seq = sn.CoefficientSequence(4, np.zeros(4))
        est = sn.l1_norm(seq)
        assert est.value == 0.0
        assert est.converged

    def test_ones_sixteen(self, tables):
        seq = sn.coefficient_sequence(tables, "ones", 16)
        est = sn.l1_norm(seq)
        assert est.converged
        assert 0.2 * math.log(16) <= est.value <= math.sqrt(16) + 0.01
        # dense-grid oracle: one huge rectangle rule, no refinement logic
        dense = float(np.mean(np.abs(grid_eval_sequence(seq, 1 << 18).values)))
        assert est.value == pytest.approx(dense, rel=5e-4)

    def test_mobius_lower_bound(self, tables):
        N = 1024
        est = sn.l1_norm(sn.coefficient_sequence(tables, "mobius", N))
        assert est.value >= N**0.125 / math.sqrt(math.log(N))

    def test_grids_strictly_increasing(self, tables):
        est = sn.l1_norm(sn.coefficient_sequence(tables, "mobius", 128))
        ms = [m for m, _ in est.grids]
        assert ms == sorted(set(ms))
        assert est.value == est.grids[-1][1]

    def test_nested_grids_match_one_shot_means(self, tables, monkeypatch):
        # each doubling adds only the odd samples to a running sum; the result
        # must still be the plain rectangle rule on the finer grid
        seq = sn.coefficient_sequence(tables, "mangoldt", 300)
        monkeypatch.setattr(quadrature, "OVERSAMPLE_START", 2)
        monkeypatch.setattr(quadrature, "OVERSAMPLE_CAP", 32)
        est = sn.l1_norm(seq, rel_tol=1e-15)
        assert [m for m, _ in est.grids] == [1024, 2048, 4096, 8192, 16384]
        for M, value in est.grids:
            one_shot = float(np.mean(np.abs(grid_eval_sequence(seq, M).values)))
            assert value == pytest.approx(one_shot, rel=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3, 97, 1000, 1024, 1025])
    def test_real_grid_sums_match_one_shot_means(self, tables, monkeypatch, N):
        # mirrored rows (offsets t <= 1/2 only) against one plain grid each
        seq = sn.coefficient_sequence(tables, "mobius", N)
        assert not np.any(seq.coeffs.imag)
        check_row_sums(seq, monkeypatch)

    @pytest.mark.parametrize("N", [1, 2, 3, 97, 1000, 1024, 1025])
    def test_complex_grid_sums_match_one_shot_means(self, tables, monkeypatch, N):
        check_row_sums(sn.coefficient_sequence(tables, "random_complex", N, seed=4), monkeypatch)

    def test_real_transforms_stay_within_chunk(self, tables, monkeypatch):
        check_chunked_transforms(sn.coefficient_sequence(tables, "mobius", 1000), monkeypatch)

    def test_complex_transforms_stay_within_chunk(self, tables, monkeypatch):
        seq = sn.coefficient_sequence(tables, "random_complex", 1000, seed=4)
        check_chunked_transforms(seq, monkeypatch)

    @pytest.mark.parametrize("kind, N", sorted(LADDER_GRIDS))
    def test_ladder_grids_pinned(self, tables, kind, N):
        est = sn.l1_norm(sn.coefficient_sequence(tables, kind, N, seed=7))
        expected = LADDER_GRIDS[kind, N]
        assert est.converged
        assert [m for m, _ in est.grids] == [m for m, _ in expected]
        for (_, got), (_, want) in zip(est.grids, expected):
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("kind, N, rel_tol", sorted(DEEP_GRIDS))
    def test_deep_tolerance_grids_pinned(self, tables, kind, N, rel_tol):
        est = sn.l1_norm(sn.coefficient_sequence(tables, kind, N, seed=7), rel_tol=rel_tol)
        assert ([m for m, _ in est.grids], est.converged) == DEEP_GRIDS[kind, N, rel_tol]

    def test_large_n_converges_in_bounded_memory(self, monkeypatch):
        # N = 2^18 samples 2^22..2^23 points; evaluated in row batches of
        # _CHUNK samples its traced peak stays within three complex batches
        def traced_peak(seq):
            tracemalloc.start()
            try:
                est = sn.l1_norm(seq)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert est.converged
            return est, peak

        est, peak = traced_peak(random_sequence(1 << 18, 5))
        assert est.grids[0][0] == 1 << 22
        assert peak < 3 * 16 * expsum._CHUNK
        # with L = 4 * _CHUNK the coefficients fold into rows of _CHUNK bins,
        # and a padded length-L copy alone would exceed the bound
        monkeypatch.setattr(expsum, "_CHUNK", 1 << 14)
        N = 3 * expsum._CHUNK + 5
        for seq in (random_sequence(N, 6), sn.CoefficientSequence(N, np.ones(N))):
            est, peak = traced_peak(seq)
            assert est.grids[0][0] == 1 << 20
            assert peak < 3 * 16 * expsum._CHUNK

    def test_refinement_settles(self, tables, monkeypatch):
        # after the first refinement step the value barely moves: every later
        # delta stays dominated by the first one (observed across kinds)
        cases = [
            sn.coefficient_sequence(tables, "mobius", 256),
            sn.coefficient_sequence(tables, "mangoldt", 512),
            random_sequence(256, 7),
            sn.coefficient_sequence(tables, "squarefree_random", 300, seed=3),
        ]
        monkeypatch.setattr(quadrature, "OVERSAMPLE_START", 8)
        monkeypatch.setattr(quadrature, "OVERSAMPLE_CAP", 256)
        for seq in cases:
            est = sn.l1_norm(seq, rel_tol=1e-12)
            vals = [v for _, v in est.grids]
            deltas = [abs(b - a) for a, b in zip(vals, vals[1:])]
            assert all(d <= deltas[0] * 1.5 + 1e-12 for d in deltas[1:])

    def test_non_convergence_is_flag_not_exception(self, tables, monkeypatch):
        seq = sn.coefficient_sequence(tables, "mobius", 64)
        monkeypatch.setattr(quadrature, "OVERSAMPLE_START", 4)
        monkeypatch.setattr(quadrature, "OVERSAMPLE_CAP", 8)
        est = sn.l1_norm(seq, rel_tol=1e-13)
        assert not est.converged
        assert est.last_delta > 1e-13
        assert est.value > 0

    def test_cauchy_and_projection_envelopes(self, tables):
        for seed in range(5):
            seq = random_sequence(200, seed)
            est = sn.l1_norm(seq)
            rel = 5 * 1e-4
            assert est.value <= math.sqrt(sn.l2_norm_sq(seq)) * (1 + rel)
            assert est.value >= float(np.max(np.abs(seq.coeffs))) * (1 - rel)

    def test_autocorrelation_inequality(self, tables):
        # the |b|^2 sequence is the autocorrelation diagonal; its L1 norm is
        # bounded by the square of the L1 norm of b
        for kind, N, seed in [
            ("squarefree_random", 64, 1),
            ("squarefree_random", 512, 42),
            ("random_complex", 128, 2),
        ]:
            b = sn.coefficient_sequence(tables, kind, N, seed=seed)
            sq = sn.CoefficientSequence(N, np.abs(b.coeffs) ** 2)
            l1_b = sn.l1_norm(b).value
            l1_sq = sn.l1_norm(sq).value
            assert l1_sq <= l1_b**2 * (1 + 5e-4)

    def test_validation(self):
        seq = sn.CoefficientSequence(2, [1.0, 1.0])
        with pytest.raises(ValueError):
            sn.l1_norm(seq, rel_tol=0.0)

    def test_first_grid_over_budget(self, monkeypatch):
        # N = 64 starts at M = 16 * 64 = 1024 samples
        monkeypatch.setattr(quadrature, "SAMPLE_BUDGET", 512)
        with pytest.raises(CapacityError, match="coarsest grid 1024 already exceeds budget 512"):
            sn.l1_norm(random_sequence(64, 0))

    @pytest.mark.parametrize(
        "value, message",
        [(3.0, "exceeds Cauchy-Schwarz ceiling"), (0.5, "below single-frequency floor")],
    )
    def test_envelope_violations(self, monkeypatch, value, message):
        # |e(alpha) + e(2 alpha)| has l1 = 4/pi, between the floor 1 and the ceiling sqrt(2)
        est = quadrature.L1Estimate(value, ((16, value),), True, 0.0, 2.0)
        monkeypatch.setattr(quadrature, "_refine", lambda seq, rel_tol: est)
        with pytest.raises(InvariantError, match=message):
            sn.l1_norm(sn.CoefficientSequence(2, [1.0, 1.0]))

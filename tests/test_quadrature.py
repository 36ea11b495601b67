import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievenorm as sn
import sievenorm.quadrature as quadrature
from sievenorm.errors import CapacityError, InvariantError
from sievenorm.expsum import grid_eval_sequence


def random_sequence(N, seed):
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.5, 1.0, N)
    phase = rng.uniform(0.0, 2.0 * math.pi, N)
    return sn.CoefficientSequence(N, mag * np.exp(1j * phase))


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

    def test_cosets_match_unchunked_grids(self, tables, monkeypatch):
        # a complex sequence runs every grid as cosets of exactly _CHUNK points
        seq = sn.coefficient_sequence(tables, "random_complex", 1000, seed=4)
        whole = sn.l1_norm(seq, rel_tol=1e-9)
        sizes = []

        def recorded(seq, M, shift=0.0):
            sizes.append(M)
            return grid_eval_sequence(seq, M, shift=shift)

        monkeypatch.setattr(quadrature, "_CHUNK", 256)
        monkeypatch.setattr(quadrature, "grid_eval_sequence", recorded)
        chunked = sn.l1_norm(seq, rel_tol=1e-9)
        assert set(sizes) == {256}
        assert [m for m, _ in whole.grids] == [m for m, _ in chunked.grids]
        for (_, va), (_, vb) in zip(whole.grids, chunked.grids):
            assert vb == pytest.approx(va, rel=1e-12)

    def test_real_transforms_stay_within_chunk(self, tables, monkeypatch):
        # a real sequence takes rfft grids and half-size mirrored ones, so its
        # transforms may be shorter than _CHUNK but never longer
        seq = sn.coefficient_sequence(tables, "mobius", 1000)
        whole = sn.l1_norm(seq, rel_tol=1e-9)
        sizes, rfft = [], np.fft.rfft

        def recorded(seq, M, shift=0.0):
            sizes.append(M)
            return grid_eval_sequence(seq, M, shift=shift)

        def recorded_rfft(x, *args, **kwargs):
            sizes.append(len(x))
            return rfft(x, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_CHUNK", 256)
        monkeypatch.setattr(quadrature, "grid_eval_sequence", recorded)
        monkeypatch.setattr(np.fft, "rfft", recorded_rfft)
        chunked = sn.l1_norm(seq, rel_tol=1e-9)
        assert sizes and max(sizes) <= 256
        assert [m for m, _ in whole.grids] == [m for m, _ in chunked.grids]
        for (_, va), (_, vb) in zip(whole.grids, chunked.grids):
            assert vb == pytest.approx(va, rel=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3, 97, 1000])
    def test_real_grid_sums_match_one_shot_means(self, tables, monkeypatch, N):
        # the mirror identities and the peel above _CHUNK against one plain grid
        seq = sn.coefficient_sequence(tables, "mobius", N)
        assert not np.any(seq.coeffs.imag)
        M = quadrature.OVERSAMPLE_START << (N - 1).bit_length()
        monkeypatch.setattr(quadrature, "_CHUNK", 8)
        for G, shift in [(M, 0.0), (M, 0.5), (2 * M, 0.0), (M // 2, 0.5)]:
            one_shot = float(np.mean(np.abs(grid_eval_sequence(seq, G, shift=shift).values)))
            assert quadrature._grid_sum(seq, G, shift) / G == pytest.approx(one_shot, rel=1e-12)

    def test_large_n_converges_in_bounded_memory(self):
        # N = 2^18 samples 2^22..2^23 points; evaluated in cosets of 2^20 its
        # traced peak stays within three complex arrays of one coset
        seq = random_sequence(1 << 18, 5)
        tracemalloc.start()
        try:
            est = sn.l1_norm(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.converged
        assert est.grids[0][0] == 1 << 22
        assert peak < 3 * 16 * quadrature._CHUNK

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
        est = quadrature.L1Estimate(value, ((16, value),), True, 0.0)
        monkeypatch.setattr(quadrature, "_refine", lambda seq, rel_tol: est)
        with pytest.raises(InvariantError, match=message):
            sn.l1_norm(sn.CoefficientSequence(2, [1.0, 1.0]))

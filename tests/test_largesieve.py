import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievenorm as sn
from sievenorm import largesieve
from sievenorm.errors import CapacityError, InvariantError
from sievenorm.experiments import _TRIAL_PARAM_POOL, _TRIAL_SQUARE_POOL


def fraction_point_set(tables, kind, parameter):
    """Reference (points, delta) built with fractions.Fraction, one point at a time."""
    fracs = set()
    if kind == "reduced_farey":
        for q in range(1, parameter + 1):
            for a in range(1, q + 1):
                if math.gcd(a, q) == 1:
                    fracs.add(Fraction(a % q, q))
    else:
        for p in tables.primes[tables.primes <= parameter].tolist():
            q = p * p if kind == "prime_square_farey" else p
            fracs.update(Fraction(a, q) for a in range(1, q))
    ordered = sorted(fracs, key=float)
    return np.array([float(f) for f in ordered]), fraction_delta(ordered)


def fraction_delta(ordered):
    """The minimal circular gap of sorted Fractions in [0, 1), rounded down to a float."""
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    gap = min(gaps + [1 - ordered[-1] + ordered[0]])
    delta = float(gap)
    if Fraction(delta) > gap:
        delta = math.nextafter(delta, 0.0)
    return delta


class TestBuildPointSet:
    def test_frozen_reduced_farey_3(self, tables):
        ps = sn.build_point_set(tables, "reduced_farey", 3)
        np.testing.assert_allclose(ps.points, [0.0, 1 / 3, 1 / 2, 2 / 3])
        assert ps.delta == pytest.approx(1 / 6)
        assert ps.kind == "reduced_farey(3)"

    def test_frozen_prime_farey_3(self, tables):
        ps = sn.build_point_set(tables, "prime_farey", 3)
        np.testing.assert_allclose(ps.points, [1 / 3, 1 / 2, 2 / 3])
        assert ps.delta == pytest.approx(1 / 6)

    def test_frozen_prime_square_farey_2(self, tables):
        # 1/4, 2/4, 3/4; 2/4 is stored reduced, as 1/2
        ps = sn.build_point_set(tables, "prime_square_farey", 2)
        np.testing.assert_allclose(ps.points, [0.25, 0.5, 0.75])
        assert ps.delta == pytest.approx(0.25)

    def test_tiny_families(self, tables):
        ps = sn.build_point_set(tables, "reduced_farey", 2)
        np.testing.assert_allclose(ps.points, [0.0, 0.5])
        assert ps.delta == pytest.approx(0.5)
        single = sn.build_point_set(tables, "prime_farey", 2)
        np.testing.assert_allclose(single.points, [0.5])
        assert single.delta == 1.0  # singleton is 1-spaced by convention

    def test_certified_spacing_sweep(self, tables):
        for kind, params, power in [
            ("reduced_farey", (10, 100, 1000), 2),
            ("prime_farey", (10, 100, 1000), 2),
            ("prime_square_farey", (5, 17, 100), 4),
        ]:
            for p in params:
                ps = sn.build_point_set(tables, kind, p)
                # certified delta respects the analytic guarantee...
                assert ps.delta >= 1.0 / p**power * (1 - 1e-12)
                # ...and the float points honor it up to point-rounding (the
                # points are rounded to nearest, so a gap can sit ~2 ulps of
                # 1.0 below the exact-rational delta)
                pts = ps.points
                gaps = np.diff(pts)
                wrap = 1.0 - pts[-1] + pts[0] if len(pts) > 1 else 1.0
                measured = min(gaps.min(), wrap) if len(pts) > 1 else 1.0
                assert measured >= ps.delta - 1e-15
                assert np.all((0.0 <= pts) & (pts < 1.0))
                assert np.all(np.diff(pts) > 0)

    def test_reduced_farey_count(self, tables):
        # |F_Q| = 1 + sum_{q<=Q} phi(q)... with 0 and no duplicate 1
        for Q in (5, 22, 100):
            ps = sn.build_point_set(tables, "reduced_farey", Q)
            expected = int(np.sum(tables.phi[1 : Q + 1]))
            assert len(ps) == expected

    def test_reduced_farey_is_every_coprime_pair(self, tables):
        # the prime sieve over each block q against math.gcd, block edges included
        for Q in range(2, 41):
            num, den = sn.build_point_set(tables, "reduced_farey", Q).fractions
            got = sorted(zip(den.tolist(), num.tolist()))
            assert got == [(q, a) for q in range(1, Q + 1) for a in range(q) if math.gcd(a, q) == 1]

    def test_exact_delta_value(self, tables):
        # neighboring Farey fractions a/q, a'/q' satisfy |a/q - a'/q'| = 1/(qq'),
        # so the minimal gap for Q=5 is 1/20
        ps = sn.build_point_set(tables, "reduced_farey", 5)
        assert ps.delta == pytest.approx(float(Fraction(1, 20)))

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("reduced_farey", (2, 3, 31, 1000)),
            ("prime_farey", (2, 3, 31, 1000)),
            ("prime_square_farey", (2, 3, 11, 31)),
        ],
    )
    def test_matches_fraction_reference(self, tables, kind, params):
        for p in params:
            ps = sn.build_point_set(tables, kind, p)
            points, delta = fraction_point_set(tables, kind, p)
            assert np.array_equal(ps.points, points)
            assert ps.delta == delta

    def test_exact_form(self, tables):
        ps = sn.build_point_set(tables, "prime_square_farey", 3)
        num, den = ps.fractions
        assert num.dtype == den.dtype == np.int64
        assert np.array_equal(ps.points, num / den)
        assert np.all(np.gcd(num, den) == 1)
        with pytest.raises(ValueError):
            num[0] = 2
        with pytest.raises(ValueError):
            sn.SpacedPointSet(([0, 1], [1, 2, 3]))

    def test_certification_rejects_duplicates_and_short_gaps(self):
        with pytest.raises(ValueError, match="hand\\(dup\\): points 1/3 and 1/3 are not distinct"):
            sn.SpacedPointSet(([0, 1, 1, 2], [1, 3, 3, 3]), "hand(dup)")
        # the sorted order can fail only on the helper's own input: 1/2 before 1/3
        num, den = np.array([0, 1, 1]), np.array([1, 2, 3])
        with pytest.raises(InvariantError, match="out of order"):
            largesieve._min_gap(num, den, "hand(order)")
        num, den = np.array([0, 1, 1]), np.array([1, 3, 2])
        ok, cross = largesieve._min_gap(num, den, "hand(ok)")
        assert ok == fraction_delta([Fraction(0), Fraction(1, 3), Fraction(1, 2)])
        assert cross.tolist() == [1, 1, 1]  # Farey neighbours, the wrap 1/2 -> 1/1 included

    def test_int64_guard_precedes_allocation(self, tables):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                sn.build_point_set(tables, "reduced_farey", 100_000)
            with pytest.raises(CapacityError):
                sn.build_point_set(tables, "prime_square_farey", 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # a family within the guard still certifies
        assert sn.build_point_set(tables, "prime_square_farey", 31).delta > 0

    def test_build_holds_few_pair_length_arrays(self, tables):
        # reduced_farey(1000) holds 304,192 pairs: 2.3 MiB per int64 array, and
        # the finished set keeps 7 MiB (num, den and points); a build that held
        # about nine such arrays at once would peak near 21 MiB
        sn.build_point_set(tables, "reduced_farey", 1000)  # one-time state outside the trace
        tracemalloc.start()
        try:
            point_set = sn.build_point_set(tables, "reduced_farey", 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(point_set) == 304_192
        assert peak <= 13 << 20

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            sn.build_point_set(tables, "nope", 5)
        with pytest.raises(ValueError):
            sn.build_point_set(tables, "reduced_farey", 1)
        for kind in ("reduced_farey", "prime_farey"):
            with pytest.raises(ValueError, match="tables cover"):
                sn.build_point_set(tables, kind, tables.n_max + 1)


class TestPointCount:
    @pytest.mark.parametrize(
        "kind, pool",
        [
            ("reduced_farey", _TRIAL_PARAM_POOL),
            ("prime_farey", _TRIAL_PARAM_POOL),
            ("prime_square_farey", _TRIAL_SQUARE_POOL),
        ],
    )
    def test_counts_the_built_set(self, tables, kind, pool):
        for param in (2, 3, *pool):
            count = sn.point_count(tables, kind, param)
            assert isinstance(count, int)
            assert count == len(sn.build_point_set(tables, kind, param))

    @pytest.mark.parametrize(
        "kind, param, match",
        [
            ("nope", 5, "unknown point-set kind"),
            ("reduced_farey", 1, "must be >= 2"),
            ("prime_farey", 41, "tables cover"),
            ("prime_square_farey", 41, "tables cover"),
        ],
    )
    def test_raises_what_the_builder_raises(self, kind, param, match):
        tables = sn.build_tables(40)
        for route in (sn.point_count, sn.build_point_set):
            with pytest.raises(ValueError, match=match):
                route(tables, kind, param)

    def test_wrong_count_is_caught(self, tables, monkeypatch):
        count = largesieve.point_count
        monkeypatch.setattr(largesieve, "point_count", lambda *args: count(*args) + 1)
        with pytest.raises(InvariantError, match=r"prime_farey\(13\): certified 35 points"):
            sn.build_point_set(tables, "prime_farey", 13)


class TestClassWeightTables:
    """``_class_weights`` reads mu and phi from the caller's tables where they
    reach max_den and sieves its own only where they do not."""

    def test_families_sieve_no_tables_of_their_own(self, tables, monkeypatch):
        built = []
        monkeypatch.setattr(largesieve, "build_tables", lambda n: built.append(n))
        for kind, pool in (("reduced_farey", _TRIAL_PARAM_POOL), ("prime_square_farey", (2, 31))):
            for param in pool:
                sn.build_point_set(tables, kind, param)
        assert built == []

    def test_short_tables_and_bare_sets_sieve_their_own(self, monkeypatch):
        small = sn.build_tables(40)
        built, build_tables = [], largesieve.build_tables

        def counted(n):
            built.append(n)
            return build_tables(n)

        monkeypatch.setattr(largesieve, "build_tables", counted)
        ps = sn.build_point_set(small, "prime_square_farey", 31)  # max den 961 > 40
        bare = sn.SpacedPointSet(ps.fractions)
        assert built == [961, 961]
        assert all(np.array_equal(a, b) for a, b in zip(ps._weights, bare._weights))
        assert all(np.array_equal(a, b) for a, b in zip(ps._sample, bare._sample))
        assert "tables" not in vars(ps)  # init-only: the set keeps no tables

    def test_tables_that_miscount_a_class_fail_the_self_check(self, tables):
        # phi(5) = 2 makes {1/5, 2/5} read as the full class mod 5
        phi = tables.phi.copy()
        phi[5] = 2
        bad = dataclasses.replace(tables, phi=phi)
        fractions = (np.array([1, 2]), 5)
        with pytest.raises(InvariantError, match="class weights do not count the full classes"):
            sn.SpacedPointSet(fractions, tables=bad)
        assert len(sn.SpacedPointSet(fractions, tables=tables)) == 2


class TestExactPointSet:
    def test_measures_gap(self):
        ps = sn.SpacedPointSet(([1, 2, 9], 10))
        assert ps.delta == pytest.approx(0.1)
        assert ps.kind == "exact(3)"
        # mixed denominators: the exact minimal gap 1/3 - 1/4 = 1/12
        assert sn.SpacedPointSet(([1, 1, 3], [3, 4, 4])).delta == pytest.approx(1 / 12)

    def test_mod_one_and_duplicates(self):
        ps = sn.SpacedPointSet(([-1, 5], 4))
        assert ps.fractions[0].tolist() == [1, 3]
        assert ps.fractions[1].tolist() == [4, 4]
        np.testing.assert_array_equal(ps.points, [0.25, 0.75])
        reduced = sn.SpacedPointSet(([0, 2, 6, 3], [4, 4, 8, 9]))  # stored reduced
        assert reduced.fractions[0].tolist() == [0, 1, 1, 3]
        assert reduced.fractions[1].tolist() == [1, 3, 2, 4]
        for num, den in (([1, 5], 4), ([1, 2], [2, 4]), ([0, 3], [1, 3])):
            with pytest.raises(ValueError, match="not distinct"):
                sn.SpacedPointSet((num, den))

    def test_singleton(self):
        ps = sn.SpacedPointSet(([37], 100))
        assert ps.delta == 1.0
        assert ps.points.tolist() == [0.37]

    def test_matches_farey_family(self, tables):
        ref = sn.build_point_set(tables, "reduced_farey", 22)
        ps = sn.SpacedPointSet(ref.fractions)
        assert np.array_equal(ps.points, ref.points)
        assert ps.delta == ref.delta

    @pytest.mark.parametrize(
        "num, den",
        [
            (np.array([], dtype=int), 3),
            ([[1, 2]], 3),
            (1, 3),
            ([1, 2], [3, 4, 5]),
            ([1, 2], 0),
            ([1, 2], [3, -3]),
            ([0.5, 1.5], 3),
            ([1, 2], 3.0),
        ],
        ids=[
            "empty", "2d", "scalar", "mismatch", "zero_den", "negative_den", "float_num", "float_den"
        ],
    )
    def test_rejects_bad_shapes_and_denominators(self, num, den):
        with pytest.raises(ValueError):
            sn.SpacedPointSet((num, den))

    def test_int64_guard(self):
        with pytest.raises(CapacityError):
            sn.SpacedPointSet(([1, 2], 100_000))

    @settings(deadline=None, max_examples=60)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(1, 60)), min_size=1, max_size=40
        ),
        k=st.integers(2, 50),
        pick=st.integers(0, 10**6),
    )
    def test_constructor_properties(self, pairs, k, pick):
        # one pair per distinct point mod 1, as drawn (unreduced, any sign)
        distinct = list({Fraction(a % q, q): (a, q) for a, q in pairs}.values())
        num, den = (np.array(column) for column in zip(*distinct))
        ps = sn.SpacedPointSet((num, den))
        n, d = ps.fractions
        assert np.all(np.gcd(n, d) == 1) and np.all((0 <= n) & (n < d))
        assert np.all(np.diff(ps.points) > 0)
        ordered = sorted(Fraction(a % q, q) for a, q in distinct)
        assert [Fraction(int(a), int(q)) for a, q in zip(n, d)] == ordered
        assert ps.delta == fraction_delta(ordered)
        scaled = sn.SpacedPointSet((num * k, den * k))
        assert np.array_equal(scaled.fractions, ps.fractions)
        assert scaled.delta == ps.delta
        assert all(np.array_equal(a, b) for a, b in zip(scaled._weights, ps._weights))
        # any stored point again, here as an unreduced pair one turn lower
        i = pick % len(ps)
        with pytest.raises(ValueError, match="not distinct"):
            sn.SpacedPointSet((np.append(num, (n[i] - d[i]) * k), np.append(den, d[i] * k)))


def gcd_first(num, den, kind):
    """The set by a second route: reduce every pair by its gcd, sort by value,
    take delta by Fraction over the near-minimal gaps, then the class weights."""
    num, den = (a.astype(np.int64) for a in np.broadcast_arrays(num, den))
    num = num % den
    g = np.gcd(num, den)
    num, den = num // g, den // g
    order = np.argsort(num / den)
    num, den = num[order], den[order]
    nxt_num, nxt_den = np.roll(num, -1), np.roll(den, -1)
    nxt_num[-1] += nxt_den[-1]
    gaps = (nxt_num * den - num * nxt_den) / (den * nxt_den)
    near = np.flatnonzero(gaps <= gaps.min() * (1 + 1e-6))
    gap = min(
        Fraction(int(nxt_num[i]), int(nxt_den[i])) - Fraction(int(num[i]), int(den[i]))
        for i in near
    )
    delta = float(gap)
    if Fraction(delta) > gap:
        delta = math.nextafter(delta, 0.0)
    ref = object.__new__(sn.SpacedPointSet)
    fields = {"fractions": (num, den), "kind": kind, "delta": delta, "points": num / den}
    for name, value in fields.items():
        object.__setattr__(ref, name, value)
    ref._class_weights(den, int(den.max()))
    return ref


def assert_same_set(ps, ref):
    assert all(np.array_equal(a, b) for a, b in zip(ps.fractions, ref.fractions))
    assert np.array_equal(ps.points, ref.points)
    assert ps.delta == ref.delta
    assert all(np.array_equal(a, b) for a, b in zip(ps._weights, ref._weights))
    assert np.array_equal(ps._partial, ref._partial)
    assert all(np.array_equal(a, b) for a, b in zip(ps._sample, ref._sample))


class TestCertifiedReduction:
    """The constructor sorts the pairs as given, certifies them by their
    cross-products and takes a gcd only where no unit cross-product proves a
    pair reduced; a gcd-first route must give the same set."""

    @pytest.mark.parametrize(
        "kind, pool",
        [
            ("reduced_farey", _TRIAL_PARAM_POOL),
            ("prime_farey", _TRIAL_PARAM_POOL),
            ("prime_square_farey", _TRIAL_SQUARE_POOL),
        ],
    )
    def test_families_match_gcd_first(self, tables, monkeypatch, kind, pool):
        given = []

        def spy(fractions, kind="", tables=None):
            given.append(fractions)
            return sn.SpacedPointSet(fractions, kind, tables)

        monkeypatch.setattr(largesieve, "SpacedPointSet", spy)
        for param in pool:
            ps = largesieve.build_point_set(tables, kind, param)
            assert_same_set(ps, gcd_first(*given[-1], ps.kind))

    def test_farey_neighbours_take_no_gcd(self, tables, monkeypatch):
        sizes, gcd = [], np.gcd

        def counted(a, b):
            sizes.append(np.size(a))
            return gcd(a, b)

        monkeypatch.setattr(np, "gcd", counted)
        for Q in _TRIAL_PARAM_POOL:
            sn.build_point_set(tables, "reduced_farey", Q)
        assert sum(sizes) == 0
        # 2/4 is reducible, so no cross-product with it is 1: it reaches the gcd
        sn.build_point_set(tables, "prime_square_farey", 2)
        assert sum(sizes) >= 1

    @pytest.mark.parametrize(
        "num, den, fractions, delta",
        [
            # the unreduced max den fails the int64 guard: reduce all, then accept
            ([0, 50000], [1, 100000], ([0, 1], [1, 2]), 0.5),
            # 2/4 sits between certified neighbours 0/1 and 2/3
            ([0, 2, 2], [1, 4, 3], ([0, 1, 2], [1, 2, 3]), 1 / 6),
            ([6, 3, 10], [8, 9, 12], ([1, 3, 5], [3, 4, 6]), 1 / 12),
        ],
    )
    def test_hand_sets(self, num, den, fractions, delta):
        ps = sn.SpacedPointSet((num, den))
        assert [a.tolist() for a in ps.fractions] == list(fractions)
        assert ps.delta == delta
        assert_same_set(ps, gcd_first(np.array(num), np.array(den), ps.kind))

    @pytest.mark.parametrize(
        "num, den, pair",
        [
            ([1, 2], [2, 4], "1/2 and 1/2"),
            ([0, 2, 1, 2], [1, 4, 2, 3], "1/2 and 1/2"),
            ([0, 3, 1], [1, 3, 2], "0/1 and 0/1"),
            ([4, 6, 1], [6, 9, 5], "2/3 and 2/3"),
        ],
    )
    def test_repeats_are_named_in_lowest_terms(self, num, den, pair):
        with pytest.raises(ValueError, match=f"hand: points {pair} are not distinct modulo 1"):
            sn.SpacedPointSet((num, den), "hand")


def check_one(seq, ps, shift=0.0):
    (res,) = sn.large_sieve_check([seq], ps, [shift])
    return res


class TestLargeSieveCheck:
    def test_equispaced_exact_values(self, rng):
        # M equispaced points with N <= M: lhs = M * sum |a|^2 exactly
        N, M = 8, 16
        coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
        seq = sn.CoefficientSequence(N, coeffs)
        ps = sn.SpacedPointSet((np.arange(M), M))
        assert ps.delta == 1 / M
        res = check_one(seq, ps)
        assert res.lhs == pytest.approx(M * sn.l2_norm_sq(seq), rel=1e-12)
        assert res.ratio == pytest.approx(M / (N + M - 1), rel=1e-12)

    def test_near_sharp_equispaced(self, rng):
        # M = N + 1 sits at ratio (N+1)/2N; M >> N pushes the ratio toward 1
        N = 16
        seq = sn.CoefficientSequence(N, rng.normal(size=N) + 0j)
        tight = check_one(seq, sn.SpacedPointSet((np.arange(N + 1), N + 1)))
        assert tight.ratio == pytest.approx((N + 1) / (2 * N), rel=1e-12)
        M = 4096
        wide = check_one(seq, sn.SpacedPointSet((np.arange(M), M)))
        assert wide.ratio == pytest.approx(M / (N + M - 1), rel=1e-12)
        assert wide.ratio > 0.99

    def test_single_point_is_cauchy_schwarz(self, rng):
        seq = sn.CoefficientSequence(32, rng.normal(size=32) + 0j)
        ps = sn.SpacedPointSet(([123], 1000))
        res = check_one(seq, ps)
        assert res.rhs == pytest.approx(32 * sn.l2_norm_sq(seq))
        assert res.ratio <= 1.0

    def test_shift_invariance_of_bound(self, tables, rng):
        seq = sn.coefficient_sequence(tables, "mobius", 512)
        ps = sn.build_point_set(tables, "reduced_farey", 22)
        base_rhs = check_one(seq, ps).rhs
        for res in sn.large_sieve_check([seq] * 100, ps, rng.uniform(0, 1, 100)):
            assert res.rhs == base_rhs
            assert res.ratio <= 1.0 + 1e-9

    @settings(deadline=None, max_examples=40)
    @given(
        param=st.integers(2, 12),
        n=st.integers(4, 64),
        seed=st.integers(0, 1000),
        kind_idx=st.integers(0, 2),
        shift=st.floats(0, 1, allow_nan=False),
    )
    def test_inequality_randomized(self, tables, param, n, seed, kind_idx, shift):
        kind = sn.FAREY_KINDS[kind_idx]
        ps = sn.build_point_set(tables, kind, param)
        seq = sn.coefficient_sequence(tables, "random_complex", n, seed=seed)
        assert check_one(seq, ps, shift).ratio <= 1.0 + 1e-9

    @pytest.mark.parametrize("kind", sn.FAREY_KINDS)
    def test_per_denominator_matches_pointwise(self, tables, rng, kind):
        # one mixed batch: every kind, length and shift together, each row
        # matching the pointwise sum and its own one-element call
        param = 11 if kind == "prime_square_farey" else 100
        ps = sn.build_point_set(tables, kind, param)
        seqs, shifts = [], []
        for seq_kind in ("random_complex", "mobius", "ones", "mangoldt"):
            for N, shift in ((8, 0.0), (97, rng.uniform()), (512, rng.uniform())):
                seqs.append(sn.coefficient_sequence(tables, seq_kind, N, seed=N))
                shifts.append(shift)
        batch = sn.large_sieve_check(seqs, ps, shifts)
        assert len(batch) == len(seqs)
        for seq, shift, res in zip(seqs, shifts, batch):
            pointwise = sn.eval_sequence(seq, ps.points + shift)
            want = float(np.sum(np.abs(pointwise) ** 2))
            assert res.lhs == pytest.approx(want, rel=1e-12)
            alone = check_one(seq, ps, shift)
            assert res.lhs == pytest.approx(alone.lhs, rel=1e-12)
            assert res.rhs == alone.rhs

    @staticmethod
    def assert_matches_pointwise(tables, ps):
        # N = 1 needs no energies, N = 5 sits below and N = 40 above most d
        seqs, shifts = [], []
        for N, shift in ((1, 0.25), (5, 0.0), (5, 0.6), (40, 0.0), (40, 0.3)):
            for seq_kind in ("random_complex", "ones"):
                seqs.append(sn.coefficient_sequence(tables, seq_kind, N, seed=N))
                shifts.append(shift)
        for seq, shift, res in zip(seqs, shifts, sn.large_sieve_check(seqs, ps, shifts)):
            want = float(np.sum(np.abs(sn.eval_sequence(seq, ps.points + shift)) ** 2))
            assert res.lhs == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("M", [12, 30, 64])
    def test_divisor_classes_match_pointwise(self, tables, M):
        # a/M, a < M, reduces to the full coprime class mod d for every d | M
        ps = sn.SpacedPointSet((np.arange(M), M))
        assert ps._partial.size == 0
        self.assert_matches_pointwise(tables, ps)

    @pytest.mark.parametrize("num, den", [([1, 2, 9], 10), ([123], 1000)])
    def test_partial_groups_match_pointwise(self, tables, num, den):
        ps = sn.SpacedPointSet((num, den))
        assert ps._partial.size == len(ps)
        self.assert_matches_pointwise(tables, ps)

    @pytest.mark.parametrize("kind", sn.FAREY_KINDS)
    @pytest.mark.parametrize("param", [2, 3, 7])
    def test_small_families_match_pointwise(self, tables, kind, param):
        ps = sn.build_point_set(tables, kind, param)
        assert ps._partial.size == 0
        self.assert_matches_pointwise(tables, ps)

    def test_batch_validation(self, tables):
        ps = sn.build_point_set(tables, "reduced_farey", 5)
        seq = sn.coefficient_sequence(tables, "ones", 8)
        with pytest.raises(ValueError, match="one shift per sequence"):
            sn.large_sieve_check([seq, seq], ps, [0.0])
        with pytest.raises(ValueError, match="one shift per sequence"):
            sn.large_sieve_check([], ps, [])

    def test_corrupted_energies_are_caught(self, tables, monkeypatch):
        # a roll of one sequence's class sums inside one modulus only
        # translates it, which leaves every energy unchanged; rolling its
        # energies across the moduli files each A_d under another d
        ps = sn.build_point_set(tables, "reduced_farey", 50)
        seqs = [sn.coefficient_sequence(tables, "random_complex", 60 + t, seed=t) for t in range(5)]
        check_one(seqs[3], ps, 0.3)  # sound before the corruption
        energies = largesieve._class_energies

        def corrupt_row_3(*args):
            values = energies(*args)
            values[3] = np.roll(values[3], 1)
            return values

        monkeypatch.setattr(largesieve, "_class_energies", corrupt_row_3)
        with pytest.raises(InvariantError, match="pointwise") as err:
            sn.large_sieve_check(seqs, ps, [0.3] * 5)
        assert "N=63" in str(err.value)

    def test_nan_energies_are_caught(self, tables, monkeypatch):
        # a NaN compares false against every bound, so each check must be
        # written to fail on it
        ps = sn.build_point_set(tables, "reduced_farey", 22)
        seq = sn.coefficient_sequence(tables, "mobius", 512)

        def nan_values(coeffs, n, row, moduli):
            return np.full((int(row[-1]) + 1, len(moduli)), np.nan)

        monkeypatch.setattr(largesieve, "_class_energies", nan_values)
        with pytest.raises(InvariantError, match="pointwise") as err:
            check_one(seq, ps)
        assert "N=512" in str(err.value)

    def test_misplaced_coefficient_is_caught(self, tables, monkeypatch):
        # sequence 2's a_1 binned as if it were a_2: no longer a translate
        ps = sn.build_point_set(tables, "prime_farey", 100)
        seqs = [sn.coefficient_sequence(tables, "random_complex", 40 + t, seed=t) for t in range(4)]
        energies = largesieve._class_energies

        def misplaced(coeffs, n, row, moduli):
            n = n.copy()
            n[np.flatnonzero(row == 2)[0]] += 1
            return energies(coeffs, n, row, moduli)

        monkeypatch.setattr(largesieve, "_class_energies", misplaced)
        with pytest.raises(InvariantError, match="pointwise") as err:
            sn.large_sieve_check(seqs, ps, [0.7] * 4)
        assert "N=42" in str(err.value)

    def test_lying_delta_is_caught(self):
        # a certified set whose delta is overwritten with a wild overstatement
        # must trip the internal invariant: three near-coincident points
        # behave like one
        fake = sn.SpacedPointSet(([0, 1, 2], [1, 1000, 1000]), "hand(lying)")
        object.__setattr__(fake, "delta", 1.0)
        seq = sn.CoefficientSequence(64, np.ones(64))
        with pytest.raises(InvariantError):
            check_one(seq, fake)

    def test_oversized_denominator_is_rejected(self):
        # a denominator past the int64 guard is refused when the set is
        # built, before any length-q array could be asked for
        with pytest.raises(CapacityError):
            sn.SpacedPointSet(([1, 2], 10**12))

    def test_peak_memory_is_bounded(self, tables):
        # a (sequences x points) complex array would be 26 * 304,193 * 16 B = 127 MB
        ps = sn.build_point_set(tables, "reduced_farey", 1000)
        seqs = [sn.coefficient_sequence(tables, "random_complex", 512, seed=s) for s in range(26)]
        tracemalloc.start()
        try:
            sn.large_sieve_check(seqs, ps, np.linspace(0, 1, 26, endpoint=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestKernelGapBound:
    def test_frozen_values(self, tables_mid):
        assert sn.sieve_bound_for_kernel_gap(tables_mid, 10**4, 10, "gstar") == pytest.approx(4999.75)
        assert sn.sieve_bound_for_kernel_gap(tables_mid, 10**4, 100, "h") == pytest.approx(799.96)
        assert sn.sieve_bound_for_kernel_gap(tables_mid, 16, 2, "gstar") == pytest.approx(31.0)

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            sn.sieve_bound_for_kernel_gap(tables, 16, 2, "fejer")
        with pytest.raises(ValueError):
            sn.sieve_bound_for_kernel_gap(tables, 16, 1, "gstar")
        with pytest.raises(ValueError):
            sn.sieve_bound_for_kernel_gap(tables, 0, 2, "h")


class TestSpacedPointSetType:
    def test_validation(self):
        with pytest.raises(ValueError):
            sn.SpacedPointSet(([], []), "x")
        with pytest.raises(ValueError):
            sn.SpacedPointSet(([1], [0]), "x")
        with pytest.raises(TypeError):  # delta is derived, never an input
            sn.SpacedPointSet(([1], [10]), "x", delta=0.5)

    def test_points_read_only(self, tables):
        ps = sn.build_point_set(tables, "reduced_farey", 4)
        with pytest.raises(ValueError):
            ps.points[0] = 0.9

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothdiv import (
    DomainError,
    DsaParams,
    ResourceError,
    ScaledParams,
    build_sieve,
    eta_empirical,
    omega,
    phi_exact,
    psi_exact,
    rho,
    s_exact,
    smooth_numbers,
    smooth_part,
    theta_exact,
    theta_exact_decomposed,
    weighted_smooth_sum,
    zeta_one_y,
)
from smoothdiv import cli, harness, oracle
from smoothdiv.oracle import WeightKind

from oracles import sieve_primes_full_flags


def brute_smooth_part(n, y):
    s, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            pk = 1
            while n % d == 0:
                n //= d
                pk *= d
            if d <= y:
                s *= pk
        d += 1
    if n > 1 and n <= y:
        s *= n
    return s


def brute_smooth_part_upto(n, bound, primes):
    """Smooth part of n over ``primes`` <= bound, by Python-int trial division."""
    s = 1
    for p in primes:
        if p > bound:
            break
        while n % p == 0:
            n //= p
            s *= p
    return s


class TestBuildSieve:
    def test_spf_entries(self, sieve_small):
        assert sieve_small.spf[12] == 2
        assert sieve_small.spf[91] == 7
        assert sieve_small.spf[97] == 97

    def test_spf_is_least_prime_factor(self, sieve_small):
        rng = np.random.Generator(np.random.Philox(key=5))
        for n in rng.integers(2, 10**5, size=300).tolist():
            p = int(sieve_small.spf[n])
            assert n % p == 0
            for q in range(2, p):
                assert n % q != 0

    def test_prime_count(self, sieve_small):
        assert sieve_small.primes_upto(30.0).size == 10
        assert sieve_small.primes_upto(2.0).tolist() == [2]
        assert sieve_small.primes_upto(1.9).size == 0

    def test_primes_match_fixed_points(self, sieve_small):
        spf = sieve_small.spf
        fixed = np.flatnonzero(spf[2:] == np.arange(2, spf.size, dtype=spf.dtype)) + 2
        assert np.array_equal(fixed, sieve_small.primes)

    def test_limit_validation(self):
        with pytest.raises(DomainError):
            build_sieve(1)
        with pytest.raises(ResourceError):
            build_sieve(10**7, ceiling=10**6)

    @pytest.mark.parametrize("limit", [10**16, 2**63])
    def test_unallocatable_sieve_is_a_resource_error(self, limit):
        # 10**16 flags (8.9 PiB) exceed any address space and 2**63 exceeds
        # numpy's largest dimension, so nothing is ever allocated.
        with pytest.raises(ResourceError):
            build_sieve(limit, ceiling=2**64)

    def test_spf_is_built_only_when_read(self):
        # 40 MB of uint32 at 1e7 that no count reads.
        t = build_sieve(10**7)
        assert "spf" not in vars(t)
        spf = t.spf
        assert vars(t)["spf"] is spf and t.spf is spf
        assert spf.size == 10**7 + 1 and spf[9999991] == 9999991  # the largest prime


class TestPrimeTable:
    """A table to min(y, x): counts up to x over the primes up to y."""

    @pytest.mark.parametrize("y, bound", [
        (30.0, 30), (30.9, 30), (1e5, 1000), (math.inf, 1000), (1000.0, 1000),
        (1.999, 1), (0.5, 1), (-math.inf, 1),
    ])
    def test_lists_the_primes_up_to_min_y_limit(self, sieve_small, y, bound):
        # The CLI's table for a count up to 1000 with parameter y.
        t = cli._sieve_for(1000, cli.Settings(), y)
        assert t.limit == max(bound, 2)
        assert np.array_equal(t.primes_upto(min(y, 1000)), sieve_small.primes_upto(bound))

    def test_limit_is_held_to_the_ceiling_as_in_build_sieve(self):
        # The ceiling caps the table, the primes up to min(y, bound), and not
        # the counting bound itself: y = 10 needs a table to 10 only.
        with pytest.raises(ResourceError, match="exceeds the ceiling"):
            cli._sieve_for(10**7, cli.Settings(sieve_ceiling=10**6), math.inf)
        assert cli._sieve_for(10**7, cli.Settings(sieve_ceiling=10**6), 10.0).limit == 10
        with pytest.raises(DomainError):
            build_sieve(1)
        with pytest.raises(DomainError):
            cli._sieve_for(100, cli.Settings(), math.nan)

    @pytest.mark.parametrize("y", [31.0, 100.0, 1e6, math.inf])
    def test_primes_past_the_bound_are_refused(self, y):
        t = build_sieve(30)
        assert t.primes_upto(30.999).size == 10
        with pytest.raises(ResourceError, match="sieve limit 30"):
            t.primes_upto(y)

    def test_a_short_table_has_no_spf(self, sieve_small):
        # A table to min(y, x) has an spf too: the full table's prefix.
        for limit in (2, 30, 1000):
            assert np.array_equal(build_sieve(limit).spf, sieve_small.spf[: limit + 1])

    def test_counts_match_the_full_sieve(self, sieve_small):
        # x beyond y's primes: a count that asked for more would raise.
        for y in (0.5, 2.0, 7.5, 97.0, 1e3):
            t = build_sieve(max(2, math.floor(min(y, 10**5))))
            assert psi_exact(10**5, y, t) == psi_exact(10**5, y, sieve_small)
            assert phi_exact(10**5, y, t) == phi_exact(10**5, y, sieve_small)
            assert smooth_part(99960, y, t) == smooth_part(99960, y, sieve_small)
            for z in (0.5, 10.0, 5e4):
                assert (theta_exact_decomposed(10**5, y, z, t)
                        == theta_exact(10**5, y, z, sieve_small))
                assert s_exact(y, z, t) == s_exact(y, z, sieve_small)


class TestSievePins:
    """Exact bytes of the SPF table, the prime list and the Euler product, so
    that a new way of sieving must reproduce them."""

    def test_sieve_bytes(self, sieve_1m):
        assert sieve_1m.spf.dtype == np.uint32 and sieve_1m.primes.dtype == np.int64
        assert hashlib.sha256(sieve_1m.spf.tobytes()).hexdigest() == (
            "b6e7392eb69c31c5d238462ff16008ed6650defbc27cd260ff8d55edd817978e")
        assert hashlib.sha256(sieve_1m.primes.tobytes()).hexdigest() == (
            "9a175956bcc0270ceaaf56af1b9f8fa19762597a1286b5124ca6d86284f60b40")

    def test_sieve_primes_peak(self):
        # The 6.2 MB int64 list at the bound on pi(10**7), cut in place, plus
        # one 256 KB block of flags; no second copy of the list.
        assert _peak_allocation(lambda: oracle.sieve_primes(10**7)) < 12 * 2**20

    def test_sieve_primes_matches_full_flag_sieve(self):
        # Every n up to 5000, and p*p and its neighbours for every prime
        # p <= 1000: p*p is where p joins the primes that sieve a block.
        # Blocks of 1, 7 and 64 flags put a block edge every few odd numbers;
        # sieving that many blocks is slow, so they take n <= 300 and p <= 50.
        # With _SPARSE at 8, the primes from 11 up take the scattered write.
        for block, sparse, top, p_max in ((None, None, 5000, 1000), (1, None, 300, 50),
                                          (7, 8, 300, 50), (64, 8, 300, 50)):
            small = sieve_primes_full_flags(p_max)
            squares = [q for p in small.tolist() for q in (p * p - 1, p * p, p * p + 1)]
            with pytest.MonkeyPatch.context() as mp:
                if block is not None:
                    mp.setattr(oracle, "_BLOCK", block)
                if sparse is not None:
                    mp.setattr(oracle, "_SPARSE", sparse)
                for n in [*range(top + 1), *squares]:
                    got = oracle.sieve_primes(n)
                    assert got.dtype == np.int64, (block, n)
                    assert np.array_equal(got, sieve_primes_full_flags(n)), (block, n)

    @pytest.mark.parametrize("n, blocks", [(99, 0), (100, 1), (101, 1), (9999, 1), (10000, 2),
                                           (10001, 2)])
    def test_primes_below_100_are_the_base(self, n, blocks, monkeypatch):
        # Below 100 the list is the fixed base; up to 10**4 its primes sieve
        # the one block above it, and from 10**4 a level more is sieved.
        marked = []
        real = oracle._mark_rough
        monkeypatch.setattr(oracle, "_mark_rough", lambda *args: marked.append(1) or real(*args))
        assert np.array_equal(oracle.sieve_primes(n), sieve_primes_full_flags(n))
        assert len(marked) == blocks

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_zeta_one_y_bits_do_not_depend_on_the_block(self, block):
        ys = (0.0, 8.0, 9.0, 100.0, 2310.0, 10007.0)
        want = [repr(zeta_one_y(y)) for y in ys]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_BLOCK", block)
            assert [repr(zeta_one_y(y)) for y in ys] == want

    @pytest.mark.parametrize("y, expected", [
        (1, "1.0"), (2, "2.0"), (100, "8.31135737891573"),
        (1e4, "16.424489632190085"), (1e6, "24.6073829476294"),
    ])
    def test_zeta_one_y_repr(self, y, expected):
        assert repr(zeta_one_y(y)) == expected

    def test_spf_matches_trial_division_at_small_limits(self):
        for limit in range(2, 200):
            t = build_sieve(limit)
            assert t.spf[0] == 0 and t.spf[1] == 1
            for n in range(2, limit + 1):
                assert int(t.spf[n]) == next(p for p in range(2, n + 1) if n % p == 0)


class TestSmoothPart:
    def test_examples(self, sieve_small):
        assert smooth_part(12, 2.0, sieve_small) == 4
        assert smooth_part(100, 5.0, sieve_small) == 100
        assert smooth_part(7, 2.0, sieve_small) == 1
        assert smooth_part(1, 2.0, sieve_small) == 1

    def test_against_brute_force(self, sieve_small):
        rng = np.random.Generator(np.random.Philox(key=6))
        for n in rng.integers(1, 10**5, size=200).tolist():
            for y in (2.0, 7.0, 31.0):
                assert smooth_part(n, y, sieve_small) == brute_smooth_part(n, y)

    def test_infinite_y_against_brute_force(self, sieve_small):
        rng = np.random.Generator(np.random.Philox(key=8))
        for n in [*range(1, 200), *rng.integers(1, 10**5 + 1, size=200).tolist(), 10**5]:
            assert smooth_part(n, math.inf, sieve_small) == brute_smooth_part(n, math.inf) == n

    def test_prime_above_y(self, sieve_small):
        # A prime above y has smooth part 1, and times 4 it keeps only the 4;
        # the table's largest primes included.
        for y in (2.0, 10.0, 96.5, 1000.0):
            big = sieve_small.primes[sieve_small.primes > y]
            for p in [*big[:20].tolist(), *big[-5:].tolist()]:
                assert smooth_part(p, y, sieve_small) == brute_smooth_part(p, y) == 1
                if 4 * p <= sieve_small.limit:
                    assert smooth_part(4 * p, y, sieve_small) == brute_smooth_part(4 * p, y) == 4

    def test_range_errors(self, sieve_small, sieve_1m):
        # n past the table: the primes up to y are all it reads.
        for n, y in ((10**5 + 1, 2.0), (2**20, 2.0), (999999, 1000.0), (10**6, 5.0)):
            assert smooth_part(n, y, sieve_small) == smooth_part(n, y, sieve_1m)
        with pytest.raises(DomainError):
            smooth_part(0, 2.0, sieve_small)


def three_smooth_upto(n):
    """The 3-smooth integers <= n, by Python-int powers."""
    out = []
    p2 = 1
    while p2 <= n:
        q = p2
        while q <= n:
            out.append(q)
            q *= 3
        p2 *= 2
    return out


class TestInt64Edge:
    """Counts answer just below 2**63, where int64 stops, and refuse at it."""

    def test_psi(self, sieve_small):
        assert psi_exact(2**63 - 1, 3.0, sieve_small) == len(three_smooth_upto(2**63 - 1))
        with pytest.raises(ResourceError):
            psi_exact(2**63, 3.0, sieve_small)

    def test_s_exact(self, sieve_small):
        partial = math.fsum(1.0 / d for d in three_smooth_upto(2**63 - 1))
        assert repr(s_exact(3.0, 2**63 - 1, sieve_small)) == repr(zeta_one_y(3.0) - partial)
        with pytest.raises(ResourceError):
            s_exact(3.0, 2**63, sieve_small)

    def test_smooth_part(self, sieve_small):
        n = 2**63 - 1  # 7**2 * 73 * 127 * 337 * 92737 * 649657
        primes = sieve_small.primes.tolist()
        for y in (7.0, 1e3, 1e5):
            assert smooth_part(n, y, sieve_small) == brute_smooth_part_upto(n, y, primes)
        assert smooth_part(n, 1e5, sieve_small) == 7**2 * 73 * 127 * 337 * 92737
        with pytest.raises(ResourceError):
            smooth_part(2**63, 7.0, sieve_small)


class TestCountingFunctions:
    def test_psi_small(self, sieve_small):
        assert psi_exact(100.0, 5.0, sieve_small) == 34
        assert psi_exact(1.0, 5.0, sieve_small) == 1  # n = 1 is smooth
        # brute force cross-check
        brute = sum(1 for n in range(1, 101) if brute_smooth_part(n, 5.0) == n)
        assert brute == 34

    def test_phi_small(self, sieve_small):
        assert phi_exact(100.0, 5.0, sieve_small) == 26
        assert phi_exact(1.0, 5.0, sieve_small) == 1  # P-(1) = infinity > y
        brute = sum(1 for n in range(1, 101) if brute_smooth_part(n, 5.0) == 1)
        assert brute == 26

    def test_theta_small(self, sieve_small):
        assert theta_exact(20.0, 2.0, 3.0, sieve_small) == 5  # multiples of 4
        assert theta_exact(20.0, 2.0, 0.5, sieve_small) == 20  # n_y >= 1 always

    def test_theta_floor_semantics(self, sieve_small):
        assert theta_exact(20.9, 2.0, 3.0, sieve_small) == theta_exact(20.0, 2.0, 3.0, sieve_small)

    def test_decomposed_equals_direct(self, sieve_small):
        for x in (20.0, 999.0, 10**4, 10**5):
            for y in (2.0, 5.0, 20.0, 100.0):
                for z in (0.5, 1.0, 10.0, 100.0):
                    assert theta_exact(x, y, z, sieve_small) == \
                        theta_exact_decomposed(x, y, z, sieve_small)

    def test_range_error(self, sieve_small, sieve_1m):
        # x past the table: the primes up to y are all psi reads.
        assert psi_exact(10**6, 5.0, sieve_small) == psi_exact(10**6, 5.0, sieve_1m)

    def test_theta_refuses_x_beyond_uint32_blocks(self):
        # A hand-built table, so no sieve runs: smooth parts up to 2**32 would
        # wrap in the uint32 blocks.
        t = oracle.SieveTables(limit=3, primes=np.array([2, 3]))
        with pytest.raises(ResourceError):
            theta_exact(2**32, 3.0, 1.0, t)

    @pytest.mark.parametrize("call", [
        lambda t: t.primes_upto(math.nan),
        lambda t: smooth_part(12, math.nan, t),
        lambda t: psi_exact(1e4, math.nan, t),
        lambda t: phi_exact(1e4, math.nan, t),
        lambda t: psi_exact(0.5, math.nan, t),
        lambda t: theta_exact(1e4, math.nan, 10.0, t),
        lambda t: theta_exact(1e4, 30.0, math.nan, t),
        lambda t: theta_exact_decomposed(1e4, math.nan, 10.0, t),
        lambda t: theta_exact_decomposed(1e4, 30.0, math.nan, t),
        lambda t: s_exact(10.0, math.nan, t),
        lambda t: psi_exact(math.inf, 5.0, t),
    ], ids=["primes_upto", "smooth_part", "psi", "phi", "psi_below_1", "theta_y",
            "theta_z", "decomposed_y", "decomposed_z", "s_z", "psi_x_inf"])
    def test_nan_bounds_are_domain_errors(self, sieve_small, call):
        # NaN compares false with everything: these raised ValueError from
        # floor(nan), or answered smooth_part(12, nan) = 12, theta(.., z=nan) = 0
        # and s_exact(10, nan) = zeta(1, 10).
        with pytest.raises(DomainError):
            call(sieve_small)

    def test_infinite_y_takes_every_prime(self, sieve_small):
        assert smooth_part(360, math.inf, sieve_small) == 360
        assert psi_exact(100.0, math.inf, sieve_small) == 100
        assert theta_exact(100.0, math.inf, 50.0, sieve_small) == 50


def reference_smooth_parts(fx, y, t):
    """The full smooth-part array sp[0..fx], filled by one stride
    multiplication per prime power."""
    sp = np.ones(fx + 1, dtype=np.int64)
    for p in t.primes_upto(min(y, fx)).tolist():
        q = p
        while q <= fx:
            sp[q::q] *= p
            q *= p
    return sp


def reference_theta(fx, y, z, t):
    """theta from the full smooth-part array."""
    return int(np.count_nonzero(reference_smooth_parts(fx, y, t)[1:] > z))


_BOUNDS = st.one_of(
    st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 0.999, 1.0, 1.5, 1.999, 2.0, math.inf]),
    st.floats(min_value=0.0, max_value=2e5),
)


class TestThetaRoutes:
    # A block of 1 puts every prime power above the block size; 7 and 64 mix
    # strided and sparse prime powers.  Small blocks cap x at 400 blocks so
    # that an example stays cheap; the default block draws x up to 1e5.  The
    # same value patched into _CHUNK splits the decomposed route's batches of
    # large-prime products.  Each example also draws the wheel, a period
    # prime to 6: 1 is no wheel, 5, 35 and 125 (which holds 25 and 125
    # beside 5) repeat within and across small blocks, 1001 = 7 * 11 * 13
    # leaves 5 to the strides, and the default lies beyond a small block's
    # x.  It draws the sparse
    # threshold too: 1 and 3 send every q through the sparse hits, 8 mixes
    # them with strides, and at the default 1024 a q takes strides where it
    # hits a block more than _BLOCK // 1024 times.
    # Beside the bounds, z takes values below 1, floor(x) and a
    # half-integer, where an integer threshold floor(z) must count the same
    # n_y as z.
    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_routes_agree_with_full_array(self, sieve_small, block, data):
        x_max = 10**5 if block is None else min(10**5, 400 * block)
        x = data.draw(st.one_of(st.integers(0, x_max), st.floats(0.0, float(x_max))), "x")
        fx = math.floor(x)
        y = data.draw(st.one_of(_BOUNDS, st.just(float(x))), "y")
        z = data.draw(st.one_of(
            _BOUNDS, st.just(float(x)), st.just(float(fx)),
            st.floats(max_value=1.0, exclude_max=True, allow_nan=False),
            st.integers(1, max(fx, 1)).map(lambda n: n - 0.5)), "z")
        wheel = data.draw(st.sampled_from([1, 5, 35, 125, 1001, None]), "wheel")
        sparse = data.draw(st.sampled_from([1, 3, 8, None]), "sparse")
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(oracle, "_BLOCK", block)
                mp.setattr(oracle, "_CHUNK", block)
            if wheel is not None:
                mp.setattr(oracle, "_WHEEL", wheel)
            if sparse is not None:
                mp.setattr(oracle, "_SPARSE", sparse)
            direct = theta_exact(x, y, z, sieve_small)
            decomposed = theta_exact_decomposed(x, y, z, sieve_small)
        want = reference_theta(fx, y, z, sieve_small) if x >= 1 else 0
        assert direct == want
        assert decomposed == want

    # y at and just below 3, where the 3-smooth m enter, and at and just
    # below each prime from 5, where the blocks start: 5 to 13 the wheel's,
    # 17 to 29 the first to take strides; at 25 and 27, the wheel's largest
    # prime power and a power of 3, which no block holds; and at 31.99 and
    # 32.  x one below, at and one above the integers whose count of entries
    # first reaches the wheel's period, where the wheel is first used, and
    # twice it, where a whole pattern is read, and the integers one and two
    # blocks span, where a block of one entry follows.
    @pytest.mark.parametrize("y", [p - d for p in (3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0,
                                                   23.0, 29.0) for d in (0.01, 0.0)]
                             + [25.0, 27.0, 31.99, 32.0])
    def test_wheel_and_block_edges(self, sieve_1m, y):
        assert oracle._WHEEL == 25025 and oracle._BLOCK == 2**18

        def span(entries):  # the integer o_(entries - 1), the last an entry count holds
            i = entries - 1
            return 3 * i + 1 + i % 2

        edges = [span(oracle._WHEEL), span(2 * oracle._WHEEL)]
        edges += [span(oracle._BLOCK), span(2 * oracle._BLOCK)]
        sp = reference_smooth_parts(max(edges) + 1, y, sieve_1m)
        for fx in (e + d for e in edges for d in (-1, 0, 1)):
            for z in (-1.0, 0.5, 1.0, 30.5, 1000.0, fx - 1.0, float(fx), fx + 5.0):
                want = int(np.count_nonzero(sp[1 : fx + 1] > z))
                assert theta_exact(float(fx), y, z, sieve_1m) == want, (fx, y, z)

    def test_wheel_patterns_kept_are_bounded(self, sieve_1m, monkeypatch):
        # One read-only pattern stays between calls, whatever the calls' y:
        # a cache of (period + block)-length patterns per y moved the
        # benchmark's peak RSS by 20 %.  A pattern holds 2 * period uint32
        # entries.  From y = 5 the wheel holds a prime, so a pattern must be
        # kept.
        monkeypatch.setattr(oracle, "_wheel_cache", {})
        for y in (3.0, 4.99, 5.0, 7.0, 12.0, 13.0, 17.0, 30.0, 1e3, math.inf):
            theta_exact(5e5, y, 100.0, sieve_1m)
            kept = list(oracle._wheel_cache.values())
            assert len(kept) <= 1
            assert sum(p.nbytes for p in kept) <= 8 * oracle._WHEEL < 1.34 * 2**20
            assert not any(p.flags.writeable for p in kept)
            assert bool(kept) == (y >= 5)

    # n = m * o with m = 2**a * 3**b and o prime to 6: n_y > z exactly when
    # o_y > floor(z) // m.  z sits at and around a 3-smooth number, where
    # floor(z) // m steps, and x next to m * o, where the prefix of o <= x // m
    # gains an entry.  Below y = 5 only 2 and 3 divide a smooth part, which
    # needs no block, below y = 3 only 2, and below y = 2 nothing.  Small
    # blocks cap x at 400 blocks, as above.
    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_powers_of_two_shift_the_threshold(self, sieve_small, block, data):
        x_max = 10**5 if block is None else 1200 * block  # 3 * c6(x_max) <= 400 blocks
        a = data.draw(st.integers(0, x_max.bit_length() - 2), "a")
        b = data.draw(st.integers(0, math.floor(math.log(x_max // 2**a, 3))), "b")
        top = (x_max - 1) // (2**a * 3**b)  # m * o + 1 <= x_max
        count = top // 6 * 2 + (top % 6 >= 1) + (top % 6 >= 5)  # the o <= top prime to 6
        i = data.draw(st.integers(0, max(count - 1, 0)), "i")
        o = 3 * i + 1 + i % 2  # the i-th integer prime to 6
        fx = 2**a * 3**b * o + data.draw(st.sampled_from([-1, 0, 1]), "dx")
        z = 2 ** data.draw(st.integers(0, x_max.bit_length()), "c") * 3 ** data.draw(
            st.integers(0, 3), "d") + data.draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5]), "dz")
        y = data.draw(st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.99, 5.0, 13.0, 1e3]), "y")
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(oracle, "_BLOCK", block)
            got = theta_exact(float(fx), y, z, sieve_small)
        assert got == (reference_theta(fx, y, z, sieve_small) if fx >= 1 else 0)

    @pytest.mark.parametrize("block", [7, 64, None])
    def test_blocks_hold_numbers_prime_to_6(self, sieve_small, block, monkeypatch):
        # n = m * o takes its smooth part from o's, so the blocks fill one
        # entry per o <= x prime to 6.
        filled = []
        real = oracle._fill_from_wheel
        monkeypatch.setattr(oracle, "_fill_from_wheel",
                            lambda out, *args: filled.append(out.size) or real(out, *args))
        if block is not None:
            monkeypatch.setattr(oracle, "_BLOCK", block)
        for x in (3, 5, 100, 101, 1000.5, 9999, 10**5):
            filled.clear()
            theta_exact(x, 30.0, 1.5, sieve_small)
            want = sum(1 for o in range(1, math.floor(x) + 1) if math.gcd(o, 6) == 1)
            assert sum(filled) == (want if x >= 5 else 0), (block, x)


class TestThetaAtScale:
    ARGS = (1e7, 1e7**0.2, 1e7**0.4)

    def test_pinned_count(self, sieve_10m):
        assert theta_exact(*self.ARGS, sieve_10m) == 918187

    # At y = 1e4 the decomposed route walks 4.7M smooth d <= 1e7: 38 MB as
    # one int64 array, 76 MB with the copy of those above z = 1e5.
    @pytest.mark.parametrize("route, args", [
        pytest.param(theta_exact, ARGS, id="direct"),
        pytest.param(theta_exact_decomposed, ARGS, id="decomposed"),
        pytest.param(theta_exact_decomposed, (1e7, 1e4, 1e5), id="decomposed-1e7-1e4-1e5"),
    ])
    def test_peak_allocation_is_far_below_x(self, sieve_10m, route, args):
        # numpy reports its buffers to tracemalloc; an int64 array over
        # 0..1e7 alone would be 80 MB.
        tracemalloc.start()
        try:
            route(*args, sieve_10m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_z_below_one_counts_without_arrays(self, sieve_10m):
        # Every n <= x has n_y >= 1 > z; the decomposed route's running count
        # of rough numbers up to x alone would be 80 MB.
        for route in (theta_exact, theta_exact_decomposed):
            got = []
            assert _peak_allocation(lambda: got.append(route(1e7, 25.0, 0.5, sieve_10m))) < 2 * 2**20
            assert got == [10**7]


class TestThetaCount:
    """The exact theta count that ``exact theta`` and ``compare --kind
    theta`` answer with: ``harness.KINDS["theta"].exact``."""

    def test_nan_bounds_are_domain_errors(self, sieve_small):
        count = harness.KINDS["theta"].exact
        for x, y, z in ((1e4, math.nan, 10.0), (1e4, 30.0, math.nan)):
            with pytest.raises(DomainError):
                count(sieve_small, None, x, y, z)


class TestRoughBlocks:
    """phi_exact and theta_exact_decomposed count rough numbers one block of
    _BLOCK at a time, at any x below 2**63 the work bound lets through."""

    # Blocks of 64 and 1000 split a count to 1e5 into up to 1563 and 101
    # blocks, the last one short; the default 2**18 leaves one block.
    @pytest.mark.parametrize("block", [64, 1000, None])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(x=st.integers(0, 10**5), y=_BOUNDS, z=_BOUNDS)
    def test_blocks_count_as_one_array(self, sieve_small, block, x, y, z):
        want = theta_exact(x, y, z, sieve_small)
        smooth_free = x - theta_exact(x, y, 1.0, sieve_small)  # the n with n_y = 1
        rough = int(np.count_nonzero(reference_smooth_parts(x, y, sieve_small)[1:] == 1))
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(oracle, "_BLOCK", block)
            phi = phi_exact(x, y, sieve_small)
            decomposed = theta_exact_decomposed(x, y, z, sieve_small)
        assert phi == rough == smooth_free
        assert decomposed == want

    # x // (floor(z) + 1) at 1e6, 1.1e6 and 3.3e6 spans 4, 5 and 13 blocks,
    # at 1e4 one; z < 1 and z >= x need none.
    @pytest.mark.parametrize("x, y, z", [
        (1e7, 30.0, 9.0), (1e7, 30.0, 8.0), (1e7, 1e3, 2.0), (1e7, 1e3, 1e3),
        (1e7, 25.0, 0.5), (1e7, 25.0, 1e7),
    ])
    def test_many_blocks_match_theta_exact(self, sieve_10m, x, y, z):
        assert theta_exact_decomposed(x, y, z, sieve_10m) == theta_exact(x, y, z, sieve_10m)

    def test_small_z_memory_stays_bounded(self, sieve_10m):
        # A running count to x // 3 took 54 MiB in int64, and the first
        # block's is 1 MiB of int32 at any x.
        for z in (2.0, 9.0):
            got = _peak_allocation(lambda: theta_exact_decomposed(1e7, 30.0, z, sieve_10m))
            assert got < 8 * 2**20

    def test_phi_memory_stays_bounded(self, sieve_10m):
        # One bool per n <= 2e8 took 190.7 MiB.
        t = build_sieve(30)
        assert _peak_allocation(lambda: phi_exact(2e8, 30.0, t)) < 8 * 2**20
        # A block sieves only by the primes up to the square root of its end,
        # so a large y costs one slice of its primes per block, not arrays
        # over all of them (34.6 MiB at y = 1e7).
        assert _peak_allocation(lambda: phi_exact(1e7, 1e7, sieve_10m)) < 8 * 2**20

    def test_zeta_memory_stays_bounded(self):
        # The primes up to 1e8 in one array peaked at 91.6 MiB; the Euler
        # product now holds the primes to 1e4 and one block of them.  The
        # peak is taken in a fresh interpreter: after the large arrays of
        # earlier tests the traced run took about 3x as long (1.6 s alone,
        # 4.9 s after this class's 1e7 counts), and glibc's malloc_trim gave
        # the speed back, so the heap those arrays left, not zeta, was slow.
        code = ("import tracemalloc; from smoothdiv import oracle; tracemalloc.start(); "
                "oracle.zeta_one_y(1e8); print(tracemalloc.get_traced_memory()[1])")
        env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300, check=True)
        assert int(proc.stdout) < 8 * 2**20

    def test_small_z_walk_memory_is_bounded(self):
        # At small z and large x the smooth d <= x dominate the peak: the
        # walk's live set holds the smooth numbers up to x / p over the
        # primes up to p, 17.9 MiB here, where the blocked theta_exact holds
        # 1.3 MiB.  This bound records that trade.
        t = build_sieve(100)
        assert _peak_allocation(lambda: theta_exact_decomposed(1e9, 100.0, 10.0, t)) < 24 * 2**20

    def test_past_2_32_counts_match_closed_forms(self):
        # Many blocks past 2**32: phi(x, 3) in closed form, phi(x, 30) by
        # inclusion-exclusion over the 2**10 divisors of 29#, and theta(x, 3, z)
        # as the closed form summed over the 3-smooth d > z.
        t = build_sieve(30)
        assert phi_exact(5 * 10**9, 3.0, t) == _phi_y3(5 * 10**9) == 1_666_666_667
        assert phi_exact(5 * 10**9, 30.0, t) == _phi_by_inclusion_exclusion(
            5 * 10**9, t.primes.tolist())
        assert theta_exact_decomposed(1e18, 3.0, 1e12, t) == _theta_y3(10**18, 10**12) == 13_009_569

    def test_past_2_32_theta_matches_the_smooth_part_array(self):
        # Rough counts to 2**18 - 1 fill one block: against phi from the full
        # smooth-part array, summed over every smooth d > z.
        t = build_sieve(30)
        x, z = 2**40, 2**22
        phi = np.cumsum(reference_smooth_parts(x // (z + 1), 30.0, t) == 1) - 1  # sp[0] = 1
        d = smooth_numbers(t.primes, x)
        assert theta_exact_decomposed(x, 30.0, z, t) == int(phi[x // d[d > z]].sum())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(x=st.integers(2**32, 2**62), hi=st.integers(0, 2**20))
    def test_past_2_32_theta_matches_the_closed_form(self, x, hi):
        # z >= x / 2**20, so the rough counts, to x // (z + 1) <= 2**20, take
        # a few blocks.
        z = x // (hi + 1)
        assert theta_exact_decomposed(x, 3.0, z, build_sieve(3)) == _theta_y3(x, z)


def _phi_y3(m: int) -> int:
    """phi(m, 3), the n <= m prime to 6: 2 floor(m/6) + [m mod 6 >= 1] + [m mod 6 >= 5]."""
    return 2 * (m // 6) + (m % 6 >= 1) + (m % 6 >= 5)


def _theta_y3(x: int, z: int) -> int:
    """theta(x, 3, z): phi(x/d, 3) summed over the d = 2**a 3**b > z."""
    total, a = 0, 1
    while a <= x:
        d = a
        while d <= x:
            total += _phi_y3(x // d) if d > z else 0
            d *= 3
        a *= 2
    return total


def _phi_by_inclusion_exclusion(x: int, primes: list[int]) -> int:
    """phi(x, max(primes)): the sum of mu(d) floor(x/d) over the d dividing
    the product of ``primes``."""
    return sum((-1) ** k * (x // math.prod(c))
               for k in range(len(primes) + 1) for c in itertools.combinations(primes, k))


def _peak_allocation(call) -> int:
    """tracemalloc's peak over ``call()``; numpy reports its buffers to it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Bounds near the sqrt(x) split of the enumeration, where a prime p moves
# from the walked primes (p*p <= x) to the ones that multiply the live set.
_NEAR_SQUARES = st.sampled_from([2, 3, 5, 7, 31, 97, 211, 313]).flatmap(
    lambda p: st.integers(p * p - 2, p * p + 2))


class TestWorkBound:
    """Every count refuses work estimated past oracle.WORK_BUDGET before it
    allocates or walks, and estimates only where its bound alone does not
    settle it."""

    @pytest.mark.parametrize("call", [
        lambda t: psi_exact(1e15, 1e3, t),
        lambda t: psi_exact(1e18, 100.0, t),
        lambda t: psi_exact(2**40, 2**8, t),  # ran in 19.6 s and 1.79 GiB
        lambda t: phi_exact(1e15, 30.0, t),
        lambda t: theta_exact_decomposed(1e15, 1e3, 1e12, t),
        lambda t: s_exact(1e3, 1e15, t),
        lambda t: s_exact(1e12, 10.0, t),  # the Euler product, past the table
        lambda t: zeta_one_y(1e12),
        lambda t: weighted_smooth_sum(ScaledParams(1e15, 1e3, 1e4), WeightKind.DICKMAN_RHO, t),
    ], ids=["psi", "psi-y100", "psi-2^40", "phi", "theta", "s", "s-zeta", "zeta", "weighted"])
    def test_refused_before_any_work(self, call, monkeypatch):
        t = build_sieve(1000)
        for name in ("_mark_rough", "_walk_small", "_prime_blocks"):
            monkeypatch.setattr(oracle, name, lambda *a: pytest.fail("worked"))
        with pytest.raises(ResourceError, match="past the budget"):
            call(t)

    def test_no_estimate_within_the_bound(self, sieve_10m, monkeypatch):
        # Every exact-grid and cli-mix count lies at x <= 1e7.
        monkeypatch.setattr(oracle, "_rankin", lambda *a: pytest.fail("estimated"))
        psi_exact(1e7, 1e7**0.5, sieve_10m)
        theta_exact_decomposed(1e7, 100.0, 1e3, sieve_10m)
        s_exact(1e3, 1e7, sieve_10m)
        weighted_smooth_sum(ScaledParams(1e7, 100.0, 1e3), WeightKind.DICKMAN_RHO, sieve_10m)

    def test_past_the_bound_the_estimate_lets_small_y_through(self):
        # 1,178 3-smooth numbers up to 1e18, where x alone is 16e9 s of walk.
        t = build_sieve(3)
        assert psi_exact(1e18, 3.0, t) == 1178
        assert psi_exact(1e18, 1.5, t) == 1  # no primes: n = 1 alone

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(x=st.integers(1, 10**6), y=st.floats(0.0, 300.0))
    def test_rankin_bounds_psi(self, sieve_small, x, y):
        primes = sieve_small.primes_upto(min(y, x))
        bound = oracle._rankin(x, primes)
        assert psi_exact(x, y, sieve_small) <= bound * (1 + 1e-12) and bound <= x * (1 + 1e-12)


@pytest.mark.slow
class TestAtScale:
    """Counts at x = 1e10, past the old ceiling on x, that the work bound lets
    through (``pytest -m slow``)."""

    def test_theta_in_theorem_1_domain(self):
        # u = 3.39, v = 1.5: in Theorem 1's domain.
        assert theta_exact_decomposed(1e10, 896.0, 26820.0, build_sieve(896)) == 2_023_603_247

    def test_psi(self):
        assert psi_exact(1e10, 896.0, build_sieve(896)) == 266_861_740

    # x = 2**32 - 1, the largest the uint32 blocks take: o reaches 2**32 - 1,
    # past int32, and 3i at the last entry i = o // 3 is 2**32 - 3, so an
    # int32 or uint32 step in the entry arithmetic would wrap.  Both counts
    # were recorded before the blocks held only integers prime to 6.
    @pytest.mark.parametrize("y, z, want", [(30.0, 1e6, 6_709_456), (100.0, 1000.0, 803_663_047)])
    def test_theta_at_the_top_of_the_uint32_blocks(self, y, z, want):
        t = build_sieve(int(y))
        assert theta_exact(2**32 - 1, y, z, t) == want
        assert theta_exact_decomposed(2**32 - 1, y, z, t) == want


class TestPsiCount:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(x=st.one_of(_NEAR_SQUARES, st.integers(-3, 10**5),
                       st.floats(-10.0, 1.0), st.floats(0.0, 1e5)),
           y=st.one_of(_BOUNDS, _NEAR_SQUARES.map(float)))
    def test_count_equals_enumeration_size(self, sieve_small, x, y):
        want = smooth_numbers(sieve_small.primes_upto(min(y, x)), x).size
        assert psi_exact(x, y, sieve_small) == want

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(xs=st.lists(st.floats(-2.0, 1e5), min_size=2, max_size=6),
           ys=st.lists(_BOUNDS, min_size=2, max_size=6))
    def test_monotone_in_x_and_y(self, sieve_small, xs, ys):
        xs, ys = sorted(xs), sorted(ys)
        for y in ys:
            counts = [psi_exact(x, y, sieve_small) for x in xs]
            assert counts == sorted(counts)
        for x in xs:
            counts = [psi_exact(x, y, sieve_small) for y in ys]
            assert counts == sorted(counts)


class TestOracleMemory:
    """The exact-grid oracles hold what their answer needs, not an array per
    answer; 8 MB is an int64 array of 2**20 entries."""

    def test_psi_counts_without_an_array(self, sieve_10m):
        # The count is 3.4M: its array would be 27 MB.
        assert _peak_allocation(lambda: psi_exact(1e7, 1e7**0.5, sieve_10m)) < 8 * 2**20

    def test_s_exact_streams_its_sum(self, sieve_10m):
        # 4.7M smooth numbers up to 1e7: 38 MB as one array.
        assert _peak_allocation(lambda: s_exact(1e4, 1e7, sieve_10m)) < 8 * 2**20

    def test_monte_carlo_works_in_blocks(self, sieve_10m):
        # All 2**20 int64 samples are drawn in one call (8 MB), so that the
        # Philox stream is the one a single draw gives; the smooth-part
        # buffers then span one block, not every sample (four 8 MB buffers).
        samples = 2**20
        peak = _peak_allocation(
            lambda: eta_empirical(DsaParams(48, 8, 20), samples, 3, sieve_10m))
        assert peak < 8 * samples + 4 * 2**20


class TestZetaOneY:
    def test_small_values(self):
        assert zeta_one_y(1.9) == 1.0
        assert zeta_one_y(2.0) == 2.0
        assert zeta_one_y(5.0) == pytest.approx(3.75, rel=1e-15)

    def test_matches_direct_product(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        prod = 1.0
        for p in primes:
            prod *= p / (p - 1.0)
        assert zeta_one_y(30.0) == pytest.approx(prod, rel=1e-14)


class TestSExact:
    @pytest.mark.parametrize("y, z", [(100.0, 1e3), (1e3, 1e3), (1e3 + 0.5, 1e3), (1e3 + 1, 1e3),
                                      (5e3, 1e3), (1.5, 10.0), (0.0, 10.0)])
    def test_euler_product_bits_match_zeta_one_y(self, y, z):
        # A table whose primes reach y (y <= z) hands them to the Euler
        # product; one that stops short (y > z) leaves zeta_one_y to sieve
        # its own.  The partial sum is exactly rounded, in any order.
        t = build_sieve(max(2, math.floor(min(y, z))))
        d = smooth_numbers(t.primes_upto(min(y, z)), z)
        partial = math.fsum(memoryview(1.0 / d.astype(float)))
        assert repr(s_exact(y, z, t)) == repr(zeta_one_y(y) - partial)

    def test_examples(self, sieve_small):
        assert s_exact(5.0, 1.0, sieve_small) == pytest.approx(2.75, abs=1e-14)
        assert s_exact(2.0, 1.0, sieve_small) == pytest.approx(1.0, abs=1e-14)
        assert s_exact(7.0, 0.5, sieve_small) == zeta_one_y(7.0)

    def test_consistency_with_partial_sums(self, sieve_small):
        for (y, z) in [(5.0, 100.0), (50.0, 1000.0)]:
            d = smooth_numbers(sieve_small.primes_upto(y), z)
            partial = math.fsum(sorted(1.0 / di for di in d.tolist()))
            assert abs(s_exact(y, z, sieve_small) + partial - zeta_one_y(y)) <= 1e-12

    def test_range_error(self, sieve_small, sieve_1m):
        # z past the table: the primes up to y are all S reads.
        assert repr(s_exact(5.0, 10**6, sieve_small)) == repr(s_exact(5.0, 10**6, sieve_1m))

    # The (y, z) points of the benchmark's Lemma 3 rows, recorded before the
    # partial sum streamed from the enumeration.
    @pytest.mark.parametrize("y, z, expected", [
        (100.0, 10.0, "5.382389124947476"),
        (1000.0, 50.0, "7.851770335522238"),
        (10000.0, 1000.0, "8.93901877163974"),
        (100.0, 1e4, "0.6681479388069347"),
        (1000.0, 1e6, "1.0096353529877202"),
        (10000.0, 1e7, "2.161368261019737"),
    ])
    def test_lemma3_grid_repr(self, sieve_10m, y, z, expected):
        assert repr(s_exact(y, z, sieve_10m)) == expected


class TestSmoothNumbers:
    def test_small_enumeration(self, sieve_small):
        got = sorted(smooth_numbers(sieve_small.primes_upto(5.0), 30.0).tolist())
        assert got == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30]

    def test_count_matches_psi(self, sieve_small):
        for y in (5.0, 13.0, 97.0):
            got = smooth_numbers(sieve_small.primes_upto(y), 10**4)
            assert got.size == psi_exact(10**4, y, sieve_small)
            assert np.unique(got).size == got.size

    # y < 2 gives an empty prime list; y = 97 and 1000 put primes above the
    # smaller bounds; bound = 1000 and 5000 reach primes above sqrt(bound).
    @pytest.mark.parametrize("y", [1.5, 2.0, 5.0, 30.0, 97.0, 1000.0])
    @pytest.mark.parametrize("bound", [0.5, 1.0, 1.5, 30.7, 100.0, 1000.0, 5000.0])
    def test_matches_brute_force_filter(self, sieve_small, y, bound):
        want = [n for n in range(1, math.floor(bound) + 1)
                if smooth_part(n, y, sieve_small) == n]
        # Batches of 1 and 7 products split the large primes' products
        # mid-list; the order must not depend on where the batches split.
        runs = []
        for chunk in (1, 7, None):
            with pytest.MonkeyPatch.context() as mp:
                if chunk is not None:
                    mp.setattr(oracle, "_CHUNK", chunk)
                runs.append(smooth_numbers(sieve_small.primes_upto(y), bound).tolist())
        assert sorted(runs[-1]) == want
        assert runs[0] == runs[-1] and runs[1] == runs[-1]

    # sha256 of the int64 bytes, order included: the array is the stream of
    # ``live[:c] * p`` prime by prime, however the products are batched.
    @pytest.mark.parametrize("y, bound, size, digest", [
        (1e6, 1e7, 8704367, "5967ce3a4745d6f266618caa93a64cfc2771a3cfa2471bd32bc5ffc1431a5443"),
        (200.0, 5e5, 89385, "57baa890027353d15abc9d3980ce3aa188a4bf6c5d2aa3545099764893c12990"),
    ])
    def test_recorded_array_order_included(self, sieve_10m, y, bound, size, digest):
        got = smooth_numbers(sieve_10m.primes_upto(y), bound)
        assert got.dtype == np.int64 and got.size == size
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest

    def test_accepts_a_plain_list(self):
        assert sorted(smooth_numbers([2, 3], 10).tolist()) == [1, 2, 3, 4, 6, 8, 9]


class TestSlowCorners:
    # The two largest enumerations the benchmark's exact-grid runs (3.4M and
    # 4.7M smooth numbers), pinned on the 1e7 sieve.
    def test_psi_at_sqrt_x(self, sieve_10m):
        assert psi_exact(1e7, 1e7**0.5, sieve_10m) == 3362157

    def test_s_exact_to_1e7(self, sieve_10m):
        assert repr(s_exact(1e4, 1e7, sieve_10m)) == '2.161368261019737'


class TestWeightedSmoothSum:
    def test_empty_interval(self, sieve_small):
        p = ScaledParams(1e4, 20.0, 500.0)  # z = x/y
        assert weighted_smooth_sum(p, WeightKind.BUCHSTAB_OMEGA, sieve_small) == 0.0

    def test_weight_arguments_start_at_one(self, sieve_small):
        # d <= x/y forces u - u_d >= 1, where omega is positive; below 1 the
        # omega weight would vanish while rho stays positive.
        p = ScaledParams(1e4, 20.0, 50.0)
        d = smooth_numbers(sieve_small.primes_upto(p.y), p.x / p.y)
        d = d[d > p.z]
        args = p.u - np.log(d.astype(float)) / math.log(p.y)
        assert np.all(args >= 1.0 - 1e-12)
        ts = np.linspace(0.0, 0.999, 50)
        assert np.all(omega(ts) == 0.0) and np.all(rho(ts) > 0.0)

    def test_both_weights_yield_nonnegative_sums(self, sieve_small):
        p = ScaledParams(1e5, 30.0, 100.0)
        s_omega = weighted_smooth_sum(p, WeightKind.BUCHSTAB_OMEGA, sieve_small)
        s_rho = weighted_smooth_sum(p, WeightKind.DICKMAN_RHO, sieve_small)
        assert s_omega >= 0.0 and s_rho >= 0.0

    def test_order_independence(self, sieve_small):
        p = ScaledParams(1e5, 30.0, 100.0)
        a = weighted_smooth_sum(p, WeightKind.BUCHSTAB_OMEGA, sieve_small)
        d = smooth_numbers(sieve_small.primes_upto(p.y), p.x / p.y)
        d = np.sort(d[d > p.z])[::-1]  # reversed order
        u_d = np.log(d.astype(float)) / math.log(p.y)
        b = math.fsum((omega(p.u - u_d) / d.astype(float)).tolist())
        assert a == b

    def test_unknown_weight_kind_is_refused_only_where_a_d_is_weighed(self, sieve_small):
        assert weighted_smooth_sum(ScaledParams(1e4, 20.0, 500.0), "bogus", sieve_small) == 0.0
        with pytest.raises(DomainError, match="unknown weight kind"):
            weighted_smooth_sum(ScaledParams(1e4, 20.0, 50.0), "bogus", sieve_small)

    def test_memory_stays_bounded(self):
        # The 394,344 smooth d <= 2e7 in one array, with their mask, copy and
        # float arrays, peaked at 27.4 MiB; the stream holds one batch and
        # the walk's live set.
        t = build_sieve(100)
        p = ScaledParams(2e9, 100.0, 1e3)
        weighted_smooth_sum(ScaledParams(1e4, 20.0, 50.0), WeightKind.DICKMAN_RHO, t)  # tables
        peak = _peak_allocation(lambda: weighted_smooth_sum(p, WeightKind.DICKMAN_RHO, t))
        assert peak < 12 * 2**20

    def test_range_error(self, sieve_small, sieve_1m):
        # x/y past the table: the primes up to y are all the sum reads.
        p = ScaledParams(1e7, 10.0, 100.0)
        for w in WeightKind:
            assert (repr(weighted_smooth_sum(p, w, sieve_small))
                    == repr(weighted_smooth_sum(p, w, sieve_1m)))


class TestEtaEmpirical:
    def test_impossible_threshold(self, sieve_small):
        with pytest.warns(UserWarning):
            d = DsaParams(40, 10, 40)
        est, se = eta_empirical(d, 10**4, 1, sieve_small)
        assert est == 0.0 and se == 0.0

    @pytest.mark.parametrize("k, l, m", [(100, 10, 100), (40, 10, 40)])
    def test_impossible_threshold_draws_no_samples(self, sieve_small, k, l, m):
        # m >= k is answered before a sample is drawn, on either path.
        with pytest.warns(UserWarning):
            d = DsaParams(k, l, m)
        tracemalloc.start()
        try:
            got = eta_empirical(d, 10**6, 1, sieve_small)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (0.0, 0.0)
        assert peak < 1 << 20

    def test_certain_hit(self, sieve_small):
        # l >= k makes every n its own smooth part; m < k-1 then guarantees
        # smooth part >= 2**(k-1) > 2**m.
        with pytest.warns(UserWarning):
            d = DsaParams(15, 15, 10)
        est, _ = eta_empirical(d, 10**4, 1, sieve_small)
        assert est == 1.0

    def test_deterministic(self, sieve_small):
        d = DsaParams(40, 10, 20)
        a = eta_empirical(d, 10**4, 123, sieve_small)
        b = eta_empirical(d, 10**4, 123, sieve_small)
        assert a == b
        c = eta_empirical(d, 10**4, 124, sieve_small)
        assert a != c

    def test_bigint_path_consistent_with_vector_path(self, sieve_small):
        # k > 62 exercises the gcd/primorial path; sanity: proportions for
        # adjoining k values move smoothly.
        d = DsaParams(70, 10, 20)
        est, se = eta_empirical(d, 2 * 10**3, 9, sieve_small)
        assert 0.0 <= est <= 1.0 and se >= 0.0

    # Seeded results pinned across both sampling paths: int64 for k <= 62,
    # Python ints above.
    @pytest.mark.parametrize("k, l, m, samples, seed, expected", [
        (40, 8, 20, 20000, 1, "(0.0298, 0.0012023302374971694)"),
        (50, 12, 25, 20000, 2, "(0.073, 0.0018394428504305317)"),
        (62, 15, 30, 20000, 3, "(0.08455, 0.0019672480461294145)"),
        (64, 12, 30, 2000, 4, "(0.0245, 0.003456859123539749)"),
        (100, 14, 30, 2000, 5, "(0.0575, 0.005205465877325487)"),
        (128, 16, 40, 2000, 6, "(0.0285, 0.0037207358143249033)"),
    ])
    def test_pinned_results(self, sieve_small, k, l, m, samples, seed, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some rows lie outside the paper's regime
            d = DsaParams(k, l, m)
        assert repr(eta_empirical(d, samples, seed, sieve_small)) == expected

    # Rows whose primorial outgrows a group product take the grouped
    # remainder; 67 and 65 samples end in a short group.  Recorded while
    # every big-int sample took its gcd with the full primorial.
    @pytest.mark.parametrize("k, l, m, samples, seed, expected", [
        (100, 19, 40, 67, 21, "(0.05970149253731343, 0.028945967245766605)"),
        (128, 20, 45, 65, 22, "(0.12307692307692308, 0.04074857129781272)"),
    ])
    def test_pinned_grouped_results(self, sieve_10m, k, l, m, samples, seed, expected):
        assert oracle._GCD_GROUP == 64
        got = eta_empirical(DsaParams(k, l, m), samples, seed, sieve_10m)
        assert repr(got) == expected

    # Samples of 160 and 512 bits, three and nine words, past the 128 bits of
    # the benchmark's rows; the first and last take the formed primorial, the
    # l = 18 row the chunk loop.  Recorded while every big-int sample took its
    # gcd with the primorial's remainder modulo its whole group.
    @pytest.mark.parametrize("k, l, m, samples, seed, expected", [
        (160, 14, 20, 300, 31, "(0.25, 0.025)"),
        (512, 18, 24, 100, 32, "(0.22, 0.04142463035441596)"),
        (512, 16, 20, 150, 34, "(0.21333333333333335, 0.03344868928395872)"),
    ])
    def test_pinned_multiword_results(self, sieve_1m, k, l, m, samples, seed, expected):
        got = eta_empirical(DsaParams(k, l, m), samples, seed, sieve_1m)
        assert repr(got) == expected

    @pytest.mark.parametrize("l", [12, 14, 18])
    def test_grouped_smooth_parts_match_the_primorial_gcd(self, sieve_1m, l):
        # Samples with large smooth parts (prime powers times a cofactor, so
        # the repeated gcd takes powers out) alternate with random 100-bit
        # ones, in groups of 1, 63 and 64 and in 65 samples, which end in a
        # group of 1.  The primorial is formed where it has at most twice the
        # samples' bits, here at l = 12 for all but the one sample; the
        # others take the chunk loop.
        primes = sieve_1m.primes_upto(float(1 << l))
        primorial = oracle._product_tree(primes.tolist())
        rng = np.random.default_rng(l)
        for size in (1, 63, 64, 65):
            ns = []
            for i in range(size):
                if i % 2:
                    ns.append((1 << 99) | int(rng.integers(0, 2**62)) << 37
                              | int(rng.integers(0, 2**37)))
                else:
                    a, b = (int(p) for p in rng.choice(primes, size=2))
                    ns.append(a**3 * b * 2**5 * ((1 << 70) + int(rng.integers(0, 2**40))))
            formed = np.log2(primes).sum() <= 2 * size * max(ns).bit_length()
            assert formed == (l == 12 and size > 1)
            want = [oracle._smooth_part_bigint(n, primorial) for n in ns]
            assert oracle._smooth_parts_grouped(ns, primes) == want
            assert max(want) > 2**(3 * l - 10)

    @pytest.mark.parametrize("bound", [2, 3, 2**6, 2**12, 2**16])
    def test_packed_primes_multiply_to_the_primorial(self, sieve_small, bound):
        primes = sieve_small.primes_upto(float(bound))
        packed, bits = oracle._packed_primes(primes)
        assert math.prod(packed) == math.prod(primes.tolist())
        assert bits <= 63 and max(packed) < 2**bits

    # 3 * 2**16 + 5 samples cross three int64 blocks into a short fourth;
    # recorded before the smooth parts were found block by block.
    @pytest.mark.parametrize("k, l, m, seed, expected", [
        (40, 8, 20, 11, "(0.03061343858239282, 0.000388506634116142)"),
        (48, 12, 24, 12, "(0.08713564209894564, 0.0006360553769758102)"),
        (62, 15, 30, 13, "(0.08437387151409113, 0.0006268403758444346)"),
        (30, 10, 15, 14, "(0.19727586680433135, 0.0008974577765876148)"),
    ])
    def test_pinned_across_blocks(self, sieve_small, k, l, m, seed, expected):
        assert oracle._SAMPLE_BLOCK == 2**16
        got = eta_empirical(DsaParams(k, l, m), 3 * 2**16 + 5, seed, sieve_small)
        assert repr(got) == expected

    def test_int64_smooth_parts_match_trial_division(self, sieve_small):
        primes = sieve_small.primes_upto(2.0**16)
        near = [p for p in primes.tolist() if abs(p - 2**15) < 100]
        ns = [2**61, 2**62 - 1, 2 * 3**38, 3**39, 5**26, 2**31 * 3**19]
        for p in near:
            a = 1
            while p ** (a + 1) < 2**62:
                a += 1
            ns += [p**a, p ** (a - 1), 2 * p**2 * 3**19]
        ns += (sieve_small.primes[-50:] * sieve_small.primes[-100:-50]).tolist()
        for bound in (2, 3, 2**15, 2**16):
            got = oracle._smooth_parts_int64(np.array(ns, dtype=np.int64),
                                             sieve_small.primes_upto(bound))
            assert got.tolist() == [brute_smooth_part_upto(n, bound, primes.tolist())
                                    for n in ns]

    def test_int64_smooth_parts_keep_no_division_by_the_2_part(self, sieve_small):
        # The 2-part stays in the remainder: the inverse test and the exact
        # quotient hold for even n too.  Samples 2**a * m, m odd, up to 2**62.
        primes = sieve_small.primes_upto(2.0**16).tolist()
        odd = [1, 3, 3**5 * 11, 5 * 7 * 65521, 65519 * 65521, 99991, 3**38]
        ns = [2**a * m for m in odd for a in range(62) if 2**a * m < 2**62]
        for bound in (1, 2, 3, 2**8, 2**16):
            got = oracle._smooth_parts_int64(np.array(ns, dtype=np.int64),
                                             sieve_small.primes_upto(bound))
            assert got.tolist() == [brute_smooth_part_upto(n, bound, primes) for n in ns]

    @pytest.mark.parametrize("k", [2, 3, 16, 17, 32, 33, 61, 62])
    @pytest.mark.parametrize("l", [1, 2, 8, 16])
    def test_int64_smooth_parts_at_k_and_l_edges(self, sieve_small, k, l):
        # The smallest and largest k-bit samples, and the ones just inside
        # them, over the primes up to 2**l; then the drawn samples of a run.
        primes = sieve_small.primes_upto(2.0**16).tolist()
        lo, hi = 2 ** (k - 1), 2**k - 1
        ns = sorted({lo, lo + 1, hi - 1, hi, 3 * 2 ** (k - 2)})
        got = oracle._smooth_parts_int64(np.array(ns, dtype=np.int64),
                                         sieve_small.primes_upto(2.0**l))
        assert got.tolist() == [brute_smooth_part_upto(n, 2**l, primes) for n in ns]
        rng = np.random.Generator(np.random.Philox(key=7))
        drawn = oracle._sample_kbit(rng, k, 64)
        got = oracle._smooth_parts_int64(drawn, sieve_small.primes_upto(2.0**l))
        assert got.tolist() == [brute_smooth_part_upto(n, 2**l, primes)
                                for n in drawn.tolist()]

    def test_int64_divisibility_bound_is_tight(self):
        # 274177 divides 2**64 + 1, so for it the cofactor 1 maps to exactly
        # one above (2**64 - 1) // p; a cofactor of 1 must stay undivided.
        p = 274177
        got = oracle._smooth_parts_int64(np.array([1, 2, 3, p, 6 * p, p * p], dtype=np.int64),
                                         np.array([2, p], dtype=np.int64))
        assert got.tolist() == [1, 2, 1, p, 2 * p, p * p]

    def test_product_tree_is_the_product(self):
        for n in range(0, 40):
            values = [3 * i + 2 for i in range(n)]
            assert oracle._product_tree(values) == math.prod(values)

    def test_resource_limit(self, sieve_small):
        with pytest.raises(ResourceError):
            eta_empirical(DsaParams(40, 20, 30), 100, 1, sieve_small)

    @pytest.mark.parametrize("k, l, samples", [
        (2**62, 10, 2),       # 2**56 words a sample: numpy refuses the array
        (10**40, 10, 1),      # more words than an array dimension holds
        (40, 10, 2**62),      # more samples than memory
        (40, 2**128, 1),      # 2**l is never built
    ])
    def test_huge_requests_are_resource_errors(self, sieve_small, k, l, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # l = 2**128 lies outside k > m >= l
            d = DsaParams(k, l, 30)
        with pytest.raises(ResourceError):
            eta_empirical(d, samples, 1, sieve_small)

    def test_huge_m_never_builds_its_threshold(self, sieve_small):
        with pytest.warns(UserWarning):
            d = DsaParams(40, 10, 2**128)
        assert eta_empirical(d, 10, 1, sieve_small) == (0.0, 0.0)

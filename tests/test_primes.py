import itertools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from divperiod import FactoredInt, InvalidArgument, build_table, factorize, is_prime, nth_prime
from divperiod import primes
from divperiod.errors import ResourceLimit

from conftest import least_factor_table

# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to
# every prime base up to 37
PSI_12 = 318665857834031151167461

# OEIS A014233: the least odd composite that passes the strong test to
# the first n prime bases, n = 1..13
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, PSI_12,
    3317044064679887385961981,
)

# 64-bit semiprimes with both factors above 10^7, which trial division to
# 10^7 could not split (the benchmark's formerly refused requests)
LARGE_SEMIPRIMES = (
    10_000_019 * 10_000_079,
    2_147_483_647 * 2_147_483_629,
    1_000_000_007 * 4_294_967_291,
)


def test_build_table_small():
    assert build_table(10).tolist() == [2, 3, 5, 7]


def test_build_table_boundary():
    assert build_table(2).tolist() == [2]


def test_build_table_rejects_bad_limit():
    with pytest.raises(InvalidArgument):
        build_table(1)
    with pytest.raises(ResourceLimit):
        build_table(primes.SIEVE_CEILING + 1)


@pytest.mark.parametrize(
    "limit", [2, 3, 4, 999, 1000, 1009, 1009**2 - 1, 1009**2, 1009**2 + 1]
)
def test_build_table_matches_sympy(limit):
    assert build_table(limit).tolist() == list(sympy.primerange(limit + 1))


def test_build_table_matches_sympy_below_2e6():
    expect = list(sympy.primerange(2_000_001))
    rng = random.Random(20261019)
    for limit in sorted(rng.randrange(2, 2_000_001) for _ in range(20)):
        got = build_table(limit).tolist()
        assert got == expect[: len(got)], limit
        assert len(got) == len(expect) or expect[len(got)] > limit, limit


def test_table_invariants():
    got = build_table(10_000).tolist()
    assert all(is_prime(p) for p in got)
    spf = least_factor_table(10_000)
    assert got == [n for n in range(2, 10_001) if spf[n] == n]


def test_prime_count_cross_check():
    # table membership must agree with Miller-Rabin on a random sample
    in_table = np.zeros(5_000_001, dtype=bool)
    in_table[build_table(5_000_000)] = True
    rng = random.Random(20240817)
    sample = [rng.randrange(2, 5_000_001) for _ in range(2_000)]
    assert sum(bool(in_table[n]) for n in sample) == sum(is_prime(n) for n in sample)


def test_nth_prime_small():
    assert nth_prime(1) == 2
    assert nth_prime(2) == 3
    assert nth_prime(8) == 19


def test_nth_prime_rejects_zero():
    with pytest.raises(InvalidArgument):
        nth_prime(0)


def test_nth_prime_monotone_and_bounded(monkeypatch):
    # start from an empty list, so that every refill happens in this test
    monkeypatch.setattr(primes, "_prime_list", [])
    monkeypatch.setattr(primes, "_prime_list_limit", 512)
    expect = list(sympy.primerange(sympy.prime(10_000) + 1))
    refills = []
    prev = 1
    for i in range(1, 10_001):
        size = len(primes._prime_list)
        p = nth_prime(i)
        if len(primes._prime_list) != size:
            refills.append(i)
        assert p == expect[i - 1]
        assert p > prev
        if i < 64:
            assert p <= 2**i
        prev = p
    assert len(refills) >= 5
    # an index far past the list refills it in one step; check either side
    # of the old and the new end of the list
    for i in (10**5, 10**6):
        size = len(primes._prime_list)
        assert nth_prime(i) == sympy.prime(i)
        assert len(primes._prime_list) > size
        for j in (size, size + 1, len(primes._prime_list)):
            assert nth_prime(j) == sympy.prime(j), j


def test_factorize_examples():
    assert factorize(5040).factors == ((2, 4), (3, 2), (5, 1), (7, 1))
    assert factorize(1).factors == ()
    assert is_prime(9973)
    assert factorize(9973).factors == ((9973, 1),)


def test_factorize_rejects_zero():
    with pytest.raises(InvalidArgument):
        factorize(0)


def test_factorize_round_trip():
    for n in range(2, 100_001):
        assert factorize(n).value() == n


def test_factorize_matches_trial_division():
    rng = random.Random(7)
    for _ in range(1_000):
        n = rng.randrange(2, 1_000_001)
        m = n
        expect = []
        p = 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                expect.append((p, e))
            p += 1
        if m > 1:
            expect.append((m, 1))
        assert factorize(n).factors == tuple(expect)


def test_factorize_beyond_table():
    # the cofactor 10_000_019 is past 1009^2: Miller-Rabin proves it prime
    n = 10_000_019 * 4  # 10_000_019 is prime
    fi = factorize(n)
    assert fi.value() == n
    with pytest.raises(InvalidArgument):
        factorize(2**64)


def test_factorize_large_semiprime():
    p = 2_147_483_647  # p - 18 = 2147483629 is also prime
    assert factorize(p * (p - 18)).factors == ((2_147_483_629, 1), (2_147_483_647, 1))


def _prime_near(lo: int, hi: int):
    """The largest prime below a number drawn from [lo, hi]."""
    return st.integers(lo, hi).map(sympy.prevprime)


_balanced_semiprimes = st.builds(
    lambda p, q: p * q, _prime_near(2**30 + 2, 2**32), _prime_near(2**30 + 2, 2**32)
)
# p^e in [2^(64 - e), 2^64) for e = 2..6
_prime_powers = st.integers(2, 6).flatmap(
    lambda e: _prime_near(math.floor(2 ** (64 / e)) // 2, math.floor(2 ** (64 / e))).map(
        lambda p: p**e
    )
)


def _check_against_sympy(n: int) -> None:
    try:
        got = factorize(n)
    except ResourceLimit:
        pytest.fail(f"factorize refused the 64-bit input {n}")
    assert got.factors == tuple(sorted(sympy.factorint(n).items()))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2**64 - 1))
@example(2**64 - 1)
@example(2**64 - 59)  # the largest 64-bit prime
def test_factorize_matches_sympy(n):
    _check_against_sympy(n)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_balanced_semiprimes, _prime_powers))
@example(LARGE_SEMIPRIMES[0])
@example(LARGE_SEMIPRIMES[1])
@example(LARGE_SEMIPRIMES[2])
@example(4_294_967_291**2)  # the largest 64-bit prime square
def test_factorize_hard_64_bit_inputs_match_sympy(n):
    _check_against_sympy(n)


def _table_factors(spf: np.ndarray, n: int) -> tuple[tuple[int, int], ...]:
    """The factorization of n read off a least-prime-factor table."""
    factors = []
    while n > 1:
        p, e = int(spf[n]), 0
        while n % p == 0:
            n //= p
            e += 1
        factors.append((p, e))
    return tuple(factors)


def test_factorize_matches_least_factor_table():
    spf = least_factor_table(10**7)
    rng = random.Random(20261019)
    sample = [rng.randrange(2, 10**7) for _ in range(20_000)]
    # composite cofactors with no prime factor below 1000, from 1009^2 up:
    # a prime-cofactor cut above 1009^2 would call the least of them prime
    near_cut = [p * q for p in range(1009, 1100) for q in range(p, 1200)
                if spf[p] == p and spf[q] == q]
    for n in itertools.chain(range(2, 200_001), sample, near_cut, (2 * 1009 * 1013,)):
        assert factorize(n).factors == _table_factors(spf, n), n


def test_is_prime_matches_sieve_below_2_20():
    is_sieved_prime = np.zeros(2**20 + 1, dtype=bool)
    is_sieved_prime[build_table(2**20)] = True
    for n in range(2**20):
        assert is_prime(n) == is_sieved_prime[n], n


def test_is_prime_rejects_a014233():
    for n in A014233:
        assert not is_prime(n)
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_above_2_64_matches_sympy():
    rng = random.Random(20261018)
    sample = [rng.randrange(2**64, 2**128) for _ in range(300)]
    sample += [sympy.nextprime(n) for n in sample[:100]]
    # composites with no small factor, so only the strong tests decide
    large = [sympy.nextprime(rng.randrange(2**40, 2**64)) for _ in range(100)]
    sample += [p * q for p, q in zip(large[::2], large[1::2])]
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n


def test_strong_lucas_matches_sympy():
    # odd n with no prime factor up to 37: the inputs is_prime hands over
    for n in range(41, 100_001, 2):
        if math.gcd(n, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37) == 1:
            assert primes._strong_lucas(n) == is_strong_lucas_prp(n), n


def test_factored_int_rejects_psi_12():
    with pytest.raises(InvalidArgument):
        FactoredInt(((PSI_12, 1),))

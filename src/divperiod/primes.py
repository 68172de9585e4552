"""Prime generation, primality testing, indexed prime access, factorization.

The substrate every other module consumes.  ``build_table``, a sieve of
Eratosthenes, is the one source of primes: batch work reads its array,
and ``nth_prime`` keeps a list of them that it refills from the sieve,
at least doubling its limit, whenever an index runs past it, so
constructions can consume an unpredictable number of primes without
committing to a sieve limit up front.  Point factorization builds no
table: one gcd with the product of the primes below 1000 names the small
primes of n, a cofactor left below 1009^2 is prime, and a larger one is
proven prime by Miller-Rabin to as many bases as its size needs, or split
by Pollard-Brent rho.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument, ResourceLimit

# Practical sieve ceiling: ``build_table`` holds a byte per integer, and ``divisor._check_limit``
# puts the same limit on a ``Sieve``, ``period_table`` and the chain's target sweep.
SIEVE_CEILING = 200_000_000

# products of |x - y| that Brent's rho accumulates per gcd
_RHO_BATCH = 128

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (threshold, k): no composite below the threshold passes the strong test
# to the first k of _MR_BASES (OEIS A014233: Jaeschke 1993, and Jiang and
# Deng 2014 for k = 9)
_MR_SIZES = (
    (2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Primality of n.

    Below 2^64 the answer is proven: n takes strong probable-prime tests
    to only as many of the first twelve prime bases as the thresholds of
    OEIS A014233 ask for its size, one base below 2047, up to nine below
    3825123056546413051 and all twelve from there on (the least composite
    to pass all twelve is 318665857834031151167461).  From 2^64 on, a
    strong Lucas test with Selfridge's parameters follows the twelve,
    which makes it Baillie-PSW: no composite is known to pass it, but
    that is not a proof, so True there means a probable prime.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for threshold, k in _MR_SIZES if n < threshold), len(_MR_BASES))
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < 2**64 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _half(x: int, n: int) -> int:
    """x / 2 modulo the odd n."""
    x %= n
    return (x + n) // 2 if x % 2 else x // 2


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 37, Selfridge's method A.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D) / 4.  With n + 1 = d * 2^s, n passes when U_d = 0 or
    V_(d * 2^r) = 0 for some 0 <= r < s, all modulo n.
    """
    r = math.isqrt(n)
    if r * r == n:
        return False  # no D has (D/n) = -1 for a square n
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k for k = 1, then along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = _half(U + V, n), _half(D * U + V, n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def build_table(limit: int) -> np.ndarray:
    """The primes <= ``limit``, rising: a sieve of Eratosthenes."""
    if limit < 2:
        raise InvalidArgument(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CEILING:
        raise ResourceLimit(f"sieve limit {limit} exceeds ceiling {SIEVE_CEILING}")
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


# factorize divides n only by those of these primes that divide gcd(n, their product)
_SMALL_PRIMES = tuple(build_table(999).tolist())
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
# what is left has no prime factor below 1009, so below 1009^2 it is prime
_PRIME_COFACTOR_CUT = 1009 * 1009

# nth_prime's list: every prime up to _prime_list_limit, refilled by doubling
_prime_list: list[int] = []
_prime_list_limit = 512


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed: nth_prime(1) = 2."""
    global _prime_list, _prime_list_limit
    if i < 1:
        raise InvalidArgument(f"prime index must be >= 1, got {i}")
    while len(_prime_list) < i:
        # p_i < i (ln i + ln ln i) for i >= 6; doubling handles the rest
        guess = int(i * (math.log(i + 6) + math.log(math.log(i + 6)))) + 16
        _prime_list_limit = max(guess, 2 * _prime_list_limit)
        _prime_list = build_table(_prime_list_limit).tolist()
    return _prime_list[i - 1]


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Brent's cycle-finding rho.

    Iterates y -> y^2 + c mod n, batching _RHO_BATCH differences |x - y|
    per gcd; when a batch overshoots to gcd n it steps again one at a
    time, and when that also gives n it moves on to the next c.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _large_prime_factors(m: int) -> list[int]:
    """Prime factors of m, with multiplicity, splitting composites by rho."""
    found: list[int] = []
    stack = [m]
    while stack:
        c = stack.pop()
        if is_prime(c):
            found.append(c)
        else:
            g = _rho(c)
            stack += (g, c // g)
    return found


def factorize(n: int):
    """Factor 1 <= n < 2^64 into a FactoredInt.

    The primes below 1000 that divide n are those of g = gcd(n, their
    product), so only they are divided out.  A cofactor left below 1009^2
    is prime.  A larger one is proven prime by Miller-Rabin to the bases
    its size needs, or split by Pollard-Brent rho until only primes
    remain.
    """
    if n < 1:
        raise InvalidArgument(f"cannot factor {n}")
    if n >= 2**64:
        raise InvalidArgument("input exceeds 64 bits; supply it in factored form")

    factors: list[tuple[int, int]] = []
    m = n
    g = math.gcd(m, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g < p * p:
            p = g  # g is squarefree with no prime factor below p: it is prime
        elif g % p:
            continue
        g //= p
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    if m >= _PRIME_COFACTOR_CUT:
        large = _large_prime_factors(m)
        factors += ((p, large.count(p)) for p in sorted(set(large)))
    elif m > 1:
        factors.append((m, 1))
    return factored.FactoredInt(tuple(factors))


# factored imports is_prime from this module, so this import comes last,
# once every name above exists; a call-time import would cost each call
from . import factored  # noqa: E402

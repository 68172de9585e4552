"""Prime generation, primality testing, indexed prime access, factorization.

The substrate every other module consumes.  A least-prime-factor sieve
handles batch factorization up to 10^7; above it, Pollard-Brent rho
splits whatever trial division by the primes below 1000 leaves.  A
separate growable prime list backs ``nth_prime`` so constructions can
consume an unpredictable number of primes without committing to a sieve
limit up front.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import InvalidArgument, ResourceLimit

# Practical sieve ceiling: 2*10^8 int32 entries is ~800 MB of arrays,
# already past the 10^8 design target.
SIEVE_CEILING = 200_000_000

# factorize reads n up to this bound off the least-prime-factor table
_TABLE_PATH_LIMIT = 10_000_000

# products of |x - y| that Brent's rho accumulates per gcd
_RHO_BATCH = 128

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Primality of n.

    Below 2^64 the answer is proven: strong probable-prime tests to the
    first twelve prime bases admit no composite there (the least one to
    pass all twelve is 318665857834031151167461, OEIS A014233).  From
    2^64 on, a strong Lucas test with Selfridge's parameters follows the
    base-2 test, which makes it Baillie-PSW: no composite is known to
    pass it, but that is not a proof, so True there means a probable
    prime.
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
    for a in _MR_BASES:
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


@dataclass(frozen=True)
class PrimeTable:
    """Immutable sieve: all primes <= limit plus a least-prime-factor array."""

    limit: int
    primes: np.ndarray
    smallest_factor: np.ndarray


def build_table(limit: int) -> PrimeTable:
    """Least-prime-factor sieve up to ``limit`` (inclusive)."""
    if limit < 2:
        raise InvalidArgument(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CEILING:
        raise ResourceLimit(f"sieve limit {limit} exceeds ceiling {SIEVE_CEILING}")
    dtype = np.int32 if limit < 2**31 else np.int64
    spf = np.zeros(limit + 1, dtype=dtype)
    # i is prime when no smaller prime has marked it by the time it comes up
    _mark_least_factors(spf, 2, (i for i in range(2, math.isqrt(limit) + 1) if spf[i] == 0))
    primes = _unmarked_are_prime(spf, 2)
    return PrimeTable(limit, primes, spf)


def _mark_least_factors(spf: np.ndarray, lo: int, primes: Iterable[int]) -> None:
    """Give each n >= lo in ``spf`` still 0 the first of ``primes`` that divides it.

    ``primes`` must rise and include every prime up to sqrt(len(spf) - 1);
    each p marks only its multiples from p * p on.
    """
    for p in primes:
        seg = spf[max(p * p, -(-lo // p) * p) :: p]
        seg[seg == 0] = p


def _unmarked_are_prime(spf: np.ndarray, lo: int) -> np.ndarray:
    """The indices >= lo that no prime marked, each made its own least factor."""
    primes = np.flatnonzero(spf[lo:] == 0).astype(np.int64) + lo
    spf[primes] = primes
    return primes


# factorize trial-divides larger n by these primes before it runs rho
_SMALL_PRIMES = tuple(build_table(999).primes.tolist())


# --- growable prime list backing nth_prime / trial division ---

_prime_list: list[int] = []
_prime_list_limit = 0


def _extend_primes(target: int) -> None:
    global _prime_list, _prime_list_limit
    limit = max(target, 2 * _prime_list_limit, 1 << 10)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    _prime_list = np.flatnonzero(sieve).tolist()
    _prime_list_limit = limit


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed: nth_prime(1) = 2."""
    if i < 1:
        raise InvalidArgument(f"prime index must be >= 1, got {i}")
    while len(_prime_list) < i:
        # p_i < i (ln i + ln ln i) for i >= 6; doubling handles the rest
        guess = int(i * (math.log(i + 6) + math.log(math.log(i + 6)))) + 16
        _extend_primes(max(guess, 2 * _prime_list_limit))
    return _prime_list[i - 1]


# default sieve for point factorization, built lazily and grown on demand
_table: PrimeTable | None = None


def _default_table(minimum: int) -> PrimeTable:
    """A table reaching ``minimum``: the first 10^6, then doubling up to 10^7.

    Growth below 10^7 sieves only the new range, into one buffer that
    reaches 10^7.  Only a caller's own ``minimum`` takes it past the 10^7
    table path, with a table of its own.
    """
    global _table
    if _table is None:
        _table = build_table(max(minimum, 1_000_000))
    elif _table.limit < minimum:
        limit = max(minimum, min(2 * _table.limit, _TABLE_PATH_LIMIT))
        if limit <= _TABLE_PATH_LIMIT:
            _table = _extend_table(_table, limit)
        else:
            _table = None  # free the old table before the next one is built
            _table = build_table(limit)
    return _table


def _extend_table(table: PrimeTable, limit: int) -> PrimeTable:
    """``table`` sieved on to ``limit`` <= 10^7 with the primes it already holds.

    Its least factors live in one 10^7 buffer, allocated at the first
    growth; pages the sieve has not reached yet stay unallocated.
    """
    buffer = table.smallest_factor.base
    if buffer is None or buffer.size <= limit:
        buffer = np.zeros(_TABLE_PATH_LIMIT + 1, dtype=np.int32)
        buffer[: table.limit + 1] = table.smallest_factor
    spf = buffer[: limit + 1]
    # table.limit >= 10^6 > sqrt(10^7), so it holds every prime the new range needs
    roots = table.primes[: np.searchsorted(table.primes, math.isqrt(limit), side="right")]
    _mark_least_factors(spf, table.limit + 1, roots.tolist())
    fresh = _unmarked_are_prime(spf, table.limit + 1)
    return PrimeTable(limit, np.concatenate((table.primes, fresh)), spf)


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


def factorize(n: int, table: PrimeTable | None = None):
    """Factor 1 <= n < 2^64 into a FactoredInt.

    n within the least-prime-factor table (the default one reaches 10^7)
    is read off the table.  Larger n is trial-divided by the primes below
    1000; each prime factor of what is left is then proven prime by
    deterministic Miller-Rabin, and each composite part is split by
    Pollard-Brent rho until only primes remain.
    """
    from .factored import FactoredInt

    if n < 1:
        raise InvalidArgument(f"cannot factor {n}")
    if n >= 2**64:
        raise InvalidArgument("input exceeds 64 bits; supply it in factored form")
    if n == 1:
        return FactoredInt(())

    factors: list[tuple[int, int]] = []
    if table is None and n <= _TABLE_PATH_LIMIT:
        table = _default_table(n)
    if table is not None and n <= table.limit:
        spf = table.smallest_factor
        m = n
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        factors.sort()
        return FactoredInt(tuple(factors))

    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        large = _large_prime_factors(m)
        factors += ((p, large.count(p)) for p in sorted(set(large)))
    return FactoredInt(tuple(factors))

"""Dynamics of iterating d(n): periods, trajectories, and batch tables.

The period k(n) is the least k >= 1 with d applied k times reaching the
fixed point 2.  Convention: k(2) = 1 and k(p) = 1 for every prime, so 1
has no period (d(1) = 1 never reaches 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .errors import InvalidArgument, ResourceLimit, UndefinedPeriod
from .hcn import _ENUM_HARD_LIMIT, _least_by_count
from .primes import SIEVE_CEILING, build_table, factorize

# Entries per sieve block: 2 MB of int32 divisor counts, which stays in cache.
BLOCK = 1 << 19


def divisor_count_int(n: int) -> int:
    """d(n) for a plain integer."""
    if n < 1:
        raise InvalidArgument(f"d(n) needs n >= 1, got {n}")
    return factorize(n).divisor_count()


@dataclass(frozen=True)
class Trajectory:
    start: int
    steps: list[int]


@dataclass(frozen=True)
class PeriodTable:
    """Sieve-computed d(n) and k(n) for all n up to limit.

    ``divisor_of[n]`` is valid for 1 <= n <= limit, ``period_of[n]`` for
    2 <= n <= limit; index 0 (and 1 for periods) is padding.
    """

    limit: int
    period_of: np.ndarray
    divisor_of: np.ndarray

    def blocks(self, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(start, d, k)`` views of the table, as ``Sieve.blocks`` yields them."""
        _check_range(self.limit, lo, hi)
        for start in range(lo, hi + 1, BLOCK):
            end = min(start + BLOCK, hi + 1)
            yield start, self.divisor_of[start:end], self.period_of[start:end]


def period(n: int) -> int:
    """Least k >= 1 with d^k(n) = 2."""
    if n < 2:
        raise UndefinedPeriod(f"period of {n} is undefined: the trajectory never reaches 2")
    return len(trajectory(n).steps) - 1


def trajectory(n: int) -> Trajectory:
    """The sequence n, d(n), d(d(n)), ... ending at the first 2."""
    if n < 2:
        raise UndefinedPeriod(f"trajectory of {n} never reaches 2")
    steps = [n]
    while True:
        nxt = divisor_count_int(steps[-1])
        steps.append(nxt)
        if nxt == 2:
            return Trajectory(n, steps)


def _divisor_block(lo: int, hi: int) -> np.ndarray:
    """d(n) for lo <= n <= hi by the divisor-pair sieve.

    Each pair i < n / i of divisors adds 2 and a square root adds 1, so the
    loop runs only to sqrt(hi).  Index 0 of a block starting at 0 stays 0.
    """
    d = np.zeros(hi - lo + 1, dtype=np.int32)
    for i in range(1, math.isqrt(hi) + 1):
        square = i * i
        if square >= lo:
            d[square - lo] += 1
        d[max(square + i, -(-lo // i) * i) - lo :: i] += 2
    return d


def _periods_by_count(top: int) -> np.ndarray:
    """``p[v]`` for 0 <= v <= top: the period k(n) of every n with d(n) = v.

    k(n) = 1 + k(d(n)) for n > 2 and k(2) = 1, so p[v] = 1 + k(v) for
    v >= 3 and p[2] = 1.  Only n <= 1 has d(n) < 2, so ``p[0] = p[1] = 0``
    pads n = 0 and 1, which have no period.  k(v) is itself ``p[d(v)]``:
    iterating from p = 0 settles one more period a round, at the fixed
    point.
    """
    d = _divisor_block(0, top)
    p = np.zeros(top + 1, dtype=np.int16)
    while True:
        nxt = 1 + p[d]
        nxt[:2] = 0
        nxt[2] = 1
        if np.array_equal(nxt, p):
            return p
        p = nxt


def _check_limit(limit: int, ceiling: int = SIEVE_CEILING) -> None:
    if limit < 2:
        raise InvalidArgument(f"table limit must be >= 2, got {limit}")
    if limit > ceiling:
        raise ResourceLimit(f"table limit {limit} exceeds ceiling {ceiling}")


def _check_range(limit: int, lo: int, hi: int) -> None:
    if not 1 <= lo <= hi <= limit:
        raise InvalidArgument(f"range [{lo}, {hi}] outside table limit {limit}")


class Sieve:
    """d(n) and k(n) for 1 <= n <= limit, sieved one block at a time.

    Nothing is kept but the periods of n <= 2 * isqrt(limit) + 2, which
    cover every lookup k(d(n)) because d(n) <= 2 * sqrt(n).
    """

    def __init__(self, limit: int):
        _check_limit(limit)
        self.limit = limit
        self._period_by_d = _periods_by_count(2 * math.isqrt(limit) + 2)

    def blocks(self, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(start, d, k)`` for consecutive blocks of at most BLOCK values covering [lo, hi].

        k is 0 at n = 1.
        """
        _check_range(self.limit, lo, hi)
        for start in range(lo, hi + 1, BLOCK):
            d = _divisor_block(start, min(start + BLOCK - 1, hi))
            yield start, d, self._period_by_d[d]


def period_table(limit: int) -> PeriodTable:
    """Batch d(n) and k(n) for all 2 <= n <= limit: the blocks of ``Sieve(limit)`` joined."""
    sieve = Sieve(limit)
    d = np.zeros(limit + 1, dtype=np.int32)
    k = np.zeros(limit + 1, dtype=np.int16)
    for start, db, kb in sieve.blocks(1, limit):
        d[start : start + db.size] = db
        k[start : start + kb.size] = kb
    return PeriodTable(limit, k, d)


def least_by_divisor_count(n: int) -> dict[int, int]:
    """For every v, the least 1 <= m <= n with d(m) = v, in order of v.

    A walk over the part m of an integer below its largest prime q, with
    the primes of m in rising order.  Of the m * q with q prime above P(m),
    the least is m times the next prime.  In a run of leaves m * p with
    p^2 <= n // m < p^3 only the first p matters: m * p^2 and m * p * p',
    p' the prime after p, are the least of their counts in the run.  Every
    prime of m is at most sqrt(n), so the primes to 2 * isqrt(n) + 2 hold
    the next prime after each (Bertrand's postulate).

    The walk visits every m, not only those with non-increasing exponents,
    so ``verify-theorem1`` takes it as a witness independent of
    ``hcn._least_by_count``, which ``first_occurrences`` reads, and of the
    oracle's search.
    """
    least = {1: 1} if n >= 1 else {}
    primes = build_table(2 * math.isqrt(n) + 2).tolist()

    def offer(v: int, m: int) -> None:
        if m < least.get(v, m + 1):
            least[v] = m

    def walk(m: int, dm: int, i: int) -> None:
        # d(m) = dm, and the primes above those of m are primes[j], j >= i
        lim = n // m
        if primes[i] <= lim:
            offer(2 * dm, m * primes[i])
        for j in range(i, len(primes)):
            p = primes[j]
            if p * p > lim:
                return
            if p * p * p > lim:
                offer(3 * dm, m * p * p)
                if p * primes[j + 1] <= lim:
                    offer(4 * dm, m * p * primes[j + 1])
                return
            pe, e = p, 1
            while pe * p <= lim:
                walk(m * pe, dm * (e + 1), j + 1)
                offer(dm * (e + 2), m * pe * p)
                pe, e = pe * p, e + 1

    walk(1, 1, 0)
    return dict(sorted(least.items()))


def first_occurrences(limit: int) -> dict[int, int]:
    """For each period j of some 2 <= n <= limit, the least such n.

    k(n) depends on n only through d(n), so the least n of period j is the
    least over the v >= 2 of period j of the least m <= limit with d(m) = v.
    Those come from ``hcn._least_by_count(limit)``, which walks only the
    integers with non-increasing exponents on 2, 3, 5, ... (Ramanujan
    1915), so the answer is exact up to its enumeration ceiling of 10^18.
    No n <= limit is sieved.
    """
    _check_limit(limit, _ENUM_HARD_LIMIT)
    least = _least_by_count(limit)
    p = _periods_by_count(max(least)).tolist()
    out: dict[int, int] = {}
    for v, (m, _) in least.items():
        if v >= 2 and m < out.get(p[v], m + 1):
            out[p[v]] = m
    return dict(sorted(out.items()))


# Rows formatted per ``write``: one joined batch stays a few MB of text.
ROWS_PER_WRITE = 1 << 16


def write_rows(out: TextIO, row: str, start: int, *columns: np.ndarray) -> None:
    """Write ``row % (n, c0[i], c1[i], ...)`` for n = start + i, every i.

    Each batch of at most ROWS_PER_WRITE rows is one ``%`` over one tuple,
    so no row is formatted on its own.
    """
    width = 1 + len(columns)
    size = columns[0].size
    for s in range(0, size, ROWS_PER_WRITE):
        e = min(s + ROWS_PER_WRITE, size)
        cells: list = [0] * ((e - s) * width)
        cells[::width] = range(start + s, start + e)
        for j, column in enumerate(columns, 1):
            cells[j::width] = column[s:e].tolist()
        out.write(row * (e - s) % tuple(cells))


def write_table_csv(
    table: PeriodTable | Sieve, out: TextIO, lo: int = 2, hi: int | None = None
) -> None:
    """Export rows ``n,d,k``."""
    hi = table.limit if hi is None else hi
    if not 2 <= lo <= hi <= table.limit:
        raise InvalidArgument(f"range [{lo}, {hi}] outside table limit {table.limit}")
    out.write("n,d,k\n")
    for start, d, k in table.blocks(lo, hi):
        write_rows(out, "%d,%d,%d\n", start, d, k)

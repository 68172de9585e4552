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
from .hcn import max_divisor_count
from .primes import SIEVE_CEILING, factorize

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


# Entries the period memo may hold before it starts over.
_PERIOD_CACHE_MAX = 1 << 16
_period_cache: dict[int, int] = {2: 1}


def period(n: int) -> int:
    """Least k >= 1 with d^k(n) = 2."""
    if n < 2:
        raise UndefinedPeriod(f"period of {n} is undefined: the trajectory never reaches 2")
    walked = []
    m = n
    while m != 2 and m not in _period_cache:
        walked.append(m)
        m = divisor_count_int(m)
    base = 1 if m == 2 else _period_cache[m]
    if not walked:
        return base if n != 2 else 1
    if m == 2:
        base = 0
    if len(_period_cache) + len(walked) > _PERIOD_CACHE_MAX:
        _period_cache.clear()
    for j, x in enumerate(walked):
        _period_cache[x] = base + len(walked) - j
    return _period_cache[n]


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


def _period_by_divisor_count(k_head: np.ndarray) -> np.ndarray:
    """``p[v]`` is k(n) for every n with d(n) = v <= the head: 1 + k(v), or 1 at v = 2.

    Only n <= 1 has d(n) < 2, so ``p[0] = p[1] = 0`` pads n = 0 and 1,
    which have no period.  A block's periods are then ``p[d]``.
    """
    p = 1 + k_head
    p[:2] = 0
    p[2] = 1
    return p


def _head_periods(head: int) -> np.ndarray:
    """k(n) for 0 <= n <= head, from d alone.

    Resolving the head against its own periods turns min(k, j) into
    min(k, j + 1), because k(n) = 1 + k(d(n)); the fixed point is k.
    """
    d = _divisor_block(0, head)
    k = np.zeros(head + 1, dtype=np.int16)
    while True:
        nxt = _period_by_divisor_count(k)[d]
        if np.array_equal(nxt, k):
            return k
        k = nxt


def _check_limit(limit: int) -> None:
    if limit < 2:
        raise InvalidArgument(f"table limit must be >= 2, got {limit}")
    if limit > SIEVE_CEILING:
        raise ResourceLimit(f"table limit {limit} exceeds ceiling {SIEVE_CEILING}")


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
        self._period_by_d = _period_by_divisor_count(_head_periods(2 * math.isqrt(limit) + 2))

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


def first_occurrences(table: PeriodTable | Sieve) -> dict[int, int]:
    """For each period value present, the least n attaining it.

    The least n_j with period j rises with j, and an integer m <= limit
    with period j + 1 has d(m) >= n_j, because d(m) has period j.  No
    m <= limit has more divisors than D = d(H), H the largest highly
    composite number <= limit (Ramanujan 1915), and that maximum is
    attained.  So once the newest n_j exceeds D no larger period occurs,
    and the blocks after it are not read.  D is 448 at 10^7 and 960 at
    2 * 10^8, so up to the sieve ceiling the scan ends with the block
    that holds n_6 = 5040.
    """
    out: dict[int, int] = {}
    top = max_divisor_count(table.limit)
    for start, _, k in table.blocks(2, table.limit):
        for kk in np.flatnonzero(np.bincount(k)).tolist():
            if kk not in out:
                out[kk] = start + int(np.argmax(k == kk))
        if out[max(out)] > top:
            break
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

"""Dynamics of iterating d(n): periods, trajectories, and batch tables.

The period k(n) is the least k >= 1 with d applied k times reaching the
fixed point 2.  Convention: k(2) = 1 and k(p) = 1 for every prime, so 1
has no period (d(1) = 1 never reaches 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import InvalidArgument, ResourceLimit, UndefinedPeriod
from .primes import factorize

TABLE_CEILING = 200_000_000


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


def period_table(limit: int) -> PeriodTable:
    """Batch d(n) and k(n) for all 2 <= n <= limit.

    d is accumulated by the divisor-pair sieve (loop only to sqrt(limit)),
    then periods resolve forward: d(n) < n for n >= 3, and d(n) stays tiny
    (< 1000 for any n <= 2*10^8), so one short scalar pass over the small
    values lets the rest vectorize as k[n] = 1 + k[d[n]].
    """
    if limit < 2:
        raise InvalidArgument(f"table limit must be >= 2, got {limit}")
    if limit > TABLE_CEILING:
        raise ResourceLimit(f"table limit {limit} exceeds ceiling {TABLE_CEILING}")

    d = np.zeros(limit + 1, dtype=np.int32)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i] += 1
        start = i * (i + 1)
        if start <= limit:
            d[start::i] += 2

    k = np.zeros(limit + 1, dtype=np.int16)
    head = min(limit, max(int(d[2:].max()), 2))
    for n in range(2, head + 1):
        dn = int(d[n])
        k[n] = 1 if dn == 2 else 1 + k[dn]
    if limit > head:
        dn = d[head + 1 :]
        k[head + 1 :] = np.where(dn == 2, 1, 1 + k[dn])
    return PeriodTable(limit, k, d)


_shared: dict[int, PeriodTable] = {}


def shared_table(limit: int) -> PeriodTable:
    """``period_table(limit)``, kept for the next caller; holds one table."""
    if limit not in _shared:
        _shared.clear()
        _shared[limit] = period_table(limit)
    return _shared[limit]


def first_occurrences(table: PeriodTable) -> dict[int, int]:
    """For each period value present, the least n attaining it."""
    ks = table.period_of[2 : table.limit + 1]
    out = {}
    for kk in np.unique(ks):
        out[int(kk)] = int(np.argmax(ks == kk)) + 2
    return dict(sorted(out.items()))


def write_table_csv(table: PeriodTable, out: TextIO, lo: int = 2, hi: int | None = None) -> None:
    """Export rows ``n,d,k``."""
    hi = table.limit if hi is None else hi
    if not 2 <= lo <= hi <= table.limit:
        raise InvalidArgument(f"range [{lo}, {hi}] outside table limit {table.limit}")
    out.write("n,d,k\n")
    d, k = table.divisor_of, table.period_of
    for n in range(lo, hi + 1):
        out.write(f"{n},{d[n]},{k[n]}\n")

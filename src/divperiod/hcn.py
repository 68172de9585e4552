"""Highly composite numbers and the minimal-chain conjecture report.

The least m with a given divisor count, and so every highly composite
number (HCN), factors over consecutive primes from 2 with non-increasing
exponents (Ramanujan 1915).  ``_least_by_count`` walks those integers
once and keeps the least m of each count; an HCN is the least m of its
count that lies below the least m of every larger count.  That reaches
magnitudes (~10^12 and beyond) where a plain sieve is hopeless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidArgument, ResourceLimit
from .factored import FactoredInt
from .primes import _SMALL_PRIMES

if TYPE_CHECKING:
    from .construct import ChainRecord

# The one enumeration ceiling: below it non-increasing exponents take at
# most 15 primes (2*3*...*53 > 10^18), so the walks read 16 of _SMALL_PRIMES
_ENUM_HARD_CEILING = 18.0
_ENUM_HARD_LIMIT = int(10**_ENUM_HARD_CEILING)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class HCNRecord:
    value: FactoredInt
    divisor_count: int
    decimal: str


def _least_by_count(limit: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """``{d: (m, exponents)}``: the least m <= limit with d(m) = d, for
    every d reached, and its exponents on 2, 3, 5, ... .

    Sorting the exponents of any m down onto the smallest primes gives an
    integer <= m with the same d, so only non-increasing exponents are
    walked, each vector once, with d carried down.  limit <= 10^18.
    """
    least: dict[int, tuple[int, tuple[int, ...]]] = {1: (1, ())}

    def walk(i: int, max_e: int, cur: int, d: int, exps: tuple[int, ...]) -> None:
        p = _SMALL_PRIMES[i]
        v = cur
        for e in range(1, max_e + 1):
            v *= p
            if v > limit:
                return
            de, ve = d * (e + 1), exps + (e,)
            if de not in least or v < least[de][0]:
                least[de] = (v, ve)
            walk(i + 1, e, v, de, ve)

    walk(0, limit.bit_length(), 1, 1, ())
    return least


def enumerate_hcn(log10_limit: float) -> list[HCNRecord]:
    """All highly composite numbers with log10(value) <= log10_limit, ascending."""
    if not math.isfinite(log10_limit):
        raise InvalidArgument(f"log10 limit must be finite, got {log10_limit}")
    if log10_limit <= 0:
        raise InvalidArgument(f"log10 limit must be positive, got {log10_limit}")
    if log10_limit > _ENUM_HARD_CEILING:
        raise ResourceLimit(f"enumeration above 10^{_ENUM_HARD_CEILING} is not supported")
    return _hcn_up_to(int(10**log10_limit))


def _hcn_up_to(limit: int) -> list[HCNRecord]:
    """All highly composite numbers <= limit (an exact integer), ascending.

    H with d(H) = d is highly composite iff H is the least m of count d
    and lies below the least m of every larger count: then no m < H has
    d or more divisors.  So the HCNs are the suffix minima of
    ``_least_by_count(limit)``, taken from the largest count down.
    """
    least = _least_by_count(limit)
    records = []
    below = limit + 1
    for d in sorted(least, reverse=True):
        m, exps = least[d]
        if m < below:
            below = m
            records.append(HCNRecord(FactoredInt.from_exponents(exps), d, str(m)))
    return records[::-1]


def max_divisor_count(limit: int) -> int | None:
    """d(H) for the largest highly composite H <= limit, or None above the
    enumeration ceiling of 10^18.

    Every m <= limit has d(m) <= d(H): the least m <= limit with the most
    divisors in [1, limit] beats every smaller integer, so it is highly
    composite, hence at most H.  That maximum is taken over the integers
    ``_least_by_count`` walks, searched branch and bound from the
    incumbent d = 1: a node of value cur and divisor count d whose next
    prime is p can still multiply in primes >= p of total exponent E <=
    log_p(limit // cur), which multiplies d by prod(e + 1) <= 2^E.  A node
    with d * 2^E <= the best count so far cannot beat it and is cut, so
    the bound is admissible.
    """
    if limit > _ENUM_HARD_LIMIT:
        return None
    best = 1

    def dfs(i: int, max_e: int, cur: int, d: int) -> None:
        nonlocal best
        p = _SMALL_PRIMES[i]
        room, total, pe = limit // cur, 0, p
        while pe <= room:
            total, pe = total + 1, pe * p
        if d << total <= best:
            return
        v = cur
        for e in range(1, max_e + 1):
            v *= p
            if v > limit:
                return
            best = max(best, d * (e + 1))
            dfs(i + 1, e, v, d * (e + 1))

    dfs(0, limit.bit_length(), 1, 1)
    return best


def is_highly_composite(n: FactoredInt) -> bool:
    """True iff d(m) < d(n) for every m < n: ``max_divisor_count(n - 1) < d(n)``.

    ResourceLimit when n - 1 is past the enumeration ceiling of 10^18.
    """
    if not n.factors:
        return True  # n = 1: vacuous
    # the float screen spares computing the exact value of a huge n
    best = max_divisor_count(n.value() - 1) if n.log10_value() <= _ENUM_HARD_CEILING + 1 else None
    if best is None:
        raise ResourceLimit(f"enumeration above 10^{_ENUM_HARD_CEILING} is not supported")
    return best < n.divisor_count()


@dataclass(frozen=True)
class ConjectureRow:
    """One chain entry with the growth-ratio diagnostic for its pair."""

    period: int
    decimal: str
    ln_n: float
    ratio: float | None  # ln n_{k-1} / (ln 2 * ln n_k / ln ln n_k); None for the first row
    is_hcn: bool | None  # None when beyond the enumeration ceiling
    degenerate: bool  # ln ln n_k < 1 distorts the ratio


def conjecture_report(chain_records: list[ChainRecord]) -> list[ConjectureRow]:
    """Evaluate (never assert) the HCN conjecture along a minimal chain."""
    if len(chain_records) < 2:
        raise InvalidArgument("conjecture report needs at least 2 chain records")
    rows = []
    prev_ln = None
    for rec in chain_records:
        ln_n = rec.value.log10_value() * math.log(10.0)
        ratio = None
        degenerate = False
        if prev_ln is not None:
            lnln = math.log(ln_n)
            degenerate = lnln < 1.0
            ratio = prev_ln / (LN2 * ln_n / lnln)
        try:
            verdict = is_highly_composite(rec.value)
        except ResourceLimit:
            verdict = None
        rows.append(
            ConjectureRow(rec.period, rec.decimal, ln_n, ratio, verdict, degenerate)
        )
        prev_ln = ln_n
    return rows

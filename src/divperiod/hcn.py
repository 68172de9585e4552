"""Highly composite numbers and the minimal-chain conjecture report.

Every HCN factors over consecutive primes from 2 with non-increasing
exponents, so enumeration searches only those candidates and keeps the
strictly-increasing divisor-count records.  That reaches magnitudes
(~10^12 and beyond) where a plain sieve is hopeless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidArgument, ResourceLimit
from .factored import FactoredInt
from .primes import nth_prime

if TYPE_CHECKING:
    from .construct import ChainRecord

# is_highly_composite refuses above this by default; enumeration itself
# has a slightly higher hard stop.
DEFAULT_LOG10_CEILING = 15.0
_ENUM_HARD_CEILING = 18.0
_ENUM_HARD_LIMIT = int(10**_ENUM_HARD_CEILING)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class HCNRecord:
    value: FactoredInt
    divisor_count: int
    decimal: str


def _candidates(limit_value: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (value, exponents) with non-increasing exponents on 2,3,5,... ."""
    out: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    max_e0 = limit_value.bit_length()  # 2^e <= limit needs e <= log2

    def dfs(idx: int, max_e: int, cur: int, exps: list[int]) -> None:
        p = nth_prime(idx)
        v = cur
        for e in range(1, max_e + 1):
            v *= p
            if v > limit_value:
                return
            exps.append(e)
            out.append((v, tuple(exps)))
            dfs(idx + 1, e, v, exps)
            exps.pop()

    dfs(1, max_e0, 1, [])
    return out


def enumerate_hcn(log10_limit: float) -> list[HCNRecord]:
    """All highly composite numbers with log10(value) <= log10_limit, ascending."""
    if not math.isfinite(log10_limit):
        raise InvalidArgument(f"log10 limit must be finite, got {log10_limit}")
    if log10_limit <= 0:
        raise InvalidArgument(f"log10 limit must be positive, got {log10_limit}")
    if log10_limit > _ENUM_HARD_CEILING:
        raise ResourceLimit(
            f"enumeration above 10^{_ENUM_HARD_CEILING} is not supported"
        )
    return _hcn_up_to(int(10**log10_limit))


def _hcn_up_to(limit: int) -> list[HCNRecord]:
    """All highly composite numbers <= limit (an exact integer), ascending."""
    records = []
    best_d = 0
    for value, exps in sorted(_candidates(limit)):
        d = 1
        for e in exps:
            d *= e + 1
        if d > best_d:
            best_d = d
            records.append(HCNRecord(FactoredInt.from_exponents(exps), d, str(value)))
    return records


def max_divisor_count(limit: int) -> int | None:
    """d(H) for the largest highly composite H <= limit, or None above the
    enumeration ceiling of 10^18.

    Every m <= limit has d(m) <= d(H): the least m <= limit with the most
    divisors in [1, limit] beats every smaller integer, so it is highly
    composite, hence at most H.  That maximum is taken over the
    candidates, since the exponents of any m, sorted down onto 2, 3, 5,
    ..., give a candidate <= m with the same divisor count.  They are
    searched branch and bound from the incumbent d = 1: a node of value
    cur and divisor count d whose next prime is p can still multiply in
    primes >= p of total exponent E <= log_p(limit // cur), which
    multiplies d by prod(e + 1) <= 2^E.  A node with d * 2^E <= the best
    count so far cannot beat it and is cut, so the bound is admissible.
    """
    if limit > _ENUM_HARD_LIMIT:
        return None
    best = 1

    def dfs(idx: int, max_e: int, cur: int, d: int) -> None:
        nonlocal best
        p = nth_prime(idx)
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
            dfs(idx + 1, e, v, d * (e + 1))

    dfs(1, limit.bit_length(), 1, 1)
    return best


def is_highly_composite(
    n: FactoredInt, log10_ceiling: float = DEFAULT_LOG10_CEILING
) -> bool:
    """True iff d(m) < d(n) for every m < n: ``max_divisor_count(n - 1) < d(n)``."""
    if not math.isfinite(log10_ceiling):
        raise InvalidArgument(f"log10 ceiling must be finite, got {log10_ceiling}")
    l10 = n.log10_value()
    if l10 > log10_ceiling:
        raise ResourceLimit(
            f"value has log10 ~{l10:.1f}, above the enumeration ceiling {log10_ceiling}"
        )
    if not n.factors:
        return True  # n = 1: vacuous
    # the float screen spares computing the exact value of a huge n
    best = max_divisor_count(n.value() - 1) if l10 <= _ENUM_HARD_CEILING + 1 else None
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


def conjecture_report(
    chain_records: list[ChainRecord], log10_ceiling: float = DEFAULT_LOG10_CEILING
) -> list[ConjectureRow]:
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
            verdict = is_highly_composite(rec.value, log10_ceiling)
        except ResourceLimit:
            verdict = None
        rows.append(
            ConjectureRow(rec.period, rec.decimal, ln_n, ratio, verdict, degenerate)
        )
        prev_ln = ln_n
    return rows

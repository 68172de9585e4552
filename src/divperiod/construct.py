"""Preimage constructions under the divisor function.

Three routes to an n1 with d(n1) = n:

* ``canonical_preimage`` -- the greedy block construction: process n's
  prime powers p^a from the largest prime down, spending exponent (p-1)
  on the next a unused primes.
* ``naive_preimage`` -- one prime per prime-power factor, q_i^(p_i^a_i - 1);
  enough to prove the period unbounded, never minimal for long.
* ``exact_min_with_divisors`` -- an independent oracle: depth-first
  search over non-increasing exponent sequences on 2, 3, 5, ... whose
  (e_i + 1) product hits the target, branch-and-bound in log space from
  the canonical preimage as incumbent, with exact comparison on near-ties.

``min_with_period`` and ``chain`` build the minimal-n-per-period table
record by record: the least integer of period k is the least MinDiv(t)
over the targets t of period k - 1, the least of which is the record
before it.  The oracle runs on that target, the highly-composite cap on
d of its result bounds the targets still to try, and each entry is
labelled with how its minimality was established.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .divisor import _check_limit, period
from .errors import InvalidArgument, TooLarge
from .factored import _LOG_SCREEN, FactoredInt
from .hcn import _ENUM_HARD_CEILING, max_divisor_count
from .primes import _SMALL_PRIMES, factorize

DEFAULT_CANDIDATE_BOUND = 5_000_000

# The most primes a canonical preimage may take (Omega(n)), and the most
# digits p^a may have for the exponent p^a - 1 of a naive one: either
# bounds the factored text of the result, checked before it is built.
PREIMAGE_CEILING = 100_000


def canonical_preimage(n: FactoredInt) -> FactoredInt:
    """Greedy minimal-preimage construction (largest prime power first)."""
    if not n.factors:
        raise InvalidArgument("no integer > 1 has exactly 1 divisor")
    if sum(a for _, a in n.factors) > PREIMAGE_CEILING:
        raise TooLarge(
            f"canonical preimage needs Omega(n) primes, more than {PREIMAGE_CEILING}"
        )
    return FactoredInt.from_exponents(p - 1 for p, a in reversed(n.factors) for _ in range(a))


def naive_preimage(n: FactoredInt) -> FactoredInt:
    """One prime per prime-power factor: i-th prime raised to p_i^a_i - 1."""
    if not n.factors:
        raise InvalidArgument("no integer > 1 has exactly 1 divisor")
    for p, a in n.factors:
        # p^a >= 2^a has more than a / 4 digits: the float product is taken for small a only
        if a > 4 * PREIMAGE_CEILING or a * math.log10(p) >= PREIMAGE_CEILING:
            raise TooLarge(
                f"naive preimage exponent {p}^a - 1 has more than {PREIMAGE_CEILING} digits"
            )
    return FactoredInt.from_exponents(p**a - 1 for p, a in n.factors)


@lru_cache(maxsize=200_000)
def _divisors_desc(t: int) -> tuple[int, ...]:
    """Divisors of t that are >= 2, descending."""
    divs = [1]
    for p, e in factorize(t).factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted((d for d in divs if d >= 2), reverse=True))


# log10 of the first 64 primes: a target below 2^64 has at most 63 prime
# factors, so the search puts no exponent past the 63rd prime and reads
# the bound of the prime after it
_LOG10_PRIMES = tuple(math.log10(p) for p in _SMALL_PRIMES[:64])


@lru_cache(maxsize=200_000)
def _excess(t: int) -> int:
    """sum a * (q - 1) over t = prod q^a: the least sum (f_i - 1) over t = prod f_i.

    f1 * f2 - 1 >= (f1 - 1) + (f2 - 1), so splitting a factor never raises
    the sum, and the split into primes gives the least.
    """
    return sum(a * (q - 1) for q, a in factorize(t).factors)


def _exps_log10(exps: tuple[int, ...]) -> float:
    return sum(e * _LOG10_PRIMES[i] for i, e in enumerate(exps))


class _MinSearch:
    """Branch-and-bound state shared across one or many targets.

    The search keeps the least value offered over all targets run.  Each
    run first offers its seed, the target's canonical preimage (Theorem
    1's upper bound), whose exponents are already non-increasing.  A node
    that has placed exponents up to the idx-th prime, with ``rem`` count
    still to place, needs a factorization rem = prod f_i on later primes,
    each adding at least (f_i - 1) * log10 of the next prime, and the sum
    of the f_i - 1 is at least ``_excess(rem)``.  That lower bound never
    exceeds the value of any completion, so cutting the nodes whose bound
    is above the incumbent (by more than the log screen) never cuts the
    minimum.
    """

    def __init__(self):
        self.best_exps: tuple[int, ...] | None = None
        self.best_log: float = math.inf

    def run(self, target: int, seed: FactoredInt) -> None:
        exps = [e for _, e in seed.factors]
        self._offer(exps, _exps_log10(exps))
        self._dfs(target, 1, target, 0.0, [])

    def _offer(self, exps: list[int], log10v: float) -> None:
        if log10v > self.best_log - _LOG_SCREEN and self.best_exps is not None:
            if log10v > self.best_log + _LOG_SCREEN or tuple(exps) == self.best_exps:
                return
            # near-tie: decide exactly
            best = FactoredInt.from_exponents(self.best_exps)
            if FactoredInt.from_exponents(exps).compare(best) >= 0:
                return
        self.best_exps = tuple(exps)
        self.best_log = _exps_log10(self.best_exps)

    def _dfs(self, rem: int, idx: int, max_f: int, log10v: float, exps: list[int]) -> None:
        if rem == 1:
            self._offer(exps, log10v)
            return
        pl, next_pl = _LOG10_PRIMES[idx - 1], _LOG10_PRIMES[idx]
        for f in _divisors_desc(rem):
            if f > max_f:
                continue
            nl = log10v + (f - 1) * pl
            if nl + _excess(rem // f) * next_pl > self.best_log + _LOG_SCREEN:
                continue
            exps.append(f - 1)
            self._dfs(rem // f, idx + 1, f, nl, exps)
            exps.pop()


def exact_min_with_divisors(target: int, _seed: FactoredInt | None = None) -> FactoredInt:
    """The smallest integer with exactly ``target`` divisors.

    Exponent sequences may be assumed non-increasing on consecutive
    primes from 2 (swapping any inversion shrinks the value), so the
    search space is exactly the multiplicative partitions of the target.
    ``_MinSearch`` walks them branch and bound from the canonical
    preimage as incumbent, cutting every partial partition whose
    admissible lower bound (the log10 placed so far plus ``_excess`` of
    the rest on the next prime) cannot beat it.  ``_seed`` is that
    canonical preimage, if the caller has built it.
    """
    if target < 1:
        raise InvalidArgument(f"divisor-count target must be >= 1, got {target}")
    if target >= 2**64:
        raise InvalidArgument("target exceeds 64 bits")
    if target == 1:
        return FactoredInt(())
    if _seed is None:
        _seed = canonical_preimage(factorize(target))
    search = _MinSearch()
    search.run(target, _seed)
    return FactoredInt.from_exponents(search.best_exps)


@dataclass
class ChainRecord:
    """One entry of the minimal-n-per-period table."""

    period: int
    value: FactoredInt
    decimal: str
    digit_count: int
    # base-case (k <= 2), hcn-certified(d<=cap) (exact) or
    # oracle-verified-up-to-bound(bound) (least over the targets up to it)
    verification: str
    # does canonical_preimage of the previous chain entry reproduce this
    # value? None when there is no previous entry to apply it to.
    canonical_match: bool | None = None


def _record(k: int, value: FactoredInt, label: str, match: bool | None = None) -> ChainRecord:
    dec = value.to_decimal()
    return ChainRecord(k, value, dec, len(dec), label, match)


def min_with_period(
    k: int, candidate_bound: int = DEFAULT_CANDIDATE_BOUND, *, _previous: ChainRecord | None = None
) -> ChainRecord | None:
    """Minimal integer with period k, or None if unreachable at this bound.

    k = 1 and k = 2 (values 2 and 4) are base cases: 2 is the fixed point
    of d, so for k = 2 the oracle's least target 2 would give 2 itself,
    which has period 1.  For k >= 3, n has period k iff d(n) has period
    k - 1, so the answer is the least MinDiv(t) over the period-(k-1)
    targets t, the least of which is the previous record ``_previous``
    (built by recursion if not given); None if it exceeds the bound.  The
    oracle runs on it, seeded with its canonical preimage, and gives S.
    Every m <= S has d(m) <= cap = d(H), H the largest highly composite
    number <= S (Ramanujan 1915), so the sweep tries only the targets up
    to min(cap, bound).  If cap <= bound every target that could win was
    tried: ``hcn-certified(d<=cap)``.  Otherwise the result is the least
    over the targets up to it: ``oracle-verified-up-to-bound(bound)``.
    For k >= 3 the bound may be at most the sieve ceiling, as the sweep
    takes the period of every target up to it.
    """
    if k < 1:
        raise InvalidArgument(f"period must be >= 1, got {k}")
    if candidate_bound < 2:
        raise InvalidArgument(f"candidate bound must be >= 2, got {candidate_bound}")
    if k <= 2:
        return _record(k, factorize(2 * k), "base-case")
    # the sweep below takes period(t) of every target t up to the bound
    _check_limit(candidate_bound)
    if _previous is None:
        _previous = min_with_period(k - 1, candidate_bound)
    if _previous is None or _previous.value.value() > candidate_bound:
        return None
    least = _previous.value.value()
    seed = canonical_preimage(_previous.value)
    search = _MinSearch()
    search.run(least, seed)
    # a target t with MinDiv(t) <= S has t = d(MinDiv(t)) <= d(H); the
    # float screen spares computing the exact value of a huge S
    cap = None
    if search.best_log <= _ENUM_HARD_CEILING + 1:
        cap = max_divisor_count(FactoredInt.from_exponents(search.best_exps).value())
    hi = candidate_bound if cap is None else min(cap, candidate_bound)
    log10_2 = math.log10(2)
    for t in range(least + 1, hi + 1):
        if period(t) != k - 1:
            continue
        # any prime factor q of t forces a divisor-count factor >= q on
        # some prime, so the minimum with t divisors is >= 2^(q-1):
        # targets with a large prime factor cannot beat the running best
        ft = factorize(t)
        if (ft.factors[-1][0] - 1) * log10_2 > search.best_log + _LOG_SCREEN:
            continue
        search.run(t, canonical_preimage(ft))
    best = FactoredInt.from_exponents(search.best_exps)
    if cap is not None and cap <= candidate_bound:
        label = f"hcn-certified(d<={cap})"
    else:
        label = f"oracle-verified-up-to-bound({candidate_bound})"
    return _record(k, best, label, seed.compare(best) == 0)


def chain(max_k: int, candidate_bound: int = DEFAULT_CANDIDATE_BOUND) -> list[ChainRecord]:
    """Minimal-n records for periods 1..max_k, as far as reachable.

    Each record feeds the next: from k = 3 on, ``min_with_period`` takes
    the record before it as its least target and the canonical preimage
    of that record as its oracle seed, and ``canonical_match`` says
    whether that preimage is the record itself.  The chain stops at the
    first period whose least target exceeds ``candidate_bound``.
    """
    if max_k < 1:
        raise InvalidArgument(f"max_k must be >= 1, got {max_k}")
    _check_limit(candidate_bound)
    records: list[ChainRecord] = []
    for k in range(1, max_k + 1):
        rec = min_with_period(k, candidate_bound, _previous=records[-1] if records else None)
        if rec is None:
            break
        records.append(rec)
    return records

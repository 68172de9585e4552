"""Empirical scans: period frequencies, the log10 increment bound for the
canonical preimage, and the maximal-order ratio of d(n).

Everything here reports; nothing asserts an asymptotic claim.  Small-n
violations of the maximal-order bound (n = 60 being the classic one) are
expected and surfaced as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, TextIO

import numpy as np

from .construct import canonical_preimage
from .divisor import PeriodTable, Sieve, _periods_by_count, write_rows
from .errors import InvalidArgument, ResourceLimit
from .factored import FactoredInt
from .hcn import LN2


@dataclass(frozen=True)
class Histogram:
    lo: int
    hi: int
    counts: dict[int, int]


# Largest upper end ``histogram`` counts to: about 5 s and 80 MB there.
HISTOGRAM_CEILING = 10**11


def _prime_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """pi(v) for every v = n // i, as ``small[v]`` for v <= r = isqrt(n) and
    ``large[i] = pi(n // i)`` for 1 <= i <= r.

    Lucy's form of Legendre's recursion, O(n^(3/4)): while the primes below
    p are struck out, S(v) counts the 2 <= m <= v with no smaller prime
    factor, and striking out p removes S(v // p) - S(p - 1) of them for
    every v >= p^2.  Each v // p is a smaller v, so every update reads the
    old values, and one numpy step per prime does them all.
    """
    r = math.isqrt(n)
    small = np.maximum(np.arange(-1, r, dtype=np.int64), 0)
    quot = n // np.maximum(np.arange(r + 1, dtype=np.int64), 1)
    large = quot - 1
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue
        below, square = small[p - 1], p * p
        top = min(r, n // square)
        # i * p <= r reads large[i * p] = S(n // (i * p)); beyond, small[n // i // p]
        mid = min(top, r // p)
        large[1 : mid + 1] -= large[p : mid * p + 1 : p] - below
        large[mid + 1 : top + 1] -= small[quot[mid + 1 : top + 1] // p] - below
        if square <= r:
            small[square:] -= small[np.arange(square, r + 1) // p] - below
    return small, large


# Leaf ranges gathered before one numpy pass sums their prime counts.
_LEAF_RANGES_PER_PASS = 1 << 10


def _divisor_count_census(n: int) -> np.ndarray:
    """``c[v] = #{2 <= m <= n : d(m) = v}`` for every v <= 2 * isqrt(n) + 2.

    A walk over the part m of n below its largest prime q, with the primes
    of m in rising order.  The n = m * q with q to the first power are
    counted at once, as pi(n // m) - pi(P(m)) for P(m) the largest prime of
    m, and the n = m * p^e with e >= 2 one at a time.  Only p <= sqrt(n)
    can be a prime of m or have a square in n.

    Most of the walk's nodes are leaves m * p with p^2 <= n // m < p^3:
    such a node only adds pi(n // (m * p)) - pi(p).  Each m hands its run
    of them on as one range of primes, and numpy sums the prime counts of
    many ranges in one pass.
    """
    counts = [0] * (2 * math.isqrt(n) + 3)
    leaf_sums = np.zeros(len(counts), dtype=np.int64)
    if n < 2:
        return leaf_sums
    r = math.isqrt(n)
    small, large = _prime_counts(n)
    primes = np.flatnonzero(np.diff(small)) + 1
    pi_small, pi_large, prime_list = small.tolist(), large.tolist(), primes.tolist()
    ranges: list[tuple[int, int, int, int]] = []

    def sum_leaf_ranges() -> None:
        # range (v, lim, j0, j1) adds pi(lim // p_j) for j0 <= j < j1 to c[v]
        v, lim, j0, j1 = (np.array(c, dtype=np.int64) for c in zip(*ranges))
        ranges.clear()
        size = j1 - j0
        starts = np.cumsum(size) - size
        j = np.arange(int(size.sum())) + np.repeat(j0 - starts, size)
        x = np.repeat(lim, size) // primes[j]
        pi_x = small[np.minimum(x, r)]
        big = x > r
        pi_x[big] = large[n // x[big]]
        np.add.at(leaf_sums, v, np.add.reduceat(pi_x, starts))

    def walk(m: int, dm: int, i: int) -> None:
        # d(m) = dm, and i = pi(P(m)): primes of n above those of m are p_j, j >= i
        lim = n // m
        tail = (pi_large[m] if m <= r else pi_small[lim]) - i
        if tail > 0:
            counts[2 * dm] += tail
        end = pi_small[math.isqrt(lim)]  # the p_j with p_j^2 <= lim are j < end
        for j in range(i, end):
            p = prime_list[j]
            if p * p * p > lim:
                # p_j..p_end-1 are leaves: m * p^2, and m * p * q for primes p < q <= lim // p
                counts[3 * dm] += end - j
                counts[4 * dm] -= (end * (end + 1) - j * (j + 1)) // 2
                ranges.append((4 * dm, lim, j, end))
                if len(ranges) >= _LEAF_RANGES_PER_PASS:
                    sum_leaf_ranges()
                return
            pe, e = p, 1
            while pe * p <= lim:
                walk(m * pe, dm * (e + 1), j + 1)
                counts[dm * (e + 2)] += 1
                pe, e = pe * p, e + 1

    walk(1, 1, 0)
    if ranges:
        sum_leaf_ranges()
    return leaf_sums + counts


def histogram(lo: int, hi: int) -> Histogram:
    """Period-frequency counts over [lo, hi], counted, not sieved.

    k(n) = 1 + k(d(n)) for n > 2 and k(2) = 1, so k(n) depends on n only
    through v = d(n), and the count of period j on [2, N] is the sum of
    #{2 <= n <= N : d(n) = v} over the v with 1 + k(v) = j (v = 2: j = 1).
    Every 2 <= n <= N is m * q^e for exactly one m, q and e >= 1, with q
    the largest prime of n, and d(n) = d(m) * (e + 1); the walk of
    ``_divisor_count_census`` takes each such m once and counts its n
    from exact prime counts pi(N // m).  All of it is integer arithmetic,
    so the result is the sieve's, with no ceiling tied to a sieve.  The
    counts over [lo, hi] are those to hi less those to lo - 1.
    """
    if not 2 <= lo <= hi:
        raise InvalidArgument(f"range [{lo}, {hi}] invalid: need 2 <= lo <= hi")
    if hi > HISTOGRAM_CEILING:
        raise ResourceLimit(f"histogram upper end {hi} exceeds ceiling {HISTOGRAM_CEILING}")
    by_d = _divisor_count_census(hi)
    below = _divisor_count_census(lo - 1)
    by_d[: below.size] -= below
    k = _periods_by_count(by_d.size - 1)
    counts = {int(j): int(by_d[k == j].sum()) for j in np.unique(k[by_d > 0])}
    return Histogram(lo, hi, counts)


@dataclass(frozen=True)
class BoundParams:
    """Knobs for the maximal-order scan: tolerance and asymptotic cutoff."""

    epsilon: float = 0.1
    threshold_n0: int = 10_000

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise InvalidArgument("epsilon must be finite")
        if self.epsilon <= 0 or self.threshold_n0 <= 0:
            raise InvalidArgument("all bound parameters must be strictly positive")


@dataclass(frozen=True)
class WigertReport:
    lo: int
    hi: int
    params: BoundParams
    threshold_value: float  # ln 2 * (1 + epsilon)
    max_ratio: float
    argmax_n: int
    argmax_d: int
    # n >= threshold_n0 with ratio above the threshold, as (n, d, ratio)
    violations: list[tuple[int, int, float]] = field(default_factory=list)


def max_order_ratio(n: int, d: int) -> float:
    """r(n) = ln d(n) * ln ln n / ln n, the quantity whose limsup is ln 2."""
    return math.log(d) * math.log(math.log(n)) / math.log(n)


# ln n / ln ln n rises for n > e^e = 15.15..., so from 16 on the first n of
# a block gives the least divisor count a high ratio needs in all of it.
_SCREEN_FROM = 16
# Relative slack on that divisor count, far above the rounding of the
# ratios and of the count itself.
_SCREEN_MARGIN = 1e-9


def _check_scan_range(table: PeriodTable | Sieve, lo: int, hi: int) -> None:
    if lo < 3:
        raise InvalidArgument("scan needs lo >= 3 (ln ln n must be defined)")
    if not lo <= hi <= table.limit:
        raise InvalidArgument(f"range [{lo}, {hi}] outside table limit {table.limit}")


def wigert_scan(
    table: PeriodTable | Sieve, params: BoundParams, lo: int, hi: int
) -> WigertReport:
    """Scan r(n) over [lo, hi]: maximum, argmax, and above-threshold n.

    A block matters only at n with r(n) > c = min(threshold, running
    maximum): every other n is neither a violation nor a new maximum.
    For n >= start >= 16, r(n) > c means ln d(n) > c * ln n / ln ln n >=
    c * ln start / ln ln start, as ln n / ln ln n rises past e^e.  So
    ratios are taken only where d(n) > exp(c * ln start / ln ln start),
    less a relative margin of 1e-9 for rounding, and the result is the
    full scan's: the same numpy ratio, the least n among equal maxima, and
    violations in order.  Blocks that start below 16 are scanned whole.
    """
    _check_scan_range(table, lo, hi)
    threshold = LN2 * (1.0 + params.epsilon)
    max_ratio, argmax_n, argmax_d = -math.inf, lo, 0
    violations: list[tuple[int, int, float]] = []
    for start, d, _ in table.blocks(lo, hi):
        if start < _SCREEN_FROM:
            idx = np.arange(d.size)
        else:
            # c is -inf in the first block, which lets every n through
            c = min(threshold, max_ratio)
            ln_start = math.log(start)
            least_d = math.exp(c * ln_start / math.log(ln_start)) * (1.0 - _SCREEN_MARGIN)
            idx = np.flatnonzero(d > least_d)
            if not idx.size:
                continue
        dc = d[idx]
        n = (start + idx).astype(np.float64)
        r = np.log(dc.astype(np.float64)) * np.log(np.log(n)) / np.log(n)
        imax = int(np.argmax(r))
        # strict: a tie in a later block keeps the earlier, least n
        if r[imax] > max_ratio:
            max_ratio, argmax_n, argmax_d = float(r[imax]), start + int(idx[imax]), int(dc[imax])
        hit = np.flatnonzero((r > threshold) & (idx >= params.threshold_n0 - start))
        violations += zip((start + idx[hit]).tolist(), dc[hit].tolist(), r[hit].tolist())
    return WigertReport(lo, hi, params, threshold, max_ratio, argmax_n, argmax_d, violations)


@dataclass(frozen=True)
class IncrementReport:
    """Growth of the canonical preimage against the 0.545 * nu(n) bound."""

    n: FactoredInt
    delta_log10: float
    bound: float
    bound_holds: bool
    # the proof assumes at least two distinct primes with exponent >= 2;
    # reported separately because the bound can fail when this does (n = 12)
    hypothesis_holds: bool


INCREMENT_CONSTANT = 0.545


def theorem2_increment(n: FactoredInt) -> IncrementReport:
    """Compare log10 growth under the canonical construction to 0.545 * nu(n)."""
    if not n.factors or n.factors == ((2, 1),):
        raise InvalidArgument("increment check needs a value >= 3")
    pre = canonical_preimage(n)
    delta = pre.log10_value() - n.log10_value()
    bound = INCREMENT_CONSTANT * n.distinct_prime_count()
    hypothesis = sum(1 for _, e in n.factors if e >= 2) >= 2
    return IncrementReport(n, delta, bound, delta >= bound, hypothesis)


class PlotRows:
    """The (n, k) rows over [lo, hi], read from the table's blocks each time they are iterated."""

    def __init__(self, table: PeriodTable | Sieve, lo: int, hi: int):
        self.table, self.lo, self.hi = table, lo, hi

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, k)`` for consecutive blocks covering [lo, hi]."""
        for start, _, k in self.table.blocks(self.lo, self.hi):
            yield start, k

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for start, k in self.blocks():
            yield from zip(range(start, start + k.size), k.tolist())


def plot_data(table: PeriodTable | Sieve, lo: int, hi: int) -> PlotRows:
    """(n, k) rows for external plotting."""
    if not 2 <= lo <= hi <= table.limit:
        raise InvalidArgument(f"range [{lo}, {hi}] outside table limit {table.limit}")
    return PlotRows(table, lo, hi)


def write_wigert_csv(table: PeriodTable | Sieve, lo: int, hi: int, out: TextIO) -> None:
    """Full ``n,d,ratio`` rows over the scanned range.

    Each ratio is the numpy expression of ``wigert_scan``.  Its ``np.log``
    may differ from the libm log of ``max_order_ratio`` in the last place,
    never in the nine decimals written.
    """
    _check_scan_range(table, lo, hi)
    out.write("n,d,ratio\n")
    for start, d, _ in table.blocks(lo, hi):
        n = np.arange(start, start + d.size, dtype=np.float64)
        ratio = np.log(d.astype(np.float64)) * np.log(np.log(n)) / np.log(n)
        write_rows(out, "%d,%d,%.9f\n", start, d, ratio)


def write_plot_csv(rows: PlotRows, out: TextIO) -> None:
    out.write("n,k\n")
    for start, k in rows.blocks():
        write_rows(out, "%d,%d\n", start, k)

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
from .divisor import ROWS_PER_WRITE, PeriodTable, Sieve, write_rows
from .errors import InvalidArgument
from .factored import FactoredInt
from .hcn import LN2


@dataclass(frozen=True)
class Histogram:
    lo: int
    hi: int
    counts: dict[int, int]


def histogram(table: PeriodTable | Sieve, lo: int, hi: int) -> Histogram:
    """Period-frequency counts over [lo, hi]."""
    if not 2 <= lo <= hi <= table.limit:
        raise InvalidArgument(f"range [{lo}, {hi}] outside table limit {table.limit}")
    counts: dict[int, int] = {}
    for _, _, k in table.blocks(lo, hi):
        for kk, c in enumerate(np.bincount(k).tolist()):
            if c:
                counts[kk] = counts.get(kk, 0) + c
    return Histogram(lo, hi, dict(sorted(counts.items())))


@dataclass(frozen=True)
class BoundParams:
    """Knobs for the maximal-order scan: tolerance, asymptotic cutoff, growth constant."""

    epsilon: float = 0.1
    threshold_n0: int = 10_000
    growth_constant_c: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and math.isfinite(self.growth_constant_c)):
            raise InvalidArgument("epsilon and the growth constant must be finite")
        if self.epsilon <= 0 or self.threshold_n0 <= 0 or self.growth_constant_c <= 0:
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
    if lo < 3:
        raise InvalidArgument("scan needs lo >= 3 (ln ln n must be defined)")
    if not lo <= hi <= table.limit:
        raise InvalidArgument(f"range [{lo}, {hi}] outside table limit {table.limit}")
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


def increment_report_json(rep: IncrementReport) -> dict:
    return {
        "n": rep.n.to_text(),
        "delta_log10": rep.delta_log10,
        "bound": rep.bound,
        "hypothesis_holds": rep.hypothesis_holds,
        "bound_holds": rep.bound_holds,
    }


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


def write_histogram_csv(hist: Histogram, out: TextIO) -> None:
    out.write("k,count\n")
    for k in sorted(hist.counts):
        out.write(f"{k},{hist.counts[k]}\n")


def write_wigert_csv(table: PeriodTable | Sieve, lo: int, hi: int, out: TextIO) -> None:
    """Full ``n,d,ratio`` rows over the scanned range.

    Each ratio is ``max_order_ratio(n, d)`` to the bit: the logs come from
    ``math.log`` and numpy does only the product and the quotient, in the
    same order.  ``np.log`` may differ from libm in the last place.
    """
    if lo < 3 or not lo <= hi <= table.limit:
        raise InvalidArgument(f"range [{lo}, {hi}] invalid for table limit {table.limit}")
    # log_of[v] = ln v for every divisor count, as d(n) <= 2 * sqrt(n)
    log_of = np.array([0.0, *map(math.log, range(1, 2 * math.isqrt(hi) + 3))])
    out.write("n,d,ratio\n")
    for start, d, _ in table.blocks(lo, hi):
        for s in range(0, d.size, ROWS_PER_WRITE):
            part = d[s : s + ROWS_PER_WRITE]
            ln_n = list(map(math.log, range(start + s, start + s + part.size)))
            ratio = log_of[part] * np.array(list(map(math.log, ln_n))) / np.array(ln_n)
            write_rows(out, "%d,%d,%.9f\n", start + s, part, ratio)


def write_plot_csv(rows: PlotRows, out: TextIO) -> None:
    out.write("n,k\n")
    for start, k in rows.blocks():
        write_rows(out, "%d,%d\n", start, k)

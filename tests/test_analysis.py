import io
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from divperiod import (
    BoundParams,
    InvalidArgument,
    PeriodTable,
    ResourceLimit,
    Sieve,
    factorize,
    histogram,
    max_order_ratio,
    period_table,
    plot_data,
    theorem2_increment,
    wigert_scan,
)
from divperiod.analysis import (
    HISTOGRAM_CEILING,
    WigertReport,
    _prime_counts,
    write_plot_csv,
    write_wigert_csv,
)
from divperiod.divisor import BLOCK, least_by_divisor_count
from divperiod.primes import SIEVE_CEILING

from conftest import (
    cli_peak_kb, d_naive, first_difference, k_naive, needs_vmhwm, sieve_histogram,
)

LN2 = math.log(2)


def test_histogram_small():
    h = histogram(2, 12)
    # periods of 2..12 are 1,1,2,1,3,1,3,2,3,1,4 (naive-iteration oracle)
    assert h.counts == {1: 5, 2: 2, 3: 3, 4: 1}
    assert histogram(2, 2).counts == {1: 1}


def test_histogram_total():
    for lo, hi in [(2, 12), (2, 100_000), (50, 60), (17, 17)]:
        h = histogram(lo, hi)
        assert sum(h.counts.values()) == hi - lo + 1
        assert all(k >= 1 for k in h.counts)


def test_histogram_rejects_bad_range():
    for lo, hi in [(1, 10), (0, 0), (11, 10)]:
        with pytest.raises(InvalidArgument):
            histogram(lo, hi)
    with pytest.raises(ResourceLimit):
        histogram(2, HISTOGRAM_CEILING + 1)
    # counting has no sieve ceiling: past it, compare with the naive oracle
    lo, hi = SIEVE_CEILING - 1, SIEVE_CEILING + 1
    want: dict[int, int] = {}
    for n in range(lo, hi + 1):
        want[k_naive(n)] = want.get(k_naive(n), 0) + 1
    assert histogram(lo, hi).counts == dict(sorted(want.items()))


def test_histogram_matches_sieve_on_every_prefix(table_100k):
    top = 3_000
    swept: dict[int, int] = {}
    for n, k in enumerate(table_100k.period_of[2 : top + 1].tolist(), 2):
        swept[k] = swept.get(k, 0) + 1
        assert histogram(2, n).counts == dict(sorted(swept.items())), n
    assert histogram(2, top) == sieve_histogram(table_100k, 2, top)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 2_000_000), st.integers(2, 2_000_000))
def test_histogram_random_ranges(table_5m, a, b):
    lo, hi = min(a, b), max(a, b)
    bins = np.bincount(table_5m.period_of[lo : hi + 1])
    assert histogram(lo, hi).counts == {k: int(c) for k, c in enumerate(bins) if c > 0}


def test_prime_counts_match_sympy():
    rng = random.Random(11)
    for n in [1, 2, 3, 4, 8, 9, *rng.sample(range(10, 10**6 + 1), 10)]:
        r = math.isqrt(n)
        small, large = _prime_counts(n)
        for v in {*rng.choices(range(r + 1), k=20), 0, r}:
            assert small[v] == int(sympy.primepi(v))
        for i in {*rng.choices(range(1, r + 1), k=20), 1, r}:
            assert large[i] == int(sympy.primepi(n // i))


def test_prime_counts_published_values():
    # pi(10^9) and pi(10^10), OEIS A006880
    assert _prime_counts(10**9)[1][1] == 50_847_534
    assert _prime_counts(10**10)[1][1] == 455_052_511


def test_bound_params_validation():
    with pytest.raises(InvalidArgument):
        BoundParams(epsilon=0.0)
    with pytest.raises(InvalidArgument):
        BoundParams(threshold_n0=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument):
            BoundParams(epsilon=bad)


def test_max_order_ratio_examples():
    # r(60) exceeds ln 2: the bound is asymptotic, not universal
    assert max_order_ratio(60, 12) == pytest.approx(0.8555071, abs=1e-6)
    assert max_order_ratio(60, 12) > LN2
    assert max_order_ratio(9973, 2) < 0.2


def test_wigert_scan_small(table_100k):
    rep = wigert_scan(table_100k, BoundParams(), 3, 100_000)
    assert rep.max_ratio == max_order_ratio(rep.argmax_n, rep.argmax_d)
    # n = 60 is below threshold_n0, so never a violation
    assert all(n >= 10_000 for n, _, _ in rep.violations)
    for n, d, r in rep.violations:
        assert r > rep.threshold_value
        assert int(table_100k.divisor_of[n]) == d


def test_wigert_prime_ratio_below_ln2(table_100k):
    d = table_100k.divisor_of
    primes = np.flatnonzero(d[: 100_001] == 2)
    primes = primes[primes >= 5]
    n = primes.astype(np.float64)
    r = LN2 * np.log(np.log(n)) / np.log(n)
    assert np.all(r < LN2)


def test_wigert_scan_validates_range(table_100k):
    with pytest.raises(InvalidArgument):
        wigert_scan(table_100k, BoundParams(), 2, 100)
    with pytest.raises(InvalidArgument):
        wigert_scan(table_100k, BoundParams(), 3, 200_000)


def test_increment_examples():
    rep = theorem2_increment(factorize(5040))
    assert rep.delta_log10 == pytest.approx(7.765, abs=1e-3)
    assert rep.bound == pytest.approx(2.18, abs=1e-9)
    assert rep.bound_holds and rep.hypothesis_holds

    rep = theorem2_increment(factorize(12))
    assert rep.delta_log10 == pytest.approx(0.699, abs=1e-3)
    assert rep.bound == pytest.approx(1.09, abs=1e-9)
    assert not rep.bound_holds and not rep.hypothesis_holds

    rep = theorem2_increment(factorize(60))
    assert rep.delta_log10 == pytest.approx(1.924, abs=1e-3)
    assert rep.bound == pytest.approx(1.635, abs=1e-9)
    assert rep.bound_holds and not rep.hypothesis_holds


def test_increment_rejects_below_three():
    with pytest.raises(InvalidArgument):
        theorem2_increment(factorize(1))
    with pytest.raises(InvalidArgument):
        theorem2_increment(factorize(2))


def test_increment_nonnegative():
    for n in range(3, 5_041):
        assert theorem2_increment(factorize(n)).delta_log10 >= 0


def test_plot_data(table_100k):
    rows = plot_data(table_100k, 2, 350)
    assert len(rows) == 349
    as_map = dict(rows)
    assert as_map[60] == 5
    assert as_map[2] == 1
    assert max(k for _, k in rows) < 6


def test_csv_writers(table_100k):
    buf = io.StringIO()
    write_plot_csv(plot_data(table_100k, 2, 10), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,k"
    assert len(lines) == 10

    buf = io.StringIO()
    write_wigert_csv(table_100k, 3, 10, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,d,ratio"
    assert len(lines) == 9


def test_least_by_divisor_count_matches_naive_on_every_prefix():
    least: dict[int, int] = {}
    assert least_by_divisor_count(0) == {}
    for n in range(1, 3_001):
        least.setdefault(d_naive(n), n)
        assert least_by_divisor_count(n) == dict(sorted(least.items())), n


def _least_by_sieve(divisor_of: np.ndarray) -> dict[int, int]:
    """The least n >= 1 of each d in ``divisor_of[1:]``, read off the whole table."""
    values, first = np.unique(divisor_of[1:], return_index=True)
    return {int(v): int(i) + 1 for v, i in zip(values, first)}


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, 5_000_000])
def test_least_by_divisor_count_matches_sieve(table_5m, n):
    assert least_by_divisor_count(n) == _least_by_sieve(table_5m.divisor_of[: n + 1])


@pytest.fixture(scope="module")
def least_5m(table_5m):
    return _least_by_sieve(table_5m.divisor_of)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2_000_000))
def test_least_by_divisor_count_random_bounds(least_5m, n):
    # the least m <= n with d(m) = v is the least m <= 5 * 10^6, if that is <= n
    assert least_by_divisor_count(n) == {v: m for v, m in least_5m.items() if m <= n}


def _wigert_reference(d_all, params, lo, hi):
    """The scan over the whole range at once, as one array expression."""
    n = np.arange(lo, hi + 1, dtype=np.float64)
    d = d_all[lo : hi + 1].astype(np.float64)
    r = np.log(d) * np.log(np.log(n)) / np.log(n)
    imax = int(np.argmax(r))
    mask = (np.arange(lo, hi + 1) >= params.threshold_n0) & (r > LN2 * (1.0 + params.epsilon))
    violations = [(int(lo + i), int(d_all[lo + i]), float(r[i])) for i in np.flatnonzero(mask)]
    return float(r[imax]), lo + imax, int(d_all[lo + imax]), violations


RANGES = [(3, 5_000_000), (BLOCK - 1, BLOCK + 1), (BLOCK + 1, 3 * BLOCK + 7), (10**6, 5_000_000)]


@pytest.fixture(scope="module")
def sieve_5m():
    return Sieve(5_000_000)


PREFIXES = [(2, hi) for hi in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, 5_000_000)]


@pytest.mark.parametrize("lo,hi", RANGES + PREFIXES)
def test_histogram_sieve_matches_table(table_5m, sieve_5m, lo, hi):
    h = histogram(lo, hi)
    assert h == sieve_histogram(sieve_5m, lo, hi)
    bins = np.bincount(table_5m.period_of[lo : hi + 1])
    assert h.counts == {k: int(c) for k, c in enumerate(bins) if c > 0}


@pytest.mark.parametrize(
    "lo,hi,n0",
    [(3, 5_000_000, 10_000), (BLOCK - 1, BLOCK + 1, 1), (10**6, 5_000_000, 10**6 + BLOCK + 12_345)],
)
def test_wigert_scan_sieve_matches_table(table_5m, sieve_5m, lo, hi, n0):
    params = BoundParams(threshold_n0=n0)
    rep = wigert_scan(sieve_5m, params, lo, hi)
    assert rep == wigert_scan(table_5m, params, lo, hi)
    # bit-identical to the single-array scan, not merely close
    assert (rep.max_ratio, rep.argmax_n, rep.argmax_d, rep.violations) == _wigert_reference(
        table_5m.divisor_of, params, lo, hi
    )


def test_wigert_scan_maximum_in_later_block(table_5m, sieve_5m):
    lo, hi = 10**6, 5_000_000
    rep = wigert_scan(sieve_5m, BoundParams(), lo, hi)
    assert rep.argmax_n >= lo + BLOCK
    assert rep.argmax_n == _wigert_reference(table_5m.divisor_of, BoundParams(), lo, hi)[1]


def test_wigert_scan_threshold_mid_block(table_5m, sieve_5m):
    lo, hi = 10**6, 5_000_000
    n0 = lo + BLOCK + BLOCK // 2
    rep = wigert_scan(sieve_5m, BoundParams(threshold_n0=n0), lo, hi)
    assert rep.violations and rep.violations[0][0] >= n0
    below = wigert_scan(sieve_5m, BoundParams(threshold_n0=lo), lo, hi).violations
    assert rep.violations == [v for v in below if v[0] >= n0]
    assert len(rep.violations) < len(below)


def _reference_report(d_all, params, lo, hi):
    """The unscreened scan as a ``WigertReport``."""
    threshold = LN2 * (1.0 + params.epsilon)
    return WigertReport(lo, hi, params, threshold, *_wigert_reference(d_all, params, lo, hi))


# ranges below and across 16, where the screen starts, and across block edges
SCREEN_RANGES = [(3, 15), (3, 16), (16, 17), (BLOCK - 1, BLOCK + 1), (16, 2 * BLOCK + 5),
                 (BLOCK + 1, 3 * BLOCK + 7)]


@pytest.mark.parametrize("lo,hi", SCREEN_RANGES)
@pytest.mark.parametrize("epsilon", [0.01, 0.1, 2.0])
@pytest.mark.parametrize("n0_at", ["one", "mid", "past"])
def test_wigert_scan_matches_unscreened_reference(table_5m, sieve_5m, lo, hi, epsilon, n0_at):
    # at epsilon 2.0 no ratio reaches the threshold, so only the maximum
    # is screened; over [BLOCK + 1, 3 * BLOCK + 7] it lies in a later block
    n0 = {"one": 1, "mid": lo + min(BLOCK, hi - lo) // 2, "past": hi + 1}[n0_at]
    params = BoundParams(epsilon=epsilon, threshold_n0=n0)
    assert wigert_scan(sieve_5m, params, lo, hi) == _reference_report(
        table_5m.divisor_of, params, lo, hi
    )


def test_wigert_scan_violation_at_block_start(table_5m, sieve_5m):
    # r(s) for s = 524888, d(s) = 48, the first n of the second block,
    # and the largest epsilon whose threshold lies below it: rounded
    # without margin, exp(threshold * ln s / ln ln s) is not below 48
    s = 524_888
    lo = s - BLOCK
    r = _wigert_reference(table_5m.divisor_of, BoundParams(), s, s)[0]
    epsilon = r / LN2 - 1
    while LN2 * (1.0 + epsilon) >= r:
        epsilon = math.nextafter(epsilon, -math.inf)
    while LN2 * (1.0 + math.nextafter(epsilon, math.inf)) < r:
        epsilon = math.nextafter(epsilon, math.inf)
    threshold = LN2 * (1.0 + epsilon)
    assert not 48 > math.exp(threshold * math.log(s) / math.log(math.log(s)))
    params = BoundParams(epsilon=epsilon, threshold_n0=s)
    rep = wigert_scan(sieve_5m, params, lo, s + 10)
    assert rep.violations[0] == (s, 48, r)
    assert rep == _reference_report(table_5m.divisor_of, params, lo, s + 10)


class _SmallBlocks:
    """A period table read in blocks of ``size`` values, so small ranges span many."""

    def __init__(self, table, size):
        self.table, self.size, self.limit = table, size, table.limit

    def blocks(self, lo, hi):
        for start in range(lo, hi + 1, self.size):
            end = min(start + self.size, hi + 1)
            yield start, self.table.divisor_of[start:end], self.table.period_of[start:end]


@settings(max_examples=300, deadline=None)
@given(
    lo=st.integers(3, 6_000),
    length=st.integers(0, 4_000),
    size=st.integers(1, 700),
    epsilon=st.sampled_from([0.01, 0.1, 0.3, 0.5, 2.0]),
    n0=st.integers(1, 10_000),
)
def test_wigert_scan_screen_small_blocks(table_100k, lo, length, size, epsilon, n0):
    params = BoundParams(epsilon=epsilon, threshold_n0=n0)
    hi = lo + length
    assert wigert_scan(_SmallBlocks(table_100k, size), params, lo, hi) == _reference_report(
        table_100k.divisor_of, params, lo, hi
    )


def test_wigert_scan_reads_blocks_below_sixteen_whole():
    # ln n / ln ln n falls up to e^e, so the first n of a block below 16
    # gives no floor: with synthetic counts d(3) = 1000 and d(6) = 7, the
    # floor exp(r(3) * ln 5 / ln ln 5) = 7.4 of the block [5, 6] would
    # hide the new maximum r(6) = 0.633 > r(3) = 0.591
    d_all = np.ones(7, dtype=np.int32)
    d_all[3], d_all[6] = 1000, 7
    table = PeriodTable(6, np.zeros(7, dtype=np.int16), d_all)
    params = BoundParams(epsilon=2.0)
    rep = wigert_scan(_SmallBlocks(table, 2), params, 3, 6)
    assert (rep.argmax_n, rep.argmax_d) == (6, 7)
    assert rep == _reference_report(d_all, params, 3, 6)


@needs_vmhwm
def test_wigert_cli_memory_is_bounded():
    """The scan streams blocks: 2*10^7 integers once took 907 MB."""
    code, peak_kb = cli_peak_kb("wigert", "--from", "3", "--to", "20000000")
    assert code == 0
    assert peak_kb < 200 * 1024


# Both sides of the first block edge and past the second, lower ends
# mid-block; and a short range whose d(12) = 6 comes close to 2 * sqrt(12).
EXPORT_RANGES = [(3, 12), (3, BLOCK - 1), (300_001, BLOCK + 1), (300_001, 2 * BLOCK + 5)]


@pytest.mark.parametrize("lo,hi", EXPORT_RANGES)
def test_write_wigert_csv_matches_max_order_ratio(table_5m, lo, hi):
    d = table_5m.divisor_of.tolist()
    expected = "n,d,ratio\n" + "".join(
        f"{n},{d[n]},{max_order_ratio(n, d[n]):.9f}\n" for n in range(lo, hi + 1)
    )
    for source in (Sieve(hi), table_5m):
        buf = io.StringIO()
        write_wigert_csv(source, lo, hi, buf)
        assert first_difference(buf.getvalue(), expected) is None


@pytest.mark.parametrize("lo,hi", EXPORT_RANGES)
def test_plot_data_streams_sieve_rows(table_5m, lo, hi):
    expected = list(zip(range(lo, hi + 1), table_5m.period_of[lo : hi + 1].tolist()))
    rows = plot_data(Sieve(hi), lo, hi)
    assert len(rows) == len(expected)
    assert list(rows) == expected
    buf = io.StringIO()
    write_plot_csv(rows, buf)
    text = "n,k\n" + "".join(f"{n},{k}\n" for n, k in expected)
    assert first_difference(buf.getvalue(), text) is None

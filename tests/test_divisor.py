import io
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divperiod import (
    InvalidArgument,
    ResourceLimit,
    Sieve,
    UndefinedPeriod,
    divisor_count_int,
    first_occurrences,
    period,
    period_table,
    trajectory,
)
from divperiod.divisor import (
    BLOCK,
    ROWS_PER_WRITE,
    least_by_divisor_count,
    write_rows,
    write_table_csv,
)
from divperiod.hcn import max_divisor_count
from divperiod.primes import SIEVE_CEILING

from conftest import first_difference, k_naive


def test_divisor_count_int():
    assert divisor_count_int(1) == 1
    assert divisor_count_int(5040) == 60
    assert divisor_count_int(12) == 6
    with pytest.raises(InvalidArgument):
        divisor_count_int(0)


def test_period_examples():
    assert period(2) == 1
    assert period(60) == 5
    assert period(5040) == 6
    assert period(7) == 1


def test_period_of_one_undefined():
    with pytest.raises(UndefinedPeriod):
        period(1)
    with pytest.raises(UndefinedPeriod):
        trajectory(1)


def test_trajectory():
    assert trajectory(12).steps == [12, 6, 4, 3, 2]
    assert trajectory(2).steps == [2, 2]
    assert trajectory(60).steps == [60, 12, 6, 4, 3, 2]


def test_trajectory_invariants():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10**6)
        t = trajectory(n)
        assert len(t.steps) == period(n) + 1
        assert t.steps[-1] == 2
        assert 2 not in t.steps[1:-1]
        for a, b in zip(t.steps, t.steps[1:]):
            assert divisor_count_int(a) == b


def test_table_small():
    table = period_table(12)
    # frozen from the independent naive-iteration oracle
    expected = [k_naive(n) for n in range(2, 13)]
    assert expected == [1, 1, 2, 1, 3, 1, 3, 2, 3, 1, 4]
    assert table.period_of[2:13].tolist() == expected


def test_table_invariants(table_100k):
    d, k = table_100k.divisor_of, table_100k.period_of
    assert int(d[1]) == 1
    n = np.arange(2, 100_001)
    primes = n[d[2:] == 2]
    assert np.all(k[primes] == 1)
    # recurrence: k(n) = 1 + k(d(n)) when d(n) >= 3
    dn = d[3:]
    rec = np.where(dn == 2, 1, 1 + k[dn])
    assert np.array_equal(k[3:], rec)
    # d(n) <= n, equality only at 1 and 2
    assert np.all(d[3:] < np.arange(3, 100_001))
    assert int(d[2]) == 2


def test_table_matches_point_period(table_100k):
    for n in range(2, 100_001):
        assert int(table_100k.period_of[n]) == period(n)


def test_table_prime_entry(table_100k):
    assert int(table_100k.period_of[97]) == 1


def test_table_rejects_bad_limit():
    with pytest.raises(InvalidArgument):
        period_table(1)


def test_table_sample_cross_check(table_5m):
    rng = random.Random(2024)
    for _ in range(1_000):
        n = rng.randrange(2, 5_000_001)
        assert int(table_5m.period_of[n]) == period(n)


def test_first_occurrences():
    assert first_occurrences(6000) == {1: 2, 2: 4, 3: 6, 4: 12, 5: 60, 6: 5040}
    assert first_occurrences(10) == {1: 2, 2: 4, 3: 6}
    with pytest.raises(InvalidArgument):
        first_occurrences(1)
    # the candidates reach past the sieve ceiling, up to their own of 10^18
    assert first_occurrences(SIEVE_CEILING + 1)[6] == 5040
    assert first_occurrences(10**18)[7] == 293318625600
    with pytest.raises(ResourceLimit, match="exceeds ceiling 1000000000000000000"):
        first_occurrences(10**18 + 1)


def test_first_occurrences_no_seven(table_5m):
    occ = first_occurrences(5_000_000)
    assert occ == _first_by_scan(table_5m, 5_000_000)
    assert 7 not in occ
    assert occ == {1: 2, 2: 4, 3: 6, 4: 12, 5: 60, 6: 5040}


def test_first_occurrences_match_naive_on_every_prefix():
    first: dict[int, int] = {}
    for n in range(2, 3_001):
        first.setdefault(k_naive(n), n)
        assert first_occurrences(n) == dict(sorted(first.items())), n


def _first_by_least(least: dict[int, int], limit: int) -> dict[int, int]:
    """The least n of each period in [2, limit], from a least-n-per-divisor-count table."""
    first: dict[int, int] = {}
    for m in sorted(m for m in least.values() if 2 <= m <= limit):
        first.setdefault(period(m), m)
    return dict(sorted(first.items()))


def test_first_occurrences_match_walk_on_every_prefix():
    least = least_by_divisor_count(3_000)
    for n in range(2, 3_001):
        assert first_occurrences(n) == _first_by_least(least, n), n


@pytest.mark.parametrize("limit", [2**19 - 1, 2**19 + 1, 10**8, 10**10])
def test_first_occurrences_match_walk(limit):
    assert first_occurrences(limit) == _first_by_least(least_by_divisor_count(limit), limit)


def test_csv_export():
    table = period_table(12)
    buf = io.StringIO()
    write_table_csv(table, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,d,k"
    assert lines[1] == "2,2,1"
    assert lines[-1] == "12,6,4"
    assert len(lines) == 12


# Limits and lower ends on both sides of every block edge the sieve has.
EDGES = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


@pytest.fixture(scope="module")
def plain_sieve():
    """d and k to 3 * BLOCK + 7 by one increment per divisor, periods resolved n by n."""
    limit = max(EDGES)
    d = np.zeros(limit + 1, dtype=np.int32)
    for j in range(1, limit + 1):
        d[j::j] += 1
    dl = d.tolist()
    k = [0] * (limit + 1)
    for n in range(2, limit + 1):
        k[n] = 1 if dl[n] == 2 else 1 + k[dl[n]]
    return d, np.array(k, dtype=np.int16)


def _joined(sieve, lo, hi):
    starts, ds, ks = zip(*sieve.blocks(lo, hi))
    assert starts == tuple(range(lo, hi + 1, BLOCK))
    assert all(d.size == k.size <= BLOCK for d, k in zip(ds, ks))
    return np.concatenate(ds), np.concatenate(ks)


@pytest.mark.parametrize("limit", EDGES[1:])
def test_sieve_blocks_match_plain_sieve(plain_sieve, limit):
    d_ref, k_ref = plain_sieve
    sieve = Sieve(limit)
    assert sieve.limit == limit
    for lo in EDGES:
        if lo > limit:
            continue
        d, k = _joined(sieve, lo, limit)
        assert d.dtype == np.int32 and k.dtype == np.int16
        assert np.array_equal(d, d_ref[lo : limit + 1])
        assert np.array_equal(k, k_ref[lo : limit + 1])
    table = period_table(limit)
    assert np.array_equal(table.divisor_of, d_ref[: limit + 1])
    assert np.array_equal(table.period_of, k_ref[: limit + 1])


@pytest.fixture(scope="module")
def sieve_3_blocks():
    return Sieve(3 * BLOCK)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3 * BLOCK), st.integers(1, 3 * BLOCK))
def test_sieve_blocks_any_range(plain_sieve, sieve_3_blocks, a, b):
    lo, hi = min(a, b), max(a, b)
    d, k = _joined(sieve_3_blocks, lo, hi)
    assert np.array_equal(d, plain_sieve[0][lo : hi + 1])
    assert np.array_equal(k, plain_sieve[1][lo : hi + 1])


def test_sieve_rejects_bad_limit_and_range():
    with pytest.raises(InvalidArgument):
        Sieve(1)
    sieve = Sieve(100)
    for lo, hi in [(0, 10), (5, 4), (2, 101)]:
        with pytest.raises(InvalidArgument):
            list(sieve.blocks(lo, hi))


def _first_by_scan(table, limit):
    """The least n of each period in [2, limit], read off the whole table."""
    periods, first_idx = np.unique(table.period_of[2 : limit + 1], return_index=True)
    return {int(k): int(i) + 2 for k, i in zip(periods, first_idx)}


def test_table_and_sieve_first_occurrences_agree(table_5m):
    assert first_occurrences(5_000_000) == _first_by_scan(table_5m, 5_000_000)
    # 5040 is the first period-6 value; limits on both sides of it
    assert first_occurrences(5039) == {1: 2, 2: 4, 3: 6, 4: 12, 5: 60}
    assert first_occurrences(5040)[6] == 5040


@pytest.mark.parametrize(
    "limit", [2, 3, 11, 12, 59, 60, 5039, 5040, 6000, BLOCK - 1, BLOCK + 1, 5_000_000]
)
def test_first_occurrences_match_full_scan(table_5m, limit):
    assert first_occurrences(limit) == _first_by_scan(table_5m, limit)


@pytest.mark.parametrize("limit", [6_350_399, 6_350_400, 10**7, 2 * 10**8])
def test_first_occurrences_stops_past_hcn_divisor_bound(block_calls, limit):
    # no m <= limit has more than d(H) divisors, H the largest highly
    # composite number <= limit: 448 at 10^7, 960 at 2 * 10^8; n_6 = 5040
    # exceeds that, so no period 7 occurs, even where 2 * isqrt(limit) =
    # 5040 would not rule period 7 out.  Only the periods of the divisor
    # counts up to d(H) are sieved, and no n <= limit
    assert max_divisor_count(limit) < 5040
    assert first_occurrences(limit) == {1: 2, 2: 4, 3: 6, 4: 12, 5: 60, 6: 5040}
    assert block_calls == [(0, max_divisor_count(limit))]


def test_period_matches_table_past_two_to_the_sixteen():
    top = 2 + (1 << 16) + 5_000
    table = period_table(top)
    for n in range(2, top):
        assert period(n) == int(table.period_of[n])


# Ranges for the streamed writers: both sides of the first block edge and
# past the second, with lower ends at the start and in the middle of a block.
EXPORT_RANGES = [(2, BLOCK - 1), (2, BLOCK + 1), (300_001, BLOCK + 1), (300_001, 2 * BLOCK + 5)]


@pytest.mark.parametrize("lo,hi", EXPORT_RANGES)
def test_write_table_csv_matches_row_by_row(table_5m, lo, hi):
    d, k = table_5m.divisor_of.tolist(), table_5m.period_of.tolist()
    # one f-string per row, as the writer once formatted them
    expected = "n,d,k\n" + "".join(f"{n},{d[n]},{k[n]}\n" for n in range(lo, hi + 1))
    for source in (Sieve(hi), table_5m):
        buf = io.StringIO()
        write_table_csv(source, buf, lo, hi)
        assert first_difference(buf.getvalue(), expected) is None


class _Writes(list):
    write = list.append


def test_write_rows_batches():
    size = 2 * ROWS_PER_WRITE + 3
    d = np.arange(size, dtype=np.int32) % 7
    out = _Writes()
    write_rows(out, "%d:%d\n", 10, d)
    assert [w.count("\n") for w in out] == [ROWS_PER_WRITE, ROWS_PER_WRITE, 3]
    expected = "".join(f"{10 + i}:{v}\n" for i, v in enumerate(d.tolist()))
    assert first_difference("".join(out), expected) is None

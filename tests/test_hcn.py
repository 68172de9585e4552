import math
import random

import numpy as np
import pytest

from divperiod import (
    FactoredInt,
    InvalidArgument,
    chain,
    conjecture_report,
    enumerate_hcn,
    factorize,
    is_highly_composite,
    period_table,
)
from divperiod.cli import main
from divperiod.errors import ResourceLimit
from divperiod.hcn import _least_by_count, max_divisor_count


def test_enumerate_small():
    assert [r.decimal for r in enumerate_hcn(2.1)] == [
        "1", "2", "4", "6", "12", "24", "36", "48", "60", "120",
    ]
    assert [r.decimal for r in enumerate_hcn(0.4)] == ["1", "2"]


def test_enumerate_contains_5040():
    assert "5040" in [r.decimal for r in enumerate_hcn(4.0)]


def test_enumerate_rejects_nonpositive():
    with pytest.raises(InvalidArgument):
        enumerate_hcn(0.0)


def test_enumerate_matches_sieve_argmax(table_5m):
    d = table_5m.divisor_of
    for log10_limit in (5.0, 6.0):
        top = 10 ** int(log10_limit)
        # n is a record when d(n) beats the running maximum over [1, n)
        before = np.maximum.accumulate(np.concatenate(([0], d[1:top])))
        expect = (np.flatnonzero(d[1 : top + 1] > before) + 1).tolist()
        got = [int(r.decimal) for r in enumerate_hcn(log10_limit)]
        assert got == expect, log10_limit


def test_enumerate_to_the_ceiling():
    # OEIS A002182: 156 highly composite numbers up to 10^18
    records = enumerate_hcn(18.0)
    assert len(records) == 156
    assert (records[-1].decimal, records[-1].divisor_count) == ("897612484786617600", 103_680)


def test_least_by_count_matches_sieve(table_5m):
    d = table_5m.divisor_of
    for limit in (1, 2, 12, 1_000, 5_039, 5_040, 65_536, 720_720, 1_000_000):
        # np.unique gives the first index, so the least n, of each count
        counts, first = np.unique(d[1 : limit + 1], return_index=True)
        expect = dict(zip(counts.tolist(), (first + 1).tolist()))
        least = _least_by_count(limit)
        assert {v: m for v, (m, _) in least.items()} == expect, limit
        for v, (m, exps) in least.items():
            assert FactoredInt.from_exponents(exps).value() == m
            assert math.prod(e + 1 for e in exps) == v


def test_enumerate_structural_invariants():
    records = enumerate_hcn(9.0)
    prev_d = 0
    for r in records:
        exps = [e for _, e in r.value.factors]
        assert exps == sorted(exps, reverse=True)
        assert r.divisor_count == r.value.divisor_count()
        assert r.divisor_count > prev_d
        prev_d = r.divisor_count


def test_is_highly_composite():
    assert is_highly_composite(factorize(5040))
    assert not is_highly_composite(factorize(18))
    assert is_highly_composite(FactoredInt())


def test_is_highly_composite_ceiling():
    with pytest.raises(ResourceLimit):
        is_highly_composite(FactoredInt(((2, 60),)))


def test_is_highly_composite_at_the_enumeration_ceiling():
    assert is_highly_composite(factorize(897612484786617600))
    # n - 1 = 10^18 is answered; n + 1 is past the ceiling
    assert not is_highly_composite(factorize(10**18 + 1))
    with pytest.raises(ResourceLimit, match=r"enumeration above 10\^18.0 is not supported"):
        is_highly_composite(factorize(10**18 + 2))


def test_max_divisor_count_matches_candidates():
    for n in range(1, 3_001):
        assert max_divisor_count(n) == max(_least_by_count(n)), n
    rng = random.Random(18)
    for _ in range(20):
        n = rng.randrange(2, 10 ** rng.randint(4, 18) + 1)
        assert max_divisor_count(n) == max(_least_by_count(n)), n
    assert max_divisor_count(10**18) == max(_least_by_count(10**18)) == 103_680


def test_chain_values_are_highly_composite():
    for rec in chain(7, candidate_bound=6_000):
        assert is_highly_composite(rec.value)


def test_conjecture_report():
    records = chain(6, candidate_bound=6_000)
    rows = conjecture_report(records)
    assert [r.period for r in rows] == [1, 2, 3, 4, 5, 6]
    assert rows[0].ratio is None
    # pair (2, 4) is computed but flagged: ln ln 4 < 1 distorts the ratio
    assert rows[1].degenerate
    assert not rows[4].degenerate and not rows[5].degenerate
    # pair (60, 5040): ln 60 / (ln 2 * ln 5040 / ln ln 5040)
    expect = math.log(60) / (math.log(2) * math.log(5040) / math.log(math.log(5040)))
    assert rows[5].ratio == pytest.approx(expect, abs=1e-12)
    assert rows[5].ratio == pytest.approx(1.4848512, abs=1e-6)
    assert all(r.is_hcn for r in rows)


def test_conjecture_needs_two_records():
    with pytest.raises(InvalidArgument):
        conjecture_report(chain(1, candidate_bound=100))


def test_conjecture_csv(capsys):
    rows = conjecture_report(chain(6, candidate_bound=6_000))
    assert main(["conjecture", "--max-k", "6", "--bound", "6000", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,n_decimal,ln_n,ratio,is_hcn"
    assert len(lines) == 7
    assert lines[1].startswith("1,2,0.693147,,true")
    # each CSV row is the report row of the same period, to six decimals
    for r, line in zip(rows, lines[1:]):
        ratio = "" if r.ratio is None else f"{r.ratio:.6f}"
        hcn = "" if r.is_hcn is None else str(r.is_hcn).lower()
        assert line == f"{r.period},{r.decimal},{r.ln_n:.6f},{ratio},{hcn}"

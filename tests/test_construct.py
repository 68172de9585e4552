import random

import numpy as np
import pytest

from divperiod import (
    FactoredInt,
    InvalidArgument,
    ResourceLimit,
    TooLarge,
    canonical_preimage,
    chain,
    exact_min_with_divisors,
    factorize,
    min_with_period,
    naive_preimage,
    period,
    period_table,
)
from divperiod import construct, divisor, factored, parse, primes
from divperiod.cli import main
from divperiod.divisor import BLOCK
from divperiod.hcn import max_divisor_count

L = FactoredInt(((2, 6), (3, 4), (5, 2), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1)))


def test_canonical_preimage_examples():
    assert canonical_preimage(factorize(5040)) == L
    assert canonical_preimage(factorize(12)) == factorize(60)
    assert canonical_preimage(factorize(4)) == factorize(6)
    assert canonical_preimage(factorize(16)) == factorize(210)


def test_canonical_preimage_rejects_one():
    with pytest.raises(InvalidArgument):
        canonical_preimage(FactoredInt())


def test_naive_preimage_examples():
    assert naive_preimage(factorize(6)) == factorize(18)
    assert naive_preimage(factorize(2)) == factorize(2)
    assert naive_preimage(factorize(12)) == factorize(72)
    with pytest.raises(InvalidArgument):
        naive_preimage(FactoredInt())


def test_preimage_ceiling_is_checked_before_any_work():
    # 2^332192 has 100,000 digits and 2^332193 one more
    assert naive_preimage(FactoredInt(((2, 332_192),))).factors == ((2, 2**332_192 - 1),)
    with pytest.raises(TooLarge, match="100000 digits"):
        naive_preimage(FactoredInt(((2, 332_193),)))
    # Omega(n) = 100,000 primes, then one more
    assert len(canonical_preimage(FactoredInt(((2, 50_000), (3, 50_000)))).factors) == 100_000
    with pytest.raises(TooLarge, match="Omega"):
        canonical_preimage(FactoredInt(((2, 50_000), (3, 50_001))))


def test_round_trips():
    for n in range(2, 10_001):
        fi = factorize(n)
        assert canonical_preimage(fi).divisor_count() == n
        assert naive_preimage(fi).divisor_count() == n


def test_canonical_exponents_non_increasing():
    for n in range(2, 2_001):
        out = canonical_preimage(factorize(n))
        exps = [e for _, e in out.factors]
        assert exps == sorted(exps, reverse=True)
        assert [p for p, _ in out.factors] == [
            int(q) for q in _first_primes(len(exps))
        ]


def test_canonical_preimage_proves_no_prime(monkeypatch):
    # the primes of an exponent-built value come from nth_prime: none is proven again
    n = parse("2^100000")
    calls = []
    original = primes.is_prime

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(primes, "is_prime", counted)
    monkeypatch.setattr(factored, "is_prime", counted)
    out = canonical_preimage(n)
    assert calls == []
    assert len(out.factors) == 100_000
    assert all(e == 1 for _, e in out.factors)
    assert out.factors[-1][0] == 1_299_709


def test_from_exponents_checks_exponents():
    assert FactoredInt.from_exponents((4, 2, 1, 1)) == factorize(5040)
    assert FactoredInt.from_exponents(()) == FactoredInt()
    with pytest.raises(InvalidArgument):
        FactoredInt.from_exponents((2, 0, 1))


def _first_primes(count):
    from divperiod import nth_prime

    return [nth_prime(i) for i in range(1, count + 1)]


def test_oracle_examples():
    assert exact_min_with_divisors(16) == factorize(120)
    assert exact_min_with_divisors(2) == factorize(2)
    assert exact_min_with_divisors(4) == factorize(6)
    assert exact_min_with_divisors(1) == FactoredInt()
    with pytest.raises(InvalidArgument):
        exact_min_with_divisors(0)


def test_oracle_matches_paper_value_at_5040():
    # the greedy construction and the exhaustive search agree here
    assert exact_min_with_divisors(5040) == L


def test_theorem1_gap_regression():
    # the greedy construction is NOT minimal for every target: 120 < 210
    assert canonical_preimage(factorize(16)).to_decimal() == "210"
    assert exact_min_with_divisors(16).to_decimal() == "120"


def test_oracle_against_sieve():
    table = period_table(10_000_000)
    d = table.divisor_of[1:]
    values, first_idx = np.unique(d, return_index=True)
    sieve_min = {int(v): int(i) + 1 for v, i in zip(values, first_idx)}
    for t in range(2, 101):
        if t in sieve_min:
            assert exact_min_with_divisors(t).to_decimal() == str(sieve_min[t])


def test_oracle_against_walk():
    # every divisor count of an n <= 10^10, against the least such n
    least = divisor.least_by_divisor_count(10**10)
    assert len(least) == 359 and least[2304] == 6983776800
    for t, m in least.items():
        assert exact_min_with_divisors(t).value() == m, t


@pytest.mark.parametrize(
    "target, text, log10",
    [
        (6983776800, "2^18*3^16*5^12*7^10*11^6*13^4*17^4*19^2*23^2*29^2*31*37*41*43*47", 61.7007),
        # 293318625600 = n_7, so this minimum has period 8
        (293318625600,
         "2^18*3^16*5^12*7^10*11^6*13^6*17^4*19^4*23^2*29^2*31^2*37^2*41*43*47*53*59*61", 74.8261),
    ],
)
def test_oracle_pins(target, text, log10):
    value = exact_min_with_divisors(target)
    assert value.to_text() == text
    assert value.divisor_count() == target
    assert round(value.log10_value(), 4) == log10


def test_oracle_dfs_nodes(monkeypatch):
    # a count, not a time: the seeded incumbent and the excess bound cut
    # the search for every t <= 2050 from 59,559 nodes without them
    nodes = 0
    original = construct._MinSearch._dfs

    def counted(self, *args):
        nonlocal nodes
        nodes += 1
        return original(self, *args)

    monkeypatch.setattr(construct._MinSearch, "_dfs", counted)
    for t in range(2, 2_051):
        exact_min_with_divisors(t)
    assert nodes <= 12_000


def test_oracle_dominates_constructions():
    for t in range(2, 2_001):
        fi = factorize(t)
        oracle = exact_min_with_divisors(t)
        assert oracle.compare(canonical_preimage(fi)) <= 0
        assert oracle.compare(naive_preimage(fi)) <= 0


def test_period_increment_property():
    for n in range(3, 5_041):
        pre = canonical_preimage(factorize(n))
        value = pre.value()
        if value >= 2**63:
            continue
        assert period(value) == period(n) + 1


def test_min_with_period_sieve_cases():
    rec = min_with_period(5, 10_000)
    assert rec.decimal == "60" and rec.verification == "hcn-certified(d<=12)"
    assert rec.canonical_match is True
    rec = min_with_period(1, 10_000)
    assert rec.decimal == "2" and rec.verification == "base-case"
    assert rec.canonical_match is None


@pytest.mark.parametrize("bound", [2, 3])
def test_min_with_period_base_case_beyond_sieve(bound):
    # k = 1 and k = 2 are base cases at every bound; k = 3 needs its least
    # target 4 within the bound
    assert min_with_period(1, bound).verification == "base-case"
    rec = min_with_period(2, bound)
    assert rec.decimal == "4" and rec.verification == "base-case"
    assert min_with_period(2, 4).verification == "base-case"
    assert min_with_period(3, bound) is None
    rec = min_with_period(3, 4)
    assert rec.decimal == "6" and rec.verification == "hcn-certified(d<=4)"


def test_min_with_period_oracle_case():
    rec = min_with_period(7, 6_000)
    assert rec.decimal == "293318625600"
    assert rec.digit_count == 12
    assert rec.verification == "hcn-certified(d<=5040)"
    assert rec.canonical_match is True


def test_min_with_period_not_found():
    assert min_with_period(8, 6_000) is None


def test_min_with_period_bound_keeps_sieve_ceiling():
    # the sweep takes the period of every target up to the bound; the base
    # cases need no sweep
    with pytest.raises(ResourceLimit, match="exceeds ceiling 200000000"):
        min_with_period(3, primes.SIEVE_CEILING + 1)
    assert min_with_period(2, primes.SIEVE_CEILING + 1).decimal == "4"


def test_chain():
    records = chain(6, candidate_bound=6_000)
    assert [r.decimal for r in records] == ["2", "4", "6", "12", "60", "5040"]
    assert [r.verification for r in records] == ["base-case"] * 2 + [
        f"hcn-certified(d<={cap})" for cap in (4, 6, 12, 60)
    ]
    assert [r.canonical_match for r in records] == [None, None, True, True, True, True]


def test_min_with_period_has_that_period():
    # at bounds 2 and 3 the oracle would answer k = 2 with MinDiv(2) = 2, of period 1
    for bound in [*range(2, 130), 5_039, 5_040]:
        for k in range(1, 8):
            rec = min_with_period(k, bound)
            if rec is not None:
                assert period(int(rec.decimal)) == k, (k, bound)
    assert min_with_period(2, 2).decimal == "4"


def test_chain_base_case():
    records = chain(1, candidate_bound=100)
    assert [r.decimal for r in records] == ["2"]


def test_chain_to_seven():
    records = chain(7, candidate_bound=6_000)
    last = records[-1]
    assert last.decimal == "293318625600"
    assert last.digit_count == 12
    assert last.value == L
    assert last.canonical_match is True


def test_chain_records_reach_two():
    # applying d period-many times to each record's value must land on 2
    for rec in chain(7, candidate_bound=6_000):
        m = rec.value.value()
        for _ in range(rec.period):
            m = factorize(m).divisor_count()
        assert m == 2


@pytest.mark.parametrize(
    "k, bound", [(7, 6_000), (7, 200_000), (6, 4_000), (7, 5_040), (6, 5_039), (5, 59)]
)
def test_min_with_period_matches_full_sweep(k, bound):
    # the pruned sweep against the oracle run on every period-(k-1) target
    table = period_table(bound)
    assert k not in {int(p) for p in table.period_of[2:]}
    best = None
    for t in np.flatnonzero(table.period_of == k - 1).tolist():
        value = exact_min_with_divisors(t)
        if best is None or value.compare(best) < 0:
            best = value
    rec = min_with_period(k, bound)
    assert rec.value == best
    # each record is highly composite, so its cap is its own divisor count
    assert rec.verification == f"hcn-certified(d<={ {5: 12, 6: 60, 7: 5040}[k] })"


def test_hcn_divisor_bound_dominates_sieve():
    # d(H) for the largest highly composite H <= S is max d(m) over m <= S
    limit = 10**6
    running_max = np.maximum.accumulate(period_table(limit).divisor_of)
    rng = random.Random(5)
    picks = [rng.randrange(1, limit + 1) for _ in range(200)]
    # highly composite values and their neighbours, where a limit that
    # rounds down would drop H
    picks += [h + dh for h in (5040, 55440, 720720) for dh in (-1, 0, 1)]
    for s in picks:
        assert max_divisor_count(s) == running_max[s]


def test_hcn_divisor_bound_exact_at_period_seven():
    # 293318625600 is itself highly composite; a float limit just below
    # it would give the previous record, 4800 divisors
    assert max_divisor_count(L.value()) == 5040
    assert max_divisor_count(L.value() - 1) == 4800
    assert max_divisor_count(10**18) is not None
    assert max_divisor_count(10**18 + 1) is None


@pytest.fixture
def oracle_runs(monkeypatch):
    """The targets the oracle runs on, in order."""
    runs = []
    original = construct._MinSearch.run

    def counted(self, target, seed):
        runs.append(target)
        return original(self, target, seed)

    monkeypatch.setattr(construct._MinSearch, "run", counted)
    return runs


def _synthetic_targets(monkeypatch, targets):
    """Make ``targets`` the only integers of period 4, as the sweep reads periods.

    Returns the least of them as the period-4 record before the sweep.
    """
    monkeypatch.setattr(construct, "period", lambda t: 4 if t in targets else 0)
    return construct._record(4, factorize(min(targets)), "synthetic")


def test_min_with_period_prunes_above_hcn_bound(oracle_runs, monkeypatch):
    # synthetic targets: 7 gives S = 2^6 = 64, whose largest highly
    # composite H = 60 has 12 divisors, so 12 (MinDiv 60) is the last
    # target kept and wins; 13 and 18 are never run
    targets = [7, 12, 13, 18]
    previous = _synthetic_targets(monkeypatch, targets)
    assert min(int(exact_min_with_divisors(t).to_decimal()) for t in targets) == 60
    oracle_runs.clear()
    rec = min_with_period(5, 19, _previous=previous)
    assert rec.decimal == "60"
    assert rec.verification == "hcn-certified(d<=12)"
    assert rec.canonical_match is False
    assert oracle_runs == [7, 12]


def test_min_with_period_uncertified_when_cap_exceeds_bound(oracle_runs, monkeypatch):
    # 7 gives S = 64 and cap 12, above the bound 10: the targets 12, 13 and
    # 18 are never tried, so 64 is only the least over the targets <= 10
    previous = _synthetic_targets(monkeypatch, [7, 12, 13, 18])
    oracle_runs.clear()
    rec = min_with_period(5, 10, _previous=previous)
    assert rec.decimal == "64"
    assert rec.verification == "oracle-verified-up-to-bound(10)"
    assert rec.canonical_match is True
    assert oracle_runs == [7]


def test_min_with_period_reads_target_after_least(oracle_runs, monkeypatch):
    # the target right after the least one is read and wins: MinDiv(8) = 24
    previous = _synthetic_targets(monkeypatch, [7, 8])
    oracle_runs.clear()
    rec = min_with_period(5, 19, _previous=previous)
    assert rec.decimal == "24"
    # the canonical preimage of 7 is 2^6 = 64, not the least
    assert rec.canonical_match is False
    assert oracle_runs == [7, 8]


def test_chain_to_seven_runs_oracle_once_per_record(oracle_runs):
    # each record is highly composite, so its cap is the target it came
    # from and no sweep is left after the first run
    records = chain(7)
    assert records[-1].value == L
    assert records[-1].verification == "hcn-certified(d<=5040)"
    assert oracle_runs == [4, 6, 12, 60, 5040]


def test_chain_matches_walk_witness():
    # the walk visits every m <= L, not only the exponent candidates the
    # oracle and the cap rest on
    least = divisor.least_by_divisor_count(L.value())
    records = chain(7)
    for k in range(3, 8):
        want = min(m for v, m in least.items() if v >= 2 and period(v) == k - 1)
        assert records[k - 1].value.value() == want, k


@pytest.fixture
def sieve_reads(block_calls, monkeypatch):
    """The (lo, hi) of every ``_divisor_block`` call; ``period_table`` raises."""

    def refused(limit):
        raise AssertionError(f"period_table({limit}) called")

    monkeypatch.setattr(divisor, "period_table", refused)
    return block_calls


def test_chain_to_seven_reads_no_block(sieve_reads):
    # each record's cap is the target it came from, so the sweep takes no
    # period and nothing is sieved
    assert chain(7)[-1].value == L
    assert sieve_reads == []


def test_conjecture_reads_no_block(sieve_reads, capsys):
    assert main(["conjecture", "--max-k", "7"]) == 0
    assert "k=7: n=293318625600" in capsys.readouterr().out
    assert sieve_reads == []


def _check_verify_theorem1_sieve_min(capsys, bound):
    d = period_table(bound).divisor_of[1:]
    values, first_idx = np.unique(d, return_index=True)
    expected = {int(v): int(i) + 1 for v, i in zip(values, first_idx)}
    limit = int(d.max()) + 2
    code = main(["verify-theorem1", "--limit", str(limit), "--sieve-bound", str(bound),
                 "--format", "csv"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == limit - 1
    for row in rows:
        t, _, _, smin, _ = row.split(",")
        assert smin == str(expected.get(int(t), ""))


def test_verify_theorem1_sieve_min(capsys):
    _check_verify_theorem1_sieve_min(capsys, 100_000)


def test_verify_theorem1_sieve_min_across_blocks(capsys):
    _check_verify_theorem1_sieve_min(capsys, 3 * BLOCK + 7)


def test_verify_theorem1_sieves_no_block(block_calls, capsys):
    # the least n per divisor count to the default bound 10^7 comes from a walk
    assert main(["verify-theorem1", "--limit", "100", "--format", "csv"]) == 0
    assert capsys.readouterr().out.count("\n") == 100
    assert block_calls == []

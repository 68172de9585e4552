"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from divperiod import (
    canonical_preimage,
    chain,
    enumerate_hcn,
    exact_min_with_divisors,
    factorize,
    first_occurrences,
    histogram,
    is_highly_composite,
    max_order_ratio,
    period_table,
    plot_data,
    theorem2_increment,
    wigert_scan,
    BoundParams,
)
from divperiod.cli import main

L_TEXT = "2^6*3^4*5^2*7^2*11*13*17*19"

# scan maximum of r(n) over [10^4, 5*10^6], frozen from the first full run
# (attained at n = 4324320, d = 384)
WIGERT_SCAN_MAX = 1.0618358059096094


def _verdict(num, desc, ok):
    print(f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_1_first_occurrences(capsys):
    t0 = time.time()
    code = main(["first", "--limit", "5000000", "--format", "json"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    occ = json.loads(out)
    ok = code == 0 and occ == {"1": 2, "2": 4, "3": 6, "4": 12, "5": 60, "6": 5040}
    ok = ok and "7" not in occ and elapsed <= 60
    with capsys.disabled():
        _verdict(1, f"first occurrences to 5e6 in {elapsed:.1f}s", ok)


def test_criterion_2_minimal_period7_value(capsys):
    code = main(["construct", "5040", "--format", "json"])
    js = json.loads(capsys.readouterr().out)
    ok = code == 0 and js["factored"] == L_TEXT
    result = canonical_preimage(factorize(5040))
    ok = ok and result.divisor_count() == 5040
    ok = ok and result.value() == 293318625600 and js["decimal"] == "293318625600"
    # 12 digits; the occasionally-quoted 13-digit figure is wrong (see README)
    ok = ok and js["digits"] == 12
    with capsys.disabled():
        _verdict(2, "construct 5040 reproduces the 12-digit minimal value", ok)


def test_criterion_3_chain_consistency(capsys):
    records = chain(6)
    ok = [r.decimal for r in records] == ["2", "4", "6", "12", "60", "5040"]
    ok = ok and [r.verification for r in records] == [
        "base-case",
        "base-case",
        "hcn-certified(d<=4)",
        "hcn-certified(d<=6)",
        "hcn-certified(d<=12)",
        "hcn-certified(d<=60)",
    ]
    for prev, cur in zip(records[1:], records[2:]):
        ok = ok and canonical_preimage(prev.value).compare(cur.value) == 0
    with capsys.disabled():
        _verdict(3, "chain to k=6 certified by the HCN cap and canonically linked", ok)


def test_criterion_4_oracle_ground_truth(capsys):
    table = period_table(10_000_000)
    values, first_idx = np.unique(table.divisor_of[1:], return_index=True)
    sieve_min = {int(v): int(i) + 1 for v, i in zip(values, first_idx)}
    ok = True
    for t in range(2, 101):
        if t in sieve_min:
            ok = ok and exact_min_with_divisors(t).value() == sieve_min[t]
    # the greedy construction's general-case gap, pinned
    ok = ok and exact_min_with_divisors(16).value() == 120
    ok = ok and canonical_preimage(factorize(16)).value() == 210
    with capsys.disabled():
        _verdict(4, "exact oracle matches sieve minima on [2,100]; 16 -> 120 vs 210", ok)


# Criterion 5 is the frequency observation behind the paper's closing
# conjecture: over [2, N], periods 3 and 4 each outnumber every other period.
# Exact prefix counts (cross-checked against a plain d[j::j] += 1 divisor
# sieve) show it holds for every N in [76, 4793336], first fails at 4793337
# (periods 4 and 5 tie), flickers, and fails for every N from 4795540 on,
# where period 5 is level with or ahead of period 4 (strictly from 4795569).
# 5e6 is past the crossover. Period 3 is the strict mode for every N >= 202.
FREQ_HOLDS_FROM = 76
FREQ_FIRST_FAIL = 4_793_337
FREQ_FAILS_FROM = 4_795_540
PERIOD5_AHEAD_FROM = 4_795_569
MODE3_FROM = 202
COUNTS_5M = {1: 348513, 2: 359, 3: 1719612, 4: 1421857, 5: 1424460, 6: 85198}


def test_criterion_5_frequency_property(table_5m, capsys):
    N = table_5m.limit
    k = table_5m.period_of
    periods = range(1, int(k[2:].max()) + 1)
    # cum[j][n] = #{2 <= m <= n : k(m) = j}, for every prefix end n <= N
    cum = {}
    for j in periods:
        cum[j] = np.zeros(N + 1, dtype=np.int32)
        np.cumsum(k[2:] == j, dtype=np.int32, out=cum[j][2:])

    def max_except(*skip):
        return functools.reduce(np.maximum, (cum[j] for j in periods if j not in skip))

    holds = np.minimum(cum[3], cum[4]) > max_except(3, 4)
    mode3 = cum[3] > max_except(3)
    ok = bool(holds[FREQ_HOLDS_FROM:FREQ_FIRST_FAIL].all()) and not holds[FREQ_HOLDS_FROM - 1]
    ok = ok and not holds[FREQ_FIRST_FAIL] and cum[4][FREQ_FIRST_FAIL] == cum[5][FREQ_FIRST_FAIL]
    ok = ok and holds[FREQ_FAILS_FROM - 1] and not holds[FREQ_FAILS_FROM:].any()
    ok = ok and bool(np.all(cum[5][FREQ_FAILS_FROM:] >= cum[4][FREQ_FAILS_FROM:]))
    ok = ok and bool(np.all(cum[5][PERIOD5_AHEAD_FROM:] > cum[4][PERIOD5_AHEAD_FROM:]))
    ok = ok and cum[5][PERIOD5_AHEAD_FROM - 1] <= cum[4][PERIOD5_AHEAD_FROM - 1]
    ok = ok and bool(mode3[MODE3_FROM:].all()) and not mode3[MODE3_FROM - 1]

    boundaries = (FREQ_HOLDS_FROM - 1, FREQ_HOLDS_FROM, FREQ_FIRST_FAIL - 1, FREQ_FIRST_FAIL,
                  FREQ_FAILS_FROM, N)
    # histogram counts from prime counts, independently of the table's sieve
    for n in boundaries:
        swept = {j: int(cum[j][n]) for j in periods if cum[j][n] > 0}
        ok = ok and histogram(2, n).counts == swept
    h = histogram(2, N)
    ok = ok and N == 5_000_000 and h.counts == COUNTS_5M
    with capsys.disabled():
        if not ok:
            print(f"  counts: {dict(sorted(h.counts.items()))}")
        _verdict(
            5,
            f"periods 3 and 4 each outnumber every other period on [2,N] for all N in "
            f"[{FREQ_HOLDS_FROM},{FREQ_FIRST_FAIL - 1}]; crossover first at {FREQ_FIRST_FAIL}, "
            f"no N in [{FREQ_FAILS_FROM},5e6]",
            ok,
        )


def test_criterion_6_invariant_suite(table_5m, capsys):
    t0 = time.time()
    N = 100_000
    d = table_5m.divisor_of[: N + 1]
    k = table_5m.period_of[: N + 1]
    n = np.arange(0, N + 1)
    squares = np.zeros(N + 1, dtype=bool)
    squares[np.arange(1, math.isqrt(N) + 1) ** 2] = True
    ok = bool(np.array_equal((d[1:] % 2 == 1), squares[1:]))
    dn = d[3 : N + 1]
    ok = ok and bool(np.array_equal(k[3:], np.where(dn == 2, 1, 1 + k[dn])))
    ok = ok and bool(np.all(k[2:][d[2:] == 2] == 1))
    elapsed = time.time() - t0
    ok = ok and elapsed <= 5
    with capsys.disabled():
        _verdict(6, f"parity/recurrence/prime invariants to 1e5 in {elapsed:.2f}s", ok)


def test_criterion_7_wigert_behavior(table_5m, capsys):
    r60 = max_order_ratio(60, 12)
    ok = abs(r60 - 0.856) <= 1e-3 and r60 > math.log(2)
    rep = wigert_scan(table_5m, BoundParams(), 10_000, 5_000_000)
    ok = ok and abs(rep.max_ratio - WIGERT_SCAN_MAX) <= 1e-9
    with capsys.disabled():
        _verdict(7, f"r(60)={r60:.4f}>ln2; scan max stable at {rep.max_ratio:.10f}", ok)


def test_criterion_8_increment_bound(capsys):
    r60 = theorem2_increment(factorize(60))
    r5040 = theorem2_increment(factorize(5040))
    r12 = theorem2_increment(factorize(12))
    ok = abs(r60.delta_log10 - 1.924) <= 1e-3 and r60.bound_holds
    ok = ok and abs(r5040.delta_log10 - 7.765) <= 1e-3 and r5040.bound_holds
    ok = ok and not r12.bound_holds and not r12.hypothesis_holds
    with capsys.disabled():
        _verdict(8, "0.545*nu increment holds for 60 and 5040, fails for 12", ok)


def test_criterion_9_hcn_conjecture(capsys):
    table = period_table(100_000)
    d = table.divisor_of
    argmax_list = []
    best = 0
    for n in range(1, 100_001):
        if int(d[n]) > best:
            best = int(d[n])
            argmax_list.append(n)
    ok = [int(r.decimal) for r in enumerate_hcn(5.0)] == argmax_list
    for n in (2, 4, 6, 12, 60, 5040):
        ok = ok and is_highly_composite(factorize(n)) and n in argmax_list
    # recorded verdict for the minimal period-7 value (deterministic)
    from divperiod import parse

    verdict = is_highly_composite(parse(L_TEXT))
    ok = ok and verdict is True
    with capsys.disabled():
        _verdict(9, f"chain values highly composite; 293318625600 verdict={verdict}", ok)


def test_criterion_10_plot_reproduction(table_5m, capsys):
    rows = plot_data(table_5m, 2, 350)
    from divperiod import period

    ok = len(rows) == 349 and all(k == period(n) for n, k in rows)
    with capsys.disabled():
        _verdict(10, "k-vs-n figure data [2,350] matches point evaluation", ok)

"""Output checks, made apart from the program.

Every check compares an output with a value computed here without the
package: a plain divisor sieve (``d[j::j] += 1``), ``sympy``, or an
enumeration written for this file.  Each check function returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import sympy

LN2 = math.log(2.0)
INCREMENT_CONSTANT = 0.545
DEFAULT_SIEVE_BOUND = 10_000_000  # ``verify-theorem1 --sieve-bound`` default
HCN_CHECK_CEILING = 15.0  # ``hcn --ceiling`` and ``conjecture --ceiling`` default
SAMPLES = 20  # sympy samples per large range

_SMALL_PRIMES = list(sympy.primerange(2, 400))


def plain_divisor_counts(limit: int) -> np.ndarray:
    """d(n) for 0 <= n <= limit (index 0 unused), one increment per divisor.

    Divisors j <= T = isqrt(limit) are added with ``d[j::j] += 1``; each
    larger divisor j of n = m*j has cofactor m <= limit // (T + 1) and is
    added from the multiples of m starting at m*(T + 1).
    """
    d = np.zeros(limit + 1, dtype=np.int32)
    t = math.isqrt(limit)
    for j in range(1, t + 1):
        d[j::j] += 1
    for m in range(1, limit // (t + 1) + 1):
        d[m * (t + 1)::m] += 1
    return d


def periods_from(d: np.ndarray) -> np.ndarray:
    """k(n) for n >= 2 by iterating d until every trajectory sits at 2."""
    k = np.ones(len(d), dtype=np.int8)
    cur = d.copy()
    cur[:2] = 2
    while True:
        moving = cur != 2
        if not moving.any():
            return k
        k[moving] += 1
        cur[moving] = d[cur[moving]]


class Reference:
    """The plain sieve's d and k on [0, limit]."""

    def __init__(self, limit: int):
        self.limit = limit
        self.d = plain_divisor_counts(limit)
        self.k = periods_from(self.d)

    def least_with_period(self, k: int) -> int | None:
        hits = np.flatnonzero(self.k[2:] == k)
        return int(hits[0]) + 2 if hits.size else None


def sympy_period(n: int) -> int:
    k, m = 0, n
    while True:
        m = int(sympy.divisor_count(m))
        k += 1
        if m == 2:
            return k


def factored_value(text: str) -> tuple[int, dict[int, int]]:
    """Value and {prime: exponent} of ``p^e*q*...`` text; bases checked by sympy."""
    factors: dict[int, int] = {}
    for part in ([] if text == "1" else text.split("*")):
        base, _, exp = part.partition("^")
        p, e = int(base), int(exp or 1)
        if not sympy.isprime(p) or p in factors or e < 1:
            raise ValueError(f"bad factor {part!r}")
        factors[p] = e
    value = 1
    for p, e in factors.items():
        value *= p**e
    return value, factors


def _shapes(limit: int):
    """Every (value, divisor count) <= limit with non-increasing exponents on 2, 3, 5, ..."""
    out = [(1, 1)]

    def walk(i, max_e, value, dcount):
        p = _SMALL_PRIMES[i]
        for e in range(1, max_e + 1):
            value *= p
            if value > limit:
                return
            out.append((value, dcount * (e + 1)))
            walk(i + 1, e, value, dcount * (e + 1))

    walk(0, limit.bit_length(), 1, 1)
    return out


def highly_composite_upto(limit: int) -> list[tuple[int, int]]:
    """(n, d(n)) for every highly composite n <= limit, ascending."""
    out, best = [], 0
    for value, dcount in sorted(_shapes(limit)):
        if dcount > best:
            best = dcount
            out.append((value, dcount))
    return out


def least_with_at_least(target: int) -> int:
    """The least n with d(n) >= target.

    Some minimiser has non-increasing exponents on consecutive primes
    from 2, so the search walks only those, pruning at the best found.
    """
    best = math.inf

    def walk(i, max_e, value, dcount):
        nonlocal best
        if dcount >= target:
            best = min(best, value)
            return
        p = _SMALL_PRIMES[i]
        for e in range(1, max_e + 1):
            value *= p
            if value >= best:
                return
            walk(i + 1, e, value, dcount * (e + 1))

    walk(0, max(target, 2).bit_length() * 2, 1, 1)
    return int(best)


def _is_hcn(n: int) -> bool:
    return least_with_at_least(int(sympy.divisor_count(n))) == n


def _rows(text: str, header: str, columns: int) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]} is not {header!r}")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=np.int64)
    if rows.shape[1:] != (columns,):
        raise ValueError(f"rows have shape {rows.shape}")
    return rows


def _flag(ok, problems: list[str], message: str) -> None:
    if not ok:
        problems.append(message)


def _arg(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _sample_reference(ref: Reference, lo: int, hi: int, rng: random.Random, problems):
    """The reference itself against sympy at seeded points of [lo, hi]."""
    for n in (rng.randrange(lo, hi + 1) for _ in range(SAMPLES)):
        _flag(int(sympy.divisor_count(n)) == ref.d[n], problems, f"plain sieve d({n}) != sympy")
        _flag(sympy_period(n) == ref.k[n], problems, f"plain sieve k({n}) != sympy")


# --- sieve-scan ---


def check_first(argv, text, ref, rng):
    problems: list[str] = []
    limit = int(_arg(argv, "--limit"))
    got = {int(k): int(n) for k, n in re.findall(r"^k=(\d+): first at n=(\d+)$", text, re.M)}
    _flag(len(got) == len(text.splitlines()), problems, "unparsed lines in first output")
    ks = ref.k[2 : limit + 1]
    want = {int(k): int(np.argmax(ks == k)) + 2 for k in np.unique(ks)}
    _flag(got == want, problems, f"first occurrences {got} != plain sieve {want}")
    for k, n in got.items():
        _flag(sympy_period(n) == k, problems, f"sympy period of {n} is not {k}")
    _sample_reference(ref, 2, limit, rng, problems)
    return problems


def check_hist(argv, text, ref, rng):
    problems: list[str] = []
    lo, hi = int(_arg(argv, "--from")), int(_arg(argv, "--to"))
    got = {int(k): int(c) for k, c in re.findall(r"^k=(\d+): (\d+)$", text, re.M)}
    _flag(len(got) == len(text.splitlines()), problems, "unparsed lines in hist output")
    _flag(sum(got.values()) == hi - lo + 1, problems, "histogram does not sum to its range")
    bins = np.bincount(ref.k[lo : hi + 1])
    want = {k: int(c) for k, c in enumerate(bins) if k >= 1 and c}
    _flag(got == want, problems, f"histogram {got} != plain sieve {want}")
    _sample_reference(ref, lo, hi, rng, problems)
    return problems


def _ratios(ref: Reference, lo: int, hi: int) -> np.ndarray:
    n = np.arange(lo, hi + 1, dtype=np.float64)
    return np.log(ref.d[lo : hi + 1].astype(np.float64)) * np.log(np.log(n)) / np.log(n)


def check_wigert_text(argv, text, ref, rng):
    problems: list[str] = []
    lo, hi = int(_arg(argv, "--from")), int(_arg(argv, "--to"))
    eps, n0 = float(_arg(argv, "--epsilon", 0.1)), int(_arg(argv, "--n0", 10_000))
    head = re.search(r"max r\(n\) over \[(\d+), (\d+)\]: ([\d.]+) at n=(\d+) \(d=(\d+)\)", text)
    count = re.search(r"violations above n0: (\d+)", text)
    if not head or not count:
        return ["wigert text output not recognised"]
    r = _ratios(ref, lo, hi)
    i = int(np.argmax(r))
    _flag((int(head[1]), int(head[2])) == (lo, hi), problems, "wigert range differs")
    _flag(abs(float(head[3]) - r[i]) <= 1e-9, problems, f"max ratio {head[3]} != {r[i]:.9f}")
    _flag(int(head[4]) == lo + i, problems, f"argmax {head[4]} != plain sieve {lo + i}")
    _flag(int(head[5]) == int(sympy.divisor_count(lo + i)), problems, "argmax d != sympy")
    n = np.arange(lo, hi + 1)
    viol = n[(n >= n0) & (r > LN2 * (1.0 + eps))]
    _flag(int(count[1]) == viol.size, problems, f"{count[1]} violations != {viol.size}")
    listed = [int(m) for m in re.findall(r"^  n=(\d+) d=\d+ r=", text, re.M)]
    _flag(listed == viol[:50].tolist(), problems, "listed violations differ")
    _sample_reference(ref, lo, hi, rng, problems)
    return problems


def check_table(argv, text, ref, rng):
    limit = int(_arg(argv, "--limit"))
    if _arg(argv, "--format") == "json":
        payload = json.loads(text)
        if payload.get("limit") != limit:
            return [f"json limit {payload.get('limit')} != {limit}"]
        rows = np.array(payload["rows"], dtype=np.int64).reshape(-1, 3)
    else:
        rows = _rows(text, "n,d,k", 3)
    n = np.arange(2, limit + 1)
    if rows.shape[0] != n.size:
        return [f"{rows.shape[0]} rows, expected {n.size}"]
    problems: list[str] = []
    _flag((rows[:, 0] == n).all(), problems, "table n column out of order")
    _flag((rows[:, 1] == ref.d[2 : limit + 1]).all(), problems, "table d differs from plain sieve")
    _flag((rows[:, 2] == ref.k[2 : limit + 1]).all(), problems, "table k differs from plain sieve")
    return problems


def check_plot(argv, text, ref, rng):
    lo, hi = int(_arg(argv, "--from")), int(_arg(argv, "--to"))
    rows = _rows(text, "n,k", 2)
    if rows.shape[0] != hi - lo + 1:
        return [f"{rows.shape[0]} plot rows, expected {hi - lo + 1}"]
    problems: list[str] = []
    _flag((rows[:, 0] == np.arange(lo, hi + 1)).all(), problems, "plot n column out of order")
    _flag((rows[:, 1] == ref.k[lo : hi + 1]).all(), problems, "plot k differs from plain sieve")
    return problems


def check_wigert_csv(argv, text, ref, rng):
    lo, hi = int(_arg(argv, "--from")), int(_arg(argv, "--to"))
    lines = text.splitlines()
    if not lines or lines[0] != "n,d,ratio" or len(lines) - 1 != hi - lo + 1:
        return ["wigert csv header or row count wrong"]
    cols = np.array([line.split(",") for line in lines[1:]])
    problems: list[str] = []
    _flag((cols[:, 0].astype(np.int64) == np.arange(lo, hi + 1)).all(), problems,
          "wigert csv n column out of order")
    _flag((cols[:, 1].astype(np.int64) == ref.d[lo : hi + 1]).all(), problems,
          "wigert csv d differs from plain sieve")
    err = np.abs(cols[:, 2].astype(np.float64) - _ratios(ref, lo, hi)).max()
    _flag(err <= 2e-9, problems, f"wigert csv ratio off by {err}")
    return problems


# --- chain-search ---


def _check_chain_value(k: int, value: int, ref: Reference, problems: list[str]) -> None:
    """value must have period k (by sympy) and be the least such n."""
    _flag(sympy_period(value) == k, problems, f"sympy period of {value} is not {k}")
    least = ref.least_with_period(k)
    if least is not None:
        _flag(value == least, problems, f"k={k}: {value} != plain sieve minimum {least}")
        return
    # A number with period k has a divisor count with period k-1, so at
    # least the least such count; below the least n with that many
    # divisors, nothing has period k.
    floor_prev = ref.least_with_period(k - 1)
    if floor_prev is None:
        problems.append(f"k={k}: plain sieve has no period {k - 1} to bound from")
        return
    bound = least_with_at_least(floor_prev)
    _flag(value <= bound, problems, f"k={k}: {value} above least n with >= {floor_prev} divisors")


def check_chain(argv, text, ref, rng):
    problems: list[str] = []
    records = json.loads(text)["records"]
    max_k = int(_arg(argv, "--max-k"))
    _flag([r["k"] for r in records] == list(range(1, max_k + 1)), problems,
          "chain periods are not 1..max-k")
    for r in records:
        value, _ = factored_value(r["factored"])
        _flag(str(value) == r["decimal"], problems, f"k={r['k']}: factored != decimal")
        _flag(r["digits"] == len(r["decimal"]), problems, f"k={r['k']}: digit count wrong")
        _check_chain_value(r["k"], value, ref, problems)
    return problems


def check_conjecture(argv, text, ref, rng):
    problems: list[str] = []
    rows = json.loads(text)["rows"]
    max_k = int(_arg(argv, "--max-k"))
    _flag([r["k"] for r in rows] == list(range(1, max_k + 1)), problems,
          "conjecture periods are not 1..max-k")
    prev_ln = None
    for r in rows:
        n = int(r["n_decimal"])
        _check_chain_value(r["k"], n, ref, problems)
        ln_n = math.log(n)
        _flag(math.isclose(r["ln_n"], ln_n, rel_tol=1e-9), problems, f"k={r['k']}: ln_n")
        if prev_ln is None:
            _flag(r["ratio"] is None, problems, "first row has a ratio")
        else:
            lnln = math.log(ln_n)
            ratio = prev_ln / (LN2 * ln_n / lnln)
            _flag(r["ratio"] is not None and math.isclose(r["ratio"], ratio, rel_tol=1e-9),
                  problems, f"k={r['k']}: ratio {r['ratio']} != {ratio}")
            _flag(r["degenerate"] == (lnln < 1.0), problems, f"k={r['k']}: degenerate flag")
        want = _is_hcn(n) if math.log10(n) <= HCN_CHECK_CEILING else None
        _flag(r["is_hcn"] == want, problems, f"k={r['k']}: is_hcn {r['is_hcn']} != {want}")
        prev_ln = ln_n
    return problems


def check_verify_theorem1(argv, text, ref, rng):
    limit = int(_arg(argv, "--limit"))
    bound = int(_arg(argv, "--sieve-bound", DEFAULT_SIEVE_BOUND))
    if bound > ref.limit:
        return [f"reference sieve {ref.limit} is below the sieve bound {bound}"]
    lines = text.splitlines()
    if lines[:1] != ["t,canonical,oracle,sieve_min,canonical_is_minimal"]:
        return ["verify-theorem1 csv header wrong"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(2, limit + 1)):
        return ["verify-theorem1 targets are not 2..limit"]
    values, first = np.unique(ref.d[1 : bound + 1], return_index=True)
    sieve_min = {int(v): int(i) + 1 for v, i in zip(values, first)}
    problems: list[str] = []
    for t_text, canonical, oracle, smin, minimal in rows:
        t = int(t_text)
        c_value, _ = factored_value(canonical)
        o_value, _ = factored_value(oracle)
        _flag(int(sympy.divisor_count(o_value)) == t, problems, f"t={t}: d(oracle) != t")
        _flag(o_value <= c_value, problems, f"t={t}: oracle above canonical")
        _flag(minimal == str(c_value == o_value).lower(), problems, f"t={t}: minimal flag")
        want = sieve_min.get(t)
        _flag(smin == ("" if want is None else str(want)), problems, f"t={t}: sieve_min {smin}")
        _flag(want is None or o_value == want, problems, f"t={t}: oracle != plain minimum")
    return problems


def check_hcn(argv, text, ref, rng):
    payload = json.loads(text)
    problems: list[str] = []
    if "--check" in argv:
        value, _ = factored_value(_arg(argv, "--check"))
        want = _is_hcn(value)
        _flag(payload.get("is_hcn") is want, problems, f"hcn --check {value}: want {want}")
        return problems
    records = payload["records"]
    got = [(int(r["decimal"]), r["d"]) for r in records]
    limit = int(10 ** float(_arg(argv, "--log10-limit")))
    _flag(got == highly_composite_upto(limit), problems,
          "hcn records differ from the independent enumeration")
    best = 0
    for r in records:
        n = int(r["decimal"])
        _flag(factored_value(r["factored"])[0] == n, problems, f"hcn {n}: factored != decimal")
        _flag(int(sympy.divisor_count(n)) == r["d"], problems, f"hcn {n}: d != sympy")
        _flag(r["d"] > best, problems, f"hcn {n}: divisor count is not a new record")
        best = r["d"]
    # below min(limit, 10^6), the records are the plain sieve's running maxima of d
    top = min(ref.limit, 10**6, limit)
    d = ref.d[1 : top + 1]
    previous_max = np.maximum.accumulate(np.concatenate(([0], d[:-1])))
    sieve_records = (np.flatnonzero(d > previous_max) + 1).tolist()
    _flag([n for n, _ in got if n <= top] == sieve_records, problems,
          "hcn records below 10^6 differ from the plain sieve's records")
    return problems


# --- point-queries ---


def _check_trajectory(n, steps, problems):
    _flag(steps[0] == n, problems, f"trajectory of {n} starts at {steps[0]}")
    _flag(steps[-1] == 2 and 2 not in steps[1:-1], problems, f"trajectory of {n} does not end at its first 2")
    for a, b in zip(steps, steps[1:]):
        _flag(int(sympy.divisor_count(a)) == b, problems, f"trajectory of {n}: d({a}) != {b}")


def _canonical_exponents(factors: dict[int, int]) -> list[int]:
    """Exponents of the greedy preimage on 2, 3, 5, ... (largest prime first)."""
    return [p - 1 for p in sorted(factors, reverse=True) for _ in range(factors[p])]


def check_point(op, result):
    problems: list[str] = []
    kind = op["kind"]
    if kind == "trajectory":
        _check_trajectory(op["n"], result, problems)
    elif kind == "period":
        _flag(result == sympy_period(op["n"]), problems, f"period of {op['n']} is not {result}")
    elif kind == "preimage":
        value, _ = factored_value(op["text"])
        text, decimal = result
        pre, factors = factored_value(text)
        _flag(math.prod(e + 1 for e in factors.values()) == value, problems,
              f"preimage of {op['text']}: exponents do not multiply out to the input")
        _flag(str(pre) == decimal, problems, f"preimage of {op['text']}: decimal differs")
        _flag(sympy.factorint(int(decimal)) == factors, problems,
              f"preimage of {op['text']}: factorization differs from sympy")
    elif kind == "increment":
        value, factors = factored_value(op["text"])
        exps = _canonical_exponents(factors)
        delta = sum(e * math.log10(sympy.prime(i + 1)) for i, e in enumerate(exps)) - math.log10(value)
        bound = INCREMENT_CONSTANT * len(factors)
        got_delta, got_bound, holds, hypothesis = result
        _flag(math.isclose(got_delta, delta, rel_tol=1e-9, abs_tol=1e-9), problems,
              f"increment of {op['text']}: delta {got_delta} != {delta}")
        _flag(math.isclose(got_bound, bound), problems, f"increment of {op['text']}: bound")
        _flag(holds == (got_delta >= got_bound), problems, f"increment of {op['text']}: bound_holds")
        _flag(hypothesis == (sum(e >= 2 for e in factors.values()) >= 2), problems,
              f"increment of {op['text']}: hypothesis_holds")
    else:
        problems.append(f"unknown request kind {kind!r}")
    return problems


CLI_CHECKS = {
    "first": check_first,
    "hist": check_hist,
    "table": check_table,
    "plot": check_plot,
    "chain": check_chain,
    "conjecture": check_conjecture,
    "verify-theorem1": check_verify_theorem1,
    "hcn": check_hcn,
}


def check_cli(argv, text, ref, rng):
    if argv[0] == "wigert":
        fmt = _arg(argv, "--format", "text")
        return (check_wigert_csv if fmt == "csv" else check_wigert_text)(argv, text, ref, rng)
    return CLI_CHECKS[argv[0]](argv, text, ref, rng)


def reference_limit(ops: list[dict]) -> int:
    """The plain sieve size the CLI operations of one round need."""
    top = 10_000
    for op in ops:
        if op["kind"] != "cli":
            continue
        argv = op["argv"]
        for flag in ("--limit", "--to"):
            if flag in argv and argv[0] != "verify-theorem1":
                top = max(top, int(_arg(argv, flag)))
        if argv[0] == "verify-theorem1":
            top = max(top, int(_arg(argv, "--sieve-bound", DEFAULT_SIEVE_BOUND)))
    return top

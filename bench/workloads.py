"""Seeded inputs for the three benchmark workloads.

Each generator returns one round: the list of operations a worker runs,
in order.  The same seed always gives the same list.  The seed moves
lower ends, thresholds and values, but not the sizes that set the work,
so that seeds differ in what they ask for but not in how much.
"""

from __future__ import annotations

import random

import sympy

# Every 64-bit composite whose cofactor left after trial division to 10^7
# is neither prime nor a prime square is refused by ``primes.factorize``.
# These inputs do not depend on the seed, so each round refuses exactly
# these three requests.
REFUSED_COMPOSITES = (
    ("period", 10_000_019 * 10_000_079),
    ("trajectory", 2_147_483_647 * 2_147_483_629),
    ("period", 1_000_000_007 * 4_294_967_291),
)

SIEVE_AGGREGATE = 10_000_000
SIEVE_EXPORT = 200_000

# One point-queries round: 300 requests.  No measured traffic exists for
# this library, so the mix follows three stated rules rather than a
# sample of use (bench/README.md, "point-queries"):
# - 1% are refused, the share the 1,000-request prototype stream refused;
# - the cheap table path holds 70% of the requests, so the median lies 20
#   points inside it, away from the slower classes;
# - the requests that trial-divide to 10^7 (about 250 ms each) hold 7%,
#   so the 99th percentile lies inside that one class.
POINT_SMALL = 210  # n < 10^7: least-prime-factor table
POINT_FACTORED = (8, 7)  # preimage and increment requests given as factored text
POINT_MEDIUM = 54  # 10^7 <= n <= 10^12: trial division to at most 10^6
POINT_LARGE_PRIMES = 9  # 64-bit primes: trial division to 10^7, then Miller-Rabin
POINT_LARGE_COMPOSITES = 9  # 64-bit, one prime factor above 10^14

# ``primes._default_table`` sizes its first table max(n, 10^6) and each
# later one max(n, twice the last), so a caller whose table-path requests
# climb as these do sees the tables 10^6, 2*10^6, ..., 1.6*10^7 built in
# turn, whatever n each step draws.  These requests open every round.
TABLE_LADDER = ((2, 10**6), (10**6 + 1, 2 * 10**6), (2 * 10**6 + 1, 4 * 10**6),
                (4 * 10**6 + 1, 8 * 10**6), (8 * 10**6 + 1, 10**7 - 1))


def sieve_scan(seed: int) -> list[dict]:
    """Aggregate half up to 10^7, export half up to 2*10^5.

    The upper ends are fixed: peak RSS, set by ``wigert`` after ``first``
    and ``hist``, jumped by 34 MB between upper ends 1% apart, as the
    allocator's reuse of freed tables shifted.
    """
    rng = random.Random(seed)
    agg, exp = str(SIEVE_AGGREGATE), str(SIEVE_EXPORT)
    lo_hist = rng.randrange(2, 1000)
    lo_wigert = rng.randrange(3, 1000)
    # The default epsilon = 0.1 keeps the violation list near 241,000
    # entries; it grows sixfold from 0.2 to 0.05, and with it time and RSS.
    n0 = rng.randrange(1_000, 20_000)
    lo_plot = rng.randrange(2, 1000)
    lo_wcsv = rng.randrange(3, 1000)
    cli = [
        ["first", "--limit", agg],
        ["hist", "--from", str(lo_hist), "--to", agg],
        ["wigert", "--from", str(lo_wigert), "--to", agg, "--n0", str(n0)],
        ["table", "--limit", exp, "--format", "csv"],
        ["table", "--limit", exp, "--format", "json"],
        ["plot", "--from", str(lo_plot), "--to", exp, "--format", "csv"],
        ["wigert", "--from", str(lo_wcsv), "--to", exp, "--format", "csv"],
    ]
    return [{"kind": "cli", "argv": argv} for argv in cli]


def _exponent_text(exps: list[int]) -> str:
    return "*".join(
        str(sympy.prime(i + 1)) if e == 1 else f"{sympy.prime(i + 1)}^{e}"
        for i, e in enumerate(exps)
    )


def _hcn_shaped(rng: random.Random, log10_max: float) -> str:
    """A value with non-increasing exponents on 2, 3, 5, ... below 10^log10_max."""
    while True:
        exps, value, top = [], 1, rng.randrange(2, 9)
        for i in range(12):
            e = rng.randrange(0, top + 1) if i else top
            if e == 0:
                break
            p = sympy.prime(i + 1)
            if value * p**e > 10**log10_max:
                break
            exps.append(e)
            value *= p**e
            top = e
        if len(exps) >= 3:
            return _exponent_text(exps)


def chain_search(seed: int) -> list[dict]:
    """Minimal chain to k = 7, its conjecture report, Theorem 1 targets, HCN."""
    rng = random.Random(seed)
    cli = [
        ["chain", "--max-k", "7", "--format", "json"],
        ["conjecture", "--max-k", "7", "--format", "json"],
        ["verify-theorem1", "--limit", str(rng.randrange(2000, 2100)), "--format", "csv"],
        ["hcn", "--log10-limit", f"{rng.uniform(12.0, 15.0):.3f}", "--format", "json"],
        ["hcn", "--check", _hcn_shaped(rng, 14.0), "--format", "json"],
    ]
    return [{"kind": "cli", "argv": argv} for argv in cli]


def _large_prime(rng: random.Random) -> int:
    return sympy.prevprime(rng.randrange(2**62, 2**64))


def _large_composite(rng: random.Random) -> int:
    """A 64-bit composite whose one prime factor above 10^7 exceeds 10^14.

    The cofactor's square root is above 10^7, so factorization always
    trial-divides all the way to 10^7: every such request costs the same.
    """
    smooth = 1
    for _ in range(rng.randrange(1, 3)):
        smooth *= sympy.prime(rng.randrange(1, 11))
    return smooth * sympy.prevprime(rng.randrange(2**63, 2**64) // smooth)


def _small_factored(rng: random.Random) -> str:
    """Factored text of a value >= 3 with a few small prime powers."""
    primes = sorted(rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23], rng.randrange(1, 5)))
    parts = []
    for p in primes:
        e = rng.randrange(1, 5)
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    text = "*".join(parts)
    return "2*3" if text == "2" else text


def point_queries(seed: int) -> list[dict]:
    """One round of single library requests: the table ladder, then the rest shuffled."""
    rng = random.Random(seed)

    def number(n: int, cls: str) -> dict:
        return {"kind": rng.choice(("trajectory", "period")), "n": n, "class": cls}

    ladder = [number(rng.randint(lo, hi), "small") for lo, hi in TABLE_LADDER]
    ops = [number(rng.randrange(2, 10**7), "small")
           for _ in range(POINT_SMALL - len(ladder))]
    ops += [number(rng.randrange(10**7, 10**12 + 1), "medium") for _ in range(POINT_MEDIUM)]
    ops += [number(_large_prime(rng), "large-prime") for _ in range(POINT_LARGE_PRIMES)]
    ops += [number(_large_composite(rng), "large-composite") for _ in range(POINT_LARGE_COMPOSITES)]
    for kind, count in zip(("preimage", "increment"), POINT_FACTORED):
        ops += [{"kind": kind, "text": _small_factored(rng), "class": "factored"}
                for _ in range(count)]
    ops += [{"kind": kind, "n": n, "class": "refused"} for kind, n in REFUSED_COMPOSITES]
    rng.shuffle(ops)
    return ladder + ops


GENERATORS = {
    "sieve-scan": sieve_scan,
    "chain-search": chain_search,
    "point-queries": point_queries,
}

#!/usr/bin/env python3
"""Constructing the smallest integer whose period exceeds a given one.

Three routes to a preimage n1 with d(n1) = n, compared head to head, and
the chain of minimal values per period, which passes 5 * 10^6 already
at k = 7.
"""

import divperiod as dp

n = dp.factorize(5040)
print("n = 5040 =", n)

# The greedy construction: largest prime power first, exponent (p-1)
# spread over the next a unused primes.
canonical = dp.canonical_preimage(n)
print("canonical preimage:", canonical, "=", canonical.to_decimal())
print("  d =", canonical.divisor_count())

# The naive construction (one prime per prime-power factor) is valid but
# wildly larger: exponents are p^a - 1 instead of p - 1.
naive = dp.naive_preimage(n)
print("naive preimage:", naive, f"({len(naive.to_decimal())} digits)")

# The exhaustive oracle confirms the canonical value is truly minimal
# for the target 5040 ...
oracle = dp.exact_min_with_divisors(5040)
print("oracle minimum:", oracle.to_decimal())

# ... but the greedy construction is NOT minimal for every target.
print("\ntarget 16:")
print("  canonical:", dp.canonical_preimage(dp.factorize(16)).to_decimal())  # 210
print("  oracle:   ", dp.exact_min_with_divisors(16).to_decimal())  # 120

# The chain of minimal n per period, each record built from the one
# before it.  From k = 3 on, the highly-composite cap on the remaining
# targets fits under the bound, so every entry is exact: hcn-certified.
print("\nminimal n per period:")
for rec in dp.chain(7):
    print(f"  k={rec.period}: {rec.decimal}  [{rec.verification}]")

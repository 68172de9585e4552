#!/usr/bin/env python3
"""Empirical growth bounds: the log10 increment per construction step,
and the maximal-order ratio r(n) = ln d(n) * ln ln n / ln n.

Both bounds are asymptotic; the point here is to see exactly where the
small-n world violates them.
"""

import math

import divperiod as dp

# Each canonical-construction step should add at least 0.545 per distinct
# prime to log10 -- provided at least two exponents are >= 2.
print("increment check, delta_log10 vs 0.545 * nu(n):")
for n in (12, 60, 5040):
    rep = dp.theorem2_increment(dp.factorize(n))
    print(
        f"  n={n}: delta={rep.delta_log10:.3f} bound={rep.bound:.3f} "
        f"holds={rep.bound_holds} hypothesis={rep.hypothesis_holds}"
    )
# n = 12 fails the bound AND the hypothesis: only one exponent >= 2.

# The limsup of r(n) is ln 2 ~ 0.6931, but small n overshoot freely:
print(f"\nr(60) = {dp.max_order_ratio(60, 12):.4f}  (> ln 2 = {math.log(2):.4f})")
print(f"r(9973) = {dp.max_order_ratio(9973, 2):.4f}  (primes sink fast)")

# Scan the whole range, one sieved block at a time: the maximum sits at a
# record-breaking composite.
sieve = dp.Sieve(5_000_000)
rep = dp.wigert_scan(sieve, dp.BoundParams(epsilon=0.1, threshold_n0=10_000), 10_000, 5_000_000)
print(
    f"\nmax r(n) on [1e4, 5e6]: {rep.max_ratio:.6f} at n={rep.argmax_n} (d={rep.argmax_d})"
)
print(f"n above the ln2*(1+eps) threshold: {len(rep.violations)}")

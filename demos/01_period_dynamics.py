#!/usr/bin/env python3
"""Tour of the basic dynamics: trajectories, periods, and their census.

Iterating d(n) always falls into the fixed point 2 (for n >= 2), and the
number of steps -- the period k(n) -- grows astonishingly slowly.
"""

import divperiod as dp

# A single trajectory: 60 needs five applications of d to reach 2.
traj = dp.trajectory(60)
print("trajectory of 60:", " -> ".join(map(str, traj.steps)))
print("period k(60) =", dp.period(60))

# Primes all have period 1 (d(p) = 2 immediately).
print("k(97) =", dp.period(97), " k(9973) =", dp.period(9973))

# The least n of each period up to five million.  k(n) depends on n only
# through d(n), so this needs only the least n of each divisor count, which
# a walk over prime signatures finds without sieving n at all.
print("\nfirst n attaining each period:")
for k, n in dp.first_occurrences(5_000_000).items():
    print(f"  k={k}: n={n}")

# How are the periods distributed?  Small periods utterly dominate.  The
# histogram is counted from prime counts, for the same reason: it needs
# #{n <= N : d(n) = v} alone.
hist = dp.histogram(2, 5_000_000)
total = sum(hist.counts.values())
print("\nperiod frequencies up to 5e6:")
for k, c in sorted(hist.counts.items()):
    print(f"  k={k}: {c:>9}  ({100 * c / total:.3f}%)")

# Note the near tie between k=4 and k=5 at this depth: counting from 2, the
# period-5 class trails period 4 from n = 12 until it first draws level at
# n = 4,793,337, and it has slightly overtaken period 4 by 5e6.

# Counting reaches far past any sieve: period 5 keeps closing on period 3.
print("\nshares of periods 3 and 5 on [2, N]:")
for N in (10**7, 10**8, 10**9):
    c = dp.histogram(2, N).counts
    print(f"  N=1e{len(str(N)) - 1}: k=3 {100 * c[3] / (N - 1):.2f}%  k=5 {100 * c[5] / (N - 1):.2f}%")

"""divperiod: dynamics of the iterated divisor function.

Periods k(n) (least k with d^k(n) = 2), minimal preimages under d,
a cache-blocked divisor and period sieve, highly composite numbers, and
empirical growth-bound scans.
"""

from .errors import (
    DomainError,
    InvalidArgument,
    ResourceLimit,
    TooLarge,
    UndefinedPeriod,
)
from .factored import FactoredInt, parse
from .primes import build_table, factorize, is_prime, nth_prime
from .divisor import (
    PeriodTable,
    Sieve,
    Trajectory,
    divisor_count_int,
    first_occurrences,
    period,
    period_table,
    trajectory,
)
from .construct import (
    ChainRecord,
    canonical_preimage,
    chain,
    exact_min_with_divisors,
    min_with_period,
    naive_preimage,
)
from .hcn import (
    HCNRecord,
    conjecture_report,
    enumerate_hcn,
    is_highly_composite,
)
from .analysis import (
    BoundParams,
    Histogram,
    IncrementReport,
    WigertReport,
    histogram,
    max_order_ratio,
    plot_data,
    theorem2_increment,
    wigert_scan,
)

__version__ = "0.1.0"

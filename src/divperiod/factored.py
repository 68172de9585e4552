"""Exact arithmetic on integers represented by their prime factorization.

Values constructed in this package routinely exceed machine words
(chained preimages grow super-exponentially), so comparison and decimal
rendering work directly on the (prime, exponent) list.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import InvalidArgument, TooLarge
from .primes import is_prime, nth_prime

# log10 gap below which compare() falls back to exact arithmetic
_LOG_SCREEN = 1e-6

DEFAULT_DIGIT_CEILING = 10_000

# divisor_count multiplies up to this many (e + 1) one at a time, which is
# the fastest way for the at most 15 primes of any n < 2^64; past it, it
# groups equal exponents
_FEW_FACTORS = 15

_FACTOR_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


@dataclass(frozen=True)
class FactoredInt:
    """An integer as an ordered (prime, exponent) list; () denotes 1."""

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise InvalidArgument(f"primes must be strictly increasing, got {p} after {prev}")
            if e < 1:
                raise InvalidArgument(f"exponent of {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise InvalidArgument(f"{p} is not prime")
            prev = p

    @classmethod
    def from_exponents(cls, exps: Iterable[int]) -> "FactoredInt":
        """2^e1 * 3^e2 * 5^e3 * ..., each e_i >= 1.

        The primes are ``nth_prime``'s, which rise and are primes by
        construction, so they are not proven prime again: only the
        exponents are checked.
        """
        factors = tuple((nth_prime(i), e) for i, e in enumerate(exps, 1))
        for p, e in factors:
            if e < 1:
                raise InvalidArgument(f"exponent of {p} must be >= 1, got {e}")
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        return out

    # --- value views ---

    def value(self) -> int:
        """Exact integer value (arbitrary precision; may be huge)."""
        v = 1
        for p, e in self.factors:
            v *= p**e
        return v

    def log10_value(self) -> float:
        """log10 of the value; ``math.inf`` once an exponent is past the float range."""
        try:
            return sum(e * math.log10(p) for p, e in self.factors)
        except OverflowError:
            return math.inf

    def divisor_count(self) -> int:
        if len(self.factors) <= _FEW_FACTORS:
            d = 1
            for _, e in self.factors:
                d *= e + 1
            return d
        # one power per distinct exponent: multiplying the (e + 1) in one
        # at a time is quadratic in the digits of d
        counts = Counter(e for _, e in self.factors)
        return math.prod(pow(e + 1, c) for e, c in counts.items())

    def distinct_prime_count(self) -> int:
        return len(self.factors)

    # --- arithmetic ---

    def multiply(self, other: "FactoredInt") -> "FactoredInt":
        merged: dict[int, int] = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        return FactoredInt(tuple(sorted(merged.items())))

    __mul__ = multiply

    def compare(self, other: "FactoredInt") -> int:
        """-1, 0 or 1 ordering the exact values.

        A log10 screen settles clearly separated pairs; near-ties are
        decided exactly after cancelling shared prime powers, so
        minimality verdicts are never a float artifact.
        """
        la, lb = self.log10_value(), other.log10_value()
        if la - lb > _LOG_SCREEN:
            return 1
        if lb - la > _LOG_SCREEN:
            return -1
        residual: dict[int, int] = dict(self.factors)
        for p, e in other.factors:
            residual[p] = residual.get(p, 0) - e
        av = bv = 1
        for p, e in residual.items():
            if e > 0:
                av *= p**e
            elif e < 0:
                bv *= p**-e
        return (av > bv) - (av < bv)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    # --- rendering ---

    def to_decimal(self, max_digits: int = DEFAULT_DIGIT_CEILING) -> str:
        log10 = self.log10_value()
        if log10 == math.inf:
            raise TooLarge(f"value has ~inf digits, above the ceiling of {max_digits}")
        return _decimal(self.value, math.floor(log10) + 1, max_digits)

    def to_text(self) -> str:
        """Canonical text form, e.g. 2^6*3^4*5^2*7^2*11*13*17*19."""
        if not self.factors:
            return "1"
        return "*".join(str(p) if e == 1 else f"{p}^{_int_text(e)}" for p, e in self.factors)

    def __str__(self):
        return self.to_text()


def int_to_decimal(n: int, max_digits: int = DEFAULT_DIGIT_CEILING) -> str:
    """Decimal text of an integer n >= 1, under the digit ceiling of ``FactoredInt.to_decimal``."""
    return _decimal(lambda: n, math.floor(math.log10(n)) + 1, max_digits)


def _int_text(n: int) -> str:
    """``str(n)`` for n >= 1, also past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return int_to_decimal(n, math.inf)


def _decimal(value: Callable[[], int], digits: int, max_digits: int) -> str:
    """``str(value())`` for a value of about ``digits`` digits; TooLarge past ``max_digits``."""
    if digits > max_digits:
        raise TooLarge(f"value has ~{digits} digits, above the ceiling of {max_digits}")
    old_limit = sys.get_int_max_str_digits()
    if not 0 < old_limit <= digits:
        return str(value())
    # the limit is process-wide: lift it for this one conversion only
    sys.set_int_max_str_digits(digits + 10)
    try:
        return str(value())
    finally:
        sys.set_int_max_str_digits(old_limit)


def parse(text: str) -> FactoredInt:
    """Parse the canonical text form (whitespace tolerated)."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise InvalidArgument("empty factored-integer text")
    if s == "1":
        return FactoredInt(())
    factors = []
    for part in s.split("*"):
        m = _FACTOR_RE.match(part)
        if not m:
            raise InvalidArgument(f"bad factor {part!r} in {text!r}")
        try:
            p = int(m.group(1))
            e = int(m.group(2)) if m.group(2) else 1
        except ValueError:  # past the interpreter's int-from-str digit limit
            limit = sys.get_int_max_str_digits()
            raise InvalidArgument(f"factor {part[:20]}... has a number of more than {limit} digits")
        factors.append((p, e))
    return FactoredInt(tuple(factors))

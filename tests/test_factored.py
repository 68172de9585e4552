import math
import random
import sys

import pytest

from divperiod import FactoredInt, InvalidArgument, TooLarge, factorize, parse
from divperiod.factored import int_to_decimal

L = FactoredInt(((2, 6), (3, 4), (5, 2), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1)))
N5040 = FactoredInt(((2, 4), (3, 2), (5, 1), (7, 1)))


def test_invariant_validation():
    with pytest.raises(InvalidArgument):
        FactoredInt(((3, 1), (2, 1)))  # not increasing
    with pytest.raises(InvalidArgument):
        FactoredInt(((4, 1),))  # not prime
    with pytest.raises(InvalidArgument):
        FactoredInt(((2, 0),))  # exponent < 1


def test_multiply():
    a = FactoredInt(((2, 1),))
    b = FactoredInt(((3, 1),))
    assert a.multiply(b).factors == ((2, 1), (3, 1))
    assert FactoredInt(((2, 2),)).multiply(FactoredInt(((2, 3),))).factors == ((2, 5),)
    assert N5040.multiply(FactoredInt()).factors == N5040.factors


def test_compare():
    assert N5040.compare(L) == -1
    assert L.compare(L) == 0
    a = FactoredInt(((2, 1), (3, 1), (5, 1), (7, 1)))  # 210
    b = FactoredInt(((2, 3), (3, 1), (5, 1)))  # 120
    assert a.compare(b) == 1


def test_compare_exact_fallback():
    # values inside the log10 screen must still order exactly
    big = FactoredInt(((2, 1000), (3, 1)))
    bigger = FactoredInt(((2, 1000), (3, 1), (5, 1)))
    assert big.compare(bigger) == -1
    assert bigger.compare(big) == 1
    # same value through shared-power cancellation
    assert FactoredInt(((2, 500),)).compare(FactoredInt(((2, 500),))) == 0


def test_log10_value():
    assert FactoredInt().log10_value() == 0.0
    assert abs(FactoredInt(((2, 1),)).log10_value() - 0.30103) < 1e-5
    assert abs(L.log10_value() - 11.467) < 1e-3


def test_to_decimal():
    assert N5040.to_decimal() == "5040"
    assert FactoredInt().to_decimal() == "1"
    assert L.to_decimal() == "293318625600"
    assert len(L.to_decimal()) == 12


def test_to_decimal_ceiling():
    with pytest.raises(TooLarge, match="10000"):
        FactoredInt(((2, 40_000),)).to_decimal()
    assert len(FactoredInt(((2, 40_000),)).to_decimal(max_digits=13_000)) == 12_042
    with pytest.raises(TooLarge, match="10000"):
        int_to_decimal(2**40_000)
    assert int_to_decimal(2**40_000, max_digits=13_000) == FactoredInt(((2, 40_000),)).to_decimal(13_000)


def test_to_decimal_keeps_int_digit_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default, below 6,021 digits
    try:
        assert len(FactoredInt(((2, 20_000),)).to_decimal()) == 6_021
        assert sys.get_int_max_str_digits() == 4300
        assert len(int_to_decimal(2**20_000)) == 6_021
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_exponent_past_float_range():
    # 2^(2^20000 - 1): the exponent overflows a float and has 6,021 digits
    huge = FactoredInt(((2, 2**20_000 - 1),))
    assert huge.log10_value() == math.inf
    with pytest.raises(TooLarge, match="~inf digits"):
        huge.to_decimal()
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert huge.to_text() == "2^" + int_to_decimal(2**20_000 - 1)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_divisor_count():
    assert L.divisor_count() == 5040
    assert FactoredInt().divisor_count() == 1
    assert N5040.divisor_count() == 60
    # repeated exponents are grouped into powers: against the plain product
    rng = random.Random(11)
    for _ in range(200):
        exps = [rng.choice((1, 1, 2, 3, 7, 40)) for _ in range(rng.randrange(1, 60))]
        assert FactoredInt.from_exponents(exps).divisor_count() == math.prod(e + 1 for e in exps)


def test_distinct_prime_count():
    assert N5040.distinct_prime_count() == 4
    assert FactoredInt().distinct_prime_count() == 0
    assert FactoredInt(((2, 2), (3, 1), (5, 1))).distinct_prime_count() == 3


def test_text_round_trip():
    assert L.to_text() == "2^6*3^4*5^2*7^2*11*13*17*19"
    assert FactoredInt().to_text() == "1"
    assert parse("2^6*3^4*5^2*7^2*11*13*17*19") == L
    assert parse(" 2^4 * 3^2 * 5 * 7 ") == N5040
    assert parse("1") == FactoredInt()
    with pytest.raises(InvalidArgument):
        parse("2^")
    with pytest.raises(InvalidArgument):
        parse("6*7")  # 6 is not prime


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(99)
    done = 0
    while done < 300:
        a, b = rng.randrange(2, 10**6), rng.randrange(2, 10**6)
        if math.gcd(a, b) != 1:
            continue
        fa, fb = factorize(a), factorize(b)
        assert fa.multiply(fb).divisor_count() == fa.divisor_count() * fb.divisor_count()
        done += 1


def test_square_parity_exhaustive():
    squares = {i * i for i in range(1, 317)}
    for n in range(1, 100_001):
        fi = factorize(n)
        odd = fi.divisor_count() % 2 == 1
        assert odd == (n in squares)
        assert odd == all(e % 2 == 0 for _, e in fi.factors)


def test_compare_agrees_with_decimal_ordering():
    rng = random.Random(123)
    for _ in range(1_000):
        a = factorize(rng.randrange(2, 10**7))
        b = factorize(rng.randrange(2, 10**7))
        da, db = a.to_decimal(), b.to_decimal()
        expect = 0 if da == db else (-1 if (len(da), da) < (len(db), db) else 1)
        assert a.compare(b) == expect


def test_digit_count_matches_log10():
    rng = random.Random(5)
    for _ in range(500):
        f = factorize(rng.randrange(2, 10**7))
        l10 = f.log10_value()
        if abs(l10 - round(l10)) < 1e-6:
            continue
        assert len(f.to_decimal()) == math.floor(l10) + 1

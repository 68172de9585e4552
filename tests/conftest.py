import pytest

from divperiod import period_table


@pytest.fixture(scope="session")
def table_5m():
    return period_table(5_000_000)


@pytest.fixture(scope="session")
def table_100k():
    return period_table(100_000)


def d_naive(n: int) -> int:
    """Independent oracle: count divisors by trial division."""
    c = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            c += 2 - (i * i == n)
        i += 1
    return c


def k_naive(n: int) -> int:
    """Independent oracle: iterate d_naive until hitting 2."""
    k = 0
    while True:
        n = d_naive(n)
        k += 1
        if n == 2:
            return k


def first_difference(got: str, want: str) -> str | None:
    """None when the texts are equal, else where they first differ.

    Asserting ``first_difference(a, b) is None`` keeps a failure report
    short: pytest's own diff of two texts of megabytes takes minutes.
    """
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {i + 1}: {a!r} != {b!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divperiod
from divperiod import Histogram, PeriodTable, Sieve, divisor, period_table


@pytest.fixture(scope="session")
def table_5m():
    return period_table(5_000_000)


@pytest.fixture(scope="session")
def table_100k():
    return period_table(100_000)


@pytest.fixture
def block_calls(monkeypatch):
    """The (lo, hi) of every ``divisor._divisor_block`` call, in order."""
    calls = []
    original = divisor._divisor_block

    def counted(lo, hi):
        calls.append((lo, hi))
        return original(lo, hi)

    monkeypatch.setattr(divisor, "_divisor_block", counted)
    return calls


def sieve_histogram(table: PeriodTable | Sieve, lo: int, hi: int) -> Histogram:
    """Reference period counts over [lo, hi]: the k(n) of every n, read block by block."""
    counts: dict[int, int] = {}
    for _, _, k in table.blocks(lo, hi):
        for kk, c in enumerate(np.bincount(k).tolist()):
            if c:
                counts[kk] = counts.get(kk, 0) + c
    return Histogram(lo, hi, dict(sorted(counts.items())))


def least_factor_table(limit: int) -> np.ndarray:
    """Reference least-prime-factor array: ``spf[n]`` is the least prime of n, 2 <= n <= limit.

    Each prime p to sqrt(limit) marks the multiples from p * p on that no
    smaller prime marked; what is left unmarked is prime, its own least factor.
    """
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked
    return spf


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


def subprocess_env() -> dict[str, str]:
    """The environment with this checkout's ``divperiod`` first on PYTHONPATH."""
    path = [str(Path(divperiod.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")


def cli_peak_kb(*argv: str) -> tuple[int, int]:
    """Exit code and peak RSS in kB of ``main(argv)`` in a fresh interpreter.

    The peak is the child's VmHWM: ``ru_maxrss`` would also count the
    peak of this test process, which it inherits across fork and exec.
    """
    script = (
        "import re, sys\n"
        "from divperiod.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=subprocess_env(), timeout=300, check=True,
    )
    code, peak_kb = map(int, proc.stderr.split()[-2:])
    return code, peak_kb

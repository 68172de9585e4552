"""Each checker accepts the program's real output and rejects one corrupted copy.

Run from the repository root: python3 -m pytest bench/test_checks.py -q
"""

import json
import random
import sys
from pathlib import Path

import pytest
import sympy

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from divperiod.cli import main  # noqa: E402

REF = checks.Reference(100_000)


def cli_output(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def replace_once(old, new):
    def corrupt(text):
        assert old in text, f"{old!r} not in output"
        return text.replace(old, new, 1)
    return corrupt


def edit_json(edit):
    def corrupt(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return corrupt


CLI_CASES = [
    (["table", "--limit", "500", "--format", "csv"], replace_once("\n60,12,5\n", "\n60,12,4\n")),
    (["table", "--limit", "500", "--format", "json"],
     edit_json(lambda p: p["rows"][58].__setitem__(1, 11))),
    (["first", "--limit", "6000"], replace_once("first at n=60", "first at n=72")),
    (["hist", "--from", "2", "--to", "5000"], replace_once("k=1: 669", "k=1: 670")),
    (["wigert", "--from", "3", "--to", "50000", "--n0", "100"], replace_once("at n=", "at n=1")),
    (["wigert", "--from", "3", "--to", "500", "--format", "csv"], replace_once("\n60,12,", "\n60,10,")),
    (["plot", "--from", "2", "--to", "500", "--format", "csv"], replace_once("\n60,5\n", "\n60,4\n")),
    (["chain", "--max-k", "6", "--bound", "10000", "--format", "json"],
     edit_json(lambda p: p["records"][5].update(
         factored="2^5*3^2*5*7", decimal="10080", digits=5))),
    (["conjecture", "--max-k", "6", "--bound", "10000", "--format", "json"],
     edit_json(lambda p: p["rows"][3].update(ratio=p["rows"][3]["ratio"] * 1.001))),
    (["verify-theorem1", "--limit", "60", "--sieve-bound", "100000", "--format", "csv"],
     replace_once(",2^3*3*5,120,", ",2^3*3*7,120,")),
    (["hcn", "--log10-limit", "8", "--format", "json"],
     edit_json(lambda p: p["records"].pop(7))),
    (["hcn", "--check", "2^4*3^2*5*7", "--format", "json"],
     edit_json(lambda p: p.update(is_hcn=not p["is_hcn"]))),
    (["hcn", "--check", "2^4*3^2*5*11", "--format", "json"],
     edit_json(lambda p: p.update(is_hcn=not p["is_hcn"]))),
]


@pytest.mark.parametrize("argv,corrupt", CLI_CASES, ids=lambda c: " ".join(c) if isinstance(c, list) else "")
def test_cli_checker_accepts_output_and_catches_corruption(tmp_path, argv, corrupt):
    text = cli_output(tmp_path, argv)
    assert checks.check_cli(argv, text, REF, random.Random(0)) == []
    assert checks.check_cli(argv, corrupt(text), REF, random.Random(0))


def chain_record(k, factored, decimal):
    return {"k": k, "factored": factored, "decimal": decimal, "digits": len(decimal),
            "verification": "oracle"}


def test_chain_checker_bounds_a_value_beyond_the_sieve():
    small = [("2", "2"), ("2^2", "4"), ("2*3", "6"), ("2^2*3", "12"), ("2^2*3*5", "60"),
             ("2^4*3^2*5*7", "5040")]
    records = [chain_record(k, f, d) for k, (f, d) in enumerate(small, start=1)]
    argv = ["chain", "--max-k", "7", "--format", "json"]
    good = records + [chain_record(7, "2^6*3^4*5^2*7^2*11*13*17*19", "293318625600")]
    assert checks.check_chain(argv, json.dumps({"records": good}), REF, None) == []
    # 2^6*3^4*5^2*7^2*11*13*17*23 has 5040 divisors (period 7) but is not the least
    bad = records + [chain_record(7, "2^6*3^4*5^2*7^2*11*13*17*23", str(293318625600 * 23 // 19))]
    assert checks.check_chain(argv, json.dumps({"records": bad}), REF, None)


POINT_CASES = [
    ({"kind": "trajectory", "n": 60}, [60, 12, 6, 4, 3, 2], [60, 12, 6, 4, 2]),
    ({"kind": "trajectory", "n": 10**12 + 39}, [10**12 + 39, 2], [10**12 + 39, 3, 2]),
    ({"kind": "period", "n": 5040}, 6, 5),
    ({"kind": "preimage", "text": "2^2*3"}, ["2^2*3*5", "60"], ["2^2*3^2*5", "180"]),
    ({"kind": "increment", "text": "2^2*3^2"}, None, None),
]


@pytest.mark.parametrize("op,good,bad", POINT_CASES, ids=lambda c: str(c)[:40])
def test_point_checker_accepts_output_and_catches_corruption(op, good, bad):
    if op["kind"] == "increment":
        from divperiod import analysis, parse

        rep = analysis.theorem2_increment(parse(op["text"]))
        good = [rep.delta_log10, rep.bound, rep.bound_holds, rep.hypothesis_holds]
        bad = [rep.delta_log10 + 0.01] + good[1:]
    assert checks.check_point(op, good) == []
    assert checks.check_point(op, bad)


def test_plain_sieve_matches_sympy():
    for n in range(2, 3000):
        assert REF.d[n] == sympy.divisor_count(n)
        assert REF.k[n] == checks.sympy_period(n)


def test_least_with_at_least_matches_known_values():
    # OEIS A002182 / A005179: 5040 is the least period-6 n, 293318625600 the least
    # n with at least 5040 divisors
    assert checks.least_with_at_least(5040) == 293318625600
    assert [checks.least_with_at_least(t) for t in (2, 3, 4, 5, 6, 12)] == [2, 4, 6, 12, 12, 60]

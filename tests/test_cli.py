import json
import math
import subprocess
import sys

import pytest

from divperiod import FactoredInt
from divperiod.cli import main
from divperiod.divisor import BLOCK
from divperiod.factored import int_to_decimal

from conftest import cli_peak_kb, first_difference, needs_vmhwm, subprocess_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_period(capsys):
    code, out, _ = run(capsys, "period", "60")
    assert code == 0
    assert "k=5" in out
    assert "60 -> 12 -> 6 -> 4 -> 3 -> 2" in out


def test_period_json(capsys):
    code, out, _ = run(capsys, "period", "60", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 60, "k": 5, "trajectory": [60, 12, 6, 4, 3, 2]}


def test_period_of_one_is_domain_error(capsys):
    code, out, err = run(capsys, "period", "1")
    assert code == 1
    assert out == ""
    assert "never reaches 2" in err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "period")[0] == 2
    assert run(capsys, "period", "60", "--format", "yaml")[0] == 2


def test_period_csv_unsupported(capsys):
    code, _, err = run(capsys, "period", "60", "--format", "csv")
    assert code == 1
    assert "no CSV form" in err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--limit", "12", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,d,k"
    assert lines[-1] == "12,6,4"


def test_first(capsys):
    code, out, _ = run(capsys, "first", "--limit", "6000", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"1": 2, "2": 4, "3": 6, "4": 12, "5": 60, "6": 5040}


def test_first_past_sieve_ceiling(capsys):
    code, out, _ = run(capsys, "first", "--limit", "1000000000000")
    assert code == 0
    assert out.splitlines()[-1] == "k=7: first at n=293318625600"
    assert run(capsys, "first", "--limit", "1000000000000000001") == (
        1, "", "error: table limit 1000000000000000001 exceeds ceiling 1000000000000000000\n"
    )


@pytest.mark.parametrize("max_k", ["2", "7"])
@pytest.mark.parametrize("command", ["chain", "conjecture"])
def test_chain_bound_keeps_sieve_ceiling(capsys, command, max_k):
    # the chain sweep takes the period of every target up to the bound;
    # at max-k 2 no sweep runs, and the bound is refused all the same
    assert run(capsys, command, "--max-k", max_k, "--bound", "200000001") == (
        1, "", "error: table limit 200000001 exceeds ceiling 200000000\n"
    )


def test_hist_csv(capsys):
    code, out, _ = run(capsys, "hist", "--from", "2", "--to", "12", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "k,count"


def test_construct(capsys):
    code, out, _ = run(capsys, "construct", "5040", "--format", "json")
    assert code == 0
    js = json.loads(out)
    assert js["factored"] == "2^6*3^4*5^2*7^2*11*13*17*19"
    assert js["decimal"] == "293318625600"
    assert js["digits"] == 12
    assert js["divisor_count"] == "5040"


def test_construct_factored_input(capsys):
    code, out, _ = run(capsys, "construct", "2^4*3^2*5*7", "--format", "json")
    assert code == 0
    assert json.loads(out)["decimal"] == "293318625600"


def test_construct_decimal_cap(capsys):
    code, _, err = run(capsys, "construct", str(2**64))
    assert code == 1
    assert "factored form" in err


def test_construct_rejects_strong_pseudoprime(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes the
    # strong test to every prime base up to 37
    code, out, err = run(capsys, "construct", "2*318665857834031151167461")
    assert code == 1
    assert out == ""
    assert "not prime" in err


def test_naive(capsys):
    code, out, _ = run(capsys, "naive", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["decimal"] == "72"


def test_min_divisors(capsys):
    code, out, _ = run(capsys, "min-divisors", "16", "--format", "json")
    assert code == 0
    js = json.loads(out)
    assert js["factored"] == "2^3*3*5"
    assert js["decimal"] == "120"


def test_chain_seven(capsys):
    code, out, _ = run(capsys, "chain", "--max-k", "7", "--bound", "6000", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["decimal"] for r in records] == ["2", "4", "6", "12", "60", "5040", "293318625600"]
    last = records[-1]
    assert last["factored"] == "2^6*3^4*5^2*7^2*11*13*17*19"
    assert last["digits"] == 12
    assert set(last) == {"k", "factored", "decimal", "digits", "verification", "canonical_match"}
    assert last["verification"] == "hcn-certified(d<=5040)"
    assert [r["canonical_match"] for r in records] == [None, None] + [True] * 5


def test_chain_csv(capsys):
    code, out, _ = run(capsys, "chain", "--max-k", "3", "--bound", "100", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,factored,decimal,digits,verification,canonical_match"
    assert lines[1] == "1,2,2,1,base-case,"
    assert lines[3] == "3,2*3,6,1,hcn-certified(d<=4),true"


@pytest.mark.parametrize("bound", ["2", "3"])
def test_chain_base_case_label(capsys, bound):
    code, out, _ = run(capsys, "chain", "--max-k", "8", "--bound", bound)
    assert code == 0
    assert out.splitlines() == [
        "k=1: 2 = 2 (base-case)",
        "k=2: 4 = 2^2 (base-case)",
        f"k=3: not found within bound {bound}",
    ]


def test_verify_theorem1(capsys):
    code, out, _ = run(
        capsys, "verify-theorem1", "--limit", "30", "--sieve-bound", "100000", "--format", "json"
    )
    assert code == 0
    js = json.loads(out)
    gaps = {d["t"] for d in js["disagreements"]}
    assert 16 in gaps


@pytest.mark.parametrize(
    "bound,message",
    [
        ("1", "error: table limit must be >= 2, got 1\n"),
        ("200000001", "error: table limit 200000001 exceeds ceiling 200000000\n"),
    ],
    ids=["below-two", "past-ceiling"],
)
def test_verify_theorem1_sieve_bound_limits(capsys, bound, message):
    assert run(capsys, "verify-theorem1", "--limit", "20", "--sieve-bound", bound) == (1, "", message)


def test_hcn_list(capsys):
    code, out, _ = run(capsys, "hcn", "--log10-limit", "2.1", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["decimal"] for r in records] == [
        "1", "2", "4", "6", "12", "24", "36", "48", "60", "120",
    ]


def test_hcn_check(capsys):
    code, out, _ = run(capsys, "hcn", "--check", "2^4*3^2*5*7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"value": "2^4*3^2*5*7", "is_hcn": True}


def test_hcn_needs_an_action(capsys):
    # exactly one of --check and --log10-limit: neither, or both, is a usage error
    assert run(capsys, "hcn")[:2] == (2, "")
    assert run(capsys, "hcn", "--log10-limit", "3", "--check", "12")[:2] == (2, "")


def test_hcn_check_at_the_enumeration_ceiling(capsys):
    # the largest highly composite number below 10^18, given in decimal
    assert run(capsys, "hcn", "--check", "897612484786617600") == (
        0, "2^8*3^4*5^2*7^2*11*13*17*19*23*29*31*37: highly composite\n", ""
    )
    assert run(capsys, "hcn", "--check", "2^60") == (
        1, "", "error: enumeration above 10^18.0 is not supported\n"
    )


@pytest.mark.parametrize(
    "argv",
    [("hcn", "--check", "2^4*3^2*5*7"), ("conjecture", "--max-k", "4", "--bound", "100")],
    ids=["hcn", "conjecture"],
)
def test_ceiling_flag_is_gone(capsys, argv):
    assert run(capsys, *argv, "--ceiling", "15")[:2] == (2, "")


def test_wigert(capsys):
    code, out, _ = run(
        capsys, "wigert", "--from", "3", "--to", "10000", "--epsilon", "0.1",
        "--n0", "10", "--format", "json",
    )
    assert code == 0
    js = json.loads(out)
    assert js["max_ratio"] > 0.8
    assert any(v["n"] == 60 for v in js["violations"])


@pytest.mark.parametrize(
    "lo,hi,message",
    [
        ("2", "100", "error: scan needs lo >= 3 (ln ln n must be defined)\n"),
        ("200", "100", "error: range [200, 100] outside table limit 100\n"),
    ],
    ids=["lo-below-three", "lo-above-hi"],
)
def test_wigert_range_errors_agree_across_formats(capsys, lo, hi, message):
    for fmt in ("text", "json", "csv"):
        assert run(capsys, "wigert", "--from", lo, "--to", hi, "--format", fmt) == (1, "", message)


def test_increment(capsys):
    code, out, _ = run(capsys, "increment", "12", "--format", "json")
    assert code == 0
    js = json.loads(out)
    assert js["hypothesis_holds"] is False and js["bound_holds"] is False


def test_increment_json(capsys):
    code, out, _ = run(capsys, "increment", "12", "--format", "json")
    assert code == 0
    js = json.loads(out)
    assert set(js) == {"n", "delta_log10", "bound", "hypothesis_holds", "bound_holds"}
    assert js["n"] == "2^2*3"


def test_plot_csv(capsys):
    code, out, _ = run(capsys, "plot", "--from", "2", "--to", "350", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k"
    assert len(lines) == 350
    assert "60,5" in lines


def test_conjecture_csv(capsys):
    code, out, _ = run(capsys, "conjecture", "--max-k", "6", "--bound", "6000", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,n_decimal,ln_n,ratio,is_hcn"
    assert len(lines) == 7
    assert lines[1].startswith("1,2,0.693147,,true")


# The exact bytes of each form, as the command line writes them.
FORMS = [
    (
        "first --limit 6000",
        "k=1: first at n=2\nk=2: first at n=4\nk=3: first at n=6\n"
        "k=4: first at n=12\nk=5: first at n=60\nk=6: first at n=5040\n",
    ),
    ("first --limit 6000 --format csv", "k,n\n1,2\n2,4\n3,6\n4,12\n5,60\n6,5040\n"),
    ("hist --from 2 --to 12", "k=1: 5\nk=2: 2\nk=3: 3\nk=4: 1\n"),
    ("hist --from 2 --to 12 --format csv", "k,count\n1,5\n2,2\n3,3\n4,1\n"),
    (
        "hist --from 2 --to 12 --format json",
        '{\n  "lo": 2,\n  "hi": 12,\n  "counts": {\n    "1": 5,\n    "2": 2,\n'
        '    "3": 3,\n    "4": 1\n  }\n}\n',
    ),
    (
        "chain --max-k 4 --bound 100 --format csv",
        "k,factored,decimal,digits,verification,canonical_match\n1,2,2,1,base-case,\n"
        "2,2^2,4,1,base-case,\n3,2*3,6,1,hcn-certified(d<=4),true\n"
        "4,2^2*3,12,2,hcn-certified(d<=6),true\n",
    ),
    (
        "verify-theorem1 --limit 20 --sieve-bound 1000 --format csv",
        "t,canonical,oracle,sieve_min,canonical_is_minimal\n2,2,2,2,true\n3,2^2,2^2,4,true\n"
        "4,2*3,2*3,6,true\n5,2^4,2^4,16,true\n6,2^2*3,2^2*3,12,true\n7,2^6,2^6,64,true\n"
        "8,2*3*5,2^3*3,24,false\n9,2^2*3^2,2^2*3^2,36,true\n10,2^4*3,2^4*3,48,true\n"
        "11,2^10,2^10,,true\n12,2^2*3*5,2^2*3*5,60,true\n13,2^12,2^12,,true\n"
        "14,2^6*3,2^6*3,192,true\n15,2^4*3^2,2^4*3^2,144,true\n16,2*3*5*7,2^3*3*5,120,false\n"
        "17,2^16,2^16,,true\n18,2^2*3^2*5,2^2*3^2*5,180,true\n19,2^18,2^18,,true\n"
        "20,2^4*3*5,2^4*3*5,240,true\n",
    ),
    (
        "hcn --log10-limit 2.1 --format csv",
        "decimal,d,factored\n1,1,1\n2,2,2\n4,3,2^2\n6,4,2*3\n12,6,2^2*3\n24,8,2^3*3\n"
        "36,9,2^2*3^2\n48,10,2^4*3\n60,12,2^2*3*5\n120,16,2^3*3*5\n",
    ),
    (
        "conjecture --max-k 6 --bound 6000 --format csv",
        "k,n_decimal,ln_n,ratio,is_hcn\n1,2,0.693147,,true\n2,4,1.386294,0.235617,true\n"
        "3,6,1.791759,0.650978,true\n4,12,2.484907,0.946886,true\n"
        "5,60,4.094345,1.234236,true\n6,5040,8.525161,1.484851,true\n",
    ),
    (
        "increment 12",
        "n = 2^2*3\ndelta_log10 = 0.698970\nbound 0.545*nu(n) = 1.090000\n"
        "bound_holds = False\nhypothesis_holds = False\n",
    ),
    (
        "construct 5040",
        "factored: 2^6*3^4*5^2*7^2*11*13*17*19\ndecimal: 293318625600\ndigits: 12\n"
        "d(result) = 5040\n",
    ),
]


@pytest.mark.parametrize("argv,expected", FORMS, ids=[argv for argv, _ in FORMS])
def test_form_bytes(capsys, argv, expected):
    assert run(capsys, *argv.split()) == (0, expected, "")


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@pytest.mark.parametrize(
    "command,n",
    [
        # 6,021 digits, past the 4,300 that str() of an int allows by default
        ("construct", FactoredInt(((2, 20_000),))),
        # 16 prime powers below 2^1000: about 4,800 digits
        ("naive", FactoredInt(tuple((p, int(1000 / math.log2(p))) for p in SMALL_PRIMES))),
        # 12,042 digits, past the digit ceiling of 10,000
        ("construct", FactoredInt(((2, 40_000),))),
    ],
    ids=["construct-6021-digits", "naive-4800-digits", "construct-past-ceiling"],
)
def test_preimage_divisor_count_digit_ceiling(capsys, command, n):
    # d(result) = n for both preimages, rendered as the decimal of a value is
    count = n.to_decimal() if n.log10_value() < 10_000 else None
    code, out, err = run(capsys, command, n.to_text(), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["divisor_count"] == count
    code, out, err = run(capsys, command, n.to_text())
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"d(result) = {count or '(beyond digit ceiling)'}"


def test_naive_past_float_range(capsys):
    # naive_preimage(2^20000) = 2^(2^20000 - 1), whose log10 is past a float
    factored = "2^" + int_to_decimal(2**20_000 - 1)
    count = int_to_decimal(2**20_000)
    code, out, err = run(capsys, "naive", "2^20000", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "input": "2^20000", "factored": factored, "decimal": None, "digits": None,
        "divisor_count": count,
    }
    assert run(capsys, "naive", "2^20000") == (0, (
        f"factored: {factored}\n"
        "decimal: (beyond digit ceiling)\n"
        "digits: (beyond digit ceiling)\n"
        f"d(result) = {count}\n"
    ), "")


def test_hcn_check_past_float_range(capsys):
    huge = f"2^{10**400}"
    message = "error: enumeration above 10^18.0 is not supported\n"
    for form in ("text", "json"):
        assert run(capsys, "hcn", "--check", huge, "--format", form) == (1, "", message)


def test_hcn_check_exponent_past_int_digit_limit(capsys):
    # the factored text naive 2^20000 prints: its exponent has 6,021 digits,
    # past the 4,300 that int() reads by default
    text = "2^" + int_to_decimal(2**20_000 - 1)
    message = f"error: factor {text[:20]}... has a number of more than 4300 digits\n"
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for form in ("text", "json"):
            assert run(capsys, "hcn", "--check", text, "--format", form) == (1, "", message)
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "command,message",
    [
        ("naive", "naive preimage exponent 2^a - 1 has more than 100000 digits"),
        ("construct", "canonical preimage needs Omega(n) primes, more than 100000"),
        ("increment", "canonical preimage needs Omega(n) primes, more than 100000"),
    ],
    ids=["naive", "construct", "increment"],
)
def test_preimage_past_ceiling(capsys, command, message):
    # 2^(10^400): p^a - 1 and a loop over Omega(n) primes used to run without bound
    for form in ("text", "json"):
        assert run(capsys, command, f"2^{10**400}", "--format", form) == (1, "", f"error: {message}\n")


def test_out_flag(tmp_path, capsys):
    dest = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "plot", "--from", "2", "--to", "10", "--format", "csv", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[0] == "n,k"


def test_determinism(capsys):
    first = run(capsys, "chain", "--max-k", "6", "--bound", "6000", "--format", "json")
    second = run(capsys, "chain", "--max-k", "6", "--bound", "6000", "--format", "json")
    assert first == second
    # --threads was inert and is now a usage error
    code, out, _ = run(capsys, "chain", "--max-k", "6", "--bound", "6000", "--threads", "4")
    assert code == 2
    assert out == ""


def test_wigert_rejects_nan_epsilon(capsys):
    code, out, err = run(capsys, "wigert", "--from", "3", "--to", "1000", "--epsilon", "nan")
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [("hcn", "--log10-limit")], ids=["hcn-log10-limit"])
def test_non_finite_bounds_rejected(capsys, argv, value):
    # nan used to end in a traceback
    code, out, err = run(capsys, *argv, value)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"must be finite, got {value}" in err


def test_closed_stdout_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-c", "from divperiod.cli import entry; entry()",
         "plot", "--from", "2", "--to", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
    )
    assert proc.stdout.readline() == b"2,1\n"
    proc.stdout.close()  # the output left is far more than a pipe buffer holds
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize("limit", [BLOCK - 1, BLOCK + 1])
def test_table_json_matches_json_dump(table_5m, capsys, limit):
    d = table_5m.divisor_of[: limit + 1].tolist()
    k = table_5m.period_of[: limit + 1].tolist()
    payload = {"limit": limit, "rows": [[n, d[n], k[n]] for n in range(2, limit + 1)]}
    code, out, _ = run(capsys, "table", "--limit", str(limit), "--format", "json")
    assert code == 0
    assert first_difference(out, json.dumps(payload, indent=2) + "\n") is None


@pytest.mark.parametrize("limit", [BLOCK - 1, BLOCK + 1, 2 * BLOCK + 5])
def test_table_text_maxima(table_5m, capsys, limit):
    # up to 2 * BLOCK + 5 the largest d, 240 at n = 720720, lies in the second block
    top_d = int(table_5m.divisor_of[2 : limit + 1].max())
    top_k = int(table_5m.period_of[2 : limit + 1].max())
    code, out, _ = run(capsys, "table", "--limit", str(limit))
    assert code == 0
    assert out == f"table up to {limit}\nmax period: {top_k}\nmax d: {top_d}\n"


@pytest.mark.parametrize("lo,hi", [(2, BLOCK - 1), (300_001, BLOCK + 1), (300_001, 2 * BLOCK + 5)])
def test_plot_forms_match_whole_table(table_5m, capsys, lo, hi):
    rows = list(zip(range(lo, hi + 1), table_5m.period_of[lo : hi + 1].tolist()))
    text = "".join(f"{n},{k}\n" for n, k in rows)
    argv = ("plot", "--from", str(lo), "--to", str(hi), "--format")
    assert first_difference(run(capsys, *argv, "text")[1], text) is None
    assert first_difference(run(capsys, *argv, "csv")[1], "n,k\n" + text) is None
    expected = json.dumps({"rows": [[n, k] for n, k in rows]}, indent=2) + "\n"
    assert first_difference(run(capsys, *argv, "json")[1], expected) is None


@needs_vmhwm
def test_table_json_memory_is_bounded():
    """The JSON rows are streamed: 2*BLOCK+5 rows once took 179 MB."""
    code, peak_kb = cli_peak_kb("table", "--limit", str(2 * BLOCK + 5), "--format", "json")
    assert code == 0
    assert peak_kb < 120 * 1024

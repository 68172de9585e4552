"""Command-line interface: every capability, machine-readable output.

Exit codes: 0 success, 1 domain error (message on stderr) or stdout
closed early by its reader (no message), 2 usage error.
Big values cross this boundary only in the canonical factored text form
(e.g. ``2^6*3^4*5^2*7^2*11*13*17*19``); plain decimal arguments are
capped at 64 bits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Callable, TextIO

from . import analysis, construct, divisor, hcn
from .errors import DomainError, InvalidArgument, TooLarge
from .factored import (
    DEFAULT_DIGIT_CEILING,
    FactoredInt,
    _decimal,
    int_to_decimal,
    parse as parse_factored,
)
from .primes import factorize


def _parse_value(text: str) -> FactoredInt:
    """Decimal (< 2^64) or canonical factored text."""
    if text.strip().isdigit():
        n = int(text)
        if n >= 2**64:
            raise InvalidArgument(
                f"decimal input {text} exceeds 64 bits; pass it in factored form "
                "like 2^6*3^4*5^2*7^2*11*13*17*19"
            )
        return factorize(n)
    return parse_factored(text)


def _int_arg(text: str, what: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise InvalidArgument(f"{what} must be an integer, got {text!r}")
    if n >= 2**64:
        raise InvalidArgument(f"{what} exceeds 64 bits")
    return n


def _cell(value) -> str:
    """One CSV cell: None is empty, a bool ``true`` or ``false``, a float has six decimals."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _emit(args, doc: Callable, lines: Callable, csv: Callable | None = None) -> int:
    """Build and write only the form ``args.format`` asks for.

    ``doc()`` returns the JSON document, ``lines()`` the text lines and
    ``csv()`` the column names and the rows.  A form that streams itself
    to ``args._out`` returns None.
    """
    if args.format == "csv" and csv is None:
        raise InvalidArgument(f"subcommand {args.command!r} has no CSV form")
    form = {"json": doc, "text": lines, "csv": csv}[args.format]()
    out = args._out
    if form is None:  # the form wrote itself
        return 0
    if args.format == "json":
        json.dump(form, out, indent=2)
        out.write("\n")
    elif args.format == "text":
        out.writelines(line + "\n" for line in form)
    else:
        columns, rows = form
        out.write(",".join(columns) + "\n")
        out.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
    return 0


def _write_json_rows(out: TextIO, fields: dict, blocks) -> None:
    """``json.dump({**fields, "rows": rows}, out, indent=2)`` and a newline, streamed.

    ``blocks`` yields ``(start, column, ...)``; row i of a block is
    ``[start + i, column[i], ...]``.  The bytes are those of ``json.dump``
    for at least one row of integers.
    """
    out.write("{\n")
    for key, value in fields.items():
        out.write(f"  {json.dumps(key)}: {json.dumps(value)},\n")
    out.write('  "rows": [')
    row, sep = None, "\n"
    for start, *columns in blocks:
        if row is None:
            row = "    [\n" + ",\n".join(["      %d"] * (1 + len(columns))) + "\n    ]"
            divisor.write_rows(out, sep + row, start, *(c[:1] for c in columns))
            start, columns, sep = start + 1, [c[1:] for c in columns], ",\n"
        divisor.write_rows(out, sep + row, start, *columns)
    out.write("\n  ]\n}\n")


def _below_ceiling(render: Callable[[], str]) -> str | None:
    """``render()``, or None past the digit ceiling."""
    try:
        return render()
    except TooLarge:
        return None


def _value_fields(f: FactoredInt) -> dict:
    """``factored``, ``decimal`` and ``digits`` of f.

    ``decimal`` is None past the digit ceiling, ``digits`` only once log10
    of f is past the float range.
    """
    log10 = f.log10_value()
    if log10 == math.inf:
        return {"factored": f.to_text(), "decimal": None, "digits": None}
    # ``f.to_decimal`` would sum the log10 again
    digits = math.floor(log10) + 1
    decimal = _below_ceiling(lambda: _decimal(f.value, digits, DEFAULT_DIGIT_CEILING))
    return {"factored": f.to_text(), "decimal": decimal, "digits": digits}


def cmd_period(args) -> int:
    steps = divisor.trajectory(_int_arg(args.n, "n")).steps
    k = len(steps) - 1
    return _emit(
        args,
        lambda: {"n": steps[0], "k": k, "trajectory": steps},
        lambda: [f"k={k}", "trajectory: " + " -> ".join(map(str, steps))],
    )


def cmd_table(args) -> int:
    sieve = divisor.Sieve(args.limit)
    return _emit(
        args,
        lambda: _write_json_rows(args._out, {"limit": sieve.limit}, sieve.blocks(2, sieve.limit)),
        lambda: [
            f"table up to {sieve.limit}",
            f"max period: {max(divisor.first_occurrences(sieve.limit))}",
            f"max d: {hcn.max_divisor_count(sieve.limit)}",
        ],
        lambda: divisor.write_table_csv(sieve, args._out),
    )


def cmd_first(args) -> int:
    occ = divisor.first_occurrences(args.limit)
    return _emit(
        args,
        lambda: {str(k): n for k, n in occ.items()},
        lambda: [f"k={k}: first at n={n}" for k, n in occ.items()],
        lambda: (("k", "n"), occ.items()),
    )


def cmd_hist(args) -> int:
    h = analysis.histogram(getattr(args, "from"), args.to)
    counts = sorted(h.counts.items())
    return _emit(
        args,
        lambda: {"lo": h.lo, "hi": h.hi, "counts": {str(k): c for k, c in counts}},
        lambda: [f"k={k}: {c}" for k, c in counts],
        lambda: (("k", "count"), counts),
    )


def cmd_preimage(args) -> int:
    source = _parse_value(args.n)
    result = args.preimage(source)
    fields = _value_fields(result)
    count = _below_ceiling(lambda: int_to_decimal(result.divisor_count()))
    return _emit(
        args,
        lambda: {"input": source.to_text(), **fields, "divisor_count": count},
        lambda: [
            f"factored: {fields['factored']}",
            f"decimal: {fields['decimal'] or '(beyond digit ceiling)'}",
            f"digits: {fields['digits'] or '(beyond digit ceiling)'}",
            f"d(result) = {count or '(beyond digit ceiling)'}",
        ],
    )


def cmd_min_divisors(args) -> int:
    t = _int_arg(args.t, "target")
    result = construct.exact_min_with_divisors(t)
    fields = _value_fields(result)
    return _emit(
        args,
        lambda: {"target": t, **fields},
        lambda: [
            f"min with {t} divisors: {fields['factored']}",
            f"decimal: {fields['decimal'] or '(beyond digit ceiling)'}",
        ],
    )


def cmd_chain(args) -> int:
    records = construct.chain(args.max_k, args.bound)
    missing = len(records) + 1 if len(records) < args.max_k else None
    columns = ("k", "factored", "decimal", "digits", "verification", "canonical_match")
    rows = [(r.period, r.value.to_text(), r.decimal, r.digit_count, r.verification,
             r.canonical_match) for r in records]

    def doc():
        found = {"records": [dict(zip(columns, row)) for row in rows]}
        return found if missing is None else {**found, "not_found_from": missing}

    def lines():
        for r in records:
            flag = "" if r.canonical_match in (None, True) else "  [canonical construction disagrees]"
            yield f"k={r.period}: {r.decimal} = {r.value.to_text()} ({r.verification}){flag}"
        if missing is not None:
            yield f"k={missing}: not found within bound {args.bound}"

    return _emit(args, doc, lines, lambda: (columns, rows))


def cmd_verify_theorem1(args) -> int:
    divisor._check_limit(args.sieve_bound)
    sieve_min = divisor.least_by_divisor_count(args.sieve_bound)
    # the CSV has all columns but the last
    columns = ("t", "canonical", "oracle", "sieve_min", "canonical_is_minimal", "oracle_matches_sieve")
    rows = []
    for t in range(2, args.limit + 1):
        canon = construct.canonical_preimage(factorize(t))
        oracle = construct.exact_min_with_divisors(t, _seed=canon)
        smin = sieve_min.get(t)
        matches = None if smin is None else oracle.value() == smin
        rows.append((t, canon.to_text(), oracle.to_text(), smin, canon.compare(oracle) == 0, matches))
    disagreements = [dict(zip(columns, row)) for row in rows if not row[4]]

    def lines():
        yield f"checked targets 2..{args.limit}: {len(disagreements)} disagreement(s)"
        for r in disagreements:
            sieved = f" (sieve min {r['sieve_min']})" if r["sieve_min"] else ""
            yield f"t={r['t']}: canonical {r['canonical']} > oracle {r['oracle']}{sieved}"

    return _emit(
        args,
        lambda: {"limit": args.limit, "disagreements": disagreements},
        lines,
        lambda: (columns[:-1], [row[:-1] for row in rows]),
    )


def cmd_hcn(args) -> int:
    if args.check is not None:
        f = _parse_value(args.check)
        verdict = hcn.is_highly_composite(f)
        return _emit(
            args,
            lambda: {"value": f.to_text(), "is_hcn": verdict},
            lambda: [f"{f.to_text()}: {'highly composite' if verdict else 'not highly composite'}"],
        )
    records = hcn.enumerate_hcn(args.log10_limit)
    columns = ("decimal", "d", "factored")
    rows = [(r.decimal, r.divisor_count, r.value.to_text()) for r in records]
    return _emit(
        args,
        lambda: {"records": [dict(zip(columns, row)) for row in rows]},
        lambda: [f"{dec} = {factored} (d={d})" for dec, d, factored in rows],
        lambda: (columns, rows),
    )


def cmd_wigert(args) -> int:
    lo = getattr(args, "from")
    sieve = divisor.Sieve(args.to)
    params = analysis.BoundParams(epsilon=args.epsilon, threshold_n0=args.n0)

    def doc():
        rep = analysis.wigert_scan(sieve, params, lo, args.to)
        return {
            "lo": rep.lo,
            "hi": rep.hi,
            "epsilon": params.epsilon,
            "threshold_n0": params.threshold_n0,
            "threshold_value": rep.threshold_value,
            "max_ratio": rep.max_ratio,
            "argmax_n": rep.argmax_n,
            "argmax_d": rep.argmax_d,
            "violations": [{"n": n, "d": d, "ratio": r} for n, d, r in rep.violations],
        }

    def lines():
        rep = analysis.wigert_scan(sieve, params, lo, args.to)
        return [
            f"max r(n) over [{rep.lo}, {rep.hi}]: {rep.max_ratio:.9f} at n={rep.argmax_n} (d={rep.argmax_d})",
            f"threshold ln2*(1+eps) = {rep.threshold_value:.9f}, n0 = {params.threshold_n0}",
            f"violations above n0: {len(rep.violations)}",
        ] + [f"  n={n} d={d} r={r:.9f}" for n, d, r in rep.violations[:50]]

    return _emit(args, doc, lines, lambda: analysis.write_wigert_csv(sieve, lo, args.to, args._out))


def cmd_increment(args) -> int:
    rep = analysis.theorem2_increment(_parse_value(args.n))
    return _emit(
        args,
        lambda: {
            "n": rep.n.to_text(),
            "delta_log10": rep.delta_log10,
            "bound": rep.bound,
            "hypothesis_holds": rep.hypothesis_holds,
            "bound_holds": rep.bound_holds,
        },
        lambda: [
            f"n = {rep.n.to_text()}",
            f"delta_log10 = {rep.delta_log10:.6f}",
            f"bound 0.545*nu(n) = {rep.bound:.6f}",
            f"bound_holds = {rep.bound_holds}",
            f"hypothesis_holds = {rep.hypothesis_holds}",
        ],
    )


def cmd_plot(args) -> int:
    rows = analysis.plot_data(divisor.Sieve(args.to), getattr(args, "from"), args.to)

    def lines():
        for start, k in rows.blocks():
            divisor.write_rows(args._out, "%d,%d\n", start, k)

    return _emit(
        args,
        lambda: _write_json_rows(args._out, {}, rows.blocks()),
        lines,
        lambda: analysis.write_plot_csv(rows, args._out),
    )


def cmd_conjecture(args) -> int:
    report = hcn.conjecture_report(construct.chain(args.max_k, args.bound))
    # the CSV has all columns but the last
    columns = ("k", "n_decimal", "ln_n", "ratio", "is_hcn", "degenerate")
    rows = [(r.period, r.decimal, r.ln_n, r.ratio, r.is_hcn, r.degenerate) for r in report]

    def lines():
        for r in report:
            ratio = "-" if r.ratio is None else f"{r.ratio:.4f}"
            verdict = "?" if r.is_hcn is None else str(r.is_hcn).lower()
            flag = " [degenerate]" if r.degenerate else ""
            yield f"k={r.period}: n={r.decimal} ln_n={r.ln_n:.4f} ratio={ratio} hcn={verdict}{flag}"

    return _emit(
        args,
        lambda: {"rows": [dict(zip(columns, row)) for row in rows]},
        lines,
        lambda: (columns[:-1], [row[:-1] for row in rows]),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divperiod",
        description="Iterated divisor-function periods, minimal preimages, highly composite numbers.",
    )
    shared = {
        "--format": {"choices": ("text", "csv", "json"), "default": "text"},
        "--out": {"default": None, "help": "write output to this file instead of stdout"},
        "--from": {"type": int, "required": True},
        "--to": {"type": int, "required": True},
        "--limit": {"type": int, "required": True},
        "--max-k": {"type": int, "required": True},
        "--bound": {"type": int, "default": construct.DEFAULT_CANDIDATE_BOUND},
        "n": {"help": "decimal or factored form"},
    }
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *names):
        """A subcommand with ``--format``, ``--out`` and the shared arguments ``names``."""
        p = sub.add_parser(name, help=help)
        for flag in ("--format", "--out", *names):
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    command("period", cmd_period, "period k and trajectory of n").add_argument("n")
    command("table", cmd_table, "batch n,d,k table", "--limit")
    command("first", cmd_first, "least n per period value", "--limit")
    command("hist", cmd_hist, "period-frequency histogram", "--from", "--to")
    p = command("construct", cmd_preimage, "canonical minimal preimage", "n")
    p.set_defaults(preimage=construct.canonical_preimage)
    p = command("naive", cmd_preimage, "one-prime-per-factor preimage", "n")
    p.set_defaults(preimage=construct.naive_preimage)
    p = command("min-divisors", cmd_min_divisors, "smallest integer with exactly t divisors")
    p.add_argument("t")
    command("chain", cmd_chain, "minimal n per period, k = 1..max-k", "--max-k", "--bound")
    p = command("verify-theorem1", cmd_verify_theorem1,
                "canonical vs oracle vs sieve for all targets <= limit", "--limit")
    p.add_argument("--sieve-bound", type=int, default=10_000_000)
    p = command("hcn", cmd_hcn, "highly composite numbers")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--log10-limit", type=float)
    which.add_argument("--check", help="decimal or factored form to test for membership")
    p = command("wigert", cmd_wigert, "maximal-order ratio scan", "--from", "--to")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--n0", type=int, default=10_000)
    command("increment", cmd_increment, "log10 growth vs 0.545*nu(n) bound", "n")
    command("plot", cmd_plot, "n,k rows for external plotting", "--from", "--to")
    command("conjecture", cmd_conjecture, "growth-ratio and HCN report along the chain",
            "--max-k", "--bound")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with contextlib.ExitStack() as stack:
            args._out = sys.stdout if args.out is None else stack.enter_context(open(args.out, "w"))
            return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `divperiod plot ... | head -1`).
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()

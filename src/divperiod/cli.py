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

import numpy as np

from . import analysis, construct, divisor, hcn
from .errors import DomainError, InvalidArgument, TooLarge
from .factored import FactoredInt, parse as parse_factored
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


def _write(
    args,
    json_writer: Callable[[TextIO], None],
    text_writer: Callable[[TextIO], None],
    csv_writer: Callable[[TextIO], None] | None = None,
) -> None:
    """Run only the writer of the form ``args.format`` asks for."""
    if args.format == "csv" and csv_writer is None:
        raise InvalidArgument(f"subcommand {args.command!r} has no CSV form")
    {"json": json_writer, "csv": csv_writer, "text": text_writer}[args.format](args._out)


def _emit(
    args,
    payload: Callable[[], dict],
    text_lines: Callable[[], list[str]],
    csv_writer: Callable[[TextIO], None] | None = None,
) -> None:
    """Build and write only the form ``args.format`` asks for."""

    def json_writer(out):
        json.dump(payload(), out, indent=2)
        out.write("\n")

    def text_writer(out):
        for line in text_lines():
            out.write(line + "\n")

    _write(args, json_writer, text_writer, csv_writer)


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


def _safe_decimal(f: FactoredInt) -> str | None:
    try:
        return f.to_decimal()
    except TooLarge:
        return None


# --- subcommand handlers ---


def cmd_period(args) -> int:
    n = _int_arg(args.n, "n")
    traj = divisor.trajectory(n)
    k = len(traj.steps) - 1
    payload = {"n": n, "k": k, "trajectory": traj.steps}
    lines = [f"k={k}", "trajectory: " + " -> ".join(map(str, traj.steps))]
    _emit(args, lambda: payload, lambda: lines)
    return 0


def cmd_table(args) -> int:
    sieve = divisor.Sieve(args.limit)

    def text_writer(out):
        top_k = max(divisor.first_occurrences(sieve))
        top_d = hcn.max_divisor_count(sieve.limit)
        out.write(f"table up to {sieve.limit}\nmax period: {top_k}\nmax d: {top_d}\n")

    _write(
        args,
        lambda out: _write_json_rows(out, {"limit": sieve.limit}, sieve.blocks(2, sieve.limit)),
        text_writer,
        lambda out: divisor.write_table_csv(sieve, out),
    )
    return 0


def cmd_first(args) -> int:
    occ = divisor.first_occurrences(divisor.Sieve(args.limit))
    payload = {str(k): n for k, n in occ.items()}
    lines = [f"k={k}: first at n={n}" for k, n in occ.items()]

    def csv_writer(out):
        out.write("k,n\n")
        for k, n in occ.items():
            out.write(f"{k},{n}\n")

    _emit(args, lambda: payload, lambda: lines, csv_writer)
    return 0


def cmd_hist(args) -> int:
    h = analysis.histogram(getattr(args, "from"), args.to)
    payload = {"lo": h.lo, "hi": h.hi, "counts": {str(k): c for k, c in sorted(h.counts.items())}}
    lines = [f"k={k}: {c}" for k, c in sorted(h.counts.items())]
    _emit(args, lambda: payload, lambda: lines, lambda out: analysis.write_histogram_csv(h, out))
    return 0


def cmd_preimage(args) -> int:
    source = _parse_value(args.n)
    result = args.preimage(source)
    dec = _safe_decimal(result)
    payload = {
        "input": source.to_text(),
        "factored": result.to_text(),
        "decimal": dec,
        "digits": math.floor(result.log10_value()) + 1,
        "divisor_count": str(result.divisor_count()),
    }
    lines = [
        f"factored: {result.to_text()}",
        f"decimal: {dec if dec is not None else '(beyond digit ceiling)'}",
        f"digits: {payload['digits']}",
        f"d(result) = {payload['divisor_count']}",
    ]
    _emit(args, lambda: payload, lambda: lines)
    return 0


def cmd_min_divisors(args) -> int:
    t = _int_arg(args.t, "target")
    result = construct.exact_min_with_divisors(t)
    dec = _safe_decimal(result)
    payload = {
        "target": t,
        "factored": result.to_text(),
        "decimal": dec,
        "digits": math.floor(result.log10_value()) + 1,
    }
    lines = [
        f"min with {t} divisors: {result.to_text()}",
        f"decimal: {dec if dec is not None else '(beyond digit ceiling)'}",
    ]
    _emit(args, lambda: payload, lambda: lines)
    return 0


def _chain_csv(records):
    def csv_writer(out):
        out.write("k,factored,decimal,digits,verification\n")
        for r in records:
            out.write(
                f"{r.period},{r.value.to_text()},{r.decimal},{r.digit_count},{r.verification}\n"
            )

    return csv_writer


def cmd_chain(args) -> int:
    records = construct.chain(args.max_k, args.bound)
    payload = {"records": [construct.chain_record_json(r) for r in records]}
    lines = []
    for r in records:
        flag = "" if r.canonical_match in (None, True) else "  [canonical construction disagrees]"
        lines.append(
            f"k={r.period}: {r.decimal} = {r.value.to_text()} ({r.verification}){flag}"
        )
    if len(records) < args.max_k:
        lines.append(f"k={len(records) + 1}: not found within bound {args.bound}")
        payload["not_found_from"] = len(records) + 1
    _emit(args, lambda: payload, lambda: lines, _chain_csv(records))
    return 0


def cmd_verify_theorem1(args) -> int:
    # least n with d(n) = v: in each block scatter n from the top down, so
    # the least lands last; a value keeps the first block it appears in
    sieve_min: dict[int, int] = {}
    sieve = divisor.Sieve(args.sieve_bound)
    for start, d in sieve.divisor_blocks(1, sieve.limit):
        first = np.zeros(int(d.max()) + 1, dtype=np.int64)
        first[d[::-1]] = np.arange(start + d.size - 1, start - 1, -1)
        values = np.flatnonzero(first)
        for v, n in zip(values.tolist(), first[values].tolist()):
            sieve_min.setdefault(v, n)
    rows = []
    for t in range(2, args.limit + 1):
        canon = construct.canonical_preimage(factorize(t))
        oracle = construct.exact_min_with_divisors(t)
        smin = sieve_min.get(t)
        oracle_dec = _safe_decimal(oracle)
        rows.append(
            {
                "t": t,
                "canonical": canon.to_text(),
                "oracle": oracle.to_text(),
                "sieve_min": smin,
                "canonical_is_minimal": canon.compare(oracle) == 0,
                "oracle_matches_sieve": (
                    None if smin is None else oracle_dec == str(smin)
                ),
            }
        )
    disagreements = [r for r in rows if not r["canonical_is_minimal"]]
    payload = {"limit": args.limit, "disagreements": disagreements}
    lines = [f"checked targets 2..{args.limit}: {len(disagreements)} disagreement(s)"]
    for r in disagreements:
        lines.append(
            f"t={r['t']}: canonical {r['canonical']} > oracle {r['oracle']}"
            + (f" (sieve min {r['sieve_min']})" if r["sieve_min"] else "")
        )

    def csv_writer(out):
        out.write("t,canonical,oracle,sieve_min,canonical_is_minimal\n")
        for r in rows:
            out.write(
                f"{r['t']},{r['canonical']},{r['oracle']},"
                f"{r['sieve_min'] if r['sieve_min'] is not None else ''},"
                f"{str(r['canonical_is_minimal']).lower()}\n"
            )

    _emit(args, lambda: payload, lambda: lines, csv_writer)
    return 0


def cmd_hcn(args) -> int:
    if args.check is not None:
        f = parse_factored(args.check)
        verdict = hcn.is_highly_composite(f, args.ceiling)
        payload = {"value": f.to_text(), "is_hcn": verdict}
        _emit(args, lambda: payload, lambda: [f"{f.to_text()}: {'highly composite' if verdict else 'not highly composite'}"])
        return 0
    if args.log10_limit is None:
        raise InvalidArgument("hcn needs either --log10-limit or --check")
    records = hcn.enumerate_hcn(args.log10_limit)
    payload = {
        "records": [
            {"decimal": r.decimal, "d": r.divisor_count, "factored": r.value.to_text()}
            for r in records
        ]
    }
    lines = [f"{r.decimal} = {r.value.to_text()} (d={r.divisor_count})" for r in records]

    def csv_writer(out):
        out.write("decimal,d,factored\n")
        for r in records:
            out.write(f"{r.decimal},{r.divisor_count},{r.value.to_text()}\n")

    _emit(args, lambda: payload, lambda: lines, csv_writer)
    return 0


def cmd_wigert(args) -> int:
    lo = getattr(args, "from")
    sieve = divisor.Sieve(args.to)
    params = analysis.BoundParams(epsilon=args.epsilon, threshold_n0=args.n0)

    def payload():
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
            "violations": [
                {"n": n, "d": d, "ratio": r} for n, d, r in rep.violations
            ],
        }

    def lines():
        rep = analysis.wigert_scan(sieve, params, lo, args.to)
        return [
            f"max r(n) over [{rep.lo}, {rep.hi}]: {rep.max_ratio:.9f} at n={rep.argmax_n} (d={rep.argmax_d})",
            f"threshold ln2*(1+eps) = {rep.threshold_value:.9f}, n0 = {params.threshold_n0}",
            f"violations above n0: {len(rep.violations)}",
        ] + [f"  n={n} d={d} r={r:.9f}" for n, d, r in rep.violations[:50]]

    def csv_writer(out):
        analysis.write_wigert_csv(sieve, lo, args.to, out)

    _emit(args, payload, lines, csv_writer)
    return 0


def cmd_increment(args) -> int:
    f = _parse_value(args.n)
    rep = analysis.theorem2_increment(f)
    payload = analysis.increment_report_json(rep)
    lines = [
        f"n = {rep.n.to_text()}",
        f"delta_log10 = {rep.delta_log10:.6f}",
        f"bound 0.545*nu(n) = {rep.bound:.6f}",
        f"bound_holds = {rep.bound_holds}",
        f"hypothesis_holds = {rep.hypothesis_holds}",
    ]
    _emit(args, lambda: payload, lambda: lines)
    return 0


def cmd_plot(args) -> int:
    rows = analysis.plot_data(divisor.Sieve(args.to), getattr(args, "from"), args.to)

    def text_writer(out):
        for start, k in rows.blocks():
            divisor.write_rows(out, "%d,%d\n", start, k)

    _write(
        args,
        lambda out: _write_json_rows(out, {}, rows.blocks()),
        text_writer,
        lambda out: analysis.write_plot_csv(rows, out),
    )
    return 0


def cmd_conjecture(args) -> int:
    records = construct.chain(args.max_k, args.bound)
    rows = hcn.conjecture_report(records, args.ceiling)
    payload = {
        "rows": [
            {
                "k": r.period,
                "n_decimal": r.decimal,
                "ln_n": r.ln_n,
                "ratio": r.ratio,
                "is_hcn": r.is_hcn,
                "degenerate": r.degenerate,
            }
            for r in rows
        ]
    }
    lines = []
    for r in rows:
        ratio = "-" if r.ratio is None else f"{r.ratio:.4f}"
        verdict = "?" if r.is_hcn is None else str(r.is_hcn).lower()
        flag = " [degenerate]" if r.degenerate else ""
        lines.append(f"k={r.period}: n={r.decimal} ln_n={r.ln_n:.4f} ratio={ratio} hcn={verdict}{flag}")
    _emit(args, lambda: payload, lambda: lines, lambda out: hcn.write_conjecture_csv(rows, out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divperiod",
        description="Iterated divisor-function periods, minimal preimages, highly composite numbers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("period", parents=[common], help="period k and trajectory of n")
    p.add_argument("n")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("table", parents=[common], help="batch n,d,k table")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("first", parents=[common], help="least n per period value")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=cmd_first)

    p = sub.add_parser("hist", parents=[common], help="period-frequency histogram")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("construct", parents=[common], help="canonical minimal preimage")
    p.add_argument("n", help="decimal or factored form")
    p.set_defaults(func=cmd_preimage, preimage=construct.canonical_preimage)

    p = sub.add_parser("naive", parents=[common], help="one-prime-per-factor preimage")
    p.add_argument("n", help="decimal or factored form")
    p.set_defaults(func=cmd_preimage, preimage=construct.naive_preimage)

    p = sub.add_parser("min-divisors", parents=[common], help="smallest integer with exactly t divisors")
    p.add_argument("t")
    p.set_defaults(func=cmd_min_divisors)

    p = sub.add_parser("chain", parents=[common], help="minimal n per period, k = 1..max-k")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--bound", type=int, default=construct.DEFAULT_CANDIDATE_BOUND)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser(
        "verify-theorem1", parents=[common], help="canonical vs oracle vs sieve for all targets <= limit"
    )
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--sieve-bound", type=int, default=10_000_000)
    p.set_defaults(func=cmd_verify_theorem1)

    p = sub.add_parser("hcn", parents=[common], help="highly composite numbers")
    p.add_argument("--log10-limit", type=float, default=None)
    p.add_argument("--check", default=None, help="factored form to test for membership")
    p.add_argument("--ceiling", type=float, default=hcn.DEFAULT_LOG10_CEILING)
    p.set_defaults(func=cmd_hcn)

    p = sub.add_parser("wigert", parents=[common], help="maximal-order ratio scan")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--n0", type=int, default=10_000)
    p.set_defaults(func=cmd_wigert)

    p = sub.add_parser("increment", parents=[common], help="log10 growth vs 0.545*nu(n) bound")
    p.add_argument("n", help="decimal or factored form")
    p.set_defaults(func=cmd_increment)

    p = sub.add_parser("plot", parents=[common], help="n,k rows for external plotting")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("conjecture", parents=[common], help="growth-ratio and HCN report along the chain")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--bound", type=int, default=construct.DEFAULT_CANDIDATE_BOUND)
    p.add_argument("--ceiling", type=float, default=hcn.DEFAULT_LOG10_CEILING)
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with contextlib.ExitStack() as stack:
            if args.out is not None:
                args._out = stack.enter_context(open(args.out, "w"))
            else:
                args._out = sys.stdout
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

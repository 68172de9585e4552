"""In-memory spans around the package's layer functions, for traced runs.

``install`` replaces each traced function with a wrapper in every
``divperiod`` namespace that binds it, so that calls made through a name
imported elsewhere (``construct`` imports ``period_table`` and
``factorize``, for instance) are recorded too.  A span holds the name,
the start, the end, the parent span and, for a few functions, one extra
value; spans stay in memory until the worker writes them out.

Hot helpers (``nth_prime``, ``is_prime``, ``construct._divisors_desc``)
stay unwrapped: they run millions of times and the wrapper would swamp
them.
"""

from __future__ import annotations

import functools
import sys
import time

# CLI subcommand handlers, by the name the metrics use.
CLI_COMMANDS = {
    "first": "cmd_first",
    "hist": "cmd_hist",
    "wigert": "cmd_wigert",
    "table": "cmd_table",
    "plot": "cmd_plot",
    "chain": "cmd_chain",
    "conjecture": "cmd_conjecture",
    "verify-theorem1": "cmd_verify_theorem1",
    "hcn": "cmd_hcn",
}

# (span name, module, attribute path)
TRACED = [
    ("divisor.period_table", "divisor", "period_table"),
    ("divisor.first_occurrences", "divisor", "first_occurrences"),
    ("divisor.write_table_csv", "divisor", "write_table_csv"),
    ("divisor.trajectory", "divisor", "trajectory"),
    ("divisor.period", "divisor", "period"),
    ("analysis.histogram", "analysis", "histogram"),
    ("analysis.wigert_scan", "analysis", "wigert_scan"),
    ("analysis.write_wigert_csv", "analysis", "write_wigert_csv"),
    ("analysis.plot_data", "analysis", "plot_data"),
    ("analysis.write_plot_csv", "analysis", "write_plot_csv"),
    ("analysis.theorem2_increment", "analysis", "theorem2_increment"),
    ("cli.main", "cli", "main"),
    *((f"cli.{name}", "cli", attr) for name, attr in CLI_COMMANDS.items()),
    ("construct.chain", "construct", "chain"),
    ("construct.min_with_period", "construct", "min_with_period"),
    ("construct.exact_min_with_divisors", "construct", "exact_min_with_divisors"),
    ("construct.canonical_preimage", "construct", "canonical_preimage"),
    ("hcn.enumerate_hcn", "hcn", "enumerate_hcn"),
    ("hcn.is_highly_composite", "hcn", "is_highly_composite"),
    ("hcn.conjecture_report", "hcn", "conjecture_report"),
    ("primes.factorize", "primes", "factorize"),
    ("primes.build_table", "primes", "build_table"),
    ("factored.parse", "factored", "parse"),
    ("factored.to_decimal", "factored", "FactoredInt.to_decimal"),
]

# Spans whose children count toward their parent's self time: the CLI
# handlers only label which subcommand ran, so ``cli.main_self_s`` is the
# CLI's own parsing, payload building and rendering.
TRANSPARENT = {f"cli.{name}" for name in CLI_COMMANDS}


def _period_table_extra(args, kwargs, out):
    return [out.limit, out.divisor_of.nbytes + out.period_of.nbytes]


EXTRA = {"divisor.period_table": _period_table_extra}


class Recorder:
    """Spans as lists ``[name, start, end, parent, extra]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx][4] = type(exc).__name__
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if extra is not None:
                spans[idx][4] = extra(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "divperiod" or key.startswith("divperiod.")]
        for name, module, path in TRACED:
            owner = sys.modules[f"divperiod.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            setattr(owner, attr, wrapper)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def span_cost_s(calls: int = 20_000, repeats: int = 7) -> float:
    """Time one span adds to a call: a wrapped no-op against the bare one.

    The median over ``repeats`` batches of ``calls`` calls each, so that a
    traced round's overhead is this cost times its span count, measured
    apart from the drift between rounds.
    """
    def noop():
        return None

    wrapped = Recorder().wrap("probe", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t = clock()
        for _ in range(calls):
            noop()
        bare = clock() - t
        t = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - t - bare) / calls)
    costs.sort()
    return costs[repeats // 2]


def layer_metrics(spans: list[list], span_cost: float) -> dict[str, float]:
    """Per-layer totals for one round.

    ``<span>_s``, ``<span>_self_s`` and ``<span>_calls`` for every traced
    function, plus the sieve rate, the largest table, the refusals and
    the tracing overhead: ``span_cost`` seconds per span recorded.
    """
    n = len(spans)
    covered = [0.0] * n
    for name, start, end, parent, _ in spans:
        if name in TRANSPARENT:
            continue
        while parent != -1 and spans[parent][0] in TRANSPARENT:
            parent = spans[parent][3]
        if parent != -1:
            covered[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - covered[i])
        calls[name] = calls.get(name, 0) + 1

    out = {}
    for name, _, _ in TRACED:
        out[f"{name}_s"] = total.get(name, 0.0)
        out[f"{name}_self_s"] = own.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)

    sieved = [sp[4] for sp in spans
              if sp[0] == "divisor.period_table" and isinstance(sp[4], list)]
    table_s = out["divisor.period_table_s"]
    out["divisor.period_table_mn_per_s"] = (
        sum(limit for limit, _ in sieved) / table_s / 1e6 if table_s > 0 else 0.0
    )
    out["divisor.table_mb"] = max((nbytes for _, nbytes in sieved), default=0) / 1e6
    out["primes.factorize_refused"] = sum(
        1 for sp in spans if sp[0] == "primes.factorize" and sp[4] == "ResourceLimit"
    )
    out["trace.overhead_s"] = span_cost * n
    return out


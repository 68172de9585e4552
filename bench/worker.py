"""One benchmark round in a fresh interpreter.

Usage: python3 bench/worker.py ROUND_DIR TRACE

Reads ``ROUND_DIR/ops.json`` (written by ``bench/run.py``), imports the
package from ``src/``, runs every operation in order, and writes
``ROUND_DIR/result.json``: set-up time, wall time of the operations, peak
RSS, and per operation its latency, error and result.  CLI operations
write their output to ``ROUND_DIR/out-<i>``.  With TRACE = 1 it also
writes ``ROUND_DIR/spans.json`` and the measured cost of one span.
"""

import json
import resource
import sys
import time
from pathlib import Path

_start = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import divperiod  # noqa: E402
import divperiod.cli  # noqa: E402


def _run(op: dict, out: Path):
    dp = divperiod
    kind = op["kind"]
    if kind == "cli":
        code = dp.cli.main(op["argv"] + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return None
    if kind == "trajectory":
        return dp.divisor.trajectory(op["n"]).steps
    if kind == "period":
        return dp.divisor.period(op["n"])
    if kind == "preimage":
        pre = dp.construct.canonical_preimage(dp.factored.parse(op["text"]))
        return [pre.to_text(), pre.to_decimal()]
    if kind == "increment":
        rep = dp.analysis.theorem2_increment(dp.factored.parse(op["text"]))
        return [rep.delta_log10, rep.bound, rep.bound_holds, rep.hypothesis_holds]
    raise ValueError(f"unknown operation {kind!r}")


def main() -> None:
    round_dir, trace = Path(sys.argv[1]), sys.argv[2] == "1"
    spec = json.loads((round_dir / "ops.json").read_text())
    setup_s = time.perf_counter() - _start

    recorder = None
    if trace:
        sys.path.insert(0, str(ROOT / "bench"))
        from tracing import Recorder, span_cost_s

        recorder = Recorder()
        recorder.install()

    clock = time.perf_counter
    records = []
    wall = clock()
    for i, op in enumerate(spec["ops"]):
        t = clock()
        try:
            result, error = _run(op, round_dir / f"out-{i}"), None
        except Exception as exc:  # a failed request is data, not a crash
            result, error = None, [type(exc).__name__, str(exc)]
        records.append({"t": clock() - t, "error": error, "result": result})
    wall_s = clock() - wall
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb, "ops": records}
    if recorder is not None:
        result["span_cost_s"] = span_cost_s()
        (round_dir / "spans.json").write_text(json.dumps(recorder.spans))
    (round_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()

"""The divperiod benchmark: one workload, timed end to end or per layer.

Usage, from the repository root:

    python3 bench/run.py --workload sieve-scan --seed 1 --seconds 30 --trace 0

The seed generates the workload's inputs (``bench/workloads.py``).  The
run repeats whole rounds of those inputs, each round in a fresh
single-threaded worker process (``bench/worker.py``), until about
``--seconds`` have passed, then checks the first round's outputs against
independent computations (``bench/checks.py``) and every later round's
outputs against the first's.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics, from rounds run with spans around
the package's layer functions (``bench/tracing.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

WORKER_TIMEOUT_S = 150

# A round is one pass over the workload's inputs.  point-queries needs
# four rounds (1,200 requests) so that at least ten lie beyond its p99.
MIN_ROUNDS = {"sieve-scan": 2, "chain-search": 2, "point-queries": 4}
# Set-up takes a tenth of a second and drifts with the CPU: workers that
# run no operation add samples to its median (chain-search makes only
# two rounds).
SETUP_PROBES = 5


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(round_dir: Path, spec: dict, trace: bool) -> dict:
    round_dir.mkdir(parents=True)
    (round_dir / "ops.json").write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(round_dir), "1" if trace else "0"],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads((round_dir / "result.json").read_text())
    if trace:
        from tracing import layer_metrics

        spans = json.loads((round_dir / "spans.json").read_text())
        result["layers"] = layer_metrics(spans, result["span_cost_s"])
    result["digests"] = []
    result["output_bytes"] = 0
    for i, (op, rec) in enumerate(zip(spec["ops"], result["ops"])):
        if op["kind"] == "cli":
            out = round_dir / f"out-{i}"
            data = out.read_bytes() if out.exists() else b""
            result["output_bytes"] += len(data)
            result["digests"].append(hashlib.sha256(data).hexdigest())
        else:
            result["digests"].append(json.dumps([rec["error"], rec["result"]]))
    return result


def expected_failure(op: dict, error: list[str]) -> bool:
    """The one fault kept in the workloads: factorize refusing a fixed semiprime."""
    return op.get("class") == "refused" and error[0] == "ResourceLimit"


def check_rounds(seed: int, spec: dict, rounds: list[dict], first_dir: Path):
    """Failed count and correctness over all rounds."""
    import checks

    ops = spec["ops"]
    rng = random.Random(seed)
    ref = None
    if any(op["kind"] == "cli" for op in ops):
        ref = checks.Reference(checks.reference_limit(ops))
    problems: list[list[str]] = []
    for i, (op, rec) in enumerate(zip(ops, rounds[0]["ops"])):
        try:
            if rec["error"] is not None:
                found = []
            elif op["kind"] == "cli":
                text = (first_dir / f"out-{i}").read_text()
                found = checks.check_cli(op["argv"], text, ref, rng)
            else:
                found = checks.check_point(op, rec["result"])
        except Exception as exc:  # malformed output: report it as a failed check
            found = [f"{type(exc).__name__}: {exc}"]
        problems.append(found)

    correct, failed = True, 0
    for r in rounds:
        for i, (op, rec) in enumerate(zip(ops, r["ops"])):
            bad = problems[i] or r["digests"][i] != rounds[0]["digests"][i]
            if rec["error"] is not None and not expected_failure(op, rec["error"]):
                bad = True
                problems[i] = problems[i] or [f"{rec['error'][0]}: {rec['error'][1]}"]
            if bad or rec["error"] is not None:
                failed += 1
            correct = correct and not bad
    for op, found in zip(ops, problems):
        for p in found[:5]:
            print(f"check failed: {json.dumps(op)[:120]}: {p}", file=sys.stderr)
    return correct, failed


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(rounds: list[dict], probes: list[float]) -> dict[str, float]:
    """Medians over rounds, and percentiles over every operation of the run.

    On point-queries a run holds at least 1,200 requests, so at least ten
    lie beyond the p99.  The batch workloads run an odd number of
    subcommands per round, so there the p50 is the middle subcommand and
    the p99 the slowest one (``bench/README.md``).
    """
    latencies = [rec["t"] * 1e3 for r in rounds for rec in r["ops"]]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": _median(probes + [r["setup_s"] for r in rounds]),
        "wall_s": _median(r["wall_s"] for r in rounds),
        "peak_rss_mb": _median(r["rss_mb"] for r in rounds),
        "query_p50_ms": cuts[49],
        "query_p99_ms": cuts[98],
    }


def per_layer(rounds: list[dict]) -> dict[str, float]:
    out = {key: _median(r["layers"][key] for r in rounds) for key in rounds[0]["layers"]}
    out["cli.output_mb"] = _median(r["output_bytes"] for r in rounds) / 1e6
    return out


def main(argv=None) -> int:
    from workloads import GENERATORS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "divperiod" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = config["per_layer" if args.trace else "end_to_end"]

    spec = {"ops": GENERATORS[args.workload](args.seed)}
    min_rounds = MIN_ROUNDS[args.workload]
    run_dir = BENCH / ".runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        probes = [run_round(run_dir / f"probe-{i}", {"ops": []}, False)["setup_s"]
                  for i in range(0 if args.trace else SETUP_PROBES)]
        rounds, durations = [], []
        start = time.perf_counter()
        while True:
            round_dir = run_dir / f"round-{len(rounds)}"
            t = time.perf_counter()
            rounds.append(run_round(round_dir, spec, bool(args.trace)))
            durations.append(time.perf_counter() - t)
            if len(rounds) > 1:
                shutil.rmtree(round_dir)
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed + _median(durations) > args.seconds:
                break
        checked = time.perf_counter()
        correct, failed = check_rounds(args.seed, spec, rounds, run_dir / "round-0")
        print(f"round seconds: {[round(d, 2) for d in durations]}, "
              f"checks: {time.perf_counter() - checked:.1f} s", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = per_layer(rounds)
    else:
        values = end_to_end(rounds, probes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"rounds: {len(rounds)}, operations attempted: {len(spec['ops']) * len(rounds)}, "
          f"failed: {failed}, correct: {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(spec["ops"]) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark: one command per workload run.

    python3 perfbench/run.py --workload http-churn --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. Workloads: ``http-churn`` (a real
``python -m repro serve`` process over two keep-alive connections) and
``fanin-read`` (an in-process ``RankingService``, thousands of users).
``--trace 0`` prints every
end-to-end metric, ``--trace 1`` runs with the timing wrappers of
``tracer.py`` and prints every per-layer metric. Progress goes to
stdout; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    COLD_STARTS_AFTER,
    COLD_STARTS_BEFORE,
    Result,
    cold_start,
    default_env_here,
    finish,
    log,
    machine_info,
    median,
    python_child,
    read_line,
    until_ready,
)

WORKLOADS = ("http-churn", "fanin-read")


def run_child(script: str, seed: int, seconds: float, trace: int) -> tuple[list[float], dict]:
    """Cold starts of a workload process around one full run of it.

    Returns the set-up seconds of every start (spawn to ``READY``, minus
    the data generation the child reports) and the full run's ``RESULT``.
    The full run is the last start before the load, and it makes the
    starts spread over the load itself; the starts after it only set up.
    """
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = [] if trace else [cold_start(script, args) for _ in range(COLD_STARTS_BEFORE - 1)]
    launched = time.perf_counter()
    proc = python_child(script, args, stdout=subprocess.PIPE)
    try:
        setups.append(until_ready(proc, launched))
        line = read_line(proc)
        while not line.startswith("RESULT "):
            log(line)
            line = read_line(proc)
        out = json.loads(line[len("RESULT "):])
    finally:
        finish(proc)
    if not trace:
        setups += out["setups"] + [cold_start(script, args) for _ in range(COLD_STARTS_AFTER)]
    return setups, out


def load_spec() -> dict:
    """``BENCHMARK.json`` of the checkout: the metric names and units."""
    return json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))


def emit(result: Result, metrics: list[dict], values: dict[str, float]) -> None:
    """Every metric ``BENCHMARK.json`` lists, with its unit from there."""
    for metric in metrics:
        result.metric(metric["name"], values[metric["name"]], metric["unit"])


def end_to_end(out: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics from a workload's output."""
    library = out["library"]
    return {
        "setup_s": median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
        "latency_p50_ms": out["latency"]["p50_ms"],
        "latency_p99_ms": out["latency"]["p99_ms"],
        "max_rate_ops_s": out["max_rate"],
        **library["rates"],
        "aggregate_per_s": library["aggregate_per_s"],
    }


def per_layer(out: dict, workload: str) -> dict[str, float]:
    """The per-layer metrics from a traced workload's output."""
    from report import http_overhead_ms, layer_metrics

    trace = out["trace"]
    values = layer_metrics(trace)
    latency = out.get("latency", {})
    values["http.non2xx"] = latency.get("non2xx", 0) if workload == "http-churn" else 0
    values["http.overhead_p50_ms"] = (
        http_overhead_ms(trace, out["rtt_p50_ms"]) if workload == "http-churn" else 0.0
    )
    if workload == "http-churn":
        # the HTTP layer's self time: the server's CPU not booked to a
        # wrapped layer (framing, JSON, the event loop, decode)
        others = sum(v for k, v in trace["self_s"].items() if k != "serve.http")
        values["self_s.serve.http"] = max(0.0, trace["cpu_s"] - others)
    values["aggregate.candidates"] = out.get("candidates", 0)
    values["generator.lag_ms_p99"] = latency.get("lag_p99_ms", 0.0)
    values["generator.sent"] = latency.get("ops", 0)
    values["trace.overhead_share"] = out["trace_overhead_share"]
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    default_env_here()
    # this process imports repro only to check answers and for the library calls
    sys.path.insert(0, str(Path.cwd() / "src"))
    log("machine", json.dumps(machine_info()))
    log("workload", args.workload, "seed", args.seed, "seconds", args.seconds,
        "trace", args.trace)

    result = Result()
    if args.workload == "http-churn":
        import httpchurn

        result, out = httpchurn.run(args.seed, args.seconds, bool(args.trace))
        setups = out.get("setups", [])
    else:
        setups, out = run_child("fanin.py", args.seed, args.seconds, args.trace)
        result.count(out["attempted"], out["failed"] - len(out["mismatches"]))
        for what in out["mismatches"]:
            result.mismatch(what)
    log("details", json.dumps({k: v for k, v in out.items() if k != "trace"}))
    for what in result.mismatches[:20]:
        log("MISMATCH", what)
    if args.trace:
        emit(result, spec["per_layer"], per_layer(out, args.workload))
    else:
        emit(result, spec["end_to_end"], end_to_end(out, setups))
    print(result.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

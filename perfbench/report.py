"""The per-layer metrics built from a trace.

Their names and units are the ``per_layer`` list of ``BENCHMARK.json``,
which ``run.py`` prints in full. A layer that did no work in a workload
reads 0.
"""

from __future__ import annotations

from common import median
from tracer import LAYERS

_KERNEL_RATES = (
    ("kendall", "kernel.kprof_pairs_per_s"),
    ("kendall_hausdorff", "kernel.khaus_pairs_per_s"),
    ("footrule", "kernel.fprof_pairs_per_s"),
    ("footrule_hausdorff", "kernel.fhaus_pairs_per_s"),
)


def _p50(samples: dict, name: str, scale: float) -> float:
    values = samples.get(name, [])
    return median(values) * scale if values else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one :meth:`tracer.Tracer.summary`."""
    samples, counts = trace["samples"], trace["counts"]
    out: dict[str, float] = {f"self_s.{layer}": trace["self_s"][layer] for layer in LAYERS}
    out["trace.wall_s"] = trace["wall_s"]
    out["io.decode_us_p50"] = _p50(samples, "io.decode", 1e6)
    for route in ("update", "distance", "consensus"):
        out[f"service.{route}_us_p50"] = _p50(samples, f"service.{route}", 1e6)
    out["service.calls"] = sum(
        len(values) for name, values in samples.items() if name.startswith("service.")
    )

    requests = samples.get("batcher.requests_per_flush", [])
    rankings = samples.get("batcher.rankings_per_flush", [])
    out["batcher.flushes"] = len(rankings)
    out["batcher.requests_per_flush_mean"] = sum(requests) / len(requests) if requests else 0.0
    out["batcher.requests_per_flush_max"] = max(requests, default=0)
    out["batcher.rankings_per_flush_mean"] = sum(rankings) / len(rankings) if rankings else 0.0
    out["batcher.rankings_per_flush_max"] = max(rankings, default=0)
    out["batcher.wait_ms_p50"] = _p50(samples, "batcher.wait_s", 1e3)
    computed = counts.get("batcher.pairs_computed", 0)
    out["batcher.useful_pair_share"] = sum(requests) / computed if computed else 0.0
    out["batcher.kernel_busy_share"] = (
        sum(samples.get("batcher.flush_kernel_s", [])) / trace["wall_s"]
    )

    gets = counts.get("cache.gets", 0)
    out["cache.hit_ratio"] = counts.get("cache.hits", 0) / gets if gets else 0.0
    out["cache.invalidations"] = counts.get("cache.invalidations", 0)
    out["cache.evictions"] = counts.get("cache.evictions", 0)
    out["shards.update_us_p50"] = _p50(samples, "shards.update", 1e6)

    out["kernel.calls"] = counts.get("kernel.calls", 0)
    out["kernel.busy_s"] = counts.get("kernel.busy_s", 0.0)
    for metric, name in _KERNEL_RATES:
        seconds = counts.get(f"kernel.seconds.{metric}", 0.0)
        out[name] = counts.get(f"kernel.pairs.{metric}", 0) / seconds if seconds else 0.0
    for strategy in ("dense", "tiled", "pairs"):
        out[f"kernel.strategy_{strategy}"] = counts.get(f"kernel.strategy_{strategy}", 0)
    out["kernel.gemm_ops"] = counts.get("kernel.gemm_ops", 0)

    for method in ("update", "scores", "full_ranking", "partial_ranking"):
        out[f"online.{method}_us_p50"] = _p50(samples, f"online.{method}", 1e6)

    calls = counts.get("kemeny.calls", 0)
    out["kemeny.calls"] = calls
    out["kemeny.us_p50"] = _p50(samples, "kemeny", 1e6)
    out["kemeny.certified_share"] = counts.get("kemeny.certified", 0) / calls if calls else 0.0

    out["aggregate.median_s"] = _p50(samples, "aggregate.median_s", 1.0)
    out["aggregate.minmax_s"] = _p50(samples, "aggregate.minmax_s", 1.0)
    return out


def http_overhead_ms(trace: dict, rtt_p50_ms: float) -> float:
    """Client RTT p50 minus the server's ``RankingService`` call p50.

    Both over the non-distance routes, whose service call never waits on
    the batch window.
    """
    samples = trace["samples"]
    calls = [
        value
        for route in ("update", "remove", "consensus")
        for value in samples.get(f"service.{route}", [])
    ]
    return rtt_p50_ms - median(calls) * 1e3 if calls else 0.0

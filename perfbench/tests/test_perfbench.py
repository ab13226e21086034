"""The benchmark's own tests: metric names, correctness checks, self times.

Run from the repository root:

    python -m pytest perfbench/tests

The smoke runs start real workload processes (about two minutes in all).
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from common import Result

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


#: Per-layer metrics each workload must move in a traced smoke run: one or
#: more per hook family, so a hook that silently stops firing fails here.
#: (``cache.hit_ratio`` is not among them: ``fanin-read`` users are drawn
#: uniformly, so a repeated query pair is rare; the cache's ``get`` hook
#: shows up as ``self_s.serve.cache`` instead.)
LIVE_LAYERS = {
    "fanin-read": ("batcher.flushes", "batcher.rankings_per_flush_mean", "kernel.calls",
                   "kernel.strategy_dense", "kernel.gemm_ops", "self_s.serve.cache",
                   "cache.invalidations", "service.calls", "shards.update_us_p50",
                   "online.update_us_p50", "aggregate.candidates"),
    "http-churn": ("service.calls", "cache.invalidations", "self_s.serve.cache",
                   "online.update_us_p50", "io.decode_us_p50", "batcher.flushes",
                   "kernel.calls"),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1") -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload: str, trace: int) -> None:
    code, stdout = run_bench(workload, trace)
    assert code == 0, stdout[-2000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        metrics = result["metrics"]
        self_total = sum(v["value"] for k, v in metrics.items() if k.startswith("self_s."))
        assert 0 < self_total <= metrics["trace.wall_s"]["value"]
        dead = [name for name in LIVE_LAYERS[workload] if not metrics[name]["value"] > 0]
        assert not dead, f"traced layers read 0 in {workload}: {dead}"


def test_refuses_to_run_outside_a_checkout(tmp_path: Path) -> None:
    code, stdout = run_bench("fanin-read", 0, cwd=tmp_path)
    assert code != 0
    assert '"metrics"' not in stdout


# ----------------------------------------------------------------------
# A planted wrong answer is caught
# ----------------------------------------------------------------------


def _two_rankings():
    from repro.core.partial_ranking import PartialRanking

    sigma = [["a"], ["b", "c"], ["d"]]
    tau = [["d"], ["c"], ["a", "b"]]
    return sigma, tau, PartialRanking(sigma), PartialRanking(tau)


def test_http_distance_check_catches_a_planted_wrong_answer() -> None:
    import httpchurn
    from repro.metrics import kendall

    sigma, tau, s, t = _two_rankings()
    right = float(kendall(s, t))
    answers = [
        (("kendall", sigma, tau), json.dumps({"result": {"distance": right}}).encode()),
        (("kendall", sigma, tau), json.dumps({"result": {"distance": right + 0.5}}).encode()),
    ]
    result = Result()
    result.count(2, 0)
    httpchurn.check_distances(answers, result)
    assert len(result.mismatches) == 1 and result.failed == 1
    assert json.loads(result.line())["correct"] is False


def test_fanin_distance_check_catches_a_planted_wrong_answer() -> None:
    import fanin
    from repro.metrics import footrule

    _, _, s, t = _two_rankings()
    right = float(footrule(s, t))
    result = Result()
    fanin.check_answers(
        [(("distance", 4, s, t, "footrule"), right),
         (("distance", 4, s, t, "footrule"), np.nextafter(right, 0.0))],
        result,
    )
    assert len(result.mismatches) == 1


def test_matrix_spot_check_catches_a_planted_wrong_entry() -> None:
    from libprobe import LibraryProbe, Sizes
    from repro.metrics.batch import pairwise_distance_matrix

    probe = LibraryProbe(Sizes(rankings=6, fhaus_rankings=6, items=5, agg_items=3,
                               agg_voters=3), seed=0)
    matrix = pairwise_distance_matrix(probe.profile, "kendall")
    clean = Result()
    probe._check_matrix(probe.profile, "kendall", matrix, clean)
    assert not clean.mismatches
    planted = matrix + 1.0  # every off-diagonal and diagonal entry wrong
    caught = Result()
    probe._check_matrix(probe.profile, "kendall", planted, caught)
    assert caught.mismatches


def test_consensus_check_catches_a_planted_wrong_answer(monkeypatch) -> None:
    import fanin
    from repro.serve import RankingService

    model = fanin.Model(seed=0, users=fanin.VOTERS_PER_DOMAIN)

    async def scenario(plant: bool) -> Result:
        service = RankingService()
        for size, voters in model.voters.items():
            for voter, ranking in voters.items():
                await service.update(model.domains[size], voter, ranking)
        if plant:
            original = RankingService.consensus

            async def wrong(self, domain, kind="full", k=None):
                value = await original(self, domain, kind, k)
                if kind == "scores":
                    value = {item: score + 1.0 for item, score in value.items()}
                return value

            monkeypatch.setattr(RankingService, "consensus", wrong)
        result = Result()
        await fanin.check_consensus(service, model, result)
        return result

    assert not asyncio.run(scenario(plant=False)).mismatches
    assert len(asyncio.run(scenario(plant=True)).mismatches) == len(model.sizes)


# ----------------------------------------------------------------------
# Latency over segments
# ----------------------------------------------------------------------


def test_latency_reads_the_quietest_segment() -> None:
    from loadgen import PhaseStats, summarize

    def segment(p99: float) -> PhaseStats:
        # 1,000 operations: 989 at 1 ms and 11 at the segment's p99
        return PhaseStats(rate=200.0, latencies=[1.0] * 989 + [p99] * 11)

    # stalls hit four of five segments; the lowest p99 is the clean one
    stats = summarize([segment(p99) for p99 in (7.0, 24.0, 6.0, 11.0, 9.0)])
    assert stats["p99_ms"] == 6.0
    assert stats["p50_ms"] == 1.0
    assert stats["segment_p99_ms"] == [7.0, 24.0, 6.0, 11.0, 9.0]
    # one segment (the traced run) is read as it is
    assert summarize([segment(7.0)])["p99_ms"] == 7.0


# ----------------------------------------------------------------------
# Self times
# ----------------------------------------------------------------------


def test_traced_self_times_sum_to_no_more_than_wall_time() -> None:
    import time

    from repro.core.partial_ranking import PartialRanking
    from tracer import LAYERS, Tracer

    from repro.serve import RankingService

    rng = np.random.default_rng(0)
    items = [f"i{k}" for k in range(10)]

    def ranking():
        return PartialRanking([[items[k]] for k in rng.permutation(len(items))])

    async def load(service: RankingService) -> None:
        for voter in range(20):
            await service.update(items, f"v{voter}", ranking())
        calls = []
        for _ in range(200):
            calls.append(service.distance(items, ranking(), ranking(), "kendall"))
            calls.append(service.consensus(items, "partial"))
            calls.append(service.update(items, f"v{int(rng.integers(20))}", ranking()))
        await asyncio.gather(*calls)
        await service.drain()

    tracer = Tracer().install()
    try:
        start = time.perf_counter()
        asyncio.run(load(RankingService()))
        wall = time.perf_counter() - start
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    self_times = summary["self_s"]
    assert set(self_times) == set(LAYERS)
    assert all(value >= 0 for value in self_times.values())
    assert 0 < sum(self_times.values()) <= min(wall, summary["wall_s"])
    # concurrent requests: every service call was recorded once
    assert len(summary["samples"]["service.distance"]) == 200
    assert summary["samples"]["batcher.requests_per_flush"]


def test_uninstall_restores_every_entry_point() -> None:
    import repro.metrics.batch as mbatch
    import repro.serve.batching as batching
    from tracer import Tracer

    from repro.serve import RankingService

    before = (RankingService.distance, mbatch.pairwise_distance_matrix,
              batching.pairwise_distance_matrix)
    tracer = Tracer().install()
    assert RankingService.distance is not before[0]
    tracer.uninstall()
    after = (RankingService.distance, mbatch.pairwise_distance_matrix,
             batching.pairwise_distance_matrix)
    assert after == before


@pytest.mark.parametrize(
    "module, attr",
    [("repro.metrics.batch", "_pair_counts_dense"),
     ("repro.serve.batching", "pairwise_distance_matrix")],
)
def test_install_fails_when_a_hook_target_is_gone(monkeypatch, module: str, attr: str) -> None:
    import importlib

    from tracer import Tracer

    from repro.serve import RankingService

    before = RankingService.distance
    monkeypatch.delattr(importlib.import_module(module), attr)
    with pytest.raises(RuntimeError, match=attr):
        Tracer().install()
    # the hooks placed before the missing one were taken out again
    assert RankingService.distance is before

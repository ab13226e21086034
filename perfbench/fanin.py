"""The ``fanin-read`` workload process: an in-process ``RankingService``.

Started by ``run.py``. The set-up the parent times is: import
``repro.serve``, build a :class:`RankingService` and pre-seed one shard
per domain with 200 voters. The process then prints ``READY <seconds
spent generating data>`` (subtracted by the parent) and, unless
``--setup-only``, measures and prints ``RESULT <json>``.

Thousands of simulated users (1,000 per domain, each with a distinct
literal ranking) send distance queries on an open-loop schedule, one
coroutine per operation, with no sockets. Users and their peers are
drawn uniformly, so nearly every query pair is new to the result cache
and the batcher sees distinct rankings. About 5% of operations are updates, which replace the user's ranking
(and the literal the user sends afterwards) and invalidate the shard's
cached answers.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time

import numpy as np

from common import COLD_STARTS_DURING, Result, cold_start, peak_rss_mb_self
from datagen import sources

from repro.core.partial_ranking import PartialRanking
from repro.serve import RankingService

#: Offered rate of the fixed-rate latency phase: about a tenth of the max
#: rate measured on a 2-core box (4,100-5,900 ops/s). Nearer the max rate
#: a slow spell of the machine multiplies the p99 by 2-3.
NOMINAL_RATE = 500.0

#: Where the max-rate search starts.
SEARCH_START = 3000.0

USERS_PER_DOMAIN = 1000
VOTERS_PER_DOMAIN = 200
UPDATE_SHARE = 0.05
METRICS = (("kendall", 0.85), ("footrule", 0.05), ("kendall_hausdorff", 0.05),
           ("footrule_hausdorff", 0.05))

#: Shares of ``--seconds``: the latency phase, and the max-rate search with
#: a round of library calls after every probe and latency segment.
BUDGET = {"latency": 0.45, "search": 0.55}

#: Distance answers kept for the correctness check, per phase.
CHECK_EVERY = 7


class Model:
    """Seeded users, their current rankings, and the operation stream.

    ``users`` per domain; the first :data:`VOTERS_PER_DOMAIN` of them are
    the shards' pre-seeded voters.
    """

    def __init__(self, seed: int, users: int = USERS_PER_DOMAIN) -> None:
        self.rng = np.random.default_rng([seed, 3])
        self.sources = sources(seed, 2)
        self.domains = {size: frozenset(src.items) for size, src in self.sources.items()}
        self.sizes = list(self.sources)
        self.current = {
            size: [PartialRanking(src.fresh()) for _ in range(users)]
            for size, src in self.sources.items()
        }
        self.users = users
        self.metric_names = [name for name, _ in METRICS]
        self.metric_p = np.array([share for _, share in METRICS])
        # the shards' voter maps, as the service should hold them
        self.voters = {
            size: {f"u{u}": self.current[size][u] for u in range(VOTERS_PER_DOMAIN)}
            for size in self.sizes
        }

    def ops(self, count: int) -> list[tuple]:
        """The next ``count`` operations of the stream."""
        rng = self.rng
        kinds = rng.random(count) < UPDATE_SHARE
        domains = rng.integers(0, len(self.sizes), size=count)
        users = rng.integers(0, self.users, size=(count, 2))
        metrics = rng.choice(len(self.metric_names), size=count, p=self.metric_p)
        out: list[tuple] = []
        for i in range(count):
            size = self.sizes[int(domains[i])]
            u, v = int(users[i, 0]), int(users[i, 1])
            if kinds[i]:
                ranking = PartialRanking(self.sources[size].fresh())
                self.current[size][u] = ranking
                self.voters[size][f"u{u}"] = ranking
                out.append(("update", size, f"u{u}", ranking))
            else:
                if u == v:
                    v = (v + 1) % self.users
                sigma, tau = self.current[size][u], self.current[size][v]
                out.append(("distance", size, sigma, tau, self.metric_names[int(metrics[i])]))
        return out


async def run_phase(service, model: Model, rate: float, seconds: float, answers: list):
    """One fixed-rate open-loop phase; returns :class:`loadgen.PhaseStats`."""
    from loadgen import PhaseStats

    ops = model.ops(max(1, int(rate * seconds)))
    # an operation that never finishes keeps ``inf``: it misses every limit
    stats = PhaseStats(rate=rate, latencies=[float("inf")] * len(ops))
    domains = model.domains
    tasks: set[asyncio.Task] = set()
    clock = time.perf_counter

    async def one(index: int, op: tuple, due: float) -> None:
        try:
            if op[0] == "update":
                await service.update(domains[op[1]], op[2], op[3])
            else:
                value = await service.distance(domains[op[1]], op[2], op[3], op[4])
                if index % CHECK_EVERY == 0:
                    answers.append((op, value))
            stats.latencies[index] = (clock() - due) * 1e3
        except Exception:  # counted: a failed operation misses every limit
            stats.latencies[index] = float("inf")
            stats.failed += 1

    loop = asyncio.get_running_loop()
    t0 = clock() + 0.005
    i = 0
    while i < len(ops):
        now = clock()
        while i < len(ops) and t0 + i / rate <= now:
            due = t0 + i / rate
            stats.lags.append((now - due) * 1e3)
            task = loop.create_task(one(i, ops[i], due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            i += 1
        if i < len(ops):
            await asyncio.sleep(max(0.0, t0 + i / rate - clock()))
    stats.backlog = len(tasks)
    if tasks:
        _, pending = await asyncio.wait(set(tasks), timeout=60)
        # timed out: cancelled, counted failed, and kept out of the next phase
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        stats.failed += len(pending)
    await service.drain()
    return stats


def check_answers(answers: list, result: Result) -> None:
    from libprobe import SCALAR

    for op, value in answers:
        expected = float(SCALAR[op[4]](op[2], op[3]))
        if value != expected:
            result.mismatch(f"{op[4]} distance {value!r} != scalar {expected!r}")


async def check_consensus(service, model: Model, result: Result) -> None:
    """Quiet point: every consensus kind against ``median_*_batch``."""
    from repro.aggregate import (
        median_full_ranking_batch,
        median_partial_ranking_batch,
        median_scores_batch,
        median_top_k_batch,
    )

    for size in model.sizes:
        profile = list(model.voters[size].values())
        expected = {
            ("scores", None): median_scores_batch(profile),
            ("full", None): median_full_ranking_batch(profile),
            ("partial", None): median_partial_ranking_batch(profile),
            ("topk", 3): median_top_k_batch(profile, 3),
        }
        for (kind, k), want in expected.items():
            got = await service.consensus(model.domains[size], kind, k)
            result.count(1, 0)
            if got != want:
                result.mismatch(f"consensus {kind} on the {size}-item domain differs")


async def measure(args, model: Model, service, result: Result) -> dict:
    from libprobe import SIZES, LibraryProbe
    from loadgen import latency_and_max_rate, summarize

    answers: list = []
    out: dict = {}
    seconds = args.seconds

    async def phase(rate: float, length: float):
        stats = await run_phase(service, model, rate, length, answers)
        result.count(len(stats.latencies), stats.failed)
        return stats

    lib = LibraryProbe(SIZES, args.seed)
    if not args.trace:

        async def spare_start() -> float:
            # no load is offered meanwhile, so blocking the loop is fine
            return cold_start("fanin.py", ["--seed", str(args.seed), "--seconds", str(seconds)])

        latency, search, out["peak_rss_mb"], out["setups"] = await latency_and_max_rate(
            phase, NOMINAL_RATE, seconds * BUDGET["latency"], SEARCH_START,
            seconds * BUDGET["search"], peak_rss_mb_self, lambda: lib.round(result),
            spare_start, COLD_STARTS_DURING,
        )
        out["latency"] = summarize(latency)
        out["max_rate"] = search.estimate
        out["search"] = search.history
        out["library"] = lib.finish(result)
    else:
        from tracer import Tracer

        length = seconds * 0.45
        cpu = time.process_time()
        await phase(NOMINAL_RATE, length)
        untraced_cpu = time.process_time() - cpu
        tracer = Tracer().install()
        try:
            cpu = time.process_time()
            traced = await phase(NOMINAL_RATE, length)
            traced_cpu = time.process_time() - cpu
            # the aggregate.minmax layer runs only here
            lib.finish(result)
            out["trace"] = tracer.summary()
        finally:
            tracer.uninstall()
        out["latency"] = summarize([traced])
        out["trace_overhead_share"] = traced_cpu / untraced_cpu - 1.0
        out["candidates"] = lib.candidates()
    check_answers(answers, result)
    await check_consensus(service, model, result)
    return out


async def main_async(args) -> None:
    gen_start = time.perf_counter()
    model = Model(args.seed, users=VOTERS_PER_DOMAIN if args.setup_only else USERS_PER_DOMAIN)
    gen_s = time.perf_counter() - gen_start
    service = RankingService()
    for size, voters in model.voters.items():
        for voter, ranking in voters.items():
            await service.update(model.domains[size], voter, ranking)
    print(f"READY {gen_s:.6f}", flush=True)
    if args.setup_only:
        return
    result = Result()
    out = await measure(args, model, service, result)
    out["attempted"], out["failed"] = result.attempted, result.failed
    out["mismatches"] = result.mismatches
    print("RESULT " + json.dumps(out), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    asyncio.run(main_async(args))


if __name__ == "__main__":
    main()

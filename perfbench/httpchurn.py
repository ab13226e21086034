"""The ``http-churn`` workload: a real ``python -m repro serve`` process.

One client process (this one) drives the server over two keep-alive
connections on an open-loop schedule; each request is timed from when
it was due. The mix, over four domains (12/24/48/96 string items):

* 45% ``update``: replace a churn voter's ranking (or re-add a removed
  one) with a fresh bucketized-Mallows ranking;
* 5% ``remove`` of a churn voter;
* 30% ``consensus``: ``scores`` / ``full`` / ``partial`` / ``topk`` on a
  random domain, and rarely ``kemeny`` on the banded 24-item domain;
* 20% ``distance``: a fresh literal against a pinned voter reference or
  a second fresh literal, mostly Kendall.

Pinned voters are never mutated, and no voter is mutated twice within
:data:`GAP` operations, so requests that the two connections reorder can
never change an answer or the final voter maps. That makes every
distance answer and every quiet-point consensus answer checkable.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import subprocess
import sys
import time

import numpy as np

from common import (
    COLD_STARTS_AFTER,
    COLD_STARTS_BEFORE,
    COLD_STARTS_DURING,
    HERE,
    Result,
    child_env,
    cpu_seconds_pid,
    median,
    peak_rss_mb_pid,
    percentile,
    stop_process,
    work_dir,
)
from datagen import DOMAIN_SIZES, sources
from loadgen import PhaseStats, latency_and_max_rate, summarize

#: Offered rate of the fixed-rate latency phase: about a sixth of the max
#: rate measured on a 2-core box (1,100-1,400 ops/s). The box stalls for
#: 15-30 ms every few seconds; at this rate one stall delays about 5
#: operations, fewer than the 10 a segment's p99 has beyond it.
NOMINAL_RATE = 200.0

#: Where the max-rate search starts: near the max rates measured, so the
#: search brackets in few probes and spends its time on the staircase.
SEARCH_START = 1250.0

CONNECTIONS = 2
PINNED = 12
CHURN = 52
MIN_PRESENT = 36
#: Operations between two mutations of the same voter.
GAP = 64
KEMENY_DOMAIN = 24

MIX = (("update", 0.45), ("remove", 0.05), ("consensus", 0.30), ("distance", 0.20))
CONSENSUS_KINDS = ("scores", "full", "partial", "topk")
KEMENY_SHARE = 1 / 30  # of consensus operations
METRICS = (("kendall", 0.6), ("footrule", 0.2), ("kendall_hausdorff", 0.1),
           ("footrule_hausdorff", 0.1))

#: Shares of ``--seconds``: the latency phase, and the max-rate search with
#: a round of library calls after every probe and latency segment.
BUDGET = {"latency": 0.45, "search": 0.55}

#: Every this many distance answers is checked against the scalar metric.
CHECK_EVERY = 3


def _request(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


class ChurnModel:
    """Seeded voters and the request stream; tracks the voter maps."""

    def __init__(self, seed: int) -> None:
        self.sources = sources(seed, 4)
        self.rng = np.random.default_rng([seed, 5])
        self.items = {size: src.items for size, src in self.sources.items()}
        self.voters: dict[int, dict[str, list]] = {}
        self.absent: dict[int, list[str]] = {size: [] for size in DOMAIN_SIZES}
        self.touched: dict[tuple[int, str], int] = {}
        self.index = 0
        for size, src in self.sources.items():
            names = [f"p{i}" for i in range(PINNED)] + [f"c{i}" for i in range(CHURN)]
            self.voters[size] = {name: src.fresh() for name in names}

    def preseed(self) -> list[bytes]:
        return [
            _request("/v1/update", {"domain": self.items[size], "voter": v, "ranking": {"buckets": b}})
            for size, voters in self.voters.items()
            for v, b in voters.items()
        ]

    def _untouched(self, size: int, names: list[str]) -> str | None:
        for _ in range(20):
            name = names[int(self.rng.integers(len(names)))]
            if self.index - self.touched.get((size, name), -GAP) >= GAP:
                return name
        return None

    def _mutation(self, size: int, kind: str) -> tuple | None:
        churn = [v for v in self.voters[size] if v.startswith("c")]
        if kind == "remove" and len(churn) > MIN_PRESENT:
            voter = self._untouched(size, churn)
            if voter is not None:
                del self.voters[size][voter]
                self.absent[size].append(voter)
                self.touched[(size, voter)] = self.index
                return ("remove", _request(
                    "/v1/remove", {"domain": self.items[size], "voter": voter}), None)
        readd = self.absent[size] and self.rng.random() < 0.1
        voter = self._untouched(size, self.absent[size] if readd else churn)
        if voter is None:
            return None
        if readd:
            self.absent[size].remove(voter)
        ranking = self.sources[size].fresh()
        self.voters[size][voter] = ranking
        self.touched[(size, voter)] = self.index
        return ("update", _request("/v1/update", {
            "domain": self.items[size], "voter": voter, "ranking": {"buckets": ranking}}), None)

    def ops(self, count: int) -> list[tuple]:
        """The next ``count`` requests: ``(kind, bytes, check info)``."""
        rng = self.rng
        kinds = [name for name, _ in MIX]
        picks = rng.choice(len(kinds), size=count, p=[share for _, share in MIX])
        metric_names = [name for name, _ in METRICS]
        out = []
        while len(out) < count:
            kind = kinds[int(picks[len(out)])]
            size = DOMAIN_SIZES[int(rng.integers(len(DOMAIN_SIZES)))]
            op = None
            if kind in ("update", "remove"):
                op = self._mutation(size, kind)
            elif kind == "consensus":
                if rng.random() < KEMENY_SHARE:
                    payload = {"domain": self.items[KEMENY_DOMAIN], "kind": "kemeny"}
                    op = ("kemeny", _request("/v1/consensus", payload), None)
                else:
                    cons = CONSENSUS_KINDS[int(rng.integers(len(CONSENSUS_KINDS)))]
                    payload = {"domain": self.items[size], "kind": cons}
                    if cons == "topk":
                        payload["k"] = int(rng.integers(1, size + 1))
                    op = ("consensus", _request("/v1/consensus", payload), None)
            else:
                metric = metric_names[int(rng.choice(len(METRICS), p=[s for _, s in METRICS]))]
                sigma = self.sources[size].fresh()
                if rng.random() < 0.5:
                    pinned = f"p{int(rng.integers(PINNED))}"
                    tau, tau_json = self.voters[size][pinned], {"voter": pinned}
                else:
                    tau = self.sources[size].fresh()
                    tau_json = {"buckets": tau}
                payload = {"domain": self.items[size], "sigma": {"buckets": sigma},
                           "tau": tau_json, "metric": metric}
                op = ("distance", _request("/v1/distance", payload), (metric, sigma, tau))
            if op is not None:
                out.append(op)
                self.index += 1
        return out


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive connection; one request in flight at a time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    @classmethod
    async def open(cls, port: int) -> "Connection":
        conn = cls(port)
        await conn.reopen()
        return conn

    async def reopen(self) -> None:
        """(Re)connect; after a timed-out request the stream is out of step."""
        if self.writer is not None:
            await self.close()
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def call(self, request: bytes) -> tuple[int, bytes]:
        self.writer.write(request)
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        start = head.index(b"Content-Length:") + 15
        length = int(head[start : head.index(b"\r\n", start)])
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def run_phase(conns: list[Connection], ops: list[tuple], rate: float,
                    answers: list, rtts: list | None = None) -> PhaseStats:
    """One fixed-rate open-loop phase over all connections."""
    stats = PhaseStats(rate=rate, latencies=[0.0] * len(ops))
    clock = time.perf_counter
    t0 = clock() + 0.005
    cursor = [0]
    finished = [0.0] * len(ops)

    async def worker(conn: Connection) -> None:
        while cursor[0] < len(ops):
            i = cursor[0]
            cursor[0] += 1
            due = t0 + i / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
                stats.lags.append((clock() - due) * 1e3)
            kind, request, check = ops[i]
            sent = clock()
            try:
                status, body = await asyncio.wait_for(conn.call(request), timeout=30)
            except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError):
                status, body = 0, b""
                await conn.reopen()
            done = finished[i] = clock()
            if status != 200:
                stats.latencies[i] = float("inf")
                stats.failed += 1
                continue
            stats.latencies[i] = (done - due) * 1e3
            if rtts is not None and kind != "distance":
                rtts.append(done - sent)
            if kind == "distance" and i % CHECK_EVERY == 0:
                answers.append((check, body))

    await asyncio.gather(*(worker(conn) for conn in conns))
    # operations still open when the schedule ended (sent or not)
    end_of_schedule = t0 + (len(ops) - 1) / rate
    stats.backlog = sum(1 for done in finished if done > end_of_schedule)
    return stats


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------


class Server:
    """One server process plus the client's connections to it."""

    def __init__(self, traced: bool, name: str) -> None:
        self.log_path = work_dir() / f"{name}.log"
        self.dump_path = work_dir() / f"{name}.trace.json"
        self.dump_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(self.dump_path)]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [*argv, "--port", "0"], env=child_env(), stdout=self._log, stderr=self._log
        )
        self.conns: list[Connection] = []
        self.port = 0

    async def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        marker = b"listening on http://"
        while time.perf_counter() < deadline:
            text = self.log_path.read_bytes()
            at = text.find(marker)
            if at >= 0 and b"\n" in text[at:]:
                line = text[at + len(marker) : text.index(b"\n", at)]
                self.port = int(line.rsplit(b":", 1)[1])
                return
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {text.decode(errors='replace')}")
            await asyncio.sleep(0.002)
        raise RuntimeError("server did not start listening")

    async def connect(self) -> None:
        self.conns = [await Connection.open(self.port) for _ in range(CONNECTIONS)]

    async def preseed(self, requests: list[bytes]) -> None:
        async def feed(conn: Connection, chunk: list[bytes]) -> None:
            for request in chunk:
                status, body = await conn.call(request)
                if status != 200:
                    raise RuntimeError(f"pre-seed failed: {status} {body[:200]!r}")

        await asyncio.gather(
            *(feed(conn, requests[k::CONNECTIONS]) for k, conn in enumerate(self.conns))
        )

    async def stop(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []
        stop_process(self.proc)
        self._log.close()

    def signal_dump(self, timeout: float = 30.0) -> dict:
        self.proc.send_signal(signal.SIGUSR2)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.dump_path.exists():
                return json.loads(self.dump_path.read_text())
            time.sleep(0.01)
        raise RuntimeError("traced server wrote no dump")


async def start_server(model_requests: list[bytes], traced: bool, name: str) -> tuple[Server, float]:
    """Launch, wait for the bind, connect and pre-seed; returns set-up seconds."""
    start = time.perf_counter()
    server = Server(traced, name)
    try:
        await server.wait_listening()
        await server.connect()
        await server.preseed(model_requests)
    except BaseException:
        await server.stop()
        raise
    return server, time.perf_counter() - start


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_distances(answers: list, result: Result) -> None:
    from libprobe import SCALAR
    from repro.core.partial_ranking import PartialRanking

    for (metric, sigma, tau), body in answers:
        got = json.loads(body)["result"]["distance"]
        expected = float(SCALAR[metric](PartialRanking(sigma), PartialRanking(tau)))
        if got != expected:
            result.mismatch(f"{metric} distance {got!r} != scalar {expected!r}")


async def check_consensus(server: Server, model: ChurnModel, result: Result) -> None:
    """Quiet point: consensus answers against ``median_*_batch`` / Kemeny."""
    from repro.aggregate import (
        kemeny_decomposed,
        median_full_ranking_batch,
        median_partial_ranking_batch,
        median_scores_batch,
        median_top_k_batch,
    )
    from repro.core.partial_ranking import PartialRanking

    conn = server.conns[0]
    for size in DOMAIN_SIZES:
        profile = [PartialRanking(b) for b in model.voters[size].values()]
        expected = {
            "scores": median_scores_batch(profile),
            "full": median_full_ranking_batch(profile),
            "partial": median_partial_ranking_batch(profile),
            "topk": median_top_k_batch(profile, 3),
        }
        if size == KEMENY_DOMAIN:
            expected["kemeny"] = kemeny_decomposed(profile, require_exact=True).ranking
        for kind, want in expected.items():
            payload = {"domain": model.items[size], "kind": kind}
            if kind == "topk":
                payload["k"] = 3
            status, body = await conn.call(_request("/v1/consensus", payload))
            result.count(1, 0)
            if status != 200:
                result.mismatch(f"consensus {kind} on {size} items: HTTP {status}")
                continue
            value = json.loads(body)["result"]
            got = (
                {item: score for item, score in value["scores"]}
                if kind == "scores"
                else PartialRanking(value["buckets"])
            )
            if got != want:
                result.mismatch(f"consensus {kind} on the {size}-item domain differs")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> tuple[Result, dict]:
    return asyncio.run(_run(seed, seconds, trace))


async def _run(seed: int, seconds: float, trace: bool) -> tuple[Result, dict]:
    model = ChurnModel(seed)
    preseed = model.preseed()
    result = Result()
    out: dict = {}
    answers: list = []

    async def phase(server: Server, rate: float, length: float, rtts=None) -> PhaseStats:
        stats = await run_phase(server.conns, model.ops(max(1, int(rate * length))), rate,
                                answers, rtts)
        result.count(len(stats.latencies), stats.failed)
        return stats

    if not trace:
        setups = []
        server = None
        for start in range(COLD_STARTS_BEFORE):
            if server is not None:
                await server.stop()
            server, setup = await start_server(preseed, False, f"server-{start}")
            setups.append(setup)
        # library calls run in this process, between probes (server idle)
        from libprobe import SIZES, LibraryProbe

        lib = LibraryProbe(SIZES, seed)
        spares = itertools.count()

        async def spare_start() -> float:
            """One cold start of a server that is stopped once set up."""
            spare, setup = await start_server(preseed, False, f"server-spare-{next(spares)}")
            await spare.stop()
            return setup

        try:
            latency, search, out["peak_rss_mb"], during = await latency_and_max_rate(
                lambda rate, length: phase(server, rate, length),
                NOMINAL_RATE, seconds * BUDGET["latency"], SEARCH_START,
                seconds * BUDGET["search"], lambda: peak_rss_mb_pid(server.proc.pid),
                lambda: lib.round(result), spare_start, COLD_STARTS_DURING,
            )
            setups += during
            out["latency"] = summarize(latency)
            out["max_rate"] = search.estimate
            out["search"] = search.history
            await check_consensus(server, model, result)
        finally:
            await server.stop()
        out["library"] = lib.finish(result)
        # the cold starts after the load only set up
        setups += [await spare_start() for _ in range(COLD_STARTS_AFTER)]
        out["setup_s"] = median(setups)
        out["setups"] = setups
    else:
        length = seconds * 0.45
        server, _ = await start_server(preseed, False, "server-plain")
        try:
            cpu = cpu_seconds_pid(server.proc.pid)
            await phase(server, NOMINAL_RATE, length)
            untraced_cpu = cpu_seconds_pid(server.proc.pid) - cpu
        finally:
            await server.stop()
        # a fresh model: the traced server starts from the same pre-seed
        model = ChurnModel(seed)
        server, _ = await start_server(preseed, True, "server-traced")
        try:
            server.proc.send_signal(signal.SIGUSR1)  # reset: count the phase only
            await asyncio.sleep(0.05)
            cpu = cpu_seconds_pid(server.proc.pid)
            rtts: list[float] = []
            traced = await phase(server, NOMINAL_RATE, length, rtts)
            traced_cpu = cpu_seconds_pid(server.proc.pid) - cpu
            out["trace"] = server.signal_dump()
            await check_consensus(server, model, result)
        finally:
            await server.stop()
        out["latency"] = summarize([traced])
        out["rtt_p50_ms"] = percentile([r * 1e3 for r in rtts], 50)
        out["trace_overhead_share"] = traced_cpu / untraced_cpu - 1.0
    check_distances(answers, result)
    return result, out

"""Open-loop accounting shared by the two serving workloads.

A probe offers operations at a fixed rate on a schedule and times every
operation from when it was *due*, so a stall also charges the requests
queued behind it. An operation that fails or is refused counts as
``inf`` (over any limit). :class:`RateSearch` finds the highest
offered rate whose p99 stays within :data:`common.LATENCY_LIMIT_MS` with
no growing backlog.
"""

from __future__ import annotations

import math
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field

from common import LATENCY_LIMIT_MS, log, percentile, supported_percentile

#: Final bracket of the max-rate search: hi / lo at most this. It is finer
#: than the metric's regression bound, so a coarse ladder cannot flip a
#: result between rungs.
FINAL_STEP = 1.03

#: Bracket growth while looking for the first passing / failing rate.
EXPAND = 1.15

#: Fewest operations per probe or latency segment: the p99 then has at
#: least 10 samples beyond it.
MIN_PROBE_OPS = 1000

#: Untimed operations at the nominal rate before the first segment: the
#: first requests a fresh process serves pay for lazy imports and cold
#: caches.
WARMUP_S = 1.0

#: Most latency segments per run: a library round follows each one, so
#: more segments would stretch a run past its ``--seconds``.
MAX_SEGMENTS = 10


@dataclass
class PhaseStats:
    """Latencies (ms, ``inf`` = failed) of one fixed-rate phase."""

    rate: float
    latencies: list[float] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    backlog: int = 0  # operations still open when the schedule ended
    failed: int = 0

    def p(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def p99_q(self) -> float:
        return supported_percentile(len(self.latencies))

    def p99(self) -> float:
        return self.p(self.p99_q)

    def passes(self) -> bool:
        """p99 within the limit and no growing backlog.

        A backlog is "growing" when more operations are still open at the
        end of the schedule than arrive within one latency limit.
        """
        limit_ops = self.rate * LATENCY_LIMIT_MS / 1e3
        return self.p99() <= LATENCY_LIMIT_MS and self.backlog <= max(2.0, limit_ops)


def probe_seconds(rate: float, floor: float = 1.0) -> float:
    return max(floor, MIN_PROBE_OPS / rate)


class RateSearch:
    """The highest rate that meets the limit, as a staircase estimate.

    Drive it with ``while (rate := search.more(deadline)) is not None``
    and feed each probe's outcome to :meth:`record`. It brackets from
    ``start`` by factors of :data:`EXPAND`, bisects in log space until
    ``hi / lo <= FINAL_STEP``, then runs an up-down staircase at that
    step until the time is spent. On a noisy machine a single "highest
    passing rate" flips between neighbouring rates; the staircase visits
    the rates around the limit repeatedly, and :attr:`estimate` is their
    geometric mean. A staircase that walks two steps out of the bracket
    brackets again from there, so one unlucky probe cannot pin the search.
    Until some rate has passed the search keeps lowering the rate, down
    to ``floor_rate``.
    """

    def __init__(self, start: float, floor_rate: float = 20.0) -> None:
        self.lo: float | None = None
        self.hi: float | None = None
        self._start = start
        self._floor = floor_rate
        self._last: tuple[float, bool] | None = None
        self.staircase: list[float] = []
        self.history: list[tuple[float, bool, float]] = []

    def next(self) -> float:
        """The rate of the next probe."""
        lo, hi = self.lo, self.hi
        if lo is None and hi is None:
            return self._start
        if lo is None:
            rate = hi / EXPAND
            if rate < self._floor:
                raise RuntimeError(f"no rate down to {self._floor} ops/s passed")
            return rate
        if hi is None:
            return lo * EXPAND
        if not self._converged():
            return math.sqrt(lo * hi)
        # the staircase: one step up after a pass, one step down after a fail
        last_rate, last_ok = self._last
        return last_rate * FINAL_STEP if last_ok else last_rate / FINAL_STEP

    def record(self, rate: float, stats: PhaseStats) -> None:
        ok = stats.passes()
        self.history.append((rate, ok, stats.p99()))
        log(f"  probe {rate:8.1f} ops/s  p99 {stats.p99():9.2f} ms  backlog "
            f"{stats.backlog:5d}  {'pass' if ok else 'FAIL'}")
        if not self._converged():
            if ok:
                self.lo = rate
            else:
                self.hi = rate
        elif ok and rate >= self.hi * FINAL_STEP**2:
            # a pass two steps above the bracket: its fail was a fluke or
            # the limit moved; bracket again upward from here
            self.lo, self.hi, self.staircase = rate, None, []
        elif not ok and rate <= self.lo / FINAL_STEP**2:
            self.lo, self.hi, self.staircase = None, rate, []
        else:
            self.staircase.append(rate)
        self._last = (rate, ok)

    def _converged(self) -> bool:
        return self.lo is not None and self.hi is not None and self.hi / self.lo <= FINAL_STEP

    def more(self, deadline: float) -> float | None:
        """The next rate to probe, or None once a rate passed and time is up."""
        if self.lo is not None and time.perf_counter() >= deadline:
            return None
        return self.next()

    @property
    def estimate(self) -> float:
        """Geometric mean of the staircase rates (the highest pass without one)."""
        if not self.staircase:
            return self.lo
        return math.exp(sum(math.log(rate) for rate in self.staircase) / len(self.staircase))


async def latency_and_max_rate(
    phase: Callable[[float, float], Awaitable[PhaseStats]],
    nominal: float,
    latency_s: float,
    start: float,
    search_s: float,
    rss: Callable[[], float],
    between: Callable[[], None],
    cold_start: Callable[[], Awaitable[float]],
    cold_starts: int,
) -> tuple[list[PhaseStats], RateSearch, float, list[float]]:
    """The fixed-rate latency phase and the max-rate search, interleaved.

    A warm-up of :data:`WARMUP_S` at the nominal rate comes first and is
    not timed. The latency phase then runs as segments of at least
    :data:`MIN_PROBE_OPS` operations (3 to :data:`MAX_SEGMENTS` of them),
    spread evenly over the run with search probes between them, so a slow
    spell of the machine lands on both metrics and cannot cover every
    segment unless it lasts the whole run; :func:`summarize` reads the
    quietest segment. ``phase(rate, seconds)`` runs one
    open-loop phase. ``rss()`` reads the peak RSS of the process running
    ``repro``; it is read after the first segment, so it covers set-up
    and steady load but no overload probe. ``between()`` runs after every
    segment and probe, while no load is offered. So do the
    ``cold_starts`` calls of ``cold_start()``, which return set-up
    seconds: they are spread evenly over the run too, and the time they
    take does not count against ``latency_s + search_s``.
    """
    search = RateSearch(start)
    peak_rss = None
    count = min(MAX_SEGMENTS, max(3, int(latency_s * nominal / MIN_PROBE_OPS)))
    length = max(latency_s / count, MIN_PROBE_OPS / nominal)
    segments: list[PhaseStats] = []
    setups: list[float] = []
    run_s = latency_s + search_s
    paused = 0.0  # seconds spent in cold starts

    def deadline() -> float:
        return began + paused + run_s

    def elapsed() -> float:
        return time.perf_counter() - began - paused

    async def idle() -> None:
        nonlocal paused
        between()
        # cold start j is due (j + 1/2) / cold_starts of the way through
        if len(setups) < cold_starts and elapsed() >= (len(setups) + 0.5) * run_s / cold_starts:
            launched = time.perf_counter()
            setups.append(await cold_start())
            paused += time.perf_counter() - launched

    began = time.perf_counter()
    await phase(nominal, WARMUP_S)
    while len(segments) < count:
        # segment i is due i / count of the way through the run; probes
        # fill the time until then
        rate = search.more(deadline()) if elapsed() < len(segments) * run_s / count else None
        if rate is None:
            segments.append(await phase(nominal, length))
            if peak_rss is None:
                # before any probe: later segments would count the memory an
                # overload probe left behind
                peak_rss = rss()
        else:
            search.record(rate, await phase(rate, probe_seconds(rate)))
        await idle()
    while (rate := search.more(deadline())) is not None:
        search.record(rate, await phase(rate, probe_seconds(rate)))
        await idle()
    while len(setups) < cold_starts:
        setups.append(await cold_start())
    return segments, search, peak_rss, setups


def summarize(segments: list[PhaseStats]) -> dict:
    """Latency of fixed-rate segments: p50 and p99 of the quietest segment.

    Each percentile is taken per segment and the lowest is reported. A
    stall of the machine only ever adds latency: on a 2-core shared box it
    stalls for 15-30 ms every few seconds and runs slower for 30-40 s at a
    time, so a segment reads high when it meets either. Over 10 runs of
    the same code, the median p99 over 4 segments spread by 0.21 and 0.47
    of its value (quartile distance ÷ median). A change of the code moves
    every segment, the quietest too. Every segment's value is kept for
    the log.
    """
    lags = [lag for stats in segments for lag in stats.lags]
    failed = sum(stats.failed for stats in segments)
    p50s = [stats.p(50) for stats in segments]
    p99s = [stats.p99() for stats in segments]
    return {
        "p50_ms": min(p50s),
        "p99_ms": min(p99s),
        "p99_q": min(stats.p99_q for stats in segments),
        "segments": len(segments),
        "segment_p50_ms": p50s,
        "segment_p99_ms": p99s,
        "ops": sum(len(stats.latencies) for stats in segments),
        "failed": failed,
        "non2xx": failed,
        "lag_p99_ms": percentile(lags, supported_percentile(len(lags))),
    }

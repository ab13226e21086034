"""Per-layer tracing from the benchmark's own files.

:meth:`Tracer.install` wraps the public entry points of each layer with
timing wrappers and :meth:`Tracer.uninstall` restores them. Records are
kept per asyncio task through a :class:`contextvars.ContextVar` stack of
open frames, so concurrent requests on one event loop never book time to
each other's frames.

Self time
=========
A frame's *self time* is the time it ran minus the time its child frames
ran. Coroutine entry points are driven step by step (:class:`_Stepper`):
only the synchronous steps count as running, never the time a coroutine
sits suspended at an ``await``. Steps on one thread never overlap and a
child's time is subtracted from its parent, so the self times of all
layers sum to no more than the wall time of the traced interval.

Layers are the ``repro`` modules: ``serve.http``, ``serve.service``,
``serve.batching``, ``serve.cache``, ``serve.shards``, ``metrics.batch``,
``aggregate.online``, ``aggregate.decompose`` and ``aggregate.minmax``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextvars import ContextVar
from typing import Any, Callable

LAYERS = (
    "serve.http",
    "serve.service",
    "serve.batching",
    "serve.cache",
    "serve.shards",
    "metrics.batch",
    "aggregate.online",
    "aggregate.decompose",
    "aggregate.minmax",
)

_clock = time.perf_counter

#: Open frames of the running task, innermost last. A frame is a
#: two-element list ``[child_seconds, layer]``.
_STACK: ContextVar[tuple[list, ...]] = ContextVar("perfbench_frames", default=())


class Tracer:
    """Timing wrappers around every layer's public entry points."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.started = _clock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        # distance requests enqueued in the batcher and not yet flushed,
        # per (domain, metric, p) group: their enqueue times
        self.waiting: dict[tuple, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Frame bookkeeping
    # ------------------------------------------------------------------

    def _book(self, layer: str, frame: list, parent: tuple, elapsed: float) -> None:
        """Charge a closed frame: self time to its layer, all time to its parent."""
        self.self_s[layer] += elapsed - frame[0]
        if parent:
            parent[-1][0] += elapsed

    def sync(self, layer: str, name: str, fn: Callable, after: Callable | None = None):
        """A timing wrapper for a plain function or method."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _STACK.get()
            frame = [0.0, layer]
            token = _STACK.set(parent + (frame,))
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                _STACK.reset(token)
                self._book(layer, frame, parent, elapsed)
            self.samples[name].append(elapsed)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    def coroutine(self, layer: str, name: str, fn: Callable, before: Callable | None = None):
        """A timing wrapper for a coroutine function (counts only steps)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, kwargs)
            return _Stepper(self, layer, name, fn(*args, **kwargs))

        return wrapper

    def nested_in(self, layer: str) -> bool:
        """Whether the running task has an open frame of ``layer``."""
        return any(frame[1] == layer for frame in _STACK.get())

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, _required(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original: object, wrapper: object) -> None:
        """Rebind every ``repro`` module global that names ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer's entry points.

        A hook whose target is gone raises instead of leaving its metrics
        at 0, so a refactor of a layer cannot silently disarm the trace.
        The hooks already placed are then taken out again.
        """
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self) -> None:
        import repro.aggregate.decompose as decompose
        import repro.aggregate.minmax as minmax
        import repro.io as rio
        import repro.metrics.batch as mbatch
        import repro.serve.batching as batching
        from repro.aggregate.online import OnlineMedianAggregator
        from repro.metrics.registry import get_metric
        from repro.serve.batching import DistanceBatcher
        from repro.serve.cache import ResultCache
        from repro.serve.service import RankingService
        from repro.serve.shards import Shard

        # serve.service: every public RankingService method
        for name in ("update", "remove", "distance", "consensus"):
            self._patch(
                RankingService,
                name,
                self.coroutine("serve.service", f"service.{name}", getattr(RankingService, name)),
            )
        for name in ("snapshot", "restore", "stats"):
            self._patch(
                RankingService,
                name,
                self.sync("serve.service", f"service.{name}", getattr(RankingService, name)),
            )

        # serve.batching: enqueue times per group, flushed by the kernel call
        def enqueue(args: tuple, kwargs: dict) -> None:
            _, _codec, sigma, _tau, metric, p = _bind_distance(args, kwargs)
            self.waiting[(sigma.domain, metric, p)].append(_clock())

        self._patch(
            DistanceBatcher,
            "distance",
            self.coroutine(
                "serve.batching", "batcher.distance", DistanceBatcher.distance, before=enqueue
            ),
        )

        # metrics.batch
        pairwise = mbatch.pairwise_distance_matrix
        counts_fn = mbatch.pair_counts_matrix

        def after_pairwise(args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
            metric = kwargs.get("metric", args[1] if len(args) > 1 else "kendall")
            m = len(args[0]) if args else len(kwargs["rankings"])
            canonical = get_metric(metric).name
            self.counts[f"kernel.pairs.{canonical}"] += m * (m - 1) // 2
            self.counts[f"kernel.seconds.{canonical}"] += elapsed
            if not self.nested_in("metrics.batch"):
                self.counts["kernel.calls"] += 1
                self.counts["kernel.busy_s"] += elapsed

        def after_counts(args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
            if not self.nested_in("metrics.batch"):
                self.counts["kernel.calls"] += 1
                self.counts["kernel.busy_s"] += elapsed

        pairwise_wrapper = self.sync(
            "metrics.batch", "kernel.pairwise_distance_matrix", pairwise, after_pairwise
        )
        self._patch_everywhere(pairwise, pairwise_wrapper)
        self._patch_everywhere(
            counts_fn,
            self.sync("metrics.batch", "kernel.pair_counts_matrix", counts_fn, after_counts),
        )
        for strategy, private in (
            ("dense", "_pair_counts_dense"),
            ("tiled", "_pair_counts_dense_tiled"),
            ("pairs", "_pair_counts_pairs"),
        ):
            self._patch(
                mbatch, private, self._strategy_counter(strategy, _required(mbatch, private))
            )

        # the batcher's flush is its kernel call: claim the waiting group
        if _required(batching, "pairwise_distance_matrix") is not pairwise_wrapper:
            raise RuntimeError(
                "repro.serve.batching no longer flushes through pairwise_distance_matrix; "
                "the batcher.* metrics have nothing to hook"
            )

        def flush(rankings: Any, metric: str = "kendall", **kwargs: Any) -> Any:
            start = _clock()
            p = kwargs.get("p", 0.5)
            waits = self.waiting.pop((rankings[0].domain, metric, p), [])
            result = pairwise_wrapper(rankings, metric, **kwargs)
            r = len(rankings)
            self.samples["batcher.flush_kernel_s"].append(_clock() - start)
            self.samples["batcher.requests_per_flush"].append(len(waits))
            self.samples["batcher.rankings_per_flush"].append(r)
            self.counts["batcher.pairs_computed"] += r * (r - 1) // 2
            self.samples["batcher.wait_s"].extend(start - t for t in waits)
            return result

        self._patch(batching, "pairwise_distance_matrix", flush)

        # serve.cache
        def after_get(args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
            self.counts["cache.gets"] += 1
            self.counts["cache.hits"] += result is not None

        def put(fn: Callable) -> Callable:
            def counted(cache: Any, *args: Any, **kwargs: Any) -> Any:
                before = getattr(cache, "evictions", 0)
                result = fn(cache, *args, **kwargs)
                self.counts["cache.evictions"] += getattr(cache, "evictions", 0) - before
                return result

            return counted

        def after_invalidate(args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
            self.counts["cache.invalidations"] += int(result or 0)

        self._patch(
            ResultCache, "get", self.sync("serve.cache", "cache.get", ResultCache.get, after_get)
        )
        self._patch(
            ResultCache, "put", self.sync("serve.cache", "cache.put", put(ResultCache.put))
        )
        self._patch(
            ResultCache,
            "invalidate",
            self.sync("serve.cache", "cache.invalidate", ResultCache.invalidate, after_invalidate),
        )

        # serve.shards
        for name in ("update", "remove"):
            self._patch(
                Shard, name, self.sync("serve.shards", f"shards.{name}", getattr(Shard, name))
            )

        # aggregate.online
        for name in ("update", "forget", "scores", "full_ranking", "partial_ranking", "top_k"):
            self._patch(
                OnlineMedianAggregator,
                name,
                self.sync(
                    "aggregate.online", f"online.{name}", getattr(OnlineMedianAggregator, name)
                ),
            )

        # aggregate.decompose
        def after_kemeny(args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
            self.counts["kemeny.certified"] += bool(getattr(result, "exact", False))

        kemeny = decompose.kemeny_decomposed
        self._patch_everywhere(
            kemeny,
            self._counted(
                "kemeny.calls",
                self.sync("aggregate.decompose", "kemeny", kemeny, after_kemeny),
            ),
        )

        # aggregate.minmax
        def after_aggregate(args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
            objective = kwargs.get("objective", args[1] if len(args) > 1 else "median")
            self.samples[f"aggregate.{objective}_s"].append(elapsed)

        aggregate = minmax.aggregate
        self._patch_everywhere(
            aggregate, self.sync("aggregate.minmax", "aggregate", aggregate, after_aggregate)
        )

        # serve.http: the JSON -> PartialRanking decode
        decode = rio.ranking_from_dict
        self._patch_everywhere(decode, self.sync("serve.http", "io.decode", decode))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _strategy_counter(self, strategy: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(bucket_rows: Any, *args: Any, **kwargs: Any) -> Any:
            self.counts[f"kernel.strategy_{strategy}"] += 1
            if strategy != "pairs":
                # four (m × n²)·(n² × m) float64 products: 2·m²·n² flops each
                m, n = bucket_rows.shape
                self.counts["kernel.gemm_ops"] += 8 * m * m * n * n
            return fn(bucket_rows, *args, **kwargs)

        return counted

    def _counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Plain-data snapshot: self times, samples' medians, counts."""
        return {
            "wall_s": _clock() - self.started,
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "samples": {name: list(values) for name, values in self.samples.items()},
            "counts": dict(self.counts),
        }


def _required(owner: object, attr: str) -> Any:
    """``owner.attr``, or an error naming the hook target that is gone."""
    try:
        return getattr(owner, attr)
    except AttributeError:
        name = getattr(owner, "__name__", repr(owner))
        raise RuntimeError(f"trace hook target {name}.{attr} no longer exists") from None


def _bind_distance(args: tuple, kwargs: dict) -> tuple:
    """(self, codec, sigma, tau, metric, p) of a ``DistanceBatcher.distance`` call."""
    names = ("self", "codec", "sigma", "tau", "metric", "p")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return tuple(bound[name] for name in names)


class _Stepper:
    """Drives a coroutine step by step, timing only the steps it runs."""

    __slots__ = ("_tracer", "_layer", "_name", "_coro")

    def __init__(self, tracer: Tracer, layer: str, name: str, coro: Any) -> None:
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._coro = coro

    def __await__(self) -> Any:
        tracer, layer, coro = self._tracer, self._layer, self._coro
        begun = _clock()
        send: Any = None
        error: BaseException | None = None
        try:
            while True:
                parent = _STACK.get()
                frame = [0.0, layer]
                token = _STACK.set(parent + (frame,))
                start = _clock()
                try:
                    if error is not None:
                        yielded = coro.throw(error)
                    else:
                        yielded = coro.send(send)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = _clock() - start
                    _STACK.reset(token)
                    tracer._book(layer, frame, parent, elapsed)
                try:
                    send = yield yielded
                    error = None
                except BaseException as exc:  # delivered into the coroutine next step
                    send, error = None, exc
        finally:
            tracer.samples[self._name].append(_clock() - begun)

"""Library-only measurements: all-pairs matrices and ``aggregate()``.

Both workloads run a round of these calls after every probe and latency
segment, while no load is offered, so every run reports the kernel and
aggregation metrics. Every call's output is checked: matrix
entries against the scalar metrics with ``==``, ``aggregate()`` results
against their recomputed objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import repro.aggregate.minmax as minmax
import repro.metrics.batch as mbatch
from repro import obs
from repro.core.partial_ranking import PartialRanking
from repro.metrics import footrule, footrule_hausdorff, kendall, kendall_hausdorff

from common import Result
from datagen import RankingSource

SCALAR = {
    "kendall": kendall,
    "kendall_hausdorff": kendall_hausdorff,
    "footrule": footrule,
    "footrule_hausdorff": footrule_hausdorff,
}

#: metric name -> end-to-end metric
MATRICES = (
    ("kendall", "kprof_pairs_per_s"),
    ("kendall_hausdorff", "khaus_pairs_per_s"),
    ("footrule", "fprof_pairs_per_s"),
    ("footrule_hausdorff", "fhaus_pairs_per_s"),
)

OBJECTIVES = (("median", "kendall"), ("median", "footrule"),
              ("minmax", "kendall"), ("minmax", "footrule"))


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one library measurement."""

    rankings: int  # profile rankings for K, K_Haus and F_prof
    fhaus_rankings: int  # F_Haus runs on the first this many
    items: int
    agg_items: int  # aggregate() subprofiles: n items ...
    agg_voters: int  # ... and m voters


#: About 0.3 s a round on a 2-core box, so a round fits between two probes.
SIZES = Sizes(rankings=150, fhaus_rankings=60, items=48, agg_items=5, agg_voters=15)

#: Spot checks per matrix call.
CHECKS_PER_MATRIX = 12


class LibraryProbe:
    """Seeded inputs plus timed rounds over them.

    A round calls every kind of library measurement once, so a slow spell
    of the machine lands on every metric alike. The fastest call of each
    kind is kept over rounds until :meth:`reset`; :meth:`summary` turns
    them into rates.
    """

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.sizes = sizes
        self.rng = np.random.default_rng([seed, 7])
        source = RankingSource(sizes.items, self.rng)
        self.profile = [PartialRanking(source.fresh()) for _ in range(sizes.rankings)]
        self.subprofiles = []
        for _ in range(8):
            small = RankingSource(sizes.agg_items, self.rng)
            self.subprofiles.append(
                [PartialRanking(small.fresh()) for _ in range(sizes.agg_voters)]
            )
        self._expected: dict = {}
        self.reset()

    # ------------------------------------------------------------------

    def _check_matrix(self, rankings, metric: str, matrix, result: Result) -> None:
        fn = SCALAR[metric]
        m = len(rankings)
        for _ in range(CHECKS_PER_MATRIX):
            i, j = (int(x) for x in self.rng.integers(0, m, size=2))
            expected = float(fn(rankings[i], rankings[j]))
            if float(matrix[i, j]) != expected:
                result.mismatch(f"{metric}[{i},{j}] = {matrix[i, j]!r}, scalar {expected!r}")

    def _matrix(self, metric: str, result: Result, check: bool) -> tuple[int, float]:
        """One all-pairs matrix call; returns (ranking pairs, seconds)."""
        rankings = (
            self.profile[: self.sizes.fhaus_rankings]
            if metric == "footrule_hausdorff"
            else self.profile
        )
        m = len(rankings)
        start = time.perf_counter()
        matrix = mbatch.pairwise_distance_matrix(rankings, metric)
        elapsed = time.perf_counter() - start
        result.count(1, 0)
        if check:
            self._check_matrix(rankings, metric, matrix, result)
        return m * (m - 1) // 2, elapsed

    def _aggregate_round(self, index: int, result: Result, expected: dict) -> float:
        """One ``aggregate()`` call per objective × metric; returns its seconds."""
        profile_index = index % len(self.subprofiles)
        profile = self.subprofiles[profile_index]
        start = time.perf_counter()
        outputs = [minmax.aggregate(profile, objective, metric) for objective, metric in OBJECTIVES]
        elapsed = time.perf_counter() - start
        result.count(len(OBJECTIVES), 0)
        for (objective, metric), out in zip(OBJECTIVES, outputs):
            self._check_aggregate(profile, objective, metric, out, result)
            key = (profile_index, objective, metric)
            if expected.setdefault(key, out.ranking) != out.ranking:
                result.mismatch(f"aggregate{key} is not deterministic")
        return elapsed

    def round(self, result: Result) -> None:
        """One call of each all-pairs matrix and one ``aggregate()`` call per
        objective × metric."""
        for metric, name in MATRICES:
            done, elapsed = self._matrix(metric, result, check=self.rounds < 2)
            self.pairs[name] = done
            self.seconds[name] = min(self.seconds[name], elapsed)
        elapsed = self._aggregate_round(self.rounds, result, self._expected)
        self.aggregate_s = min(self.aggregate_s, elapsed)
        self.rounds += 1

    def finish(self, result: Result, least: int = 3) -> dict:
        """Top up to ``least`` rounds, then :meth:`summary`."""
        while self.rounds < least:
            self.round(result)
        return self.summary()

    def summary(self) -> dict:
        """Rates of the fastest call of each kind over every round so far.

        The fastest call, not a total or a median: a 2-core box shared
        with other machines runs up to 2× slower for seconds to minutes at
        a time, which moves totals and medians from run to run, while the
        fastest of a run's calls repeats within about ±8%.
        """
        return {
            "rates": {name: self.pairs[name] / self.seconds[name] for name in self.pairs},
            "aggregate_per_s": len(OBJECTIVES) / self.aggregate_s,
            "rounds": self.rounds,
        }

    def reset(self) -> None:
        """Forget every timing (the inputs stay)."""
        self.pairs = {name: 0 for _, name in MATRICES}
        self.seconds = {name: float("inf") for _, name in MATRICES}
        self.aggregate_s = float("inf")
        self.rounds = 0

    def _check_aggregate(self, profile, objective, metric, out, result: Result) -> None:
        fn = SCALAR[metric]
        distances = [float(fn(out.ranking, sigma)) for sigma in profile]
        value = max(distances) if objective == "minmax" else sum(distances)
        if not out.exact or value != out.objective:
            result.mismatch(
                f"aggregate({objective}, {metric}) objective {out.objective!r} "
                f"!= recomputed {value!r} (exact={out.exact})"
            )

    def candidates(self) -> float:
        """Permutations ``aggregate()`` scores in one round (the program's count)."""
        counter = obs.counter("aggregate.minmax.candidates")
        before = counter.value
        with obs.capture():
            for objective, metric in OBJECTIVES:
                minmax.aggregate(self.subprofiles[0], objective, metric)
        return float(counter.value - before)

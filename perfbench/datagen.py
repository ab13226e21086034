"""Seeded inputs: four item domains and bucketized-Mallows rankings over them.

Every ranking is a list of buckets (lists of string item ids), the JSON
shape the server accepts. Rankings are drawn from a Mallows model around
each domain's own consensus order (repeated-insertion sampling), then
bucketized by merging each position into the previous bucket with a fixed
tie probability. :class:`RankingSource` hands out rankings that are
distinct from every ranking it produced before, so per-user rankings are
genuinely per user.

The generator is the benchmark's own (numpy only), so a change to
``repro.generators`` cannot change the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np

#: Domain sizes; each is one shard on the server.
DOMAIN_SIZES = (12, 24, 48, 96)

#: Mallows dispersion per domain size. The 24-item domain is *banded*
#: (strongly concentrated), so its dominance components stay small and
#: exact Kemeny consensus certifies.
PHI = {12: 0.8, 24: 0.4, 48: 0.8, 96: 0.85}

#: Probability that a position joins the bucket before it.
TIE_PROB = 0.25

Buckets = list[list[str]]


def domain_items(size: int) -> list[str]:
    return [f"d{size}-i{index:03d}" for index in range(size)]


class RankingSource:
    """Distinct bucketized-Mallows rankings over one domain."""

    def __init__(self, size: int, rng: np.random.Generator) -> None:
        self.size = size
        self.items = domain_items(size)
        self.rng = rng
        # the domain's consensus: a seeded permutation of its items
        self.center = [self.items[i] for i in rng.permutation(size)]
        self.phi = PHI.get(size, 0.8)
        self._seen: set[tuple[tuple[str, ...], ...]] = set()
        index = np.arange(size)
        # truncated-geometric insertion offsets: P(d) ∝ phi^d on [0, i]
        self._norm = 1.0 - self.phi ** (index + 1)
        self._log_phi = np.log(self.phi)

    def _draw(self) -> Buckets:
        n = self.size
        u = self.rng.random(n)
        back = np.floor(np.log1p(-u * self._norm) / self._log_phi).astype(np.int64)
        back = np.minimum(back, np.arange(n))
        order: list[int] = []
        for item, offset in enumerate(back.tolist()):
            order.insert(item - offset, item)
        joins = (self.rng.random(n) < TIE_PROB).tolist()
        center = self.center
        buckets: Buckets = [[center[order[0]]]]
        for position in range(1, n):
            if joins[position]:
                buckets[-1].append(center[order[position]])
            else:
                buckets.append([center[order[position]]])
        return buckets

    def fresh(self) -> Buckets:
        """A ranking never returned before by this source."""
        while True:
            buckets = self._draw()
            key = tuple(tuple(sorted(bucket)) for bucket in buckets)
            if key not in self._seen:
                self._seen.add(key)
                return buckets


def sources(seed: int, stream: int) -> dict[int, RankingSource]:
    """One source per domain, each on its own generator.

    Separate generators keep a domain's first rankings the same however
    many rankings the other domains draw.
    """
    return {
        size: RankingSource(size, np.random.default_rng([seed, stream, size]))
        for size in DOMAIN_SIZES
    }

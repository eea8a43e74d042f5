"""Two-level cache hierarchy in front of DRAM.

Reproduces the Systems Setup of the paper (Methodology, Table 4): 64 KB L1,
512 KB L2, LRU replacement.  ``access`` returns the latency in cycles for one
memory operation; wide (NEON) accesses touch every line they span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import Cache, CacheConfig


@dataclass(frozen=True)
class HierarchyConfig:
    """Latency/geometry knobs for the full memory system."""

    l1: CacheConfig = CacheConfig("L1", 64 * 1024, hit_latency=2)
    l2: CacheConfig = CacheConfig("L2", 512 * 1024, hit_latency=12)
    dram_latency: int = 80


class MemoryHierarchy:
    """L1 + L2 + DRAM latency model."""

    def __init__(self, config: HierarchyConfig | None = None):
        self.config = config or HierarchyConfig()
        self.l1 = Cache(self.config.l1)
        self.l2 = Cache(self.config.l2)
        self.dram_accesses = 0
        self._line = self.config.l1.line_bytes
        self._l1_latency = self.config.l1.hit_latency
        self._l2_latency = self.config.l2.hit_latency
        self._dram_latency = self.config.dram_latency

    # ------------------------------------------------------------------
    def access(self, addr: int, nbytes: int = 4, is_write: bool = False) -> int:
        """Access ``nbytes`` at ``addr``; returns total latency in cycles."""
        line = self._line
        first = addr // line
        last = (addr + nbytes - 1) // line if nbytes > 1 else first
        if first == last:  # the common case: the access stays in one line
            return self._access_line(first * line, is_write)
        latency = 0
        for line_no in range(first, last + 1):
            latency += self._access_line(line_no * line, is_write)
        return latency

    def _access_line(self, addr: int, is_write: bool) -> int:
        latency = self._l1_latency
        if self.l1.access(addr, is_write):
            return latency
        latency += self._l2_latency
        if self.l2.access(addr, is_write):
            return latency
        self.dram_accesses += 1
        return latency + self._dram_latency

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.l1.stats.reset()
        self.l2.stats.reset()
        self.dram_accesses = 0

    def stats_dict(self) -> dict[str, float]:
        return {
            "l1_accesses": self.l1.stats.accesses,
            "l1_hit_rate": self.l1.stats.hit_rate,
            "l2_accesses": self.l2.stats.accesses,
            "l2_hit_rate": self.l2.stats.hit_rate,
            "dram_accesses": self.dram_accesses,
        }

"""Result and statistics containers shared by the search algorithms and
the brute-force oracle. The searches set the result masks through their
:class:`~repro.core.topdown.Frontier`; the oracle reads them off the
generalization lattice."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.pattern import Pattern


class SearchTimeout(Exception):
    """Raised when a search exceeds its wall-clock deadline (the paper uses
    a 10-minute timeout in the attribute-count sweeps; we use the same
    mechanism with a configurable budget)."""


@dataclass
class SearchStats:
    """Counters of search effort.

    ``examined`` counts every pattern whose bounds are evaluated — a child
    an expansion generates, in Algorithm 1 or PROPBOUNDS (τ_s-pruned ones
    included), or a re-evaluation in the incremental algorithms.
    This is the paper's "number of patterns examined during the search"
    metric behind the 29–57% reported gains.
    """

    examined: int = 0
    deadline: float | None = None  # time.monotonic() value, or None

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout(f"examined={self.examined}")

    def examine(self, count: int = 1) -> None:
        """Add ``count`` examined patterns, checking the deadline whenever
        the total crosses a multiple of 512 — however many are added at
        once, so the check's cadence does not depend on the batching."""
        before = self.examined
        self.examined = before + count
        if self.examined >> 9 != before >> 9:
            self.check_deadline()


@dataclass
class SearchResult:
    """Output of a detection algorithm: the most general biased patterns for
    every k in ``[k_min, k_max]``, plus effort statistics.

    ``res`` maps each pattern found at some k to a bitmask of those k: bit
    k of ``res[p]`` is set iff p ∈ Res_k. No mask is 0 and none has a bit
    outside ``[k_min, k_max]``, so two results are equal iff their range
    and their per-k sets are; ``stats`` is not compared.
    """

    res: dict[Pattern, int]
    k_min: int
    k_max: int
    stats: SearchStats = field(default_factory=SearchStats, compare=False)

    def res_at(self, k: int) -> frozenset[Pattern]:
        """``Res_k``; a ``KeyError`` for k outside the range."""
        if not self.k_min <= k <= self.k_max:
            raise KeyError(k)
        return frozenset(p for p, mask in self.res.items() if mask >> k & 1)

"""Result and statistics containers shared by the search algorithms."""
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


def freeze(
    res: set[Pattern],
    prev: frozenset[Pattern] | None,
    interned: dict[Pattern, Pattern],
) -> frozenset:
    """``res`` as the result set of a step: ``prev``, the previous step's
    set, when they are equal, so runs of unchanged steps share one set.
    Otherwise each pattern is replaced by its first copy in ``interned``
    (one dict per run), so a run's result sets hold one object per
    distinct pattern however often the search rebuilt it."""
    if prev == res:
        return prev
    # Via a set: a frozenset copied from a set is sized to fit, one grown
    # from a generator keeps up to twice the slots.
    return frozenset({interned.setdefault(p, p) for p in res})


@dataclass
class SearchResult:
    """Output of a detection algorithm: the most general biased patterns per
    k (``res[k]``), plus effort statistics."""

    res: dict[int, frozenset[Pattern]]
    stats: SearchStats = field(default_factory=SearchStats)

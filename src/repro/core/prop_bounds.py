"""PROPBOUNDS (Algorithm 3): incremental detection under proportional
representation bounds.

With the bound ``α·s_D(p)·k/|D|`` growing in k, a pattern can turn violating
without its count changing — GLOBALBOUNDS' pruning does not apply (Section
IV-C). PROPBOUNDS therefore tracks, for every generated *passing* pattern,
its ``k̃`` — the first k at which it becomes violating if its top-k count
stays fixed — in the map ``K``. Each step k:

1. ``selectiveTD``: walk the generated search tree along nodes satisfied by
   the new tuple ``R(D)[k]`` (only their counts changed) and re-evaluate
   each: a violating node that crossed back to passing leaves the
   violating set, gets a fresh ``k̃`` and is expanded (children generated on
   first expansion); a passing node gets a recomputed ``k̃``; a passing node
   that turned violating joins the violating set.
2. ``K`` entries with ``k̃ ≤ k`` not satisfied by the new tuple (their count
   is unchanged, so the bound has caught up with them) become violating.
   Every entry's ``k̃`` is above the previous step, and step 1 gives each
   pattern it re-evaluates one above k, so these are the entries whose
   ``k̃`` is k: ``due`` buckets the patterns by ``k̃`` and the step reads
   bucket k alone.
3. ``promote`` brings ``Res`` up to date: the violating set is a
   :class:`~repro.core.topdown.Frontier`, which re-tests only the patterns
   whose membership the step's changes can have altered, and sets a
   pattern's result-mask bits when it leaves ``Res`` and at ``k_max``.

Bookkeeping keeps each fact once. A generated pattern is violating iff it
is in the frontier's violating set and passing iff it is in ``K``; it has
been expanded iff it is a key of ``children_of``. A bucket entry whose
pattern has since been given another ``k̃``, or has turned violating, is
stale and skipped. Nothing before step 3 reads ``Res``, so the order of a
step's changes does not matter, and step 3 does nothing at a step that
changed nothing. The paper's ``DRes`` is the violating set less ``Res``.

Expansion and the selective walk carry each node's bitmap down the tree: a
child's bitmap is its parent's AND one value bitmap. Expansion runs
Algorithm 1's extension loop over the store's extension list
(:meth:`~repro.core.store.StatsStore.extensions`): one AND and one
popcount decide τ_s, and only a substantial child is built as a pattern.
Only ``fire_k_tilde``, which reaches ``K`` entries out of tree order, looks
patterns up with ``stat()``. ``evaluate`` resolves the bound to the spec's
``linear`` form once per ``k`` and tests each pattern against it inline.

Deviation from the paper: the paper keeps in ``K`` only entries whose ``k̃``
decreases monotonically along a search-tree branch (a memory optimisation);
we keep the ``k̃`` of every passing generated pattern — same output, simpler
bookkeeping (see DESIGN.md §2).

Invariants (checked in tests via ``check_invariants`` and the frontier's
own checks): the violating set is the set of generated currently-violating
patterns, ``Res`` its most general subset (``normalize_frontier`` of it);
``K`` holds the other generated patterns, each expanded, with ``k̃ > k``
and, up to ``k_max``, in its bucket.
"""
from __future__ import annotations

from typing import AbstractSet

from repro.core.bounds import PropSpec, check_params
from repro.core.pattern import EMPTY, Pattern
from repro.core.result import SearchResult, SearchStats
from repro.core.store import StatsStore
from repro.core.topdown import Frontier


class _PropState:
    """Mutable search state shared across k iterations."""

    def __init__(
        self,
        store: StatsStore,
        spec: PropSpec,
        tau: int,
        k_max: int,
        stats: SearchStats,
    ):
        self.store = store
        self.spec = spec
        self.tau = tau
        self.k_max = k_max
        self.stats = stats
        #: The violating set and its ``Res``.
        self.frontier = Frontier()
        self.K: dict[Pattern, int] = {}  # k̃ of passing patterns
        #: ``k̃`` -> the patterns given that ``k̃`` (up to ``k_max``). An
        #: entry is stale once the pattern's ``K`` value is another.
        self.due: dict[int, list[Pattern]] = {}
        self.children_of: dict[Pattern, list[Pattern]] = {}
        #: The ``k`` that ``mask`` and ``linear`` (the spec's bound in
        #: integers) were resolved at, once per step by evaluate().
        self.k = 0
        self.mask = 0
        self.linear = (0, 0, 0)

    @property
    def res(self) -> dict[Pattern, int]:
        """``Res``, the most general violating patterns (each mapped to
        the k at which it joined)."""
        return self.frontier.res

    @property
    def dres(self) -> AbstractSet[Pattern]:
        """The paper's ``DRes``: the violating patterns not in ``Res``."""
        return self.frontier.dres

    # -- evaluation / expansion -------------------------------------------
    def evaluate(self, p: Pattern, k: int, bits: int) -> None:
        """(Re-)evaluate the status of a generated pattern, whose bitmap is
        ``bits``, at position k; expand it on its first pass."""
        self.stats.examine()
        if k != self.k:
            self.k, self.mask = k, (1 << k) - 1
            self.linear = self.spec.linear(k, self.store.n)
        a, b, t = self.linear
        size = bits.bit_count()
        c = (bits & self.mask).bit_count()
        frontier = self.frontier
        was_violating = p in frontier.violating
        if a * c < b * size + t:
            if not was_violating:
                self.K.pop(p, None)
                frontier.add(p)
            return
        if was_violating:
            frontier.discard(p)
        kt = self.spec.k_tilde(c, size, self.store.n)
        self.K[p] = kt
        if kt <= self.k_max:
            self.due.setdefault(kt, []).append(p)
        if p not in self.children_of:
            self.expand(p, k, bits)

    def expand(self, p: Pattern, k: int, bits: int) -> None:
        """Generate ``p``'s search-tree children from its bitmap ``bits``
        and evaluate each substantial one — recursing through their own
        expansions. Every extension counts as examined; a child under τ_s
        is never built."""
        kept: list[Pattern] = []
        self.children_of[p] = kept
        ext = self.store.extensions(p)
        self.stats.examine(len(ext))
        for pair, value_bits in ext:
            child_bits = bits & value_bits
            if child_bits.bit_count() >= self.tau:
                child = p + pair
                kept.append(child)
                self.evaluate(child, k, child_bits)

    # -- per-step phases ---------------------------------------------------
    def selective_td(self, new_tuple: tuple, k: int) -> None:
        """Walk generated nodes satisfied by the new tuple (they form a
        connected subtree rooted at the empty pattern), re-evaluating each.
        A child of a satisfied node is satisfied iff its last pair is, and
        its bitmap is the node's AND that pair's value bitmap. The walk
        goes on below a node only if the node had been expanded before:
        a first expansion has just evaluated the whole new subtree at k."""
        value_bits = self.store.value_bits
        children_of = self.children_of
        stack = [(EMPTY, self.store.all_bits)]
        while stack:
            p, bits = stack.pop()
            for c in children_of.get(p, ()):
                a, v = c[-1]
                if new_tuple[a] == v:
                    c_bits = bits & value_bits[a][v]
                    expanded = c in children_of
                    self.evaluate(c, k, c_bits)
                    if expanded:
                        stack.append((c, c_bits))

    def fire_k_tilde(self, k: int) -> None:
        """Patterns whose ``k̃`` has been reached without a count change are
        now violating (Algorithm 3, line 6). Every ``K`` entry has ``k̃``
        above the previous step, and ``selective_td`` gave each pattern it
        re-evaluated a ``k̃`` above this one, so the due patterns are those
        whose ``k̃`` is still ``k``: the live entries of bucket ``k``.
        ``K`` is not in tree order, so each pattern's bitmap comes from
        ``stat()``."""
        K = self.K
        for p in self.due.pop(k, ()):
            if K.get(p) == k:
                self.evaluate(p, k, self.store.stat(p).bits)

    def promote(self, k: int) -> None:
        """Bring ``Res`` up to date with the step's changes to the
        violating set (step 3)."""
        self.frontier.promote(k)

    def check_invariants(self, k: int) -> None:
        """Debug/test hook: verify the documented invariants of the
        violating set and ``K`` at position k. The frontier checks its
        own ``Res``."""
        n = self.store.n
        violating = self.frontier.violating
        for p in violating:
            st = self.store.stat(p)
            assert self.spec.violates(st.topk(k), st.size, k, n), p
        due = {kt: set(ps) for kt, ps in self.due.items()}
        assert all(kt > k for kt in due), (sorted(due), k)
        for p, kt in self.K.items():
            assert kt > k and p in self.children_of, (p, kt, k)
            assert p not in violating, p
            assert kt > self.k_max or p in due[kt], (p, kt)


def prop_bounds(
    store: StatsStore,
    spec: PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    deadline: float | None = None,
) -> SearchResult:
    """Detect most general patterns with biased proportional representation
    for every k in ``[k_min, k_max]`` (Algorithm 3)."""
    check_params(store.n, tau, k_min, k_max)
    stats = SearchStats(deadline=deadline)
    s = _PropState(store, spec, tau, k_max, stats)
    # Full top-down search for k_min.
    s.expand(EMPTY, k_min, store.all_bits)
    s.promote(k_min)

    for k in range(k_min + 1, k_max + 1):
        stats.check_deadline()
        new_tuple = store.row_at_rank(k)
        s.selective_td(new_tuple, k)
        s.fire_k_tilde(k)
        s.promote(k)
    return SearchResult(s.frontier.close(k_max), k_min, k_max, stats)

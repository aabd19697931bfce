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
3. ``promote`` re-derives ``Res`` from the violating set with
   :func:`~repro.core.topdown.normalize_frontier`, and ``Res`` sets bit k
   of its patterns' result masks.

Bookkeeping keeps each fact once. A generated pattern is violating iff it
is in ``violating`` and passing iff it is in ``K``; it has been expanded
iff it is a key of ``children_of``. Step 3 runs whenever ``violating``
changed, and nothing before it reads ``Res``. The paper's ``DRes`` is not
stored: it is ``violating − Res``, read only by the invariant check.

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

Invariants (checked in tests via ``check_invariants``): ``violating`` is
the set of generated currently-violating patterns, ``Res`` its most general
subset; ``K`` holds the other generated patterns, each expanded.
"""
from __future__ import annotations

from repro.core.bounds import PropSpec, check_params
from repro.core.pattern import EMPTY, Pattern, has_ancestor_in
from repro.core.result import SearchResult, SearchStats, add_step
from repro.core.store import StatsStore
from repro.core.topdown import normalize_frontier


class _PropState:
    """Mutable search state shared across k iterations."""

    def __init__(
        self,
        store: StatsStore,
        spec: PropSpec,
        tau: int,
        stats: SearchStats,
    ):
        self.store = store
        self.spec = spec
        self.tau = tau
        self.stats = stats
        self.violating: set[Pattern] = set()
        #: The most general members of ``violating``, set by promote().
        self.res: set[Pattern] = set()
        self.K: dict[Pattern, int] = {}  # k̃ of passing patterns
        self.children_of: dict[Pattern, list[Pattern]] = {}
        #: Set when ``violating`` changes; the promote() pass only runs
        #: when the frontier actually changed this step.
        self.dirty = False
        #: The ``k`` that ``mask`` and ``linear`` (the spec's bound in
        #: integers) were resolved at, once per step by evaluate().
        self.k = 0
        self.mask = 0
        self.linear = (0, 0, 0)

    @property
    def dres(self) -> set[Pattern]:
        """The paper's ``DRes``: the violating patterns not in ``Res``."""
        return self.violating - self.res

    # -- evaluation / expansion -------------------------------------------
    def evaluate(
        self, p: Pattern, k: int, visited: set[Pattern], bits: int
    ) -> None:
        """(Re-)evaluate the status of a generated pattern, whose bitmap is
        ``bits``, at position k; expand it on its first pass."""
        visited.add(p)
        self.stats.examine()
        if k != self.k:
            self.k, self.mask = k, (1 << k) - 1
            self.linear = self.spec.linear(k, self.store.n)
        a, b, t = self.linear
        size = bits.bit_count()
        c = (bits & self.mask).bit_count()
        was_violating = p in self.violating
        if a * c < b * size + t:
            if not was_violating:
                self.K.pop(p, None)
                self.violating.add(p)
                self.dirty = True
            return
        if was_violating:
            self.violating.discard(p)
            self.dirty = True
        self.K[p] = self.spec.k_tilde(c, size, self.store.n)
        if p not in self.children_of:
            self.expand(p, k, visited, bits)

    def expand(
        self, p: Pattern, k: int, visited: set[Pattern], bits: int
    ) -> None:
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
                self.evaluate(child, k, visited, child_bits)

    # -- per-step phases ---------------------------------------------------
    def selective_td(self, new_tuple: tuple, k: int, visited: set) -> None:
        """Walk generated nodes satisfied by the new tuple (they form a
        connected subtree rooted at the empty pattern), re-evaluating each.
        A child of a satisfied node is satisfied iff its last pair is, and
        its bitmap is the node's AND that pair's value bitmap."""
        value_bits = self.store.value_bits
        stack = [(EMPTY, self.store.all_bits)]
        while stack:
            p, bits = stack.pop()
            for c in self.children_of.get(p, ()):
                a, v = c[-1]
                if new_tuple[a] == v and c not in visited:
                    c_bits = bits & value_bits[a][v]
                    self.evaluate(c, k, visited, c_bits)
                    stack.append((c, c_bits))

    def fire_k_tilde(self, k: int, visited: set[Pattern]) -> None:
        """Patterns whose ``k̃`` has been reached without a count change are
        now violating (Algorithm 3, line 6). ``K`` is not in tree order, so
        each pattern's bitmap comes from ``stat()``."""
        due = [p for p, kt in self.K.items() if kt <= k and p not in visited]
        for p in due:
            self.evaluate(p, k, visited, self.store.stat(p).bits)

    def promote(self) -> None:
        """Re-derive ``Res``, the most general violating generated
        patterns. A closed-form pass is order-independent, so it settles
        every mid-step transition: new violators, crossers removed before
        their descendants were seen. Skipped when ``violating`` did not
        change this step (``Res`` cannot have changed)."""
        if not self.dirty:
            return
        self.dirty = False
        self.res = normalize_frontier(self.violating)

    def check_invariants(self, k: int) -> None:
        """Debug/test hook: verify the documented invariants at position k."""
        n = self.store.n
        assert self.res <= self.violating
        for p in self.violating:
            st = self.store.stat(p)
            assert self.spec.violates(st.topk(k), st.size, k, n), p
        for p in self.res:
            assert not has_ancestor_in(p, self.violating), p
        for d in self.dres:
            assert has_ancestor_in(d, self.res), d
        for p, kt in self.K.items():
            assert kt > k and p in self.children_of, (p, kt, k)
            assert p not in self.violating, p


def prop_bounds(
    store: StatsStore,
    spec: PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    deadline: float | None = None,
    _debug_invariants: bool = False,
) -> SearchResult:
    """Detect most general patterns with biased proportional representation
    for every k in ``[k_min, k_max]`` (Algorithm 3)."""
    check_params(store.n, tau, k_min, k_max)
    stats = SearchStats(deadline=deadline)
    s = _PropState(store, spec, tau, stats)
    visited: set[Pattern] = set()
    # Full top-down search for k_min.
    s.expand(EMPTY, k_min, visited, store.all_bits)
    s.promote()
    masks: dict = {}
    add_step(masks, s.res, k_min)
    if _debug_invariants:
        s.check_invariants(k_min)

    for k in range(k_min + 1, k_max + 1):
        stats.check_deadline()
        visited = set()
        new_tuple = store.row_at_rank(k)
        s.selective_td(new_tuple, k, visited)
        s.fire_k_tilde(k, visited)
        s.promote()
        add_step(masks, s.res, k)
        if _debug_invariants:
            s.check_invariants(k)
    return SearchResult(masks, k_min, k_max, stats)

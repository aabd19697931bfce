"""Algorithm 1: single-k top-down search over the pattern search tree.

A depth-first walk from the children of the start node. Pruning rules
(both counts are anti-monotone along pattern-graph edges):

* ``s_D(p) < τ_s`` — prune ``p`` and its subtree (descendants are smaller);
* ``p`` violating — add it to the violating set and do *not* expand
  (descendants are also violating, hence not most general);
* otherwise expand ``p``'s search-tree children (Definition 4.1).

The walk keeps a list stack of ``(pattern, bitmap)`` pairs. Expanding a
node reads its extension list (:meth:`StatsStore.extensions`, the
``(pair, value bitmap)`` of every child, shared by all nodes with the same
largest attribute) and, per extension, ANDs the node's bitmap with the value
bitmap and takes its popcount: that decides τ_s, so a pruned child is never
built. A substantial child gets its pattern tuple and its bound test at
generation, and only a passing one is pushed. The bound test is the spec's
:meth:`~repro.core.bounds.GlobalSpec.linear` form, resolved once per search
(one ``k``): ``a·c < b·size + t``, with no call per child. Every extension
counts as examined, so the examined count is that of a BFS over the same
tree, and so is the violating set: whether a node is generated and
expanded does not depend on the order of the walk. Only the start node is
looked up with ``stat()``.

The search collects the generated patterns that violate into whatever it
is given (anything with an ``add``). The paper's ``update`` splits them on
the fly into ``Res``, the most general, and ``DRes``, the rest. All three
searches keep their violating set in a :class:`Frontier`, which brings
``Res`` up to date from the patterns that changed alone: ITERTD replaces
the set with each k's fresh search, and GLOBALBOUNDS and PROPBOUNDS
change it from step to step.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from typing import AbstractSet

from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.pattern import (
    EMPTY,
    Pattern,
    ancestor_in,
    attr_indices,
    has_ancestor_in,
    max_index,
)
from repro.core.result import SearchStats
from repro.core.store import StatsStore


def child_attr_sets(p: Pattern, n_attrs: int) -> list[tuple[int, ...]]:
    """The attribute sets spanned by ``p``'s search-tree children. No
    caller: the function remains only because the benchmark's span tracer
    (``perfbench/spans.py``) binds it (ROADMAP item 1)."""
    base = attr_indices(p)
    return [base + (j,) for j in range(max_index(p) + 1, n_attrs)]


def top_down_search(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
) -> set[Pattern]:
    """Run Algorithm 1 for one ``k`` from the root; returns the violating
    patterns it generated, whose :func:`normalize_frontier` is ``Res``.
    GLOBALBOUNDS continues a search from a given node with
    :func:`resume_search`."""
    violating: set[Pattern] = set()
    _search_below(store, spec, tau, k, stats, EMPTY, violating)
    return violating


def resume_search(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    node: Pattern,
    violating: set[Pattern] | Frontier,
) -> None:
    """``searchFromNode``: continue the top-down search from ``node``'s
    search-tree children, adding the violators it finds to ``violating``
    (a set, or GLOBALBOUNDS' :class:`Frontier`)."""
    _search_below(store, spec, tau, k, stats, node, violating)


def _search_below(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    node: Pattern,
    violating: set[Pattern] | Frontier,
) -> None:
    """Depth-first walk of ``node``'s search-tree subtree, ``node``
    excluded. The start node is reached out of tree order (the root, or a
    GLOBALBOUNDS crosser), so its bitmap comes from ``stat()``; every node
    below derives its own from its parent's, one AND per extension. The
    bound is resolved once, to the spec's ``linear`` form at ``k``, and
    each substantial child is tested inline against it.
    ``_PropState.expand`` runs the same extension loop."""
    mask = (1 << k) - 1
    a, b, t = spec.linear(k, store.n)
    extensions = store.extensions
    stack = [(node, store.stat(node).bits)]
    while stack:
        p, bits = stack.pop()
        ext = extensions(p)
        stats.examine(len(ext))
        for pair, value_bits in ext:
            child_bits = bits & value_bits
            size = child_bits.bit_count()
            if size < tau:
                continue
            child = p + pair
            if a * (child_bits & mask).bit_count() < b * size + t:
                violating.add(child)
            else:
                stack.append((child, child_bits))


def normalize_frontier(
    violating: AbstractSet[Pattern],
    candidates: Iterable[Pattern] | None = None,
) -> set[Pattern]:
    """``Res`` of a set of generated violating patterns: the members with
    no proper subpattern in the set. ``DRes`` is the rest. Given
    ``candidates`` (members of the set), only they are tested, and the
    ``Res`` members among them are returned. A closed-form pass, so it does
    not depend on the order in which the patterns were found or removed."""
    if candidates is None:
        candidates = violating
    return {p for p in candidates if not has_ancestor_in(p, violating)}


class Frontier:
    """The violating set of a search over a k range, with its ``Res`` kept
    up to date from the changes alone.

    :meth:`add` and :meth:`discard` change the set and note the change;
    :meth:`promote` then re-tests only the patterns whose ``Res``
    membership can have changed since its last call:

    * a pattern that joined the set: it is tested against the whole set;
    * a ``DRes`` member whose *witness* left the set. Each ``DRes`` member
      keeps one violating proper subpattern as its witness (the most
      specific found, see :func:`~repro.core.pattern.ancestor_in`), and
      while that witness stays, the member stays in ``DRes``. So a
      ``DRes`` member can lose its last ancestor only if its witness has
      just left;
    * an old ``Res`` member. It had no ancestor in the set, so a new one
      can only be a pattern that has just joined, and then it contains one
      that has just joined ``Res``. Each old member is probed against those
      few patterns.

    The re-test is :func:`normalize_frontier` over the first two groups.
    The result is exactly ``normalize_frontier(violating)``, whatever the
    order of the changes.

    ``res`` maps each ``Res`` member to the k at which it joined, and the
    result masks hold the runs of k that have ended. A member that leaves
    ``Res`` at step k sets its bits from its join to ``k − 1``, and
    :meth:`close` ends the runs still open. A step that changes nothing
    touches no mask.

    :meth:`satisfied_by` finds the violating patterns a tuple satisfies
    from a count of the attribute sets the violating patterns span. The
    count is built at its first call and kept up to date from then on, so
    a search that never asks (ITERTD, PROPBOUNDS) does not pay for it.
    """

    def __init__(self) -> None:
        self.violating: set[Pattern] = set()
        #: ``Res``: each member -> the k at which it joined.
        self.res: dict[Pattern, int] = {}
        #: ``DRes``: each member -> its witness.
        self.witness: dict[Pattern, Pattern] = {}
        #: witness -> the patterns that took it. An entry is stale once
        #: that pattern's witness is another (it is skipped, not deleted).
        self._dependents: dict[Pattern, list[Pattern]] = {}
        #: attribute set -> how many violating patterns span it; built by
        #: the first satisfied_by() call, and kept from then on.
        self._attr_sets: dict[tuple[int, ...], int] | None = None
        #: The net change since the last promote: patterns that joined the
        #: set, and patterns that left it.
        self._added: set[Pattern] = set()
        self._removed: set[Pattern] = set()
        #: Result masks of the ended runs.
        self._masks: dict[Pattern, int] = {}

    @property
    def dres(self) -> AbstractSet[Pattern]:
        """The paper's ``DRes``: the violating patterns not in ``Res``."""
        return self.witness.keys()

    def add(self, p: Pattern) -> None:
        if p in self.violating:
            return
        self.violating.add(p)
        counts = self._attr_sets
        if counts is not None:
            attrs = attr_indices(p)
            counts[attrs] = counts.get(attrs, 0) + 1
        if p in self._removed:
            self._removed.remove(p)
        else:
            self._added.add(p)

    def discard(self, p: Pattern) -> None:
        if p not in self.violating:
            return
        self.violating.remove(p)
        counts = self._attr_sets
        if counts is not None:
            attrs = attr_indices(p)
            if counts[attrs] == 1:
                del counts[attrs]
            else:
                counts[attrs] -= 1
        if p in self._added:
            self._added.remove(p)
        else:
            self._removed.add(p)

    def replace(self, patterns: AbstractSet[Pattern]) -> None:
        """Make ``patterns`` the violating set (a restarted search)."""
        for p in self.violating - patterns:
            self.discard(p)
        for p in patterns - self.violating:
            self.add(p)

    def satisfied_by(self, row: Sequence[str]) -> list[Pattern]:
        """The violating patterns that the tuple ``row`` satisfies: ``row``
        restricted to each attribute set that some violating pattern spans,
        looked up in the set."""
        if self._attr_sets is None:
            self._attr_sets = dict(Counter(map(attr_indices, self.violating)))
        pair = tuple(enumerate(row)).__getitem__
        violating = self.violating
        return [
            p for attrs in self._attr_sets
            if (p := tuple(map(pair, attrs))) in violating
        ]

    def promote(self, k: int) -> None:
        """Bring ``Res`` up to date at step ``k`` with the changes noted
        since the last call."""
        added, removed = self._added, self._removed
        if not (added or removed):
            return
        self._added, self._removed = set(), set()
        res, witness = self.res, self.witness
        for p in removed:
            joined = res.pop(p, None)
            if joined is None:
                del witness[p]
            else:
                self._end_run(p, joined, k - 1)
        orphans = {
            d for w in removed for d in self._dependents.pop(w, ())
            if witness.get(d) == w
        }
        candidates = added | orphans
        violating = self.violating
        new_res = normalize_frontier(violating, candidates)
        taken = {d: ancestor_in(d, violating) for d in candidates - new_res}
        fresh = new_res & added
        if fresh:
            # A pattern that contains f contains f's first pair.
            firsts = {f[0] for f in fresh}
            for r in list(res):
                if firsts.isdisjoint(r):
                    continue
                w = ancestor_in(r, fresh)
                if w is not None:
                    self._end_run(r, res.pop(r), k - 1)
                    taken[r] = w
        for p in new_res:
            witness.pop(p, None)
            res[p] = k
        witness.update(taken)
        dependents = self._dependents
        for d, w in taken.items():
            dependents.setdefault(w, []).append(d)

    def close(self, k: int) -> dict[Pattern, int]:
        """The result masks, the runs of the ``Res`` members ended at
        ``k`` (the last step)."""
        for p, joined in self.res.items():
            self._end_run(p, joined, k)
        return self._masks

    def _end_run(self, p: Pattern, first: int, last: int) -> None:
        if last >= first:
            self._masks[p] = self._masks.get(p, 0) | (
                (1 << (last + 1)) - (1 << first)
            )

    def check_invariants(self) -> None:
        """Debug/test hook, after :meth:`promote`: ``Res`` and ``DRes``
        split the violating set, every witness is a violating proper
        subpattern of its pattern and lists it as a dependent, and the
        attribute-set counts are those of the set. The tests' invariant
        hook also compares ``Res`` with ``normalize_frontier(violating)``."""
        assert not (self._added or self._removed)
        violating, res, witness = self.violating, self.res, self.witness
        assert res.keys() | witness.keys() == violating
        assert res.keys().isdisjoint(witness)
        for d, w in witness.items():
            assert w in violating and has_ancestor_in(d, {w}), (d, w)
            assert d in self._dependents[w], (d, w)
        if self._attr_sets is not None:
            assert self._attr_sets == dict(
                Counter(map(attr_indices, violating))
            )

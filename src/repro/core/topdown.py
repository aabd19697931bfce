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

The search collects one set: the generated patterns that violate. The
paper's ``update`` splits them on the fly into ``Res``, the most general,
and ``DRes``, the rest. Here ``DRes`` is not stored:
:func:`normalize_frontier` derives ``Res`` from the set in one pass, and
``DRes`` is what it leaves out. The output is the same, and the one
function serves all three algorithms.
"""
from __future__ import annotations

from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.pattern import (
    EMPTY,
    Pattern,
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
    violating: set[Pattern],
) -> None:
    """``searchFromNode``: continue the top-down search from ``node``'s
    search-tree children, adding the violators it finds to ``violating``."""
    _search_below(store, spec, tau, k, stats, node, violating)


def _search_below(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    node: Pattern,
    violating: set[Pattern],
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


def normalize_frontier(violating: set[Pattern]) -> set[Pattern]:
    """``Res`` of a set of generated violating patterns: the members with
    no proper subpattern in the set. ``DRes`` is the rest. A closed-form
    pass, so it does not depend on the order in which the patterns were
    found or removed."""
    return {p for p in violating if not has_ancestor_in(p, violating)}

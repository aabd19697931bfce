"""Pattern model (paper Definition 2.2) and search-tree children (Def. 4.1).

A *pattern* is a conjunction of attribute/value pairs. We represent it as a
tuple of ``(attr_index, value)`` pairs sorted by attribute index, where the
index refers to the dataset's ordered list of pattern attributes and values
are strings (all pattern attributes are categorical/bucketized). Tuples are
hashable, orderable and cheap — the search algorithms keep millions of them.
"""
from __future__ import annotations

from itertools import chain, combinations, repeat
from typing import AbstractSet, Iterator, Sequence

#: A pattern: ``((attr_idx, value), ...)`` sorted ascending by ``attr_idx``.
Pattern = tuple[tuple[int, str], ...]

#: The most general (empty) pattern — satisfied by every tuple.
EMPTY: Pattern = ()


def attr_indices(p: Pattern) -> tuple[int, ...]:
    """The sorted attribute indices referenced by ``p`` (``Attr(p)``)."""
    return next(zip(*p), ())


def max_index(p: Pattern) -> int:
    """``idx(Attr(p))`` of Definition 4.1; ``-1`` for the empty pattern."""
    return p[-1][0] if p else -1


def has_ancestor_in(p: Pattern, pool: AbstractSet[Pattern]) -> bool:
    """True iff some *proper* subpattern of ``p`` is in ``pool``.

    Looks up each of the ``2^|p| − 1`` proper subpatterns (sorted, since
    ``combinations`` keeps ``p``'s order) in the set ``pool``, most general
    first, so the cost does not grow with the pool; patterns are short. The
    subpatterns are chained into one ``isdisjoint`` probe, which stops at
    the first hit and runs without a Python-level loop.
    """
    return not pool.isdisjoint(
        chain.from_iterable(map(combinations, repeat(p), range(len(p))))
    )


def ancestor_in(p: Pattern, pool: AbstractSet[Pattern]) -> Pattern | None:
    """A proper subpattern of ``p`` in ``pool``, or ``None``. The most
    specific are looked up first, the tree parent ``p[:-1]`` before any."""
    return next(filter(pool.__contains__, chain.from_iterable(
        map(combinations, repeat(p), range(len(p) - 1, -1, -1))
    )), None)


def children(
    p: Pattern, domains: Sequence[Sequence[str]]
) -> Iterator[Pattern]:
    """Children of ``p`` in the search tree (Definition 4.1): extend ``p``
    with one ``A_j = v`` pair where ``j`` exceeds every index in ``p`` and
    ``v`` ranges over the active domain of ``A_j``."""
    for j in range(max_index(p) + 1, len(domains)):
        for v in domains[j]:
            yield p + ((j, v),)


def pattern_to_str(p: Pattern, attr_names: Sequence[str]) -> str:
    """Human-readable form, e.g. ``{sex=F, address=R}``."""
    if not p:
        return "{}"
    return "{" + ", ".join(f"{attr_names[a]}={v}" for a, v in p) + "}"

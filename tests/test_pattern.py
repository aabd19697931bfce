"""Unit tests for the pattern model and search-tree children (Def. 4.1)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern import (
    EMPTY,
    attr_indices,
    children,
    has_ancestor_in,
    max_index,
    pattern_to_str,
)
from tests.helpers import parents, satisfies

DOMAINS = [["a", "b"], ["x", "y", "z"], ["0", "1"]]


def test_empty_pattern_basics():
    assert attr_indices(EMPTY) == ()
    assert max_index(EMPTY) == -1


def test_attr_indices_and_values():
    p = ((0, "a"), (2, "1"))
    assert attr_indices(p) == (0, 2)
    assert max_index(p) == 2


def test_satisfies_empty_pattern_always():
    assert satisfies(("a", "x", "0"), EMPTY)


@pytest.mark.parametrize(
    "row,p,expected",
    [
        (("a", "x", "0"), ((0, "a"),), True),
        (("a", "x", "0"), ((0, "b"),), False),
        (("a", "x", "0"), ((0, "a"), (1, "x")), True),
        (("a", "x", "0"), ((0, "a"), (1, "y")), False),
        (("b", "z", "1"), ((2, "1"),), True),
    ],
)
def test_satisfies(row, p, expected):
    assert satisfies(row, p) is expected


def _is_subpattern(a, p):
    """``a ⊆ p``: equal, or a proper ancestor found by ``has_ancestor_in``."""
    return a == p or has_ancestor_in(p, {a})


def test_is_subpattern():
    p = ((0, "a"), (1, "x"))
    assert _is_subpattern(EMPTY, p)
    assert _is_subpattern(((0, "a"),), p)
    assert _is_subpattern(p, p)
    assert not _is_subpattern(((0, "b"),), p)
    assert not _is_subpattern(((2, "0"),), p)
    assert not _is_subpattern(((0, "a"), (1, "x"), (2, "0")), p)


def test_has_ancestor_in_proper_only():
    p = ((0, "a"), (1, "x"))
    assert has_ancestor_in(p, {((0, "a"),)})
    assert not has_ancestor_in(p, {p})  # equal is not a proper ancestor
    assert not has_ancestor_in(p, {((0, "b"),)})


def test_parents_enumerates_pattern_graph_edges():
    p = ((0, "a"), (1, "x"), (2, "0"))
    ps = set(parents(p))
    assert ps == {
        ((1, "x"), (2, "0")),
        ((0, "a"), (2, "0")),
        ((0, "a"), (1, "x")),
    }


def test_children_of_root_covers_all_single_attr_patterns():
    kids = list(children(EMPTY, DOMAINS))
    assert len(kids) == 2 + 3 + 2
    assert ((0, "a"),) in kids and ((2, "1"),) in kids


def test_children_only_extend_with_larger_index():
    """Definition 4.1: {G=F, S=GP} is a tree child of {G=F} only."""
    kids_of_g = list(children(((0, "a"),), DOMAINS))
    assert ((0, "a"), (1, "x")) in kids_of_g
    kids_of_s = list(children(((1, "x"),), DOMAINS))
    assert all(max_index(c) == 2 for c in kids_of_s)


def test_children_of_max_index_pattern_is_empty():
    assert list(children(((2, "0"),), DOMAINS)) == []


def test_pattern_to_str():
    names = ["Gender", "School"]
    assert pattern_to_str(EMPTY, names) == "{}"
    assert (
        pattern_to_str(((0, "F"), (1, "GP")), names) == "{Gender=F, School=GP}"
    )


@settings(max_examples=200, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 4), st.sampled_from("abc")), max_size=5))
def test_subpattern_reflexive_and_antisymmetric(items):
    """Property: every pattern is a subpattern of itself; removing any pair
    yields a proper subpattern."""
    by_attr = {}
    for a, v in items:
        by_attr[a] = v
    p = tuple(sorted(by_attr.items()))
    assert _is_subpattern(p, p)
    assert not has_ancestor_in(p, {p})
    for anc in parents(p):
        assert _is_subpattern(anc, p)
        assert has_ancestor_in(p, {anc})
        assert not _is_subpattern(p, anc)


#: A pattern over attributes 0–3 with values "a"/"b": small enough that
#: random pools often hold subpatterns of a random pattern.
_patterns = st.dictionaries(
    st.integers(0, 3), st.sampled_from("ab"), max_size=4
).map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=300, deadline=None)
@given(_patterns, st.sets(_patterns, max_size=8))
def test_has_ancestor_in_matches_set_containment(p, pool):
    """Property: the hashed lookup agrees with the definition — some pool
    member is a proper subset of ``p``'s attribute/value pairs."""
    expected = any(set(a) < set(p) for a in pool)
    assert has_ancestor_in(p, pool) is expected
    assert has_ancestor_in(p, pool | set(parents(p))) is bool(p)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30))
def test_search_tree_parent_unique(seed):
    """Every non-empty pattern reachable from the root has exactly one tree
    parent, itself minus its maximal-index pair (Definition 4.1) — the
    search tree is a tree (each pattern visited once)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n_attrs = int(rng.integers(1, 4))
    doms = [["0", "1"] for _ in range(n_attrs)]
    seen: dict = {}
    stack = [EMPTY]
    while stack:
        p = stack.pop()
        for c in children(p, doms):
            assert c not in seen, "pattern generated twice"
            seen[c] = p
            stack.append(c)
    for c, par in seen.items():
        assert par == c[:-1]

"""The incremental ``Res`` of :class:`~repro.core.topdown.Frontier`: after
any sequence of additions, removals and restarts, each ``promote`` leaves
``Res`` equal to ``normalize_frontier`` of the violating set and the
witnesses valid, ``satisfied_by`` finds what a scan of the set finds, and
the result masks are those of recording every step's ``Res``."""
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topdown import Frontier, normalize_frontier
from tests.helpers import add_step, satisfies

#: Every non-empty pattern over 3 attributes with values ``a``, ``b``.
PATTERNS = [
    tuple((i, v) for i, v in enumerate(values) if v is not None)
    for values in product((None, "a", "b"), repeat=3)
][1:]
patterns = st.sampled_from(PATTERNS)
rows = st.tuples(*[st.sampled_from("ab")] * 3)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), patterns),
        st.tuples(st.just("discard"), patterns),
        st.tuples(st.just("replace"), st.frozensets(patterns)),
        st.tuples(st.just("promote"), st.none()),
        st.tuples(st.just("satisfied_by"), rows),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_promote_keeps_res_exact(ops):
    frontier, expected, k = Frontier(), {}, 0
    for op, arg in [*ops, ("promote", None)]:
        if op == "promote":
            k += 1
            frontier.promote(k)
            frontier.check_invariants()
            res = normalize_frontier(frontier.violating)
            assert frontier.res.keys() == res
            assert frontier.dres == frontier.violating - res
            add_step(expected, res, k)
        elif op == "satisfied_by":
            assert sorted(frontier.satisfied_by(arg)) == sorted(
                p for p in frontier.violating if satisfies(arg, p)
            )
        else:
            getattr(frontier, op)(arg)
    assert frontier.close(k) == expected


def test_witness_follows_a_removed_ancestor():
    """A DRes member takes its tree parent as witness when it violates.
    When the witness leaves, the member stays in DRes while another
    ancestor violates, and joins Res when the last one leaves."""
    a, b = ((0, "a"),), ((1, "b"),)
    ab = a + b
    frontier = Frontier()
    for p in (ab, a, b):
        frontier.add(p)
    frontier.promote(1)
    assert frontier.res == {a: 1, b: 1} and frontier.witness == {ab: a}
    frontier.discard(a)
    frontier.promote(2)
    assert frontier.res == {b: 1} and frontier.witness == {ab: b}
    frontier.discard(b)
    frontier.promote(3)
    assert frontier.res == {ab: 3} and not frontier.dres
    assert frontier.close(4) == {a: 0b10, b: 0b110, ab: 0b11000}

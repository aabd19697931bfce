"""Unit tests for bound specs and the k̃ computation (Section IV-C)."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import iter_td
from repro.core.brute_force import brute_force
from repro.core.global_bounds import global_bounds
from repro.core.prop_bounds import prop_bounds
from repro.core.bounds import GlobalSpec, PropSpec, paper_default_global


class TestGlobalSpec:
    def test_step_function(self):
        spec = GlobalSpec({10: 10, 20: 20, 30: 30, 40: 40})
        assert spec.L(10) == 10
        assert spec.L(19) == 10
        assert spec.L(20) == 20
        assert spec.L(39) == 30
        assert spec.L(40) == 40
        assert spec.L(1000) == 40

    def test_below_first_step_uses_first_bound(self):
        spec = GlobalSpec({10: 5})
        assert spec.L(3) == 5

    def test_paper_default(self):
        spec = paper_default_global()
        assert [spec.L(k) for k in (10, 25, 35, 49)] == [10, 20, 30, 40]

    def test_violates_is_strict_less_than(self):
        spec = GlobalSpec({1: 5})
        assert spec.violates(4, 100, 1, 1000)
        assert not spec.violates(5, 100, 1, 1000)

    def test_decreasing_bounds_rejected(self):
        """Footnote 3: L_k must be non-decreasing."""
        with pytest.raises(ValueError):
            GlobalSpec({10: 20, 20: 10})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GlobalSpec({})


class TestPropSpec:
    def test_violates_formula(self):
        spec = PropSpec(0.8)
        # bound = 0.8 * 100 * 10 / 1000 = 0.8
        assert spec.violates(0, 100, 10, 1000)
        assert not spec.violates(1, 100, 10, 1000)

    def test_example_2_5_proportionality(self):
        """Example 2.5: 8 of 16 students per school → proportional top-5
        share is 2.5; with α=1 a count of 2 violates, 3 does not."""
        spec = PropSpec(1.0)
        assert spec.violates(2, 8, 5, 16)
        assert not spec.violates(3, 8, 5, 16)

    def test_bound_equal_to_count_is_not_violating(self):
        """0.8 · 3 · 5 / 12 is exactly 1; in floats it rounds to just
        above 1, which once made a count of 1 violate."""
        assert not PropSpec(0.8).violates(1, 3, 5, 12)
        assert PropSpec(0.8).violates(0, 3, 5, 12)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_non_positive_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            PropSpec(alpha)


def _scan_L(steps: dict[int, int], k: int) -> int:
    """The bound in force at ``k`` by a scan of the steps: that of the last
    step starting at or before ``k``, the first step's below every start."""
    items = sorted(steps.items())
    bound = items[0][1]
    for start, b in items:
        if k >= start:
            bound = b
    return bound


@st.composite
def _positions(draw):
    """``(n, k, size, c)`` with ``1 ≤ k ≤ n`` and ``0 ≤ c ≤ size ≤ n``."""
    n = draw(st.integers(1, 5000))
    k = draw(st.integers(1, n))
    size = draw(st.integers(0, n))
    c = draw(st.integers(0, size))
    return n, k, size, c


@st.composite
def _global_specs(draw):
    """Step functions: distinct starts, bounds non-decreasing with them."""
    starts = sorted(draw(st.sets(st.integers(1, 5000), min_size=1, max_size=6)))
    bounds = sorted(draw(st.lists(
        st.integers(0, 200), min_size=len(starts), max_size=len(starts)
    )))
    return dict(zip(starts, bounds))


class TestLinearBound:
    """``linear(k, n) = (a, b, t)`` is the bound at ``k`` in integers: a
    pattern violates iff ``a·c < b·size + t``. Checked against the exact
    rational inequality of each problem."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.decimals("0.001", "5", places=3, allow_nan=False)
        .filter(lambda d: d > 0).map(str),
        _positions(),
    )
    def test_prop_matches_exact_fraction(self, alpha, pos):
        n, k, size, c = pos
        spec = PropSpec(float(alpha))
        a, b, t = spec.linear(k, n)
        exact = Fraction(c) < Fraction(alpha) * size * k / n
        assert (a * c < b * size + t) is exact
        assert spec.violates(c, size, k, n) is exact

    @settings(max_examples=500, deadline=None)
    @given(_global_specs(), _positions())
    def test_global_matches_step_scan(self, steps, pos):
        n, k, size, c = pos
        spec = GlobalSpec(steps)
        assert spec.L(k) == _scan_L(steps, k)
        a, b, t = spec.linear(k, n)
        exact = Fraction(c) < _scan_L(steps, k)
        assert (a * c < b * size + t) is exact
        assert spec.violates(c, size, k, n) is exact

    @given(_global_specs(), st.integers(-10, 6000))
    def test_L_matches_step_scan_at_any_k(self, steps, k):
        """Below the first start, at each start and past the last."""
        assert GlobalSpec(steps).L(k) == _scan_L(steps, k)


class TestKTilde:
    def test_paper_example_4_7(self):
        """{Gender=F}: c=2, size=8, α=0.9, n=16 → k̃=5."""
        assert PropSpec(0.9).k_tilde(2, 8, 16) == 5

    def test_paper_example_4_9_values(self):
        spec = PropSpec(0.9)
        assert spec.k_tilde(3, 8, 16) == 7  # {School=MS}, {Address=R}
        assert spec.k_tilde(3, 6, 16) == 9  # {School=MS, Address=R}

    @pytest.mark.parametrize("c", range(0, 12))
    @pytest.mark.parametrize("size", [1, 3, 8, 20])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8, 0.9, 1.0, 1.3])
    def test_k_tilde_is_minimal_violating_k(self, c, size, alpha):
        """k̃ is the *first* k at which the fixed count violates."""
        n = 40
        spec = PropSpec(alpha)
        kt = spec.k_tilde(c, size, n)
        assert spec.violates(c, size, kt, n)
        if kt > 1:
            assert not spec.violates(c, size, kt - 1, n)

    def test_exact_integer_boundary(self):
        """When c·n/(α·size) is an exact integer K, the bound equals c at
        K (not violating, strict <), so k̃ = K+1."""
        # c=2, size=4, alpha=1, n=10 → c*n/(alpha*size) = 5 exactly.
        assert PropSpec(1.0).k_tilde(2, 4, 10) == 6
        # c·n/(α·size) = 5 exactly, but not in floats (0.8 is inexact).
        assert PropSpec(0.8).k_tilde(1, 3, 12) == 6

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="size"):
            PropSpec(0.8).k_tilde(1, 0, 10)


class TestParameterCheck:
    """Every detection entry point rejects an invalid k range or τ_s
    before it starts searching."""

    ALGORITHMS = [
        (iter_td, PropSpec(0.8)),
        (global_bounds, GlobalSpec({1: 2})),
        (prop_bounds, PropSpec(0.8)),
        (brute_force, PropSpec(0.8)),
    ]

    @pytest.fixture
    def store(self, paper_ds):
        return paper_ds.pandas_store()

    @pytest.mark.parametrize("fn,spec", ALGORITHMS)
    def test_k_min_below_one(self, store, fn, spec):
        with pytest.raises(ValueError, match="k_min"):
            fn(store, spec, 1, 0, 5)

    @pytest.mark.parametrize("fn,spec", ALGORITHMS)
    def test_k_min_above_k_max(self, store, fn, spec):
        with pytest.raises(ValueError, match="k_min"):
            fn(store, spec, 1, 6, 5)

    @pytest.mark.parametrize("fn,spec", ALGORITHMS)
    def test_k_max_above_n(self, store, fn, spec):
        with pytest.raises(ValueError, match="n=16"):
            fn(store, spec, 1, 1, store.n + 1)

    @pytest.mark.parametrize("fn,spec", ALGORITHMS)
    def test_tau_below_one(self, store, fn, spec):
        with pytest.raises(ValueError, match="tau"):
            fn(store, spec, 0, 1, 5)

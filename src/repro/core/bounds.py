"""Bound specifications for the two problem definitions.

* :class:`GlobalSpec` — Problem 3.1 (global representation bounds): a
  user-given stepwise lower bound ``L_k``. The paper's default is
  10/20/30/40 stepping at k = 20/30/40.
* :class:`PropSpec` — Problem 3.2 (proportional representation): the bound
  for a pattern ``p`` at position ``k`` is ``α · s_D(p) · k / |D|``. Its
  :meth:`~PropSpec.k_tilde` is that inequality solved for ``k``: the minimal
  ``k`` at which a currently-passing pattern becomes violating if its top-k
  count stays fixed (Section IV-C).
* :func:`check_params` — the parameter check every detection entry point
  runs first.

Both specs resolve their bound at one ``k`` to integers
(:meth:`~GlobalSpec.linear`): ``(a, b, t)`` such that a pattern with top-k
count ``c`` and size ``s_D(p)`` violates iff ``a·c < b·s_D(p) + t``. This is
the bound's one definition: ``violates`` evaluates it, and the search loops
resolve it once per ``k`` and test every pattern with two products and a
comparison, whatever the spec.

The proportional bound is compared in integers, with ``α`` read as the
exact fraction of its decimal form (``0.8`` is ``4/5``), so a bound that is
exactly an integer is never rounded past the count it is compared with.

Only the lower-bound side is implemented, matching the paper's evaluation
(Section III: "for ease of presentation ... only the lower bounds").
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence


class _LinearBound:
    """``violates`` through the spec's :meth:`linear` form."""

    def linear(self, k: int, n: int) -> tuple[int, int, int]:
        raise NotImplementedError

    def violates(self, c: int, size: int, k: int, n: int) -> bool:
        """True iff a pattern of size ``size`` with top-k count ``c`` is
        below the bound at ``k`` over ``n`` tuples: ``a·c < b·size + t``
        for ``(a, b, t) = linear(k, n)``. Loops over many patterns at one
        ``k`` resolve :meth:`linear` once instead."""
        a, b, t = self.linear(k, n)
        return a * c < b * size + t


@dataclass(frozen=True)
class GlobalSpec(_LinearBound):
    """Lower bounds for Problem 3.1 as a sorted step function.

    ``steps`` maps a starting ``k`` to the bound that applies from that k on
    (until the next step). E.g. the paper default
    ``{10: 10, 20: 20, 30: 30, 40: 40}``.
    """

    steps: Mapping[int, int]
    #: The step starts, ascending, and the bound from each on.
    _starts: Sequence[int] = field(init=False, repr=False, compare=False)
    _bounds: Sequence[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        items = sorted(self.steps.items())
        if not items:
            raise ValueError("at least one bound step is required")
        bounds = [b for _, b in items]
        if bounds != sorted(bounds):
            # Footnote 3: L_k must be non-decreasing in k.
            raise ValueError("lower bounds must be non-decreasing in k")
        object.__setattr__(self, "_starts", [s for s, _ in items])
        object.__setattr__(self, "_bounds", bounds)

    def L(self, k: int) -> int:
        """The lower bound in force at position ``k``: that of the last
        step starting at or before ``k``, the first step's below it."""
        return self._bounds[max(bisect_right(self._starts, k) - 1, 0)]

    def linear(self, k: int, n: int) -> tuple[int, int, int]:
        """``(1, 0, L(k))``: a top-k count ``c`` violates iff
        ``c < L(k)``; the size and ``n`` do not enter."""
        return 1, 0, self.L(k)


def paper_default_global() -> GlobalSpec:
    """The paper's default bounds: 10 for k<20, 20 for k<30, 30 for k<40,
    40 for k>=40."""
    return GlobalSpec({10: 10, 20: 20, 30: 30, 40: 40})


@dataclass(frozen=True)
class PropSpec(_LinearBound):
    """Proportional lower bound of Problem 3.2: ``α · s_D(p) · k / |D|``."""

    alpha: float
    _num: int = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        frac = Fraction(str(self.alpha))
        object.__setattr__(self, "_num", frac.numerator)
        object.__setattr__(self, "_den", frac.denominator)

    def linear(self, k: int, n: int) -> tuple[int, int, int]:
        """``(n·den, num·k, 0)``: ``c < α · size · k / n`` (strict, as in
        Problem 3.2) is exactly ``c · n · den < num · k · size``."""
        return n * self._den, self._num * k, 0

    def k_tilde(self, c: int, size: int, n: int) -> int:
        """Minimal ``k`` with ``c < α · size · k / n`` when ``c`` is held
        fixed: ``⌊c·n·den / (num·size)⌋ + 1``, in integers.

        Matches the paper's Example 4.7 (c=2, size=8, α=0.9, n=16 → k̃=5)
        and Example 4.9 (c=3, size=6 → k̃=9).
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        return c * n * self._den // (self._num * size) + 1


def check_params(n: int, tau: int, k_min: int, k_max: int) -> None:
    """Reject a k range outside ``1 ≤ k_min ≤ k_max ≤ n`` (``n`` = |D|) or
    a size threshold ``τ_s < 1``."""
    if not 1 <= k_min <= k_max <= n:
        raise ValueError(
            f"need 1 <= k_min <= k_max <= n, got k_min={k_min}, "
            f"k_max={k_max}, n={n}"
        )
    if tau < 1:
        raise ValueError(f"need tau >= 1, got tau={tau}")

"""Core algorithms of the paper: pattern model, pattern-statistics stores,
and the three search algorithms (ITERTD, GLOBALBOUNDS, PROPBOUNDS)."""

from repro.core.pattern import (  # noqa: F401
    EMPTY,
    Pattern,
    attr_indices,
    children,
    has_ancestor_in,
    max_index,
    pattern_to_str,
)
from repro.core.bounds import (  # noqa: F401
    GlobalSpec,
    PropSpec,
    paper_default_global,
)
from repro.core.topdown import top_down_search  # noqa: F401
from repro.core.store import (  # noqa: F401
    PatternStat,
    StatsStore,
)
from repro.core.result import SearchResult, SearchStats  # noqa: F401
from repro.core.itertd import iter_td  # noqa: F401
# The modules, not their functions of the same names, so that
# ``import repro.core.global_bounds as gb`` gives the module.
from repro.core import brute_force, global_bounds, prop_bounds  # noqa: F401

"""Ranking substrate: score computation and rank assignment."""

from repro.ranking.rankers import (  # noqa: F401
    add_rank,
    normalized_score,
    rank_frame,
)

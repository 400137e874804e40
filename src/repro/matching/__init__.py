"""Graph pattern matching substrate (the PMatch / IncPMatch operators).

The package-level ``has_matching`` / ``count_matchings`` /
``matched_node_sets`` / ``match_many`` route through the indexed, memoising
:mod:`repro.matching.engine`; the reference matcher in
:mod:`repro.matching.isomorphism` is what tests check them against.
``find_matchings`` / ``iter_matchings`` expose full matching *functions* and
always run the reference search (the engine memoises derived results, not
raw mappings).
"""

from repro.matching.coverage import (
    coverage_summary,
    covered_edges,
    covered_nodes,
    pattern_set_covered_nodes,
    pattern_set_covers_nodes,
)
from repro.matching.engine import (
    MatchEngine,
    count_matchings,
    get_engine,
    has_matching,
    match_many,
    matched_node_sets,
    set_match_cache_size,
    warm_match_indices,
)
from repro.matching.incremental import IncrementalMatcher
from repro.matching.isomorphism import find_matchings, iter_matchings

__all__ = [
    "find_matchings",
    "iter_matchings",
    "has_matching",
    "count_matchings",
    "matched_node_sets",
    "match_many",
    "MatchEngine",
    "get_engine",
    "set_match_cache_size",
    "warm_match_indices",
    "covered_nodes",
    "covered_edges",
    "pattern_set_covered_nodes",
    "pattern_set_covers_nodes",
    "coverage_summary",
    "IncrementalMatcher",
]

"""hatlab: exact and randomized solvers for the cooperative hat-stack
guessing game, intersecting-family games, and their graph-theoretic
counterparts (disjointness graphs, Hamming powers, shift graphs, random
subsets)."""

__version__ = "0.1.0"

from .blockers import (
    Blocker,
    BlockerFamily,
    base_blockers,
    certify_family,
    construct_blockers,
    decrement_bound,
    family_from_json,
    family_to_json,
    k_sequence,
    min_graph_blocker,
    verify_blocker,
)
from .errors import (
    HatlabError,
    MalformedStrategyError,
    UnsupportedSizeError,
)
from .game import (
    Strategy,
    WinningFamily,
    enumerate_family,
    success_probability,
    winning_set,
)
from .graphs import (
    Graph,
    MisResult,
    complete_graph,
    edgeless_graph,
    hamming_power,
    hamming_product,
    inclusion_maximal_independent_sets,
    kneser,
    max_independent_set,
    maximum_independent_sets,
    random_graph,
    shift_graph,
)
from .randomsub import (
    AlphaStarStarEstimate,
    alpha_star_star_exact,
    alpha_star_star_mc,
    check_Rv_statistics,
    epsilon_gap,
)
from .solver import (
    SolveResult,
    best_response_value,
    dominance_chain,
    exact_p,
    local_search_p,
)

__all__ = [
    "__version__",
    "Blocker",
    "BlockerFamily",
    "Graph",
    "MisResult",
    "SolveResult",
    "Strategy",
    "WinningFamily",
    "AlphaStarStarEstimate",
    "HatlabError",
    "UnsupportedSizeError",
    "MalformedStrategyError",
    "alpha_star_star_exact",
    "alpha_star_star_mc",
    "base_blockers",
    "best_response_value",
    "certify_family",
    "check_Rv_statistics",
    "complete_graph",
    "construct_blockers",
    "decrement_bound",
    "dominance_chain",
    "edgeless_graph",
    "enumerate_family",
    "epsilon_gap",
    "exact_p",
    "family_from_json",
    "family_to_json",
    "hamming_power",
    "hamming_product",
    "inclusion_maximal_independent_sets",
    "k_sequence",
    "kneser",
    "local_search_p",
    "max_independent_set",
    "maximum_independent_sets",
    "min_graph_blocker",
    "random_graph",
    "shift_graph",
    "success_probability",
    "verify_blocker",
    "winning_set",
]

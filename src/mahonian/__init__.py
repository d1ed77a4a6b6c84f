"""Words, integer partitions, Foata's fundamental bijection, and an exact
Laurent-polynomial engine for checking equidistribution identities by
exhaustive enumeration.

Everything is exact integer arithmetic on immutable values; all functions
are pure and safe for concurrent use.
"""

from .bijections import (
    ballot_split,
    ballot_unsplit,
    chains,
    csv_chain,
    csv_map,
    csv_step,
    csv_trace,
    csv_via_words,
    flip_rightmost_unpaired_two,
    gk_inverse,
    gk_map,
    ones_composition_word,
    ones_compositions,
    twos_composition_word,
    twos_compositions,
)
from .foata import (
    foata,
    foata_binary,
    foata_inverse,
    foata_inverse_binary,
    foata_peel,
    foata_step,
    foata_trace,
    foata_tree,
)
from .genfun import (
    carlitz_series,
    catalan_nd_q,
    catalan_nd_qt,
    catalan_q,
    catalan_qt,
    distribution,
    fib_poly,
    fibonacci,
    lucanomial,
    lucas_poly,
    q_binomial,
    q_factorial,
    q_int,
    st_catalan,
    truncated_product,
)
from .laurent import ONE, Q, S, T, VARS, Z, ZERO, Laurent, monomial
from .partitions import (
    boundary_word,
    conjugate,
    delta,
    durfee,
    ferrers,
    format_partition,
    max_rank,
    parse_partition,
    partition_of_boundary,
    partition_of_word,
    partitions_in_box,
    partitions_of,
    ranks,
)
from .verify import CHECKS, Counterexample, PairReport, check_mahonian_pair, run_check, run_suite
from .words import (
    avoiders,
    ballot_words,
    des,
    descent_set,
    exc,
    excess_profile,
    fibonacci_dual_words,
    fibonacci_words,
    format_word,
    inv,
    is_ballot,
    letter_sum_words,
    maj,
    match_pairs,
    ones_twos_compositions,
    parse_word,
    pattern_class,
    permutations_of,
    reverse_complement,
    run_decomposition,
    suffix_words,
    symmetric_group,
)

__version__ = "0.1.0"

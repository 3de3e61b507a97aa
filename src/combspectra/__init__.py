"""Exact combinatorial spectra of ring-weighted complete graphs.

The package computes spectra of star products of weighted complete graphs
over one exact coefficient ring (bivariate polynomials with Gaussian-integer
coefficients) and uses them to decide antimagic labelings, irregularity
strength, local irregularity with labels 1-3, domination and edge Roman
domination, each cross-checked against an independent brute-force oracle.
"""

from .characterize import (
    Verdict,
    antimagic_family,
    antimagic_unweighted,
    antimagic_weighted,
    decode_edge_roman,
    dominating_k,
    dominating_set_of,
    dominating_witnesses,
    edge_roman_at_most,
    hamiltonian_cycle_spectrum,
    hamiltonian_number,
    hamiltonian_spectrum,
    irregular_weighted,
    local_irregular_weighted,
    one_two_three,
    strength_at_most,
)
from .errors import (
    CombSpectraError,
    NotDivisibleError,
    ParseError,
    PreconditionError,
    SizeGuardError,
    StabilizationError,
    TimeLimitError,
)
from .families import (
    GraphFamily,
    Spectrum,
    all_colorings_family,
    colorings_of_graph,
    edge_deleted_family,
    family_product,
    family_sum,
    in_palette_family,
    integer_palette,
    iter_colorings,
    power_fixpoint,
    singleton,
    spectrum_of,
)
from .gadgets import (
    WeightedCompleteGraph,
    contrast_pair,
    contrast_reader,
    cover_pair,
    cover_reader,
    degree_reader,
    distance_weighting,
    domination_probe,
    edge_indicator,
    hamiltonian_sum,
    indicator,
    pair_index,
    pair_rank,
    pair_reader,
    star_indicator,
    star_product,
    weighted_embedding,
)
from .graphs import (
    SimpleGraph,
    all_pairs_distances,
    complete_graph,
    component_orders,
    cycle_graph,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_graph,
    star_graph,
    to_edge_list,
    to_graph6,
)
from .limits import DEFAULT_LIMITS, Limits
from .ring import GaussInt, RingElem

__version__ = "0.1.0"

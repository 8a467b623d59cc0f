"""Depth-optimal sorting network toolkit.

Generates complete sets of two-layer comparator-network prefixes modulo
symmetry, encodes depth-d sorting-network existence as CNF, and drives an
external DIMACS SAT solver to find optimal-depth networks and prove depth
lower bounds for small channel counts.
"""

from .networks import (
    Network,
    first_layer,
    outputs,
    is_sorting_network,
    unsorted_inputs,
    windows,
    untangle,
    reflect,
    network,
)
from .words import (
    Word,
    word_of,
    sentence_of,
    net_of,
    reflect_word,
    cycle_canonical,
    is_asymmetric,
    sentences,
    matchings,
    counts,
    telephone,
    parse_sentence,
    render_sentence,
)
from .saturation import (
    is_redundant,
    is_saturated,
    saturated_layers,
    saturate,
)
from .encoding import Cnf, EncodeOptions, VarMap, build, decode_network, to_dimacs
from .solver import SolverConfig, default_config, parse_solver_output, run_solver, solve_file
from .report import Campaign, CampaignResult, InstanceResult, campaign_from_json, campaign_to_json
from .campaign import (
    compute_T,
    find_network_campaign,
    prove_lower_bound,
    reproduce_tables,
    two_layer_prefixes,
)

__all__ = [name for name in dir() if not name.startswith("_")]

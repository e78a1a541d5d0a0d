"""Exact minimum clique numbers of graphs with a prescribed chromatic
number, via the known Ramsey bounds R(3, ell), with certified extremal
constructions and brute-force oracles.

Everything is exact: the solvers enumerate, the catalog certifies every
witness it hands out, intervals carry the uncertainty of open Ramsey
values, and the oracle pins it all down on up to eight vertices.
"""

from .constructions import (
    ComposeInput,
    ExtremalWitness,
    build_extremal,
    compose_alpha2,
)
from .errors import (
    CapacityError,
    Graph6Error,
    InvalidEdgeError,
    InvalidVertexError,
    PreconditionError,
    UnsupportedWitnessError,
)
from .graphs import (
    Graph,
    circulant,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    join,
    parse_graph6,
    relabel,
    serialize_graph6,
)
from .intervals import IntInterval
from .matching import (
    EGDecomposition,
    Matching,
    edmonds_gallai,
    matching_number,
    max_matching,
    verify_complement_partition,
)
from .oracle import brute_Q, brute_gap, canonical_form, count_graphs, enumerate_graphs
from .qfunction import QCertificate, chromatic_gap, q, q_bounded_s, q_value
from .ramsey import WitnessCatalog, default_catalog, r3, small_omega
from .solvers import (
    chromatic_number,
    clique_number,
    independence_number,
    is_k_colorable,
    max_clique,
)

__version__ = "0.1.0"

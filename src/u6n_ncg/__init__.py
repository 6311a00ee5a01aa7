"""Non-commuting graph toolkit for the groups U(6n).

Builds U(6n) from its presentation (or any finite group from a Cayley
table), constructs the non-commuting graph on the non-central elements,
computes its invariants and counting polynomials by exhaustive search,
and cross-checks everything against closed-form predictions in n.
"""

from .closed_forms import Prediction
from .graphs import (
    Graph,
    export_graph,
    find_induced,
    is_complete_multipartite,
    is_k_regular,
    non_commuting_graph,
)
from .groups import (
    FiniteGroup,
    U6nElement,
    group_from_json,
    group_from_table,
    u6n_group,
)
from .invariants import (
    Caps,
    CapacityError,
    DEFAULT_CAPS,
    DisconnectedGraphError,
    ResolvingSequence,
)
from .polynomials import IntPolynomial, integer_roots
from .verify import ReportEntry, VerificationReport, verify_all

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "CapacityError",
    "DEFAULT_CAPS",
    "DisconnectedGraphError",
    "FiniteGroup",
    "Graph",
    "IntPolynomial",
    "Prediction",
    "ReportEntry",
    "ResolvingSequence",
    "U6nElement",
    "VerificationReport",
    "export_graph",
    "find_induced",
    "group_from_json",
    "group_from_table",
    "integer_roots",
    "is_complete_multipartite",
    "is_k_regular",
    "non_commuting_graph",
    "u6n_group",
    "verify_all",
]

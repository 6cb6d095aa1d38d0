"""graphspan: safety-distance spans of graphs.

Computes the three vertex spans and three edge spans of a finite connected
graph (the maximal distance two players can keep while visiting all vertices
or all edges under traditional, active, or lazy movement rules), extracts
witness walk pairs, and finds the minimal walk lengths achieving each span.
"""

from .errors import (
    DisconnectedInput,
    DuplicateEdge,
    EdgeNotPresent,
    EmptyEdgeSet,
    GraphSpanError,
    IndexOutOfRange,
    InternalError,
    InvalidParams,
    InvalidVertex,
    LengthMismatch,
    MalformedInput,
    NoClosedForm,
    NotATrack,
    NotEulerian,
    SelfLoop,
    ThresholdOutOfRange,
    TooLarge,
    VerificationFailure,
)
from .families import (
    automorphism_count,
    canonical_form,
    closed_minlen,
    closed_span,
    enumerate_connected,
    find_minimal_direct_gap,
    is_isomorphic,
)
from .graph import (
    FamilySpec,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    generate,
    kn_plus,
    line_graph,
    parse_edge_list,
    parse_graph6,
    path,
    star,
    subdivide_edge,
)
from .minlen import DEFAULT_STATE_BUDGET, MinLenReport, length_lower_bounds, min_length
from .postman import (
    CoveringWalkResult,
    euler_class,
    eulerian_walk,
    shortest_covering_walk,
)
from .spans import (
    RULES,
    TARGETS,
    Rule,
    SpanReport,
    Target,
    all_spans,
    feasible,
    span,
    witness_sweeps,
)
from .walks import (
    Walk,
    WalkClass,
    classify,
    format_walk,
    induce_opposite,
    is_opposite_lazy,
    pair_distance,
    parse_walk,
)

__all__ = [
    # errors
    "GraphSpanError", "DisconnectedInput", "DuplicateEdge", "EdgeNotPresent",
    "EmptyEdgeSet", "IndexOutOfRange", "InternalError", "InvalidParams",
    "InvalidVertex", "LengthMismatch", "MalformedInput", "NoClosedForm",
    "NotATrack", "NotEulerian", "SelfLoop", "ThresholdOutOfRange", "TooLarge",
    "VerificationFailure",
    # graphs and families
    "Graph", "FamilySpec", "generate", "path", "cycle", "complete",
    "complete_bipartite", "star", "kn_plus", "subdivide_edge", "line_graph",
    "parse_edge_list", "parse_graph6",
    # spans and witnesses
    "Rule", "Target", "RULES", "TARGETS", "SpanReport", "span", "all_spans",
    "feasible", "witness_sweeps",
    # walks
    "Walk", "WalkClass", "classify", "pair_distance", "is_opposite_lazy",
    "induce_opposite", "format_walk", "parse_walk",
    # minimal lengths
    "DEFAULT_STATE_BUDGET", "MinLenReport", "min_length", "length_lower_bounds",
    # route inspection
    "CoveringWalkResult", "euler_class", "eulerian_walk", "shortest_covering_walk",
    # closed forms, canonical forms and enumeration
    "closed_span", "closed_minlen", "canonical_form", "is_isomorphic",
    "automorphism_count", "enumerate_connected", "find_minimal_direct_gap",
]

__version__ = "0.1.0"

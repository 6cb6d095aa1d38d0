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

__version__ = "0.1.0"

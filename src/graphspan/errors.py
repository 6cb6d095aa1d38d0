"""Exception types shared by all graphspan modules."""


class GraphSpanError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(GraphSpanError):
    """Input text does not follow the edge-list or graph6 grammar."""


class IndexOutOfRange(GraphSpanError):
    """A vertex index lies outside 0..n-1."""


class SelfLoop(GraphSpanError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GraphSpanError):
    """The same unordered vertex pair appears twice."""


class DisconnectedInput(GraphSpanError):
    """The graph is not connected; spans are defined on connected graphs only."""


class InvalidParams(GraphSpanError):
    """An argument of the wrong kind or outside its admissible range: a
    graph, walk, family spec, rule, target, mode or text argument of another
    type, or an int argument (a vertex count, family parameter, edge
    endpoint, threshold, order or budget) that is not an int, is a bool, or
    is below its least value."""


class EdgeNotPresent(GraphSpanError):
    """The named edge does not belong to the graph."""


class EmptyEdgeSet(GraphSpanError):
    """The operation needs at least one edge."""


class InvalidVertex(GraphSpanError):
    """A walk entry, or an argument of ``Graph.degree`` or
    ``Graph.has_edge``, is not a vertex of the graph."""


class LengthMismatch(GraphSpanError):
    """The two walks do not have the same number of entries."""


class NotATrack(GraphSpanError):
    """The walk contains a stay-step where a strict track is required."""


class NotEulerian(GraphSpanError):
    """The graph has neither an Eulerian circuit nor an Eulerian trail."""


class ThresholdOutOfRange(GraphSpanError):
    """The distance threshold is negative or exceeds the graph radius."""


class TooLarge(GraphSpanError):
    """The input exceeds a fixed size bound: a family parameter or family
    graph order above graph.ORDER_LIMIT, raised by FamilySpec and by the
    generators path, cycle, complete, complete_bipartite, star and kn_plus
    before any edge is built; an edge-list vertex count above it, raised as
    it is parsed, before any graph is built; or a bound of an exhaustive
    computation, the enumeration order or the order of the canonical search
    behind canonical_form, is_isomorphic and automorphism_count, raised
    before that computation runs."""


class NoClosedForm(GraphSpanError):
    """No tabulated closed form exists for the requested family/variant."""


class VerificationFailure(GraphSpanError):
    """A cross-check against tabulated reference values failed."""


class InternalError(GraphSpanError):
    """An engine invariant was breached; this is a bug, not an input error."""

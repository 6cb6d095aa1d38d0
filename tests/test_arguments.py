"""Every exported callable, called with each argument replaced in turn by
each of a fixed list of wrong values, raises a GraphSpanError, or returns
normally where the allow-list below names the case."""

from __future__ import annotations

import graphspan
from graphspan import FamilySpec, GraphSpanError, Rule, Target, Walk, cycle, path
from graphspan.graph import ORDER_LIMIT

G = cycle(4)  # Eulerian, with a walk pair below
F, H = Walk((0, 1, 2, 3)), Walk((2, 3, 0, 1))
SPEC = FamilySpec("cycle", (6,))

# valid arguments of every exported callable but the classes listed in
# NOT_CALLED; each call returns normally, checked first
VALID = {
    "Graph": (2, [(0, 1)]),
    "FamilySpec": ("cycle", (6,)),
    "generate": (SPEC,),
    "path": (3,),
    "cycle": (4,),
    "complete": (3,),
    "complete_bipartite": (2, 3),
    "star": (3,),
    "kn_plus": (4,),
    "subdivide_edge": (G, (0, 1)),
    "line_graph": (G,),
    "parse_edge_list": ("2\n0 1\n",),
    "parse_graph6": ("A_",),
    "span": (G, Rule.LAZY, Target.EDGES),
    "all_spans": (G,),
    "feasible": (G, Rule.LAZY, Target.EDGES, 1),
    "witness_sweeps": (G, Rule.LAZY, Target.EDGES),
    "Walk": ((0, 1),),
    "classify": (G, F),
    "pair_distance": (G, F, H),
    "is_opposite_lazy": (G, F, H),
    "induce_opposite": (F, H),
    "format_walk": (F,),
    "parse_walk": ("v1,v2", 4),
    "min_length": (path(3), Rule.ACTIVE, Target.VERTICES, 1000),
    "length_lower_bounds": (G, Rule.LAZY, Target.EDGES),
    "euler_class": (G,),
    "eulerian_walk": (G,),
    "shortest_covering_walk": (G, "closed"),
    "closed_span": (SPEC, Rule.LAZY, Target.EDGES),
    "closed_minlen": (SPEC, Rule.LAZY, Target.EDGES),
    "canonical_form": (G,),
    "is_isomorphic": (G, G),
    "automorphism_count": (G,),
    "enumerate_connected": (3, 3),
    "find_minimal_direct_gap": (),
}

# exported classes called only through the functions that build them
NOT_CALLED = {"Rule", "Target", "SpanReport", "WalkClass", "MinLenReport", "CoveringWalkResult"}

WRONG = {
    "None": None,
    "'a'": "a",
    "1.5": 1.5,
    "True": True,
    "-1": -1,
    "ORDER_LIMIT + 1": ORDER_LIMIT + 1,
    "[]": [],
    "(0,)": (0,),
    "('a', 'b')": ("a", "b"),
    "{}": {},
    "Walk((0, 'a'))": Walk((0, "a")),
    "object()": object(),
}

# every (callable, argument position, wrong value) that returns normally
ALLOWED = {
    # a Walk holds any entries; they are checked where the walk is used
    ("Walk", 0, "'a'"),
    ("Walk", 0, "(0,)"),
    ("Walk", 0, "('a', 'b')"),
    # no graph has order at most -1, or size at most -1
    ("enumerate_connected", 0, "-1"),
    ("enumerate_connected", 1, "-1"),
    # max_m None is no size bound, and a bound above every size is none
    ("enumerate_connected", 1, "None"),
    ("enumerate_connected", 1, "ORDER_LIMIT + 1"),
    # an order above ORDER_LIMIT only widens the vertex names read
    ("parse_walk", 1, "ORDER_LIMIT + 1"),
    # a larger state budget than the search stores
    ("min_length", 3, "ORDER_LIMIT + 1"),
}


def test_valid_arguments_cover_every_exported_callable():
    exported = {name: getattr(graphspan, name) for name in graphspan.__all__}
    callables = {name for name, obj in exported.items() if callable(obj)
                 and not (isinstance(obj, type) and issubclass(obj, GraphSpanError))}
    assert callables - NOT_CALLED == set(VALID)
    for name, args in VALID.items():
        getattr(graphspan, name)(*args)


def test_every_wrong_argument_raises_a_typed_error():
    # the returns must be exactly ALLOWED, so an entry that now raises is
    # stale and fails the test too
    untyped, returned = [], set()
    for name, args in VALID.items():
        for i in range(len(args)):
            for label, value in WRONG.items():
                case = (name, i, label)
                # a returned generator is not consumed: a wrong argument
                # must raise at the call, not at the first next()
                try:
                    getattr(graphspan, name)(*args[:i], value, *args[i + 1:])
                except GraphSpanError:
                    continue
                except Exception as exc:  # any other type is what this test reports
                    untyped.append(case + (type(exc).__name__,))
                    continue
                returned.add(case)
    assert untyped == []
    assert returned == ALLOWED

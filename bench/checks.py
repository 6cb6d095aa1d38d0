"""Output checks that do not use the engines under test.

Graphs are rebuilt from their edge lists with this module's own adjacency
sets and breadth-first distances; walks are re-parsed from the CLI text and
checked step by step against the movement rule, the coverage target and the
reported distance. Reference values come from the tabulated closed forms in
``graphspan.families`` and from route-inspection formulas, never from the span,
minlen or postman engines.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations

RULE_OF_LABEL = {"strong": "traditional", "direct": "active", "cartesian": "lazy"}
VARIANTS = tuple((r, t) for r in ("traditional", "active", "lazy") for t in ("vertices", "edges"))

# OEIS A001349: connected graphs on n = 1..6 unlabeled vertices.
A001349 = (1, 1, 2, 6, 21, 112)


@dataclass(frozen=True)
class Verdict:
    problems: tuple[str, ...]
    witness_entries: int = 0


class RefGraph:
    """Simple connected graph held as plain sets, with its own BFS metric."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        self.adj = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.dist = [self._bfs(s) for s in range(n)]
        self.connected = all(d >= 0 for row in self.dist for d in row)
        self.radius = min(max(row) for row in self.dist)

    @property
    def m(self) -> int:
        return len(self.edges)

    def _bfs(self, src: int) -> list[int]:
        dist = [-1] * self.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def odd_vertices(self) -> list[int]:
        return [u for u in range(self.n) if len(self.adj[u]) % 2]


def family_graph(spec: str) -> RefGraph:
    """The family member named by a CLI spec such as 'kn_plus:9'."""
    name, _, params = spec.partition(":")
    p = [int(x) for x in params.split(",")]
    if name == "path":
        return RefGraph(p[0], [(i, i + 1) for i in range(p[0] - 1)])
    if name == "cycle":
        return RefGraph(p[0], [(i, (i + 1) % p[0]) for i in range(p[0])])
    if name == "complete":
        return RefGraph(p[0], combinations(range(p[0]), 2))
    if name == "complete_bipartite":
        a, b = p
        return RefGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if name == "star":
        return RefGraph(p[0], [(0, i) for i in range(1, p[0])])
    if name == "kn_plus":
        n = p[0]
        edges = [e for e in combinations(range(n), 2) if e != (0, n - 1)]
        return RefGraph(n + 1, edges + [(0, n), (n - 1, n)])
    raise ValueError(f"unknown family {name!r}")


def isomorphic(a: RefGraph, b: RefGraph) -> bool:
    """Brute force over all vertex permutations (small graphs only)."""
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(len(x) for x in a.adj) != sorted(len(x) for x in b.adj):
        return False
    for perm in permutations(range(a.n)):
        if all(((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in b.edges
               for u, v in a.edges):
            return True
    return False


# ---------------------------------------------------------------------------
# Walks


def parse_walk(text: str, n: int) -> list[int]:
    seq = []
    for token in text.strip().split(","):
        if not token.startswith("v"):
            raise ValueError(f"bad vertex token {token!r}")
        x = int(token[1:]) - 1
        if not 0 <= x < n:
            raise ValueError(f"vertex {token} outside v1..v{n}")
        seq.append(x)
    return seq


def walk_pair_problems(g: RefGraph, rule: str, target: str, f, h, distance: int) -> list[str]:
    """Everything wrong with (f, h) as a covering pair at the given distance."""
    tag = f"{rule}/{target}"
    if not f or len(f) != len(h):
        return [f"{tag}: walk lengths {len(f)} and {len(h)}"]
    for w in (f, h):
        if any(not 0 <= x < g.n for x in w):
            return [f"{tag}: walk entry outside 0..{g.n - 1}"]
    problems = []
    for i in range(len(f) - 1):
        a, b, c, d = f[i], f[i + 1], h[i], h[i + 1]
        f_moves, h_moves = a != b, c != d
        if (f_moves and b not in g.adj[a]) or (h_moves and d not in g.adj[c]):
            problems.append(f"{tag}: step {i + 1} leaves the edges of the graph")
            break
        if rule == "active" and not (f_moves and h_moves):
            problems.append(f"{tag}: step {i + 1} has a player standing still")
            break
        if rule == "lazy" and f_moves == h_moves:
            problems.append(f"{tag}: step {i + 1} does not move exactly one player")
            break
    for name, w in (("f", f), ("g", h)):
        if target == "vertices":
            if len(set(w)) != g.n:
                problems.append(f"{tag}: {name} visits {len(set(w))} of {g.n} vertices")
        else:
            covered = {(a, b) if a < b else (b, a) for a, b in zip(w, w[1:]) if a != b}
            if covered != g.edges:
                problems.append(f"{tag}: {name} traverses {len(covered & g.edges)} of {g.m} edges")
    got = min(g.dist[a][b] for a, b in zip(f, h))
    if got != distance:
        problems.append(f"{tag}: minimum distance {got}, reported {distance}")
    return problems


def covering_walk_problems(g: RefGraph, walk, closed: bool) -> list[str]:
    for a, b in zip(walk, walk[1:]):
        if b not in g.adj[a]:
            return [f"covering walk steps {a}->{b} off the edges"]
    covered = {(a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:])}
    problems = []
    if covered != g.edges:
        problems.append(f"covering walk traverses {len(covered)} of {g.m} edges")
    if closed and walk[0] != walk[-1]:
        problems.append("closed covering walk does not return to its start")
    return problems


def min_extra_traversals(g: RefGraph, closed: bool) -> int:
    """Route inspection: minimum-cost pairing of the odd vertices by distance.

    Exponential in the number of odd vertices; used only where no closed form
    applies and that number is small.
    """
    odd = g.odd_vertices()
    memo = {0: 0}

    def best(mask: int) -> int:
        if mask not in memo:
            lo = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << lo)
            cands = []
            sub = rest
            while sub:
                j = (sub & -sub).bit_length() - 1
                cands.append(g.dist[odd[lo]][odd[j]] + best(rest & ~(1 << j)))
                sub &= sub - 1
            memo[mask] = min(cands)
        return memo[mask]

    full = (1 << len(odd)) - 1
    if closed or not odd:
        return best(full)
    return min(best(full & ~(1 << i) & ~(1 << j)) for i, j in combinations(range(len(odd)), 2))


def expected_postman_length(spec: str | None, g: RefGraph, closed: bool) -> int:
    """Shortest covering walk length in edges, from a closed form where the
    family has one and from an exact pairing otherwise."""
    name, _, params = (spec or "").partition(":")
    p = [int(x) for x in params.split(",")] if params else []
    if name == "complete" and p[0] % 2 == 0:
        n = p[0]
        return g.m + n // 2 if closed else g.m + n // 2 - 1
    if name == "cycle":
        return g.m
    if name == "complete_bipartite" and (p[0] % 2) != (p[1] % 2):
        # one side has odd degree; its k vertices pair up at distance 2
        k = p[0] if p[1] % 2 else p[1]
        return g.m + k if closed else g.m + k - 2
    return g.m + min_extra_traversals(g, closed)


# ---------------------------------------------------------------------------
# CLI text


_GRAPH_LINE = re.compile(r"^graph: .* \(order (\d+), size (\d+)\)$")
_MINLEN_LINE = re.compile(
    r"^(\S+)\s+(\S+)\s+L=(\d+)( \(capped: lower bound only\))?\s+span=(\d+)\s+explored=(\d+)$"
)
_WITNESS_HEAD = re.compile(r"^# (\S+) (\S+) \(distance (\d+)\)$")


def _graph_line_problems(line: str, g: RefGraph) -> list[str]:
    m = _GRAPH_LINE.match(line)
    if not m:
        return [f"unexpected first line {line[:80]!r}"]
    if (int(m.group(1)), int(m.group(2))) != (g.n, g.m):
        return [f"reported order/size {m.group(1)}/{m.group(2)}, expected {g.n}/{g.m}"]
    return []


def parse_span_text(text: str, g: RefGraph) -> tuple[dict, list[str]]:
    lines = text.splitlines()
    problems = _graph_line_problems(lines[0], g) if lines else ["no output"]
    values = {}
    if len(lines) != 5 or lines[1].split() != ["rule", "vertices", "edges"]:
        return values, problems + ["span table is not 3 rows of vertices/edges"]
    for row in lines[2:]:
        label, v, e = row.split()
        rule = RULE_OF_LABEL.get(label)
        if rule is None:
            problems.append(f"unknown rule label {label!r}")
            continue
        values[(rule, "vertices")] = int(v)
        values[(rule, "edges")] = int(e)
    return values, problems


def parse_witness_output(text: str, g: RefGraph, structured: bool):
    """[(rule, target, distance, f, h)] from either output format."""
    out = []
    if structured:
        doc = json.loads(text)
        if (doc["graph"]["order"], doc["graph"]["size"]) != (g.n, g.m):
            raise ValueError("structured graph order/size differ from the input")
        for rep in doc["reports"]:
            out.append((RULE_OF_LABEL[rep["rule"]], rep["target"], rep["value"],
                        parse_walk(rep["witness"]["f"], g.n), parse_walk(rep["witness"]["g"], g.n)))
        return out
    lines = text.splitlines()
    if len(lines) % 3:
        raise ValueError(f"{len(lines)} witness lines, expected groups of three")
    for i in range(0, len(lines), 3):
        m = _WITNESS_HEAD.match(lines[i])
        if not m:
            raise ValueError(f"bad witness header {lines[i][:80]!r}")
        out.append((RULE_OF_LABEL[m.group(1)], m.group(2), int(m.group(3)),
                    parse_walk(lines[i + 1], g.n), parse_walk(lines[i + 2], g.n)))
    return out


def parse_minlen_text(text: str, g: RefGraph):
    """([(rule, target, L, capped, span, f, h)], problems)."""
    lines = text.splitlines()
    problems = _graph_line_problems(lines[0], g) if lines else ["no output"]
    out = []
    i = 1
    while i < len(lines):
        m = _MINLEN_LINE.match(lines[i])
        if not m:
            return out, problems + [f"bad minlen line {lines[i][:80]!r}"]
        f = h = None
        if i + 2 < len(lines) and lines[i + 1].startswith("  f: "):
            f = parse_walk(lines[i + 1][5:], g.n)
            h = parse_walk(lines[i + 2][5:], g.n)
            i += 2
        out.append((RULE_OF_LABEL.get(m.group(1), m.group(1)), m.group(2), int(m.group(3)),
                    bool(m.group(4)), int(m.group(5)), f, h))
        i += 1
    return out, problems


def parse_postman_text(text: str, g: RefGraph):
    """(mode, length_edges, walk, problems)."""
    lines = text.splitlines()
    if len(lines) != 4:
        return None, None, None, [f"{len(lines)} postman lines, expected 4"]
    problems = _graph_line_problems(lines[0], g)
    mode = lines[1].removeprefix("mode: ")
    length = int(lines[2].removeprefix("length_edges: "))
    return mode, length, parse_walk(lines[3], g.n), problems

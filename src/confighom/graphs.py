"""Finite graphs and the subdivision conditions for discrete configuration spaces.

A graph here is a finite multigraph on vertices 0..vertex_count-1 without
self-loops.  Multi-edges are only ever produced internally (virtual edges of
the connectivity decomposition); graphs accepted from files must be simple
and connected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional


class GraphError(ValueError):
    pass


def _canon_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable multigraph. Edges are stored as (min, max) pairs in input order."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    name: Optional[str] = None

    def __post_init__(self):
        canon = []
        for u, v in self.edges:
            if u == v:
                raise GraphError("self-loops not allowed")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphError("edge endpoint out of range")
            canon.append(_canon_edge(u, v))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.vertex_count)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if a == v or b == v)

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _canon_edge(u, v) in set(self.edges)

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    adj = g.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count


def betti1(g: Graph) -> int:
    """First Betti number E - V + 1 of a connected graph."""
    if not is_connected(g):
        raise GraphError("graph not connected")
    return g.edge_count - g.vertex_count + 1


def essential_vertices(g: Graph) -> set[int]:
    """Vertices of degree different from two."""
    return {v for v, d in enumerate(g.degrees()) if d != 2}


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for a forest.

    Parallel edges count as a cycle of length 2.
    """
    if len(set(g.edges)) < len(g.edges):
        return 2
    adj = g.adjacency()
    best: Optional[int] = None
    for s in range(g.vertex_count):
        # BFS from s; a cross/back edge closes a cycle through s-side vertices
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
            if best is not None and dist[u] >= best // 2:
                break
    return best


def _degree2_chains(g: Graph) -> list[list[tuple[int, int]]]:
    """Maximal chains of edges whose internal vertices all have degree 2.

    Each chain runs between two essential vertices (possibly equal).  A cycle
    graph (no essential vertices) yields no chains.  Assumes g simple.
    """
    deg = g.degrees()
    adj = g.adjacency()
    chains = []
    seen_keys: set[tuple] = set()
    for s in range(g.vertex_count):
        if deg[s] == 2:
            continue
        for w in adj[s]:
            chain = [(s, w)]
            prev, cur = s, w
            while deg[cur] == 2:
                nxt = [x for x in adj[cur] if x != prev][0]
                chain.append((cur, nxt))
                prev, cur = cur, nxt
            key = tuple(sorted(_canon_edge(a, b) for a, b in chain))
            if key not in seen_keys:
                seen_keys.add(key)
                chains.append(chain)
    return chains


def is_sufficiently_subdivided(g: Graph, n: int) -> bool:
    """Check the two length conditions that make D^n faithful to C_n.

    True iff every maximal degree-2 chain between essential vertices has at
    least n-1 edges and every cycle has at least n+1 edges.
    """
    if not g.is_simple():
        raise GraphError("simple graph required")
    if not is_connected(g):
        raise GraphError("graph not connected")
    if n < 1:
        raise GraphError("n must be >= 1")
    for chain in _degree2_chains(g):
        if len(chain) < n - 1:
            return False
    gr = girth(g)
    if gr is not None and gr < n + 1:
        return False
    return True


def subdivide_edge(g: Graph, edge: tuple[int, int], k: int = 1) -> Graph:
    """Insert k new degree-2 vertices into one occurrence of `edge`."""
    u, v = _canon_edge(*edge)
    edges = list(g.edges)
    edges.remove((u, v))
    nv = g.vertex_count
    chain = [u] + list(range(nv, nv + k)) + [v]
    for a, b in zip(chain, chain[1:]):
        edges.append(_canon_edge(a, b))
    return Graph(nv + k, tuple(edges), name=g.name)


def sufficiently_subdivide(g: Graph, n: int) -> tuple[Graph, dict[tuple[int, int], tuple[int, int]]]:
    """Subdivide g until it is sufficiently subdivided for n particles.

    Inserts n-2 vertices into every original edge (ids appended in edge
    order); every cycle of a simple graph then has at least 3(n-1) >= n+1
    edges, which is checked.  Returns the new graph and a map from each new
    edge to the original edge it came from.
    """
    if not g.is_simple():
        raise GraphError("simple graph required")
    if not is_connected(g):
        raise GraphError("graph not connected")
    provenance: dict[tuple[int, int], tuple[int, int]] = {e: e for e in g.edges}
    if n <= 2:
        return g, provenance

    k = n - 2
    edges: list[tuple[int, int]] = []
    provenance = {}
    nv = g.vertex_count
    for u, v in g.edges:
        chain = [u] + list(range(nv, nv + k)) + [v]
        nv += k
        for a, b in zip(chain, chain[1:]):
            e = _canon_edge(a, b)
            edges.append(e)
            provenance[e] = (u, v)
    out = Graph(nv, tuple(edges), name=g.name)
    if not is_sufficiently_subdivided(out, n):
        raise GraphError("subdivision is not sufficient")
    return out, provenance


# ---------------------------------------------------------------------------
# constructors for common test/CLI graphs

def path_graph(k: int) -> Graph:
    return Graph(k, tuple((i, i + 1) for i in range(k - 1)), name=f"P{k}")


def cycle_graph(k: int) -> Graph:
    return Graph(k, tuple((i, (i + 1) % k) for i in range(k)), name=f"C{k}")


def complete_graph(k: int) -> Graph:
    return Graph(k, tuple((i, j) for i in range(k) for j in range(i + 1, k)), name=f"K{k}")


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)), name=f"K{a},{b}")


def star_graph(arms: int) -> Graph:
    """Hub vertex 0 with `arms` pendant edges."""
    return Graph(arms + 1, tuple((0, i) for i in range(1, arms + 1)), name=f"S{arms}")


def wheel_graph(rim: int) -> Graph:
    """Hub vertex 0 joined to a rim cycle 1..rim."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(rim + 1, tuple(edges), name=f"W{rim}")


def lasso_graph() -> Graph:
    """Pendant vertex 0 attached to the triangle 1-2-3."""
    return Graph(4, ((0, 1), (1, 2), (2, 3), (1, 3)), name="lasso")


def octahedron_graph() -> Graph:
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3]
    return Graph(6, tuple(edges), name="octahedron")


def prism_graph() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return Graph(6, tuple(edges), name="prism")


# ---------------------------------------------------------------------------
# JSON interchange

def graph_to_json(g: Graph) -> dict:
    d = {"vertices": g.vertex_count, "edges": [[u, v] for u, v in g.edges]}
    if g.name is not None:
        d["name"] = g.name
    return d


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass in Python but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(obj: Mapping, require_simple_connected: bool = True) -> Graph:
    try:
        vertices = obj["vertices"]
        edges = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph object: {exc}")
    if not _is_int(vertices) or vertices < 0:
        raise GraphError("'vertices' must be a nonnegative integer")
    if not isinstance(edges, (list, tuple)):
        raise GraphError("'edges' must be a list of pairs")
    pairs = []
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise GraphError("each edge must be a pair [u, v]")
        if not (_is_int(e[0]) and _is_int(e[1])):
            raise GraphError(f"edge endpoints must be integers, got {e!r}")
        pairs.append((e[0], e[1]))
    g = Graph(vertices, tuple(pairs), name=obj.get("name"))
    if require_simple_connected:
        if not g.is_simple():
            raise GraphError("simple graph required")
        if not is_connected(g):
            raise GraphError("graph not connected")
    return g

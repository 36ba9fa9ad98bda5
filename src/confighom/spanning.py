"""Spanning sets of H1(D^n) from a rooted plane tree.

Fix a spanning tree, a degree-1 root, and a cyclic edge order at every
vertex; label vertices 1..V along the clockwise boundary walk of the tree.
The labels induce a discrete flow (particles slide toward the root, yielding
to the right at branch vertices) whose paths are contractible.  The cycles
that escape the flow are:

  AB-cycles:  one particle closes a deleted (non-tree) edge, transported
              to and from the root configuration by the flow;
  Y-cycles:   two particles exchange on a degree->=3 vertex with its parent
              direction and two other arms, with spectators elsewhere.

Together these span H1; verify_spanning measures it exactly through the
homology coordinate map.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

import networkx as nx

from .complexes import Cell1, CellComplex, cell1
from .connectivity import articulation_points
from .graphs import Graph, is_sufficiently_subdivided
from .homology import IntegerMatrix, class_matrix, smith_normal_form


class SpanningError(ValueError):
    pass


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class RootedOrderedTree:
    graph: Graph
    root: int
    label: tuple[int, ...]            # vertex -> 1..V along the boundary walk
    parent: tuple[int, ...]           # vertex -> tree parent; root maps to itself
    tree_edges: frozenset[tuple[int, int]]
    deleted_edges: tuple[tuple[int, int], ...]


def rooted_ordered_tree(g: Graph, root: Optional[int] = None,
                        embedding: Optional[Mapping[int, Sequence[int]]] = None,
                        deleted_edges: Optional[Iterable[tuple[int, int]]] = None,
                        ) -> RootedOrderedTree:
    """Depth-first spanning tree honoring cyclic edge orders, with clockwise
    boundary-walk labels.

    The cyclic order at each vertex defaults to ascending neighbor id.  At
    each vertex the children are visited starting just after the entry edge
    in cyclic order, which makes preorder labels trace the tree boundary.
    Edges listed in deleted_edges are forced out of the tree; otherwise the
    DFS decides which edges close cycles.  The default root is the smallest
    leaf, or, without leaves, the smallest vertex that is not a cut vertex,
    so that the root has degree 1 in the DFS tree.
    """
    if not g.is_simple():
        raise SpanningError("simple graph required")
    V = g.vertex_count
    adj = g.adjacency()
    order: dict[int, list[int]] = {}
    for v in range(V):
        if embedding is not None and v in embedding:
            cyc = list(embedding[v])
            if sorted(cyc) != sorted(adj[v]):
                raise SpanningError(f"embedding at {v} must order its neighbors")
            order[v] = cyc
        else:
            order[v] = sorted(adj[v])

    if root is None:
        leaves = [v for v in range(V) if len(adj[v]) == 1]
        if leaves:
            root = min(leaves)
        else:
            cuts = articulation_points(nx.Graph(g.edges))
            root = min(v for v in range(V) if v not in cuts)

    forced = set()
    if deleted_edges is not None:
        for u, v in deleted_edges:
            e = _canon(u, v)
            if e not in set(g.edges):
                raise SpanningError(f"deleted edge {e} not in graph")
            forced.add(e)

    label = [0] * V
    parent = list(range(V))
    tree_edges: set[tuple[int, int]] = set()
    found_deleted: set[tuple[int, int]] = set()
    counter = 1
    label[root] = counter
    # each stack entry holds a vertex and its not yet visited neighbors, which
    # start just after the entry edge in cyclic order
    stack = [(root, iter(order[root]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            e = _canon(v, w)
            if e in forced:
                continue
            if label[w]:
                if parent[v] != w:
                    found_deleted.add(e)
                continue
            parent[w] = v
            tree_edges.add(e)
            counter += 1
            label[w] = counter
            i = order[w].index(v)
            stack.append((w, iter(order[w][i + 1:] + order[w][:i])))
            break
        else:
            stack.pop()
    if counter != V:
        raise SpanningError("deleted edges disconnect the graph")
    if deleted_edges is not None and found_deleted:
        raise SpanningError("deleted edges do not leave a spanning tree")
    root_degree = sum(1 for v in range(V) if parent[v] == root and v != root)
    if root_degree != 1:
        raise SpanningError("root not degree 1 in tree")

    deleted = sorted(forced | found_deleted)
    return RootedOrderedTree(g, root, tuple(label), tuple(parent),
                             frozenset(tree_edges), tuple(deleted))


# ---------------------------------------------------------------------------
# the discrete flow

def root_configuration(t: RootedOrderedTree, n: int) -> tuple[int, ...]:
    by_label = sorted(range(t.graph.vertex_count), key=lambda v: t.label[v])
    return tuple(sorted(by_label[:n]))


def flow_step(t: RootedOrderedTree,
              config: Sequence[int]) -> Optional[tuple[tuple[int, ...], int, int]]:
    """Next move of the flow toward the root configuration, or None there.

    The particle with the smallest label moves to its tree parent, provided
    the parent is vacant and no occupied vertex lies between them in label
    order (yielding to the right at branch vertices).
    """
    occupied = set(config)
    labels = {t.label[v] for v in occupied}
    n = len(config)
    if labels == set(range(1, n + 1)):
        return None
    for u in sorted(occupied, key=lambda v: t.label[v]):
        if u == t.root:
            continue
        v = t.parent[u]
        if v in occupied:
            continue
        lo, hi = t.label[v], t.label[u]
        if any(lo < t.label[w] < hi for w in occupied):
            continue
        spectators = tuple(sorted(occupied - {u}))
        return (spectators, u, v)
    raise SpanningError("flow is stuck; graph is not sufficiently subdivided")


def flow_chain(t: RootedOrderedTree,
               config: Sequence[int]) -> dict[Cell1, int]:
    """Signed 1-chain of the flow path from config to the root configuration."""
    chain: dict[Cell1, int] = {}
    current = tuple(sorted(config))
    guard = 0
    limit = t.graph.vertex_count * len(config) * (t.graph.vertex_count + 1)
    while True:
        step = flow_step(t, current)
        if step is None:
            return {k: v for k, v in chain.items() if v}
        spectators, u, v = step
        key, s = cell1(spectators, u, v)
        chain[key] = chain.get(key, 0) + s
        current = tuple(sorted(set(spectators) | {v}))
        guard += 1
        if guard > limit:
            raise SpanningError("flow did not terminate")


# ---------------------------------------------------------------------------
# generator cycles

@dataclass(frozen=True)
class GeneratorCycle:
    kind: str                           # "AB" or "Y"
    chain: Mapping[Cell1, int]
    provenance: tuple


def y_exchange_chain(w: int, p: int, q: int, r: int,
                     spectators: Iterable[int] = ()) -> dict[Cell1, int]:
    """Hexagonal exchange of two particles at a branch vertex w.

    One particle starts at p, the other at q; they swap through w using the
    arm r as the passing place.  Extra spectators are appended to every cell.
    """
    spec = tuple(sorted(spectators))
    steps = [((q,), p, w), ((q,), w, r), ((r,), q, w),
             ((r,), w, p), ((p,), r, w), ((p,), w, q)]
    chain: dict[Cell1, int] = {}
    for (others, u, v) in steps:
        key, s = cell1(tuple(sorted(others + spec)), u, v)
        chain[key] = chain.get(key, 0) + s
    return {k: v for k, v in chain.items() if v}


def cycle_rotation_chain(cycle_vertices: Sequence[int], k: int,
                         spectators: Iterable[int] = ()) -> dict[Cell1, int]:
    """Exchange cycle of k particles rotating once around a graph cycle.

    The particles start on the first k vertices of the oriented cycle and
    advance until each occupies its successor's starting slot; the total
    advancement is one full turn, the class of the n-particle exchange phase.
    """
    m = len(cycle_vertices)
    if not (1 <= k < m):
        raise SpanningError("need 1 <= k < cycle length")
    spec0 = tuple(sorted(spectators))
    pos = list(range(k))                     # absolute slots, may exceed m
    targets = [pos[i + 1] for i in range(k - 1)] + [pos[0] + m]
    occupied = set(range(k))
    chain: dict[Cell1, int] = {}
    done = False
    while not done:
        done = True
        for i in range(k - 1, -1, -1):
            while pos[i] < targets[i] and (pos[i] + 1) % m not in occupied:
                u = cycle_vertices[pos[i] % m]
                v = cycle_vertices[(pos[i] + 1) % m]
                others = tuple(cycle_vertices[pos[j] % m]
                               for j in range(k) if j != i)
                key, s = cell1(tuple(sorted(others + spec0)), u, v)
                chain[key] = chain.get(key, 0) + s
                occupied.discard(pos[i] % m)
                pos[i] += 1
                occupied.add(pos[i] % m)
                done = False
    return {c: v for c, v in chain.items() if v}


def spanning_set(g: Graph, n: int, root: Optional[int] = None,
                 embedding: Optional[Mapping[int, Sequence[int]]] = None,
                 deleted_edges: Optional[Iterable[tuple[int, int]]] = None,
                 ) -> list[GeneratorCycle]:
    """AB- and Y-cycles spanning H1(D^n(g)) for a sufficiently subdivided g.

    AB-cycles use one canonical spectator placement per deleted edge (the
    lowest-labeled vertices, transported by the flow); Y-cycles enumerate
    every placement of the n-2 spectators, accepting over-completeness.
    """
    if not is_sufficiently_subdivided(g, n):
        raise SpanningError("graph is not sufficiently subdivided for n")
    t = rooted_ordered_tree(g, root, embedding, deleted_edges)
    V = g.vertex_count
    by_label = sorted(range(V), key=lambda v: t.label[v])
    cycles: list[GeneratorCycle] = []

    for (u, v) in t.deleted_edges:
        spect = tuple(sorted([x for x in by_label if x not in (u, v)][:n - 1]))
        key, s = cell1(spect, u, v)
        chain: dict[Cell1, int] = {key: s}
        for cell, coeff in flow_chain(t, spect + (v,)).items():
            chain[cell] = chain.get(cell, 0) + coeff
        for cell, coeff in flow_chain(t, spect + (u,)).items():
            chain[cell] = chain.get(cell, 0) - coeff
        chain = {c: x for c, x in chain.items() if x}
        cycles.append(GeneratorCycle("AB", chain, ("deleted-edge", (u, v), spect)))

    deg = g.degrees()
    for w in range(V):
        if deg[w] < 3 or w == t.root:
            continue
        r = t.parent[w]
        arms = sorted(x for x in g.neighbors(w) if x != r)
        rest = sorted(set(range(V)) - set(arms) - {w, r})
        for p, q in combinations(arms, 2):
            others = sorted(set(rest) | (set(arms) - {p, q}))
            for spect in combinations(others, n - 2):
                chain = y_exchange_chain(w, p, q, r, spect)
                cycles.append(GeneratorCycle(
                    "Y", chain, ("y-exchange", w, (p, q), r, tuple(spect))))
    return cycles


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class SpanReport:
    spans: bool
    free_rank: int
    free_needed: int
    torsion_covered: bool
    cycle_count: int
    redundancy: int

    def __bool__(self) -> bool:
        return self.spans


def verify_spanning(cycles: Sequence[GeneratorCycle],
                    c: CellComplex) -> SpanReport:
    """Check that the cycle classes generate H1(c), exactly over Z.

    The classes generate iff the integer row span of their coordinates,
    together with the torsion relations, is all of Z^k x Z^l; equivalently
    the stacked matrix has k+l unit invariant factors.
    """
    count = len(cycles)
    m = class_matrix(c, [cyc.chain for cyc in cycles])
    l = m.rows - count                  # one relation row per torsion factor
    k = m.cols - l
    factors = smith_normal_form(m)[0]
    spans = len(factors) == m.cols and all(f == 1 for f in factors)
    free = tuple(e for e in m.entries if e[0] < count and e[1] < k)
    free_rank = len(smith_normal_form(IntegerMatrix(count, k, free))[0])
    return SpanReport(spans, free_rank, k, spans if l else True,
                      count, count - k - l)

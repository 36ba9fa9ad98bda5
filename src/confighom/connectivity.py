"""Connectivity decomposition and the closed-form H1 predictor.

A connected graph is split first at cut vertices (each piece keeps the cut
vertex), then 2-connected pieces are split at 2-separations (each side keeps
the cut pair plus one virtual edge) until every marked component is a
topological cycle or 3-connected.  The first homology of the n-particle
configuration space is then

    Z^(beta1 + N1 + N2 + N3)  +  Z_2^N3'

where N1 sums a binomial count over cut vertices, N2 counts independent
star exchanges at cut pairs, and N3/N3' count planar/nonplanar 3-connected
components.  This is the closed-form side of the predictor-vs-oracle checks;
it never touches the cell complex.

Both kinds of cut come from networkx articulation points: a vertex is a cut
vertex when it lies in two or more biconnected blocks, and {x, y} separates a
2-connected graph exactly when y is an articulation point of the graph minus
x.  Planarity is networkx's planarity test.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

import networkx as nx

from .graphs import Graph, GraphError, betti1, is_connected
from .homology import AbelianGroup


@dataclass(frozen=True)
class CutRecord:
    kind: str                          # "vertex" or "pair"
    vertices: tuple[int, ...]          # (v,) or (x, y)
    mu: int                            # component count of the cut
    nu: Optional[int] = None           # degree of a cut vertex; None for pairs

    def __post_init__(self):
        if self.kind not in ("vertex", "pair"):
            raise GraphError("cut kind must be 'vertex' or 'pair'")
        if self.mu < 2:
            raise GraphError("recorded cuts must have mu >= 2")
        if self.kind == "vertex" and (self.nu is None or self.nu < self.mu):
            raise GraphError("cut vertex needs nu >= mu")


@dataclass(frozen=True)
class MarkedComponent:
    graph: Graph                       # local vertex ids 0..k-1
    vertex_ids: tuple[int, ...]        # local id -> original vertex id
    kind: str                          # topological-cycle | planar-3-connected | nonplanar-3-connected
    virtual_edges: tuple[tuple[int, int], ...]  # in original vertex ids


@dataclass(frozen=True)
class Prediction:
    beta1: int
    N1: int
    N2: int
    N3: int
    N3_prime: int
    N3_doubleprime: int
    n_particles: int
    group: AbelianGroup


# ---------------------------------------------------------------------------
# basic connectivity

def _nx_graph(vertices: Iterable[int],
              edges: Iterable[tuple[int, int]]) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(vertices)
    nxg.add_edges_from(edges)
    return nxg


def articulation_points(nxg: nx.Graph) -> dict[int, int]:
    """Articulation points of nxg, each with the number of pieces its
    removal splits its connected component into.

    A vertex lying in k >= 2 biconnected blocks is a cut vertex whose removal
    leaves exactly k components, so one pass over the blocks gives both.
    """
    blocks = Counter(v for block in nx.biconnected_components(nxg)
                     for v in block)
    return {v: k for v, k in blocks.items() if k >= 2}


def _separating_partners(nxg: nx.Graph, x: int) -> dict[int, int]:
    """Vertices y > x such that {x, y} separates the 2-connected graph nxg,
    each with the number of components of nxg - {x, y}.

    {x, y} separates a 2-connected graph exactly when y is an articulation
    point of nxg - x (Hopcroft and Tarjan 1973).  x is removed in place and
    put back, which is cheaper than copying the graph.
    """
    neighbors = list(nxg[x])
    nxg.remove_node(x)
    cuts = articulation_points(nxg)
    nxg.add_edges_from((x, y) for y in neighbors)
    return {y: k for y, k in cuts.items() if y > x}


def cut_vertices(g: Graph) -> list[CutRecord]:
    """Articulation vertices with their component count mu and degree nu."""
    if not is_connected(g):
        raise GraphError("graph not connected")
    deg = g.degrees()
    cuts = articulation_points(_nx_graph(range(g.vertex_count), g.edges))
    return [CutRecord("vertex", (v,), mu, deg[v]) for v, mu in sorted(cuts.items())]


def two_separations(g: Graph) -> list[CutRecord]:
    """Vertex pairs whose deletion disconnects g, with component count mu.

    mu counts the split pieces as in the decomposition: connected components
    of g - {x, y} plus one for every direct edge between x and y (a direct
    edge becomes its own marked component).
    """
    if cut_vertices(g) or g.vertex_count < 3:
        raise GraphError("graph not 2-connected")
    nxg = _nx_graph(range(g.vertex_count), g.edges)
    out = []
    for x in range(g.vertex_count):
        for y, k in sorted(_separating_partners(nxg, x).items()):
            out.append(CutRecord("pair", (x, y), k + g.edges.count((x, y))))
    return out


def connectivity_level(g: Graph) -> int:
    """1 if a cut vertex exists, 2 if only 2-separations exist, else 3 (capped)."""
    if g.vertex_count < 2 or not is_connected(g):
        raise GraphError("need a connected graph with >= 2 vertices")
    if cut_vertices(g):
        return 1
    if g.vertex_count >= 3 and two_separations(g):
        return 2
    return 3


def is_planar(g: Graph) -> bool:
    """Planarity of g; parallel edges never change it."""
    return nx.is_planar(_nx_graph(range(g.vertex_count), g.edges))


# ---------------------------------------------------------------------------
# decomposition into marked components

def _biconnected_blocks(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks, canonically ordered."""
    nxg = _nx_graph(range(g.vertex_count), g.edges)
    blocks = [sorted((min(u, v), max(u, v)) for u, v in comp)
              for comp in nx.biconnected_component_edges(nxg)]
    return sorted(blocks)


def _classify(vertices: list[int], edges: list[tuple[int, int]],
              virtual: list[tuple[int, int]]) -> MarkedComponent:
    local = {v: i for i, v in enumerate(vertices)}
    lg = Graph(len(vertices), tuple((local[u], local[v]) for u, v in edges))
    if all(d == 2 for d in lg.degrees()):
        kind = "topological-cycle"
    else:
        kind = "planar-3-connected" if is_planar(lg) else "nonplanar-3-connected"
    return MarkedComponent(lg, tuple(vertices), kind, tuple(virtual))


def _split_two(vertices: list[int], edges: list[tuple[int, int]],
               virtual: list[tuple[int, int]],
               cuts: list[CutRecord], comps: list[MarkedComponent]):
    """Split a 2-connected multigraph piece at 2-separations.

    A piece splits at its lexicographically first separating pair {x, y}.
    Its pieces are split in turn, in order of their smallest vertex, and each
    direct x-y edge follows them as a component of its own.  An explicit
    stack keeps that depth-first order, so long chains of 2-separations do not
    reach Python's recursion limit.
    """
    stack = [(vertices, edges, virtual, True)]
    while stack:
        vertices, edges, virtual, split = stack.pop()
        if not split or all(d == 2 for d in
                            Counter(v for e in edges for v in e).values()):
            comps.append(_classify(vertices, edges, virtual))
            continue
        nxg = _nx_graph(vertices, edges)
        for x in vertices:
            partners = _separating_partners(nxg, x)
            if partners:
                y = min(partners)
                break
        else:
            comps.append(_classify(vertices, edges, virtual))
            continue
        pieces = sorted(nx.connected_components(nxg.subgraph(
            v for v in vertices if v not in (x, y))), key=min)
        ve = (x, y)
        direct = [e for e in edges if e == ve]
        cuts.append(CutRecord("pair", ve, len(pieces) + len(direct)))
        tasks = [(sorted(piece | {x, y}),
                  [e for e in edges if e[0] in piece or e[1] in piece] + [ve],
                  virtual + [ve], True) for piece in pieces]
        tasks += [([x, y], [e, ve], virtual + [ve], False) for e in direct]
        stack.extend(reversed(tasks))


def decompose(g: Graph) -> tuple[list[MarkedComponent], list[CutRecord]]:
    """Split g at cut vertices, then at 2-separations, into marked components.

    Components that are trees (single edges after a vertex cut) are dropped.
    The bookkeeping identity sum(beta1(component)) = beta1(g) + #pair-cuts is
    checked.
    """
    if not g.is_simple():
        raise GraphError("simple graph required")
    if not is_connected(g):
        raise GraphError("graph not connected")

    cuts: list[CutRecord] = list(cut_vertices(g))
    comps: list[MarkedComponent] = []
    pair_cuts: list[CutRecord] = []
    for block in _biconnected_blocks(g):
        if len(block) < 2:
            continue  # bridge: tree-like, no cycles
        vertices = sorted({u for e in block for u in e})
        _split_two(vertices, list(block), [], pair_cuts, comps)
    cuts.extend(pair_cuts)

    total = sum(betti1(comp.graph) for comp in comps)
    n_pair_cuts = sum(1 for c in cuts if c.kind == "pair")
    if total != betti1(g) + n_pair_cuts:
        raise GraphError("decomposition bookkeeping failed")
    return comps, cuts


# ---------------------------------------------------------------------------
# closed forms

def n2_of_cut(mu: int) -> int:
    """Independent exchange phases lost at a 2-cut with mu pieces."""
    if mu < 2:
        raise GraphError("mu must be >= 2")
    return (mu - 2) * (mu - 1) // 2


def n1_of_cut(mu: int, nu: int, n: int) -> int:
    """Extra free phases contributed by a cut vertex for n particles."""
    if mu < 2 or nu < mu or n < 2:
        raise GraphError("need nu >= mu >= 2 and n >= 2")
    return comb(n + mu - 2, mu - 1) * (nu - 2) - comb(n + mu - 2, mu - 2) - (nu - mu - 1)


def n1_two_particle(mu: int, nu: int) -> int:
    """Two-particle special case of n1_of_cut, kept as an independent check."""
    return (mu - 1) * (mu - 2) // 2 + (mu - 1) * (nu - mu)


def gamma_star(n: int, E: int) -> int:
    """First Betti number of the n-particle space of the unsubdivided E-star."""
    if not (1 <= n <= E) or E < 2:
        raise GraphError("need 1 <= n <= E and E >= 2")
    return E * comb(E - 1, n - 1) - comb(E + 1, n) + 1


def alpha_star(k: int, E: int) -> int:
    """Closed form (-1)^k C(E-1, k) for the star inclusion-exclusion coefficients."""
    if not (2 <= k <= E):
        raise GraphError("need 2 <= k <= E")
    return (-1) ** k * comb(E - 1, k)


def alpha_star_recursive(k: int, E: int) -> int:
    """The recursion alpha_k^E = gamma_k^E - sum_i C(E,i) alpha_{k-i}^{E-i}."""
    if not (2 <= k <= E):
        raise GraphError("need 2 <= k <= E")
    total = gamma_star(k, E)
    for i in range(1, k - 1):
        total -= comb(E, i) * alpha_star_recursive(k - i, E - i)
    return total


def beta_star(n: int, E: int) -> int:
    """Rank of H1 for n particles on a sufficiently subdivided E-star."""
    if n < 2 or E < 3:
        raise GraphError("need n >= 2 and E >= 3")
    return comb(n + E - 2, E - 1) * (E - 2) - comb(n + E - 2, E - 2) + 1


def beta_star_inclusion_exclusion(n: int, E: int) -> int:
    """The raw double-sum form of beta_star, kept as an executable identity."""
    if n < 2 or E < 3:
        raise GraphError("need n >= 2 and E >= 3")

    def gamma(m: int, ee: int) -> int:
        if m < 1 or m > ee:
            return 0
        return ee * comb(ee - 1, m - 1) - comb(ee + 1, m) + 1

    total = 0
    for m in range(2, E):
        total += comb(n - m + E - 1, E - 1) * gamma(m, E)
        for j in range(1, E - m + 1):
            total += (-1) ** j * comb(n - m - j + E, E - 1) * comb(E, j) * gamma(m - 1, E - j)
    return total


def predict_h1(g: Graph, n: int) -> Prediction:
    """Closed-form H1 of the n-particle configuration space of g."""
    if n < 1:
        raise GraphError("n must be >= 1")
    b1 = betti1(g)
    if not g.is_simple():
        raise GraphError("simple graph required")
    if n == 1:
        return Prediction(b1, 0, 0, 0, 0, 0, 1, AbelianGroup(b1))

    comps, cuts = decompose(g)
    N1 = sum(n1_of_cut(c.mu, c.nu, n) for c in cuts if c.kind == "vertex")
    N2 = sum(n2_of_cut(c.mu) for c in cuts if c.kind == "pair")
    N3 = sum(1 for c in comps if c.kind == "planar-3-connected")
    N3p = sum(1 for c in comps if c.kind == "nonplanar-3-connected")
    N3pp = sum(1 for c in comps if c.kind == "topological-cycle")
    rank = b1 + N1 + N2 + N3
    group = AbelianGroup(rank, (2,) * N3p)
    return Prediction(b1, N1, N2, N3, N3p, N3pp, n, group)

"""The discrete configuration space of n particles on a graph, as a 2-complex.

Cells:
  0-cells: n-subsets of vertices (sorted tuples).
  1-cells: (spectators, edge) with the n-1 spectators disjoint from the edge.
  2-cells: (spectators, edge pair) with the two edges disjoint from each
           other and from the n-2 spectators.

Orientations: a 1-cell is canonically directed min(u,v) -> max(u,v); the
2-cell boundary walks the square (a,c)->(a,d)->(b,d)->(b,c)->(a,c) for edges
{a,b}, {c,d} in lexicographic order.  Cells of dimension 3 and higher exist in
the space but are not needed for H1 and are deliberately omitted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .graphs import Graph, GraphError

Cell0 = tuple[int, ...]
Cell1 = tuple[tuple[int, ...], tuple[int, int]]
Cell2 = tuple[tuple[int, ...], tuple[int, int], tuple[int, int]]


def cell1(spectators: Iterable[int], u: int, v: int) -> tuple[Cell1, int]:
    """Canonical form of a directed 1-cell and the sign of the direction u->v."""
    spec = tuple(sorted(spectators))
    if u < v:
        return (spec, (u, v)), 1
    return (spec, (v, u)), -1


@dataclass
class CellComplex:
    graph: Graph
    n: int
    cells0: list[Cell0]
    cells1: list[Cell1]
    cells2: list[Cell2]
    index0: dict[Cell0, int]
    index1: dict[Cell1, int]
    # sparse triplet list (row, col, value); values are Python ints
    boundary2: list[tuple[int, int, int]]
    _homology_cache: object = field(default=None, repr=False, compare=False)

    def boundary2_chain(self, cell: Cell2) -> dict[Cell1, int]:
        return boundary2_chain(cell)

    def boundary1_chain(self, cell: Cell1) -> dict[Cell0, int]:
        return boundary1_chain(cell)


def boundary2_chain(cell: Cell2) -> dict[Cell1, int]:
    """Oriented boundary of a 2-cell as a chain on canonical 1-cells."""
    spec, (a, b), (c, d) = cell
    chain: dict[Cell1, int] = {}
    for extra, u, v, sign in (
        (a, c, d, 1),   # (a,c) -> (a,d)
        (d, a, b, 1),   # (a,d) -> (b,d)
        (b, c, d, -1),  # (b,d) -> (b,c)
        (c, a, b, -1),  # (b,c) -> (a,c)
    ):
        key, s = cell1(spec + (extra,), u, v)
        chain[key] = chain.get(key, 0) + sign * s
    return chain


def boundary1_chain(cell: Cell1) -> dict[Cell0, int]:
    spec, (u, v) = cell
    top = tuple(sorted(spec + (v,)))
    bot = tuple(sorted(spec + (u,)))
    return {top: 1, bot: -1}


def build_complex(g: Graph, n: int) -> CellComplex:
    """Build the dimension-<=2 skeleton of the n-particle configuration space.

    Does not require sufficient subdivision; callers who want homotopy
    equivalence with the continuous space must subdivide first.
    """
    if not g.is_simple():
        raise GraphError("simple graph required")
    if n < 1:
        raise GraphError("n must be >= 1")
    if n > g.vertex_count:
        raise GraphError("too many particles")

    vertices = range(g.vertex_count)
    edges = sorted(set(g.edges))

    cells0 = [tuple(c) for c in combinations(vertices, n)]
    index0 = {c: i for i, c in enumerate(cells0)}

    cells1: list[Cell1] = []
    for spec in combinations(vertices, n - 1):
        sset = set(spec)
        for (u, v) in edges:
            if u in sset or v in sset:
                continue
            cells1.append((spec, (u, v)))
    cells1.sort()
    index1 = {c: i for i, c in enumerate(cells1)}

    cells2: list[Cell2] = []
    if n >= 2:
        disjoint_pairs = [
            (e1, e2)
            for e1, e2 in combinations(edges, 2)
            if len({e1[0], e1[1], e2[0], e2[1]}) == 4
        ]
        for spec in combinations(vertices, n - 2):
            sset = set(spec)
            for e1, e2 in disjoint_pairs:
                if sset & {e1[0], e1[1], e2[0], e2[1]}:
                    continue
                cells2.append((spec, e1, e2))
        cells2.sort()

    cx = CellComplex(g, n, cells0, cells1, cells2, index0, index1, [])

    boundary2 = []
    for j, cell in enumerate(cells2):
        for c1, val in cx.boundary2_chain(cell).items():
            if val:
                boundary2.append((index1[c1], j, val))
    cx.boundary2 = boundary2
    return cx


def cell_counts(c: CellComplex) -> tuple[int, int, int]:
    return (len(c.cells0), len(c.cells1), len(c.cells2))

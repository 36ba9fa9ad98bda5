"""Output checks for the benchmark, computed apart from the code it times.

Every checker raises CheckFailed with a message when an output is wrong and
returns None when it is right.  The references come from networkx, from the
paper's closed forms re-derived here, or from a computation at another
particle number; none of them reuses the call whose output is checked.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

import networkx as nx

from confighom.complexes import build_complex
from confighom.connectivity import predict_h1
from confighom.graphs import graph_from_json
from confighom.homology import h1


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def to_networkx(graph: dict) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph["vertices"]))
    g.add_edges_from(tuple(e) for e in graph["edges"])
    return g


def group_key(group) -> tuple[int, tuple[int, ...]]:
    return (group.rank, tuple(group.torsion))


def betti1(g: nx.Graph) -> int:
    return g.number_of_edges() - g.number_of_nodes() + 1


def n1_of_cut(mu: int, nu: int, n: int) -> int:
    """The paper's count of extra free phases at a cut vertex of degree nu
    whose removal leaves mu components, for n particles."""
    return (comb(n + mu - 2, mu - 1) * (nu - 2) - comb(n + mu - 2, mu - 2)
            - (nu - mu - 1))


def is_three_connected(g: nx.Graph) -> bool:
    return g.number_of_nodes() >= 4 and nx.node_connectivity(g) >= 3


def three_connected_group(g: nx.Graph) -> tuple[int, tuple[int, ...]]:
    """Planar 3-connected: one anyon phase; nonplanar: bosons or fermions."""
    if nx.check_planarity(g)[0]:
        return (betti1(g) + 1, ())
    return (betti1(g), (2,))


def block_group(g: nx.Graph, n: int) -> tuple[int, tuple[int, ...]]:
    """H1 of a graph whose blocks are cycles, bridges or 3-connected graphs.

    Cut-vertex terms come from articulation points and the N1 formula; each
    planar 3-connected block adds one free phase and each nonplanar one a Z_2.
    """
    rank = betti1(g)
    for v in nx.articulation_points(g):
        h = g.copy()
        h.remove_node(v)
        rank += n1_of_cut(nx.number_connected_components(h), g.degree(v), n)
    twos = 0
    for nodes in nx.biconnected_components(g):
        block = g.subgraph(nodes)
        if block.number_of_nodes() == 2 or all(d == 2 for _, d in block.degree()):
            continue
        _require(is_three_connected(block),
                 f"block on {sorted(nodes)[:6]}... is neither a cycle nor 3-connected")
        if nx.check_planarity(block)[0]:
            rank += 1
        else:
            twos += 1
    return (rank, (2,) * twos)


# ---------------------------------------------------------------------------
# exact_h1

def exact_h1_references(graph: dict, n: int) -> dict[str, tuple]:
    """Groups the exact H1 of this case must equal, by name of the source."""
    g = graph_from_json(graph)
    refs = {"predict_h1": group_key(predict_h1(g, n).group)}
    ng = to_networkx(graph)
    if is_three_connected(ng):
        refs["paper 3-connected"] = three_connected_group(ng)
    if ng.number_of_nodes() >= 3 and nx.is_biconnected(ng):
        refs["n=2 exact"] = group_key(h1(build_complex(g, 2)))
    return refs


def check_exact_h1(refs: dict[str, tuple], group) -> None:
    got = group_key(group)
    for source, want in refs.items():
        _require(got == want, f"H1 {got} differs from {source} {want}")


# ---------------------------------------------------------------------------
# predict_large

PLANAR_FAMILIES = {"wheel", "circular_ladder"}
NONPLANAR_FAMILIES = {"mobius_ladder", "cubic"}


def predict_large_reference(family: str, graph: dict, n: int,
                            rungs: int = 0) -> tuple[int, tuple[int, ...]]:
    """The group a graph of this family must have by construction."""
    ng = to_networkx(graph)
    _require(nx.is_connected(ng), "input graph is not connected")
    if family == "ladder":
        return (betti1(ng) + rungs - 2, ())
    if family in PLANAR_FAMILIES | NONPLANAR_FAMILIES:
        _require(is_three_connected(ng), f"{family} graph is not 3-connected")
        group = three_connected_group(ng)
        _require((group[1] == ()) == (family in PLANAR_FAMILIES),
                 f"{family} graph has the wrong planarity")
        return group
    return block_group(ng, n)


def check_group(want: tuple, prediction) -> None:
    got = group_key(prediction.group)
    _require(got == want, f"predicted {got}, construction gives {want}")


# ---------------------------------------------------------------------------
# flux sums over cell values, independent of confighom.gauge

def chain_flux(values, chain) -> Fraction:
    """Flux of an integer chain on canonical 1-cells under canonical values."""
    return sum((coeff * values.get(cell, 0) for cell, coeff in chain.items()),
               Fraction(0))


def square_flux(values, cell2) -> Fraction:
    """Flux around the 2-cell (spectators, (a, b), (c, d)), walked
    (a,c) -> (a,d) -> (b,d) -> (b,c) -> (a,c)."""
    spec, (a, b), (c, d) = cell2

    def v(extra, edge):
        return values.get((tuple(sorted(spec + (extra,))), edge), 0)

    return Fraction(v(a, (c, d)) + v(d, (a, b)) - v(b, (c, d)) - v(c, (a, b)))


# ---------------------------------------------------------------------------
# spanning_solve

def check_spanning_solve(out) -> None:
    _require(out.report.spans, "generator cycles do not span H1")
    values = out.solved.values
    for cell2 in out.complex.cells2:
        _require(square_flux(values, cell2).denominator == 1,
                 f"solved potential has fractional flux on {cell2}")
    for i, (chain, target) in enumerate(out.targets):
        _require((chain_flux(values, chain) - target).denominator == 1,
                 f"target {i}: flux differs from {target} mod 1")


def check_refused(message) -> None:
    _require(message is not None and "unrealizable phase" in message,
             f"torsion request was not refused as unrealizable: {message!r}")

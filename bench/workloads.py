"""The three benchmark workloads: seeded inputs, the timed case, its checks.

A workload's `inputs()` builds one round of cases from the seed.  `run()` is
the timed part of one case: it enters through graphs.graph_from_json, as the
CLI does, and then makes the library calls of the matching CLI subcommand.
`check()` runs outside the timed region and raises checks.CheckFailed when an
output is wrong.  References are computed once per case and kept, because
every round repeats the same cases.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import networkx as nx

from confighom.gauge import GaugeError
from confighom.graphs import (complete_bipartite, complete_graph,
                              graph_to_json, octahedron_graph, prism_graph,
                              sufficiently_subdivide, wheel_graph)

import checks


@dataclass
class Case:
    id: str
    graph: dict                  # a graph object as the CLI reads it from JSON
    n: int
    extra: dict = field(default_factory=dict)


def graph_json(g: nx.Graph) -> dict:
    """JSON graph object of a networkx graph, vertices renumbered 0..V-1."""
    index = {v: i for i, v in enumerate(sorted(g.nodes))}
    return {"vertices": len(index),
            "edges": [[index[u], index[v]] for u, v in g.edges]}


def atlas(min_vertices: int, max_vertices: int) -> list[nx.Graph]:
    return [g for g in nx.graph_atlas_g()
            if min_vertices <= g.number_of_nodes() <= max_vertices
            and nx.is_connected(g)]


def count_complex(counts: dict, c) -> None:
    counts["complexes.cells2"] += len(c.cells2)
    counts["complexes.boundary2_nnz"] += len(c.boundary2)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.references: dict[str, object] = {}

    def rng(self, *parts) -> random.Random:
        return random.Random("/".join(map(str, (self.name, self.seed) + parts)))

    def reference(self, case: Case, compute):
        if case.id not in self.references:
            self.references[case.id] = compute()
        return self.references[case.id]

    def shuffled(self, cases: list[Case]) -> list[Case]:
        self.rng("order").shuffle(cases)
        return cases


class ExactH1(Workload):
    """Subdivide, build D^n and reduce it: the integer SNF does the work.

    The atlas keeps its own labels: relabelling moves the eliminator's pivot
    order, and with it the round time and the slow cases' times, which would
    swamp a change to the eliminator.  The seed orders the cases.
    """
    name = "exact_h1"

    def inputs(self) -> list[Case]:
        cases = [Case(f"atlas{i}", graph_json(g), 3)
                 for i, g in enumerate(atlas(3, 6))]
        bowtie = nx.Graph([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        for label, g in (("K4", nx.complete_graph(4)),
                         ("K2,3", nx.complete_bipartite_graph(2, 3)),
                         ("bowtie", bowtie)):
            cases.append(Case(label, graph_json(g), 4))
        return self.shuffled(cases)

    def run(self, L, case: Case, counts: dict):
        g = L.graph_from_json(case.graph)
        gs, _ = L.sufficiently_subdivide(g, case.n)
        c = L.build_complex(gs, case.n)
        count_complex(counts, c)
        return L.h1(c)

    def check(self, case: Case, group) -> None:
        refs = self.reference(
            case, lambda: checks.exact_h1_references(case.graph, case.n))
        checks.check_exact_h1(refs, group)


def mobius_ladder(V: int) -> nx.Graph:
    g = nx.cycle_graph(V)
    g.add_edges_from((i, i + V // 2) for i in range(V // 2))
    return g


def random_cubic(V: int, rng: random.Random) -> nx.Graph:
    """Seeded random 3-regular graph, redrawn until it is 3-connected (for a
    cubic graph, the same as 3-edge-connected)."""
    while True:
        g = nx.random_regular_graph(3, V, seed=rng.randrange(2 ** 32))
        if nx.is_k_edge_connected(g, 3):
            return g


def block(kind: str, rng: random.Random) -> nx.Graph:
    if kind == "K4":
        return nx.complete_graph(4)
    if kind == "K5":
        return nx.complete_graph(5)
    if kind == "K3,3":
        return nx.complete_bipartite_graph(3, 3)
    if kind == "wheel":
        return nx.wheel_graph(rng.randint(5, 9))
    return nx.cycle_graph(rng.randint(3, 8))


def block_chain(V: int, rng: random.Random) -> nx.Graph:
    """Seeded blocks glued in a chain at cut vertices, then pendant trees
    grown to exactly V vertices; a fifth of the vertices go to the trees."""
    g = nx.Graph()
    anchor = None
    while True:
        b = block(rng.choice(("K4", "K5", "K3,3", "wheel", "cycle")), rng)
        glue = None if anchor is None else rng.choice(list(b))
        fresh = [v for v in b if v != glue]
        start = g.number_of_nodes()
        if start + len(fresh) > V - V // 5:
            break
        relabel = {v: start + i for i, v in enumerate(fresh)}
        relabel[glue] = anchor
        g.add_edges_from((relabel[u], relabel[v]) for u, v in b.edges)
        anchor = relabel[rng.choice(fresh)]
    while g.number_of_nodes() < V:
        v = g.number_of_nodes()
        g.add_edge(rng.randrange(v), v)
    return g


class PredictLarge(Workload):
    """predict_h1 on 100- to 200-vertex graphs of six families; no cells."""
    name = "predict_large"
    # even sizes (cubic graphs and Moebius ladders need them), spaced so that
    # case costs form a continuum and the median case is not on a gap
    sizes = (100, 120, 140, 160, 180, 200)

    def inputs(self) -> list[Case]:
        rng = self.rng("inputs")
        cases = []
        for V in self.sizes:
            families = {
                "wheel": nx.wheel_graph(V),
                "circular_ladder": nx.circular_ladder_graph(V // 2),
                "mobius_ladder": mobius_ladder(V),
                "cubic": random_cubic(V, rng),
                "ladder": nx.ladder_graph(V // 2),
                "chain": block_chain(V, rng),
            }
            for family, g in families.items():
                extra = {"family": family, "rungs": V // 2}
                cases.append(Case(f"{family}{V}", graph_json(g),
                                  rng.randint(2, 5), extra))
        return self.shuffled(cases)

    def run(self, L, case: Case, counts: dict):
        return L.predict_h1(L.graph_from_json(case.graph), case.n)

    def check(self, case: Case, prediction) -> None:
        want = self.reference(case, lambda: checks.predict_large_reference(
            case.extra["family"], case.graph, case.n, case.extra["rungs"]))
        checks.check_group(want, prediction)


class SpanningSolve(Workload):
    """spanning then gauge solve: coordinates, not just invariant factors.

    Atlas graphs keep their labels, so the two that hit the spanning-tree
    root fault fail in every round, whatever the seed.
    """
    name = "spanning_solve"

    def inputs(self) -> list[Case]:
        rng = self.rng("inputs")
        cases = [Case(f"atlas{i}", graph_json(g), 2)
                 for i, g in enumerate(atlas(2, 6))]
        for g in (complete_graph(4), complete_graph(5), complete_bipartite(3, 3),
                  prism_graph(), wheel_graph(5), octahedron_graph()):
            gs, _ = sufficiently_subdivide(g, 3)
            cases.append(Case(f"{g.name}-n3", graph_to_json(gs), 3))
        for case in cases:
            case.extra["potential_seed"] = rng.randrange(2 ** 32)
        for g in (complete_graph(5), complete_bipartite(3, 3)):
            cases.append(Case(f"{g.name}-torsion", graph_to_json(g), 2,
                              {"y_pick": rng.randrange(2 ** 32)}))
        return self.shuffled(cases)

    def run(self, L, case: Case, counts: dict):
        g = L.graph_from_json(case.graph)
        cycles = L.spanning_set(g, case.n)
        counts["spanning.cycles"] += len(cycles)
        c = L.build_complex(g, case.n)
        count_complex(counts, c)
        if "y_pick" in case.extra:
            ys = [cyc for cyc in cycles if cyc.kind == "Y"]
            y = ys[case.extra["y_pick"] % len(ys)]
            counts["gauge.targets"] += 1
            try:
                L.solve_from_fluxes(c, [(y.chain, Fraction(1, 3))])
            except GaugeError as exc:
                return str(exc)
            return None
        report = L.verify_spanning(cycles, c)
        p = L.random_topological_potential(
            c, random.Random(case.extra["potential_seed"]))
        targets = [(cyc.chain, L.flux(p, cyc.chain)) for cyc in cycles]
        counts["gauge.targets"] += len(targets)
        solved = L.solve_from_fluxes(c, targets)
        return SimpleNamespace(report=report, targets=targets, solved=solved,
                               complex=c)

    def check(self, case: Case, out) -> None:
        if "y_pick" in case.extra:
            checks.check_refused(out)
        else:
            checks.check_spanning_solve(out)


WORKLOADS = {w.name: w for w in (ExactH1, PredictLarge, SpanningSolve)}

"""End-to-end acceptance suite.

Every numeric value here is frozen: homology groups are cross-checked
between the exact Smith-normal-form computation and the closed-form
predictor, generator identities are checked both as exact homology
coordinates and as flux identities under randomly generated topological
gauge potentials, and each block asserts its runtime budget.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from confighom.complexes import build_complex, cell1
from confighom.connectivity import (alpha_star, alpha_star_recursive,
                                    beta_star, beta_star_inclusion_exclusion,
                                    n1_of_cut, n1_two_particle, predict_h1)
from confighom.gauge import (GaugeError, ab_part_as_omega1,
                             ab_statistics_split, build_n_particle, flux,
                             is_topological, lift_path, lift_subdivision,
                             random_topological_potential, solve_from_fluxes)
from confighom.graphs import (Graph, betti1, complete_bipartite,
                              complete_graph, cycle_graph, lasso_graph,
                              octahedron_graph, prism_graph, star_graph,
                              sufficiently_subdivide, wheel_graph)
from confighom.homology import h1, homology_coordinates
from confighom.spanning import (cycle_rotation_chain, spanning_set,
                                verify_spanning, y_exchange_chain)


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def _chain(steps):
    z = {}
    for spec, u, v in steps:
        key, s = cell1(spec, u, v)
        z[key] = z.get(key, 0) + s
    return {k: v for k, v in z.items() if v}


def _group(g, n):
    gs, _ = sufficiently_subdivide(g, n)
    return h1(build_complex(gs, n))


def test_01_worked_examples_and_lasso_relation():
    with budget(1):
        assert h1(build_complex(cycle_graph(3), 2)).render() == "Z"
        assert h1(build_complex(star_graph(3), 2)).render() == "Z"
        c = build_complex(lasso_graph(), 2)
        assert h1(c).render() == "Z^2"
        # AB-cycle around the triangle with the pendant occupied, the pure
        # exchange around the triangle, and the Y-exchange at the junction
        ab = _chain([((0,), 1, 3), ((0,), 3, 2), ((0,), 2, 1)])
        exchange = _chain([((2,), 1, 3), ((3,), 2, 1), ((1,), 3, 2)])
        y = _chain([((0,), 1, 2), ((2,), 0, 1), ((2,), 1, 3),
                    ((3,), 2, 1), ((3,), 1, 0), ((0,), 3, 1)])
        # exchange = AB + Y, exactly in homology coordinates
        ca = homology_coordinates(c, ab)
        cx = homology_coordinates(c, exchange)
        cy = homology_coordinates(c, y)
        assert cx.free == tuple(a + b for a, b in zip(ca.free, cy.free))
        # and as a flux identity for random topological potentials
        rng = random.Random(20260823)
        for _ in range(10):
            p = random_topological_potential(c, rng)
            assert flux(p, exchange) % 1 == (flux(p, ab) + flux(p, y)) % 1


def test_02_kuratowski_pair():
    for g, expected in ((complete_graph(5), "Z^6 + Z_2"),
                        (complete_bipartite(3, 3), "Z^4 + Z_2")):
        with budget(5):
            exact = h1(build_complex(g, 2))
            assert exact.render() == expected
            predicted = predict_h1(g, 2).group
            assert (predicted.rank, predicted.torsion) == \
                (exact.rank, exact.torsion)


def test_03_three_connected_dichotomy():
    with budget(30):
        planar = (wheel_graph(4), wheel_graph(5), octahedron_graph(),
                  prism_graph())
        for g in planar:
            exact = h1(build_complex(g, 2))
            assert (exact.rank, exact.torsion) == (betti1(g) + 1, ())
            assert predict_h1(g, 2).group.rank == exact.rank
        for g in (complete_graph(5), complete_bipartite(3, 3)):
            exact = h1(build_complex(g, 2))
            assert (exact.rank, exact.torsion) == (betti1(g), (2,))
            p = predict_h1(g, 2).group
            assert (p.rank, p.torsion) == (exact.rank, exact.torsion)


def test_04_star_formula():
    cases = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]
    with budget(600):
        for e, n in cases:
            exact = _group(star_graph(e), n)
            assert exact.torsion == ()
            assert exact.rank == beta_star(n, e), (e, n)
        assert beta_star(3, 3) == 3
        assert beta_star(4, 5) == 71


def test_05_identity_suite():
    with budget(1):
        for e in range(2, 13):
            for k in range(2, e + 1):
                assert alpha_star(k, e) == alpha_star_recursive(k, e)
        for e in range(3, 9):
            for n in range(2, 9):
                assert beta_star(n, e) == beta_star_inclusion_exclusion(n, e)
        for nu in range(2, 13):
            for mu in range(2, nu + 1):
                assert n1_of_cut(mu, nu, 2) == n1_two_particle(mu, nu)


def test_06_stabilization():
    with budget(300):
        for g in (cycle_graph(3), cycle_graph(4), complete_graph(4),
                  wheel_graph(4), complete_bipartite(3, 3)):
            two = _group(g, 2)
            three = _group(g, 3)
            assert (two.rank, two.torsion) == (three.rank, three.torsion), g


def test_07_predictor_oracle_corpus():
    import networkx as nx
    with budget(1800):
        checked = 0
        for ng in nx.graph_atlas_g():
            if ng.number_of_nodes() < 2 or not nx.is_connected(ng):
                continue
            relabel = {v: i for i, v in enumerate(sorted(ng.nodes))}
            g = Graph(ng.number_of_nodes(),
                      tuple((relabel[u], relabel[v]) for u, v in ng.edges))
            p = predict_h1(g, 2).group
            o = h1(build_complex(g, 2))
            assert (p.rank, p.torsion) == (o.rank, o.torsion), g
            checked += 1
        assert checked >= 850

        rng = random.Random(97)
        done = 0
        while done < 200:
            nv = rng.choice((8, 9))
            ng = nx.gnp_random_graph(nv, rng.uniform(0.25, 0.6), seed=rng.randint(0, 10**9))
            if not nx.is_connected(ng):
                continue
            g = Graph(nv, tuple(ng.edges))
            p = predict_h1(g, 2).group
            o = h1(build_complex(g, 2))
            assert (p.rank, p.torsion) == (o.rank, o.torsion), g
            done += 1


def _rotation_split_fixture(n):
    if n == 3:
        g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)))
        rotation = cycle_rotation_chain([2, 3, 4, 5], 3)
        smaller = cycle_rotation_chain([2, 3, 4, 5], 2, spectators=[1])
        y = y_exchange_chain(2, 5, 3, 1, spectators=[4])
    else:
        g = Graph(8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                      (6, 7), (3, 7)))
        rotation = cycle_rotation_chain([3, 4, 5, 6, 7], 4)
        smaller = cycle_rotation_chain([3, 4, 5, 6, 7], 3, spectators=[2])
        y = y_exchange_chain(3, 7, 4, 2, spectators=[5, 6])
    return g, rotation, smaller, y


def test_08_gauge_contract():
    with budget(60):
        rng = random.Random(11)
        # n-particle potentials assembled from random statistics phases
        for g in (lasso_graph(), complete_graph(4), wheel_graph(4)):
            c2 = build_complex(g, 2)
            p2 = random_topological_potential(c2, rng)
            ab, stat = ab_statistics_split(p2, g)
            omega = ab_part_as_omega1(ab)
            for n in (2, 3):
                c = build_complex(g, n)
                pn = build_n_particle(stat, omega, c)
                assert is_topological(pn, c), (g, n)
        # full-cycle rotation splits into a smaller rotation plus a Y-exchange
        for n in (3, 4):
            g, rotation, smaller, y = _rotation_split_fixture(n)
            c = build_complex(g, n)
            cr = homology_coordinates(c, rotation)
            cs = homology_coordinates(c, smaller)
            cy = homology_coordinates(c, y)
            assert cr.free == tuple(a + b for a, b in zip(cs.free, cy.free))
            for _ in range(3):
                p = random_topological_potential(c, rng)
                assert flux(p, rotation) % 1 == \
                    (flux(p, smaller) + flux(p, y)) % 1
        # subdividing an edge preserves every generator flux
        g = complete_graph(4)
        c = build_complex(g, 2)
        cycles = spanning_set(g, 2)
        for _ in range(50):
            p = random_topological_potential(c, rng)
            edge = g.edges[rng.randrange(len(g.edges))]
            lifted = lift_subdivision(p, edge)
            for cyc in cycles:
                mapped = lift_path(cyc.chain, edge, g.vertex_count)
                assert (flux(lifted, mapped) - flux(p, cyc.chain)) % 1 == 0


def test_09_solve_honors_torsion():
    with budget(10):
        c = build_complex(complete_graph(5), 2)
        hexagon = _chain([((1,), 2, 0), ((1,), 0, 3), ((3,), 1, 0),
                          ((3,), 0, 2), ((2,), 3, 0), ((2,), 0, 1)])
        p = solve_from_fluxes(c, [(hexagon, Fraction(1, 2))])
        assert flux(p, hexagon) % 1 == Fraction(1, 2)
        assert is_topological(p, c)
        with pytest.raises(GaugeError, match="unrealizable phase"):
            solve_from_fluxes(c, [(hexagon, Fraction(1, 3))])


def test_10_spanning_sets():
    with budget(120):
        fixtures = [(cycle_graph(3), 2), (star_graph(3), 2),
                    (lasso_graph(), 2), (complete_graph(4), 2),
                    (complete_graph(5), 2), (wheel_graph(4), 2),
                    (star_graph(4), 2), (star_graph(4), 3)]
        for g, n in fixtures:
            gs, _ = sufficiently_subdivide(g, n)
            assert verify_spanning(spanning_set(gs, n),
                                   build_complex(gs, n)).spans, (g, n)

        # two-loop figure-eight-with-bridge graph, three particles
        edges = [(i, i + 1) for i in range(7)]
        edges += [(2, 8), (8, 9), (9, 10), (10, 11), (9, 12)]
        edges += [(0, 12), (7, 11)]
        g12 = Graph(13, tuple(edges))
        cycles = spanning_set(g12, 3, root=0, deleted_edges=[(0, 12), (7, 11)])
        assert verify_spanning(cycles, build_complex(g12, 3)).spans

        # K5 with two different cyclic edge orders at each vertex
        k5 = complete_graph(5)
        c = build_complex(k5, 2)
        ascending = {v: sorted(k5.neighbors(v)) for v in range(5)}
        descending = {v: sorted(k5.neighbors(v), reverse=True)
                      for v in range(5)}
        for emb in (ascending, descending):
            rep = verify_spanning(spanning_set(k5, 2, embedding=emb), c)
            assert rep.spans and rep.torsion_covered

"""Connectivity decomposition and the closed-form H1 predictor."""
import hashlib
import json
import random
import sys
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confighom.complexes import build_complex
from confighom.connectivity import (alpha_star, alpha_star_recursive,
                                    beta_star, beta_star_inclusion_exclusion,
                                    connectivity_level, cut_vertices,
                                    decompose, gamma_star, is_planar,
                                    n1_of_cut, n1_two_particle, n2_of_cut,
                                    predict_h1, two_separations)
from confighom.graphs import (Graph, betti1, complete_bipartite,
                              complete_graph, cycle_graph, lasso_graph,
                              octahedron_graph, prism_graph, star_graph,
                              sufficiently_subdivide, wheel_graph)
from confighom.homology import h1
from conftest import connected_graphs


def theta_graph():
    """Two hubs joined by three internally disjoint length-2 paths."""
    return Graph(5, ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)))


def test_cut_vertices_lasso():
    cuts = cut_vertices(lasso_graph())
    assert [(c.vertices, c.mu, c.nu) for c in cuts] == [((1,), 2, 3)]


def test_two_separations_requires_biconnected():
    with pytest.raises(ValueError):
        two_separations(lasso_graph())


def test_two_separations_theta():
    cuts = two_separations(theta_graph())
    assert [(c.vertices, c.mu) for c in cuts] == [((0, 1), 3)]


def test_connectivity_levels():
    assert connectivity_level(star_graph(3)) == 1
    assert connectivity_level(cycle_graph(4)) == 2
    assert connectivity_level(complete_graph(5)) >= 3


def test_planarity():
    assert is_planar(wheel_graph(5))
    assert is_planar(octahedron_graph())
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))


def test_decompose_cycle_is_atomic():
    comps, cuts = decompose(cycle_graph(6))
    assert cuts == []
    assert len(comps) == 1 and comps[0].kind == "topological-cycle"


def test_decompose_k5_is_atomic():
    comps, cuts = decompose(complete_graph(5))
    assert cuts == []
    assert len(comps) == 1 and comps[0].kind == "nonplanar-3-connected"


def test_decompose_theta():
    comps, cuts = decompose(theta_graph())
    assert len(cuts) == 1 and cuts[0].kind == "pair" and cuts[0].mu == 3
    assert len(comps) == 3
    assert all(m.kind == "topological-cycle" for m in comps)


def test_decompose_lasso_drops_pendant():
    comps, cuts = decompose(lasso_graph())
    assert len(comps) == 1 and comps[0].kind == "topological-cycle"
    assert cuts[0].kind == "vertex" and cuts[0].mu == 2


def test_n_counts_small_values():
    assert n2_of_cut(2) == 0
    assert n2_of_cut(3) == 1
    assert n1_of_cut(2, 3, 2) == 1  # pendant triangle, two particles
    assert n1_two_particle(2, 3) == 1


def test_predict_one_particle():
    p = predict_h1(wheel_graph(4), 1)
    assert p.group.render() == "Z^4"


def test_predict_fixture_groups():
    assert predict_h1(complete_graph(5), 2).group.render() == "Z^6 + Z_2"
    assert predict_h1(complete_bipartite(3, 3), 2).group.render() == "Z^4 + Z_2"
    assert predict_h1(octahedron_graph(), 2).group.render() == "Z^8"
    assert predict_h1(theta_graph(), 2).group.render() == "Z^3"
    assert predict_h1(lasso_graph(), 2).group.render() == "Z^2"


def test_alpha_identity_full_range():
    for e in range(2, 13):
        for k in range(2, e + 1):
            assert alpha_star(k, e) == alpha_star_recursive(k, e)


def test_beta_identity():
    for e in range(3, 9):
        for n in range(2, 9):
            assert beta_star(n, e) == beta_star_inclusion_exclusion(n, e)


def test_n1_two_particle_identity():
    for nu in range(2, 13):
        for mu in range(2, nu + 1):
            assert n1_of_cut(mu, nu, 2) == n1_two_particle(mu, nu)


def test_star_values():
    assert beta_star(3, 3) == 3
    assert beta_star(4, 5) == 71
    assert gamma_star(2, 3) == 1


@settings(max_examples=25, deadline=None)
@given(connected_graphs(min_vertices=3, max_vertices=7))
def test_predictor_matches_oracle_two_particles(g):
    p = predict_h1(g, 2)
    gs, _ = sufficiently_subdivide(g, 2)
    o = h1(build_complex(gs, 2))
    assert (p.group.rank, p.group.torsion) == (o.rank, o.torsion)


def test_bookkeeping_beta1_consistency():
    for g in (wheel_graph(4), theta_graph(), complete_graph(5),
              prism_graph(), lasso_graph()):
        comps, cuts = decompose(g)
        pair_cuts = sum(1 for c in cuts if c.kind == "pair")
        assert sum(betti1(m.graph) for m in comps) == betti1(g) + pair_cuts


# sha256 of _golden_report over every connected atlas graph with 2..7
# vertices, recorded from the hand-written BFS decomposition that the
# networkx articulation-point scans replaced.
GOLDEN_DIGEST = "4f4d374bca06009d8132a2634e68bc4d80692db7230d04b1f8fbfbd369445983"


@pytest.fixture(scope="module")
def atlas7():
    """The 995 connected graphs of the networkx atlas with 2..7 vertices."""
    return [Graph(g.number_of_nodes(), tuple(g.edges))
            for g in nx.graph_atlas_g()
            if 2 <= g.number_of_nodes() <= 7 and nx.is_connected(g)]


def _golden_report(g):
    """The decompose CLI report fields plus predict_h1 at n = 2, 3, as JSON."""
    comps, cuts = decompose(g)
    report = {
        "cuts": [{"kind": c.kind, "vertices": list(c.vertices), "mu": c.mu,
                  "nu": c.nu} for c in cuts],
        "components": [{"kind": m.kind, "vertices": list(m.vertex_ids),
                        "virtual_edges": [list(e) for e in m.virtual_edges]}
                       for m in comps],
    }
    for n in (2, 3):
        p = predict_h1(g, n)
        report[f"predict_n{n}"] = [p.group.render(), p.beta1, p.N1, p.N2,
                                   p.N3, p.N3_prime, p.N3_doubleprime]
    return json.dumps(report, sort_keys=True)


def test_decompose_and_predict_golden_atlas(atlas7):
    assert len(atlas7) == 995
    text = "\n".join(_golden_report(g) for g in atlas7)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST


def test_cuts_match_brute_force_component_counts(atlas7):
    for g in atlas7:
        nxg = nx.Graph(g.edges)

        def pieces(*removed):
            h = nxg.copy()
            h.remove_nodes_from(removed)
            return nx.number_connected_components(h)

        want = [((v,), pieces(v), nxg.degree(v))
                for v in range(g.vertex_count) if pieces(v) >= 2]
        assert [(c.vertices, c.mu, c.nu) for c in cut_vertices(g)] == want, g
        if want or g.vertex_count < 3:
            continue
        want = [((x, y), pieces(x, y) + nxg.has_edge(x, y))
                for x, y in combinations(range(g.vertex_count), 2)
                if pieces(x, y) >= 2]
        assert [(c.vertices, c.mu) for c in two_separations(g)] == want, g


def test_predict_large_ladder():
    rungs = 100
    g = Graph(2 * rungs, tuple(nx.ladder_graph(rungs).edges))
    assert predict_h1(g, 2).group.rank == betti1(g) + rungs - 2


def test_long_chain_of_two_separations_has_no_recursion_limit():
    # the triangle strip on vertices 0..V-1 splits at {i+1, i+2} once per
    # triangle; a splitter that recursed once per 2-separation would pass
    # the lowered limit
    V = 200
    edges = [(i, i + 1) for i in range(V - 1)] + [(i, i + 2) for i in range(V - 2)]
    g = Graph(V, tuple(edges))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        comps, cuts = decompose(g)
        p = predict_h1(g, 2)
    finally:
        sys.setrecursionlimit(limit)
    # V - 2 triangles, and each of the V - 3 separating pairs is also joined
    # by a direct edge (mu = 3), which becomes a component of its own
    assert [m.kind for m in comps] == ["topological-cycle"] * (2 * V - 5)
    assert [(c.kind, c.mu) for c in cuts] == [("pair", 3)] * (V - 3)
    assert [c.vertices for c in cuts][:3] == [(1, 2), (2, 3), (3, 4)]
    assert (p.beta1, p.N2, p.group.render()) == (V - 2, V - 3, f"Z^{2 * V - 5}")


def test_predictor_matches_oracle_three_particles_atlas_sample(atlas7):
    # n = 3 brings in the n-dependent cut-vertex term N1, which the n = 2
    # corpus cannot tell apart from its two-particle special case
    seven = [g for g in atlas7 if g.vertex_count == 7]
    assert len(seven) == 853
    for g in random.Random(3).sample(seven, 40):
        p = predict_h1(g, 3).group
        o = h1(build_complex(sufficiently_subdivide(g, 3)[0], 3))
        assert (p.rank, p.torsion) == (o.rank, o.torsion), g

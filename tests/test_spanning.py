"""Rooted ordered trees, the discrete flow, and AB/Y spanning sets."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confighom.complexes import boundary1_chain, build_complex
from confighom.graphs import (Graph, complete_graph, cycle_graph, lasso_graph,
                              path_graph, star_graph, sufficiently_subdivide,
                              wheel_graph)
from confighom.homology import h1, is_cycle
from confighom.spanning import (SpanningError, cycle_rotation_chain,
                                flow_chain, flow_step, root_configuration,
                                rooted_ordered_tree, spanning_set,
                                verify_spanning, y_exchange_chain)
from conftest import connected_graphs


def two_loop_graph():
    """Two cycles sharing a path, 13 vertices, beta1 = 2."""
    edges = [(i, i + 1) for i in range(7)]
    edges += [(2, 8), (8, 9), (9, 10), (10, 11), (9, 12)]
    edges += [(0, 12), (7, 11)]
    return Graph(13, tuple(edges))


def test_rooted_tree_preorder_labels():
    g = two_loop_graph()
    t = rooted_ordered_tree(g, root=0, deleted_edges=[(0, 12), (7, 11)])
    assert t.label == tuple(range(1, 14))
    assert set(t.deleted_edges) == {(0, 12), (7, 11)}


def test_rooted_tree_default_root_is_lowest_leaf():
    t = rooted_ordered_tree(lasso_graph())
    assert t.root == 0


def test_rooted_tree_default_root_avoids_cut_vertex():
    # no leaves, and vertex 0 joins the triangle 0-1-2 to the triangle 3-4-5
    g = Graph(6, ((0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (3, 5), (4, 5)))
    assert rooted_ordered_tree(g).root == 1
    assert verify_spanning(spanning_set(g, 2), build_complex(g, 2))


def test_rooted_tree_on_long_path_has_no_recursion_limit():
    t = rooted_ordered_tree(path_graph(1500))
    assert t.label == tuple(range(1, 1501))
    assert spanning_set(path_graph(1500), 2) == []


def test_rooted_tree_rejects_degree2_root():
    with pytest.raises(SpanningError):
        rooted_ordered_tree(lasso_graph(), root=2, deleted_edges=[(1, 3)])


def test_rooted_tree_rejects_disconnecting_deletions():
    with pytest.raises(SpanningError):
        rooted_ordered_tree(lasso_graph(), root=0, deleted_edges=[(0, 1)])


def test_root_configuration_lowest_labels():
    g, _ = sufficiently_subdivide(star_graph(3), 3)
    t = rooted_ordered_tree(g)
    cfg = root_configuration(t, 3)
    assert {t.label[v] for v in cfg} == {1, 2, 3}


def test_flow_reaches_root_configuration():
    g, _ = sufficiently_subdivide(star_graph(3), 3)
    t = rooted_ordered_tree(g)
    cfg = root_configuration(t, 3)
    assert flow_step(t, cfg) is None
    assert flow_chain(t, cfg) == {}


def test_flow_chain_boundary_telescopes():
    # boundary of the flow path is (root configuration) - (start)
    g, _ = sufficiently_subdivide(lasso_graph(), 3)
    t = rooted_ordered_tree(g)
    target = root_configuration(t, 3)
    start = tuple(sorted(g.vertex_count - 1 - i for i in range(3)))
    total = {}
    for cell, coeff in flow_chain(t, start).items():
        for c0, val in boundary1_chain(cell).items():
            total[c0] = total.get(c0, 0) + coeff * val
    total = {k: v for k, v in total.items() if v}
    assert total == {target: 1, start: -1}


def test_y_exchange_is_a_cycle():
    g, _ = sufficiently_subdivide(star_graph(3), 2)
    c = build_complex(g, 2)
    z = y_exchange_chain(0, 1, 2, 3)
    assert is_cycle(c, z)
    assert sorted(abs(v) for v in z.values()) == [1] * 6


def test_cycle_rotation_is_a_cycle():
    g = cycle_graph(6)
    c = build_complex(g, 3)
    z = cycle_rotation_chain([0, 1, 2, 3, 4, 5], 3)
    assert is_cycle(c, z)


def test_spanning_counts_small():
    assert [c.kind for c in spanning_set(cycle_graph(3), 2)] == ["AB"]
    assert [c.kind for c in spanning_set(star_graph(3), 2)] == ["Y"]
    kinds = [c.kind for c in spanning_set(lasso_graph(), 2)]
    assert kinds.count("AB") == 1 and kinds.count("Y") >= 1


def test_all_generators_are_cycles():
    g = complete_graph(4)
    c = build_complex(g, 2)
    for cyc in spanning_set(g, 2):
        assert is_cycle(c, cyc.chain)


def test_verify_spanning_fixtures():
    for g in (complete_graph(4), wheel_graph(4), lasso_graph()):
        rep = verify_spanning(spanning_set(g, 2), build_complex(g, 2))
        assert rep and rep.free_rank == rep.free_needed


def test_verify_spanning_covers_torsion():
    g = complete_graph(5)
    rep = verify_spanning(spanning_set(g, 2), build_complex(g, 2))
    assert rep.spans and rep.torsion_covered


def test_spanning_three_particles():
    g, _ = sufficiently_subdivide(lasso_graph(), 3)
    rep = verify_spanning(spanning_set(g, 3), build_complex(g, 3))
    assert rep.spans
    assert rep.free_needed == h1(build_complex(g, 3)).rank


def test_spanning_requires_subdivision():
    with pytest.raises(SpanningError):
        spanning_set(lasso_graph(), 3)


@settings(max_examples=15, deadline=None)
@given(connected_graphs(min_vertices=3, max_vertices=6))
def test_spanning_property_two_particles(g):
    gs, _ = sufficiently_subdivide(g, 2)
    assert verify_spanning(spanning_set(gs, 2), build_complex(gs, 2)).spans

"""Graph container, subdivision and constructors."""
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confighom.graphs import (Graph, GraphError, betti1, complete_bipartite,
                              complete_graph, cycle_graph, essential_vertices,
                              girth, graph_from_json, graph_to_json,
                              is_connected, is_sufficiently_subdivided,
                              lasso_graph, octahedron_graph, path_graph,
                              prism_graph, star_graph, subdivide_edge,
                              sufficiently_subdivide, wheel_graph)
from conftest import connected_graphs


def test_canonical_edges():
    g = Graph(3, ((2, 1), (0, 1)))
    assert g.edges == ((1, 2), (0, 1))
    assert g.has_edge(1, 2) and g.has_edge(2, 1)


def test_rejects_bad_vertices():
    with pytest.raises(GraphError):
        Graph(2, ((0, 2),))
    with pytest.raises(GraphError):
        Graph(2, ((0, 0),))


def test_constructors_basic_counts():
    assert complete_graph(5).edge_count == 10
    assert complete_bipartite(3, 3).edge_count == 9
    assert star_graph(4).degree(0) == 4
    assert wheel_graph(4).edge_count == 8
    assert octahedron_graph().degrees() == [4] * 6
    assert prism_graph().degrees() == [3] * 6
    assert lasso_graph().degrees() == [1, 3, 2, 2]
    assert betti1(path_graph(5)) == 0
    assert girth(cycle_graph(7)) == 7
    assert girth(path_graph(4)) is None


def test_betti_fixtures():
    assert betti1(complete_graph(5)) == 6
    assert betti1(complete_bipartite(3, 3)) == 4
    assert betti1(wheel_graph(4)) == 4
    assert betti1(lasso_graph()) == 1


def test_essential_vertices():
    assert essential_vertices(cycle_graph(5)) == set()
    assert essential_vertices(star_graph(3)) == {0, 1, 2, 3}
    assert essential_vertices(lasso_graph()) == {0, 1}


def test_subdivide_edge_preserves_betti():
    g = complete_graph(4)
    gs = subdivide_edge(g, (0, 1), 3)
    assert gs.vertex_count == 7
    assert betti1(gs) == betti1(g)
    assert not gs.has_edge(0, 1)


@given(connected_graphs(), st.integers(2, 4))
def test_sufficient_subdivision_postconditions(g, n):
    gs, mapping = sufficiently_subdivide(g, n)
    assert is_sufficiently_subdivided(gs, n)
    assert betti1(gs) == betti1(g)
    assert is_connected(gs)
    # every subdivided edge traces back to an original edge and vice versa
    assert set(mapping) == set(gs.edges)
    assert set(mapping.values()) <= set(g.edges)


def test_subdivision_noop_when_sufficient():
    g = cycle_graph(6)
    gs, _ = sufficiently_subdivide(g, 2)
    assert gs.edges == g.edges


def test_json_roundtrip():
    g = lasso_graph()
    blob = json.dumps(graph_to_json(g))
    assert graph_from_json(json.loads(blob)) == g


def test_json_rejects_disconnected():
    with pytest.raises(GraphError):
        graph_from_json({"vertices": 4, "edges": [[0, 1], [2, 3]]})


@pytest.mark.parametrize("edge", [[0, 1.7], [True, 1], [0, "1"]])
def test_json_rejects_non_integer_endpoints(edge):
    with pytest.raises(GraphError, match="integers"):
        graph_from_json({"vertices": 3, "edges": [edge, [1, 2]]})


def test_json_rejects_boolean_vertex_count_and_non_list_edges():
    with pytest.raises(GraphError):
        graph_from_json({"vertices": True, "edges": []})
    with pytest.raises(GraphError, match="list of pairs"):
        graph_from_json({"vertices": 2, "edges": 5})

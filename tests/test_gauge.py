"""Gauge potentials: fluxes, splits, lifts, embeddings, flux solving."""
import hashlib
import random
from fractions import Fraction

import pytest

from confighom.complexes import build_complex, cell1
from confighom.gauge import (GaugeError, GaugePotential, ab_part_as_omega1,
                             ab_statistics_split, build_n_particle, flux,
                             is_pure_statistics, is_topological, lift_path,
                             lift_subdivision, lift_to_subdivision,
                             potential_from_json, potential_to_json,
                             random_topological_potential, solve_from_fluxes)
from confighom.graphs import (Graph, complete_bipartite, complete_graph,
                              cycle_graph, lasso_graph, prism_graph,
                              sufficiently_subdivide, wheel_graph)
from confighom.homology import homology_coordinates
from confighom.spanning import spanning_set, y_exchange_chain


def _chain(steps):
    z = {}
    for spec, u, v in steps:
        key, s = cell1(spec, u, v)
        z[key] = z.get(key, 0) + s
    return {k: v for k, v in z.items() if v}


def _ab(spec, cyc):
    return _chain([(spec, cyc[i], cyc[(i + 1) % len(cyc)])
                   for i in range(len(cyc))])


def test_antisymmetry_and_validation():
    g = cycle_graph(3)
    p = GaugePotential(2, g, {((2,), (0, 1)): Fraction(1, 3)})
    assert p.value([2], 0, 1) == Fraction(1, 3)
    assert p.value([2], 1, 0) == Fraction(-1, 3)
    assert p.value([0], 1, 2) == 0
    with pytest.raises(GaugeError):
        p.value([1], 0, 1)  # spectator collides with the edge
    with pytest.raises(GaugeError):
        p.value([2], 0, 2)  # not an edge


def test_flux_is_linear(rng):
    c = build_complex(complete_graph(4), 2)
    p = random_topological_potential(c, rng)
    z1 = _ab((3,), [0, 1, 2])
    z2 = _ab((0,), [1, 2, 3])
    both = dict(z1)
    for k, v in z2.items():
        both[k] = both.get(k, 0) + v
    assert flux(p, both) == flux(p, z1) + flux(p, z2)


def test_random_potential_is_topological(rng):
    for g in (lasso_graph(), complete_graph(4), complete_graph(5)):
        c = build_complex(g, 2)
        for _ in range(3):
            assert is_topological(random_topological_potential(c, rng), c)


def test_topological_flux_is_class_invariant(rng):
    # homologous cycles acquire the same phase mod 1
    c = build_complex(complete_graph(4), 2)
    p = random_topological_potential(c, rng)
    z1 = _ab((3,), [0, 1, 2])
    z2 = dict(z1)
    from confighom.complexes import boundary2_chain
    for cell, v in boundary2_chain(((), (0, 1), (2, 3))).items():
        z2[cell] = z2.get(cell, 0) + v
    assert homology_coordinates(c, z1).free == homology_coordinates(c, z2).free
    assert (flux(p, z1) - flux(p, z2)) % 1 == 0


def test_split_properties(rng):
    g = complete_graph(4)
    c = build_complex(g, 2)
    p = random_topological_potential(c, rng)
    ab, stat = ab_statistics_split(p, g)
    # recomposition
    for cell in c.cells1:
        assert ab.on_cell(cell) + stat.on_cell(cell) == p.on_cell(cell)
    # AB part is spectator independent
    omega = ab_part_as_omega1(ab)
    for (spec, e) in c.cells1:
        assert ab.on_cell((spec, e)) == omega.get(e, Fraction(0))
    # statistics part has zero spectator average
    assert is_pure_statistics(stat, g)


def test_ab_difference_identity(rng):
    # pendants at two cycle vertices: AB-phase difference is a Y-phase
    # difference, exactly in homology and mod 1 in flux
    g = Graph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4)))
    c = build_complex(g, 2)
    a3 = _ab((3,), [0, 1, 2])
    a4 = _ab((4,), [0, 1, 2])
    y1 = y_exchange_chain(0, 1, 2, 3)
    y2 = y_exchange_chain(1, 2, 0, 4)
    coords = {k: homology_coordinates(c, z).free
              for k, z in (("a3", a3), ("a4", a4), ("y1", y1), ("y2", y2))}
    assert tuple(x - y for x, y in zip(coords["a3"], coords["a4"])) == \
        tuple(x - y for x, y in zip(coords["y1"], coords["y2"]))
    for _ in range(5):
        p = random_topological_potential(c, rng)
        lhs = (flux(p, a3) - flux(p, a4)) % 1
        rhs = (flux(p, y1) - flux(p, y2)) % 1
        assert lhs == rhs


def test_ab_phase_spectator_independence_off_cycle(rng):
    # spectator positions joined by a path avoiding the cycle are equivalent
    g = Graph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4)))
    c = build_complex(g, 2)
    a3 = _ab((3,), [0, 1, 2])
    a4 = _ab((4,), [0, 1, 2])
    assert homology_coordinates(c, a3).free == homology_coordinates(c, a4).free
    for _ in range(5):
        p = random_topological_potential(c, rng)
        assert (flux(p, a3) - flux(p, a4)) % 1 == 0


def test_lift_preserves_fluxes(rng):
    g = complete_graph(4)
    c = build_complex(g, 2)
    cycles = spanning_set(g, 2)
    for _ in range(5):
        p = random_topological_potential(c, rng)
        for edge in ((0, 1), (2, 3)):
            lifted = lift_subdivision(p, edge)
            cs = build_complex(lifted.graph, 2)
            assert is_topological(lifted, cs)
            for cyc in cycles:
                mapped = lift_path(cyc.chain, edge, g.vertex_count)
                assert (flux(lifted, mapped) - flux(p, cyc.chain)) % 1 == 0


def test_lift_to_subdivision_matches_graph_subdivision(rng):
    g = lasso_graph()
    c2 = build_complex(g, 2)
    p = random_topological_potential(c2, rng)
    gl, lifted = lift_to_subdivision(p, 3)
    gs, _ = sufficiently_subdivide(g, 3)
    assert gl == gs
    assert is_topological(lifted, build_complex(gs, 2))


def test_build_n_particle_topological(rng):
    for g in (lasso_graph(), complete_graph(4)):
        c2 = build_complex(g, 2)
        p2 = random_topological_potential(c2, rng)
        ab, stat = ab_statistics_split(p2, g)
        c3 = build_complex(g, 3)
        p3 = build_n_particle(stat, ab_part_as_omega1(ab), c3)
        assert is_topological(p3, c3)


def test_solve_round_trip(rng):
    g = lasso_graph()
    c = build_complex(g, 2)
    source = random_topological_potential(c, rng)
    cycles = spanning_set(g, 2)
    targets = [(cyc.chain, flux(source, cyc.chain)) for cyc in cycles]
    solved = solve_from_fluxes(c, targets)
    assert is_topological(solved, c)
    for cyc in cycles:
        assert (flux(solved, cyc.chain) - flux(source, cyc.chain)) % 1 == 0


def test_anyon_phase_on_triangle():
    # a 1/5 exchange phase is realizable: H1 is free here
    c = build_complex(cycle_graph(3), 2)
    z = _chain([((2,), 0, 1), ((0,), 1, 2), ((1,), 2, 0)])
    p = solve_from_fluxes(c, [(z, Fraction(1, 5))])
    assert flux(p, z) % 1 == Fraction(1, 5)


def test_json_round_trip(rng):
    g = wheel_graph(4)
    c = build_complex(g, 2)
    p = random_topological_potential(c, rng)
    q = potential_from_json(potential_to_json(p), g, 2)
    for cell in c.cells1:
        assert q.on_cell(cell) == p.on_cell(cell)


GAUGE_DIGEST = (
    "57ee52d07bb942dc6a455bb47f785bac083c6de8e94d6ddd6a6114706e6aaeb2")


def _gauge_digest():
    """sha256 over random potentials, their generator fluxes and the
    potentials solved back from those fluxes."""
    h = hashlib.sha256()
    for g in (complete_graph(4), complete_graph(5), prism_graph()):
        gs = sufficiently_subdivide(g, 3)[0]
        c = build_complex(gs, 3)
        cycles = spanning_set(gs, 3)
        for seed in (0, 1):
            p = random_topological_potential(c, random.Random(seed))
            targets = [(cyc.chain, flux(p, cyc.chain)) for cyc in cycles]
            solved = solve_from_fluxes(c, targets)
            h.update(repr((potential_to_json(p), [t for _, t in targets],
                           potential_to_json(solved))).encode())
    return h.hexdigest()


def test_gauge_outputs_are_pinned():
    # the digest was computed when every coordinate was a forward replay of
    # the row-operation log and the solve summed Fractions term by term; the
    # class table and the common-denominator sums must give the same values
    assert _gauge_digest() == GAUGE_DIGEST


@pytest.mark.parametrize("g", [complete_graph(4), complete_bipartite(2, 3)],
                         ids=lambda g: g.name)
def test_four_particle_round_trip(g):
    gs = sufficiently_subdivide(g, 4)[0]
    c = build_complex(gs, 4)
    source = random_topological_potential(c, random.Random(7))
    targets = [(cyc.chain, flux(source, cyc.chain))
               for cyc in spanning_set(gs, 4)]
    solved = solve_from_fluxes(c, targets)
    assert is_topological(solved, c)
    for z, target in targets:
        assert (flux(solved, z) - target) % 1 == 0


@pytest.mark.parametrize("field, bad", [
    ("spectators", [True]), ("spectators", [1.0]), ("spectators", ["3"]),
    ("spectators", "3"), ("from", 1.7), ("from", True), ("to", "2")])
def test_json_rejects_non_integer_vertex_ids(field, bad):
    g = wheel_graph(4)
    entry = {"spectators": [3], "from": 1, "to": 2, "value": "1/3"}
    potential_from_json([entry], g, 2)
    entry[field] = bad
    with pytest.raises(GaugeError, match="integers"):
        potential_from_json([entry], g, 2)

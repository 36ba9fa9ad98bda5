"""Integer Smith normal form and H1 of configuration complexes."""
import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from confighom.complexes import build_complex, cell1
from confighom.graphs import (complete_bipartite, complete_graph, cycle_graph,
                              lasso_graph, prism_graph, star_graph,
                              sufficiently_subdivide, wheel_graph)
from confighom.homology import (AbelianGroup, IntegerMatrix, _class_table,
                                _Eliminator, _h1_data, class_matrix, h0, h1,
                                homology_coordinates, is_cycle, matmul,
                                nontree_classes, smith_normal_form)
from confighom.spanning import spanning_set


def _chain(steps):
    z = {}
    for spec, u, v in steps:
        key, s = cell1(spec, u, v)
        z[key] = z.get(key, 0) + s
    return {k: v for k, v in z.items() if v}


small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_snf_transforms_and_divisibility(rows):
    m = IntegerMatrix.from_dense(rows)
    factors, u, v = smith_normal_form(m, transforms=True)
    d = matmul(matmul(u, m.to_dense()), v)
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            expected = factors[i] if i == j and i < len(factors) else 0
            assert x == expected
    for a, b in zip(factors, factors[1:]):
        assert a > 0 and b % a == 0


def test_snf_known_torsion():
    m = IntegerMatrix.from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    factors, = smith_normal_form(m)
    assert tuple(factors) == (2, 2, 156)


def test_h0_connected():
    c = build_complex(complete_graph(4), 2)
    assert h0(c).render() == "Z"


def test_h1_small_fixtures():
    assert h1(build_complex(cycle_graph(3), 2)).render() == "Z"
    assert h1(build_complex(star_graph(3), 2)).render() == "Z"
    assert h1(build_complex(lasso_graph(), 2)).render() == "Z^2"


def test_h1_torsion_fixtures():
    k5 = h1(build_complex(complete_graph(5), 2))
    assert (k5.rank, k5.torsion) == (6, (2,))
    k33 = h1(build_complex(complete_bipartite(3, 3), 2))
    assert (k33.rank, k33.torsion) == (4, (2,))


def test_h1_single_particle_is_graph_h1():
    gs, _ = sufficiently_subdivide(wheel_graph(4), 2)
    assert h1(build_complex(gs, 1)).render() == "Z^4"


def test_render():
    assert AbelianGroup(0, ()).render() == "0"
    assert AbelianGroup(2, (2, 4)).render() == "Z^2 + Z_2 + Z_4"


def test_coordinates_of_contractible_square():
    c = build_complex(lasso_graph(), 2)
    square = _chain([((2,), 0, 1), ((1,), 2, 3), ((3,), 1, 0), ((0,), 3, 2)])
    assert is_cycle(c, square)
    assert homology_coordinates(c, square).is_zero()


def test_coordinates_additive():
    c = build_complex(complete_graph(5), 2)
    z1 = _chain([((2,), 0, 1), ((2,), 1, 3), ((2,), 3, 0)])
    z2 = _chain([((0,), 1, 2), ((0,), 2, 4), ((0,), 4, 1)])
    both = dict(z1)
    for k, v in z2.items():
        both[k] = both.get(k, 0) + v
    a = homology_coordinates(c, z1)
    b = homology_coordinates(c, z2)
    s = homology_coordinates(c, both)
    assert s.free == tuple(x + y for x, y in zip(a.free, b.free))
    assert s.torsion == tuple((x + y) % m for x, y, m
                              in zip(a.torsion, b.torsion, a.moduli))


def test_nontree_classes_reconstruct_cycle_coordinates():
    # a cycle's class is the coefficient-weighted sum of its non-forest cells
    c = build_complex(complete_graph(4), 2)
    classes = nontree_classes(c)
    z = _chain([((3,), 0, 1), ((3,), 1, 2), ((3,), 2, 0)])
    coords = homology_coordinates(c, z)
    free = [0] * len(coords.free)
    tors = [0] * len(coords.torsion)
    for cell, coef in z.items():
        if cell in classes:
            cls = classes[cell]
            free = [a + coef * b for a, b in zip(free, cls.free)]
            tors = [(a + coef * b) % m for a, b, m
                    in zip(tors, cls.torsion, cls.moduli)]
    assert tuple(free) == coords.free
    assert tuple(tors) == coords.torsion


def test_k5_exchange_generator_is_torsion():
    c = build_complex(complete_graph(5), 2)
    hexagon = _chain([((1,), 2, 0), ((1,), 0, 3), ((3,), 1, 0),
                      ((3,), 0, 2), ((2,), 3, 0), ((2,), 0, 1)])
    coords = homology_coordinates(c, hexagon)
    assert all(x == 0 for x in coords.free)
    assert coords.torsion == (1,) and coords.moduli == (2,)
    doubled = {k: 2 * v for k, v in hexagon.items()}
    assert homology_coordinates(c, doubled).is_zero()


PIVOT_ORDER_DIGEST = (
    "0e34e5d60d43d2dde63d99f42039c8ed2eed6e89db9f47af7da46c76b4cb6486")


def _pivot_order_digest():
    """sha256 over the pivots and operation logs of a few logged reductions."""
    h = hashlib.sha256()
    for g, n in ((complete_graph(4), 3), (prism_graph(), 3),
                 (complete_graph(5), 3), (complete_bipartite(3, 3), 2)):
        c = build_complex(sufficiently_subdivide(g, n)[0], n)
        data = _h1_data(c)
        entries = [(data.pos[r], col, v) for r, col, v in c.boundary2
                   if r in data.pos]
        elim = _Eliminator(len(data.nontree), len(c.cells2), entries, log=True)
        elim.reduce()
        h.update(repr((elim.pivots, elim.row_ops, elim.col_ops)).encode())
    for g, n in ((complete_graph(5), 2), (prism_graph(), 3)):
        gs = sufficiently_subdivide(g, n)[0]
        c = build_complex(gs, n)
        m = class_matrix(c, [cyc.chain for cyc in spanning_set(gs, n)])
        h.update(repr(smith_normal_form(m, transforms=True)).encode())
    return h.hexdigest()


def test_pivot_order_is_pinned():
    # the digest was computed with a full scan of the matrix for the least
    # Markowitz score; the column heap must pick the same pivots in the same
    # order, so that the operation logs, the transforms and every coordinate
    # built on them stay byte-identical
    assert _pivot_order_digest() == PIVOT_ORDER_DIGEST


def _forward_replay(ops, x):
    """The coordinate map before the class table: apply every logged row
    operation, in order, to one vector."""
    for op in ops:
        if op[0] == "add":
            _, i, j, m = op
            x[i] = x.get(i, 0) + m * x.get(j, 0)
        else:
            x[op[1]] = -x.get(op[1], 0)
    return x


def _replay_coordinates(c):
    """Coordinates of vectors over the non-forest rows by forward replay of
    a fresh logged reduction of the same matrix."""
    data = _h1_data(c)
    entries = [(data.pos[r], col, v) for r, col, v in c.boundary2
               if r in data.pos]
    elim = _Eliminator(len(data.nontree), len(c.cells2), entries, log=True)
    elim.reduce()
    pivot_rows = {r for r, _, _ in elim.pivots}
    free_rows = sorted(set(range(len(data.nontree))) - pivot_rows)
    torsion = sorted([(r, d) for r, _, d in elim.pivots if d > 1],
                     key=lambda p: p[1])

    def coords(x):
        y = _forward_replay(elim.row_ops, dict(x))
        return (tuple(y.get(r, 0) for r in free_rows),
                tuple(y.get(r, 0) % d for r, d in torsion))
    return data, coords


def test_class_table_matches_forward_replay():
    # one backward pass over the log must give every coordinate the forward
    # replay gives, torsion included (K5 at n=2 gets its Z_2 from the dense
    # phase)
    rng = random.Random(11)
    for g, n in ((complete_graph(5), 3), (prism_graph(), 3),
                 (complete_bipartite(3, 3), 2), (complete_graph(5), 2)):
        gs = sufficiently_subdivide(g, n)[0]
        c = build_complex(gs, n)
        data, coords = _replay_coordinates(c)
        classes = nontree_classes(c)
        assert len(classes) == len(data.nontree)
        for j in data.nontree:
            cls = classes[c.cells1[j]]
            assert (cls.free, cls.torsion) == coords({data.pos[j]: 1})
        chains = [cyc.chain for cyc in spanning_set(gs, n)]
        for _ in range(10):
            z = {}
            for chain in rng.sample(chains, 3):
                m = rng.randint(-3, 3)
                for cell, v in chain.items():
                    z[cell] = z.get(cell, 0) + m * v
            chains.append({cell: v for cell, v in z.items() if v})
        for z in chains:
            got = homology_coordinates(c, z)
            x = {data.pos[c.index1[cell]]: v for cell, v in z.items()
                 if c.index1[cell] in data.pos}
            assert (got.free, got.torsion) == coords(x)
            assert got.moduli == data.torsion


def test_class_table_on_random_logs():
    # every stored entry is the forward replay's value, torsion slots reduced
    # to [0, d): the gauge layer pairs these representatives with phases
    rng = random.Random(5)
    for _ in range(200):
        size = rng.randint(1, 6)
        ops = []
        for _ in range(rng.randint(0, 12)):
            i, j = rng.sample(range(size + 1), 2)
            ops.append(("add", i, j, rng.randint(-7, 7)) if rng.random() < 0.8
                       else ("neg", i))
        sel = rng.sample(range(size + 1), rng.randint(1, size + 1))
        rank = rng.randint(0, len(sel))
        moduli = tuple(rng.randint(2, 6) for _ in range(len(sel) - rank))
        table = _class_table(ops, sel, rank, moduli)
        for r in range(size + 1):
            y = _forward_replay(ops, {r: 1})
            want = {s: y.get(row, 0) for s, row in enumerate(sel)}
            for s, d in enumerate(moduli, rank):
                want[s] %= d
            assert table.get(r, {}) == {s: v for s, v in want.items() if v}

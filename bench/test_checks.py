"""Each output checker of the benchmark accepts a right answer and rejects a
wrong one.  Run with:  python3 -m pytest bench/test_checks.py
"""
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from confighom.homology import AbelianGroup  # noqa: E402
from workloads import Case, SpanningSolve, graph_json  # noqa: E402

import networkx as nx  # noqa: E402

L = tracing.layer_functions()


def prediction(rank, torsion=()):
    return SimpleNamespace(group=AbelianGroup(rank, torsion))


def with_third(p, cell):
    values = dict(p.values)
    values[cell] = values.get(cell, Fraction(0)) + Fraction(1, 3)
    return values


def test_exact_h1_rejects_wrong_group():
    refs = checks.exact_h1_references(graph_json(nx.complete_bipartite_graph(3, 3)), 3)
    assert set(refs) == {"predict_h1", "paper 3-connected", "n=2 exact"}
    checks.check_exact_h1(refs, AbelianGroup(4, (2,)))
    with pytest.raises(CheckFailed):
        checks.check_exact_h1(refs, AbelianGroup(4))


def test_predict_large_references_and_rejection():
    ladder = graph_json(nx.ladder_graph(6))
    want = checks.predict_large_reference("ladder", ladder, 3, rungs=6)
    assert want == (5 + 6 - 2, ())
    checks.check_group(want, L.predict_h1(L.graph_from_json(ladder), 3))
    with pytest.raises(CheckFailed):
        checks.check_group(want, prediction(5))

    wheel = graph_json(nx.wheel_graph(8))
    assert checks.predict_large_reference("wheel", wheel, 2) == (8, ())
    with pytest.raises(CheckFailed):
        checks.predict_large_reference("mobius_ladder", wheel, 2)


def test_block_group_matches_predictor_on_a_chain():
    g = nx.complete_graph(5)
    g.add_edges_from([(4, 5), (5, 6), (6, 7), (7, 5), (7, 8), (8, 9), (9, 10),
                      (10, 8), (10, 11), (11, 9), (8, 11), (0, 12)])
    graph = graph_json(g)
    for n in (2, 3, 5):
        want = checks.predict_large_reference("chain", graph, n)
        checks.check_group(want, L.predict_h1(L.graph_from_json(graph), n))
        with pytest.raises(CheckFailed):
            checks.check_group(want, prediction(want[0] + 1, want[1]))


@pytest.fixture(scope="module")
def solved():
    w = SpanningSolve(seed=3)
    case = Case("K4", graph_json(nx.complete_graph(4)), 2, {"potential_seed": 5})
    return w.run(L, case, defaultdict(int))


def test_spanning_solve_accepts_right_output(solved):
    checks.check_spanning_solve(solved)


def test_spanning_solve_rejects_no_span(solved):
    bad = SimpleNamespace(**vars(solved))
    bad.report = SimpleNamespace(spans=False)
    with pytest.raises(CheckFailed):
        checks.check_spanning_solve(bad)


def test_spanning_solve_rejects_non_topological(solved):
    bad = SimpleNamespace(**vars(solved))
    cell = solved.complex.cells1[0]
    bad.solved = SimpleNamespace(values=with_third(solved.solved, cell))
    with pytest.raises(CheckFailed, match="fractional flux"):
        checks.check_spanning_solve(bad)


def test_spanning_solve_rejects_missed_target(solved):
    bad = SimpleNamespace(**vars(solved))
    (chain, target), *rest = solved.targets
    bad.targets = [(chain, target + Fraction(1, 2))] + rest
    with pytest.raises(CheckFailed, match="target 0"):
        checks.check_spanning_solve(bad)


def test_refusal_check():
    checks.check_refused("unrealizable phase")
    with pytest.raises(CheckFailed):
        checks.check_refused(None)

#!/usr/bin/env python3
"""Sweep the predictor against the exact computation over a graph corpus.

Covers every connected simple graph up to --atlas-max vertices (via the
networkx graph atlas) plus --random seeded random connected graphs on
--random-sizes vertices, at --n particles (each graph is subdivided enough
for n first).  Reports every mismatch and exits nonzero if there was one.

    PYTHONPATH=src python scripts/run_corpus.py --n 3 --random 0 --workers 2
"""
import argparse
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import networkx as nx

from confighom.complexes import build_complex
from confighom.connectivity import predict_h1
from confighom.graphs import Graph, sufficiently_subdivide
from confighom.homology import h1


def check(g: Graph, n: int) -> tuple[bool, str, str]:
    p = predict_h1(g, n).group
    o = h1(build_complex(sufficiently_subdivide(g, n)[0], n))
    return (p.rank, p.torsion) == (o.rank, o.torsion), p.render(), o.render()


def atlas_graphs(max_vertices):
    for ng in nx.graph_atlas_g():
        if 2 <= ng.number_of_nodes() <= max_vertices and nx.is_connected(ng):
            relabel = {v: i for i, v in enumerate(sorted(ng.nodes))}
            yield Graph(ng.number_of_nodes(),
                        tuple((relabel[u], relabel[v]) for u, v in ng.edges))


def random_graphs(count, sizes, seed):
    rng = random.Random(seed)
    made = 0
    while made < count:
        nv = rng.choice(sizes)
        ng = nx.gnp_random_graph(nv, rng.uniform(0.25, 0.6),
                                 seed=rng.randint(0, 10 ** 9))
        if nx.is_connected(ng):
            made += 1
            yield Graph(nv, tuple(ng.edges))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2, help="particle count")
    ap.add_argument("--atlas-max", type=int, default=7)
    ap.add_argument("--random", type=int, default=200)
    ap.add_argument("--random-sizes", type=int, nargs="+", default=[8, 9])
    ap.add_argument("--seed", type=int, default=97)
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    graphs = list(atlas_graphs(args.atlas_max))
    graphs += list(random_graphs(args.random, tuple(args.random_sizes),
                                 args.seed))
    print(f"checking {len(graphs)} graphs at n={args.n}")

    failures = 0
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        results = pool.map(partial(check, n=args.n), graphs)
        for g, (ok, pred, oracle) in zip(graphs, results):
            if not ok:
                failures += 1
                print(f"MISMATCH {g}: predicted {pred}, computed {oracle}")
    print("all match" if failures == 0 else f"{failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

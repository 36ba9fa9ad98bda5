#!/usr/bin/env python3
"""Sweep the predictor against the exact computation over a graph corpus.

Covers every connected simple graph up to --atlas-max vertices (via the
networkx graph atlas) plus --random seeded random connected graphs on
--random-sizes vertices, at --n particles (each graph is subdivided enough
for n first).  Reports every mismatch and exits nonzero if there was one.

With --gauge it runs a gauge round trip on each graph instead: a random
topological potential, its fluxes on the spanning set, a potential solved
back from those fluxes, then a check from cell values alone that the solved
potential is topological and hits every flux mod 1.  A graph without a
spanning set at n is counted as skipped; every other failure is a miss.

    PYTHONPATH=src python scripts/run_corpus.py --n 3 --random 0 --workers 2
    PYTHONPATH=src python scripts/run_corpus.py --n 3 --gauge --random 0
"""
import argparse
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import networkx as nx

from confighom.complexes import build_complex
from confighom.connectivity import predict_h1
from confighom.gauge import (GaugeError, flux, is_topological,
                             random_topological_potential, solve_from_fluxes)
from confighom.graphs import Graph, sufficiently_subdivide
from confighom.homology import h1
from confighom.spanning import SpanningError, spanning_set


def check(g: Graph, n: int) -> tuple[str, str]:
    """("ok", "") when the predictor matches the exact H1, else ("fail", why)."""
    p = predict_h1(g, n).group
    o = h1(build_complex(sufficiently_subdivide(g, n)[0], n))
    if (p.rank, p.torsion) == (o.rank, o.torsion):
        return "ok", ""
    return "fail", f"predicted {p.render()}, computed {o.render()}"


def gauge_round_trip(g: Graph, n: int, seed: int) -> tuple[str, str]:
    """("ok", ""), ("skip", why) without a spanning set, or ("fail", why)."""
    gs = sufficiently_subdivide(g, n)[0]
    try:
        cycles = spanning_set(gs, n)
    except SpanningError as exc:
        return "skip", str(exc)
    c = build_complex(gs, n)
    source = random_topological_potential(
        c, random.Random(f"{seed}:{g.edges}"))
    targets = [(cyc.chain, flux(source, cyc.chain)) for cyc in cycles]
    try:
        solved = solve_from_fluxes(c, targets)
    except GaugeError as exc:
        return "fail", f"solve raised: {exc}"
    if not is_topological(solved, c):
        return "fail", "solved potential is not topological"
    missed = sum(1 for z, t in targets if (flux(solved, z) - t) % 1)
    if missed:
        return "fail", f"misses {missed} of {len(targets)} fluxes"
    return "ok", ""


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
    ap.add_argument("--gauge", action="store_true",
                    help="gauge round trip instead of predictor vs exact H1")
    args = ap.parse_args()

    graphs = list(atlas_graphs(args.atlas_max))
    graphs += list(random_graphs(args.random, tuple(args.random_sizes),
                                 args.seed))
    print(f"checking {len(graphs)} graphs at n={args.n}")

    if args.gauge:
        run, label = partial(gauge_round_trip, n=args.n, seed=args.seed), "MISS"
    else:
        run, label = partial(check, n=args.n), "MISMATCH"
    failures = skipped = 0
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        results = pool.map(run, graphs)
        for g, (status, why) in zip(graphs, results):
            if status == "skip":
                skipped += 1
            elif status == "fail":
                failures += 1
                print(f"{label} {g}: {why}")
    if args.gauge:
        print(f"{failures} misses, {skipped} skipped")
    else:
        print("all match" if failures == 0 else f"{failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

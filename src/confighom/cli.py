"""Command-line front end.

Subcommands: homology, predict, compare, decompose, star, gauge
{check,split,lift,embed,solve}, spanning.  Exit codes: 0 success (and MATCH
for compare), 1 MISMATCH, 2 usage or input error.  With --json the output is
byte-deterministic for identical inputs (keys sorted, no timing fields).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from .complexes import build_complex, cell_counts
from .connectivity import decompose, predict_h1, beta_star, gamma_star
from .gauge import (GaugeError, GaugePotential, ab_part_as_omega1,
                    ab_statistics_split, build_n_particle, cell_from_json,
                    flux, is_topological, lift_subdivision,
                    potential_from_json, potential_to_json, solve_from_fluxes)
from .graphs import (Graph, GraphError, _is_int, graph_from_json,
                     sufficiently_subdivide)
from .homology import h1
from .spanning import SpanningError, spanning_set, verify_spanning

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2


class InputError(ValueError):
    pass


def _load_graph(path: str) -> tuple[Graph, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        g = graph_from_json(json.loads(raw))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load graph {path}: {exc}")
    return g, hashlib.sha256(raw).hexdigest()


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load {path}: {exc}")


def _prepare(g: Graph, n: int, no_subdivide: bool, report: dict) -> Graph:
    if no_subdivide:
        return g
    gs, _ = sufficiently_subdivide(g, n)
    if gs.vertex_count != g.vertex_count:
        report["notice"] = (
            f"graph auto-subdivided to {gs.vertex_count} vertices for n={n}; "
            "pass --no-subdivide to compute on the raw graph")
    return gs


def _emit(report: dict, as_json: bool, started: float) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    for key in sorted(report):
        print(f"{key}: {report[key]}")
    print(f"elapsed: {time.perf_counter() - started:.3f}s")


def cmd_homology(args) -> int:
    started = time.perf_counter()
    g, digest = _load_graph(args.graph)
    report = {"command": "homology", "input": digest, "n": args.n}
    gs = _prepare(g, args.n, args.no_subdivide, report)
    c = build_complex(gs, args.n)
    report["cells"] = list(cell_counts(c))
    report["h1"] = h1(c).render()
    _emit(report, args.json, started)
    return EXIT_OK


def cmd_predict(args) -> int:
    started = time.perf_counter()
    g, digest = _load_graph(args.graph)
    p = predict_h1(g, args.n)
    report = {
        "command": "predict", "input": digest, "n": args.n,
        "h1": p.group.render(), "beta1": p.beta1, "N1": p.N1, "N2": p.N2,
        "N3": p.N3, "N3_prime": p.N3_prime, "N3_doubleprime": p.N3_doubleprime,
    }
    _emit(report, args.json, started)
    return EXIT_OK


def _compare_one(g: Graph, n: int, no_subdivide: bool) -> tuple[str, str, bool]:
    p = predict_h1(g, n)
    gs = g if no_subdivide else sufficiently_subdivide(g, n)[0]
    o = h1(build_complex(gs, n))
    return p.group.render(), o.render(), \
        (p.group.rank, p.group.torsion) == (o.rank, o.torsion)


def cmd_compare(args) -> int:
    started = time.perf_counter()
    if args.corpus:
        import pathlib
        verdicts = {}
        ok = True
        for path in sorted(pathlib.Path(args.corpus).glob("*.json")):
            g, _ = _load_graph(str(path))
            pred, oracle, match = _compare_one(g, args.n, args.no_subdivide)
            verdicts[path.name] = "MATCH" if match else f"MISMATCH {pred} != {oracle}"
            ok = ok and match
        report = {"command": "compare", "n": args.n, "graphs": verdicts,
                  "verdict": "MATCH" if ok else "MISMATCH"}
        _emit(report, args.json, started)
        return EXIT_OK if ok else EXIT_MISMATCH
    g, digest = _load_graph(args.graph)
    pred, oracle, match = _compare_one(g, args.n, args.no_subdivide)
    report = {"command": "compare", "input": digest, "n": args.n,
              "predicted": pred, "computed": oracle,
              "verdict": "MATCH" if match else "MISMATCH"}
    _emit(report, args.json, started)
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_decompose(args) -> int:
    started = time.perf_counter()
    g, digest = _load_graph(args.graph)
    comps, cuts = decompose(g)
    report = {
        "command": "decompose", "input": digest,
        "cuts": [{"kind": c.kind, "vertices": list(c.vertices), "mu": c.mu,
                  **({"nu": c.nu} if c.nu is not None else {})} for c in cuts],
        "components": [{"kind": m.kind, "vertices": list(m.vertex_ids),
                        "virtual_edges": [list(e) for e in m.virtual_edges]}
                       for m in comps],
    }
    _emit(report, args.json, started)
    return EXIT_OK


def cmd_star(args) -> int:
    started = time.perf_counter()
    report = {"command": "star", "E": args.E, "n": args.n,
              "beta": beta_star(args.n, args.E) if args.n >= 2 else None,
              "gamma_unsubdivided": gamma_star(args.n, args.E)
              if args.n <= args.E else None}
    _emit(report, args.json, started)
    return EXIT_OK


def _load_potential(path: str, g: Graph, n: int) -> GaugePotential:
    return potential_from_json(_load_json(path), g, n)


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2 or not all(x.strip().isdecimal() for x in parts):
        raise InputError(f"--edge must be two vertex ids u,v, got {text!r}")
    return int(parts[0]), int(parts[1])


_GAUGE_NEEDS = {"check": ("potential",), "split": ("potential",),
                "lift": ("potential", "edge"), "embed": ("potential",),
                "solve": ("targets",)}


def cmd_gauge(args) -> int:
    started = time.perf_counter()
    missing = [f"--{name}" for name in _GAUGE_NEEDS[args.action]
               if getattr(args, name) is None]
    if missing:
        raise InputError(f"gauge {args.action} needs {' and '.join(missing)}")
    g, digest = _load_graph(args.graph)
    report = {"command": f"gauge {args.action}", "input": digest}
    if args.action == "check":
        p = _load_potential(args.potential, g, args.n)
        c = build_complex(g, args.n)
        report["topological"] = is_topological(p, c)
        try:
            gens = spanning_set(g, args.n)
            report["generator_fluxes"] = [
                {"kind": cyc.kind, "provenance": repr(cyc.provenance),
                 "flux_mod_1": str(flux(p, cyc.chain) % 1)} for cyc in gens]
        except SpanningError as exc:
            report["notice"] = f"generator_fluxes omitted: {exc}"
    elif args.action == "split":
        p = _load_potential(args.potential, g, 2)
        ab, st = ab_statistics_split(p, g)
        report["ab_part"] = potential_to_json(ab)
        report["statistics_part"] = potential_to_json(st)
    elif args.action == "lift":
        p = _load_potential(args.potential, g, 2)
        lifted = lift_subdivision(p, _parse_edge(args.edge))
        report["graph"] = {"vertices": lifted.graph.vertex_count,
                           "edges": [list(e) for e in lifted.graph.edges]}
        report["potential"] = potential_to_json(lifted)
    elif args.action == "embed":
        p = _load_potential(args.potential, g, 2)
        ab, st = ab_statistics_split(p, g)
        c = build_complex(g, args.n)
        pn = build_n_particle(st, ab_part_as_omega1(ab), c)
        report["potential"] = potential_to_json(pn)
        report["topological"] = is_topological(pn, c)
    elif args.action == "solve":
        c = build_complex(g, args.n)
        targets = []
        try:
            for item in _load_json(args.targets):
                chain = {}
                for entry in item["cycle"]:
                    key, sign = cell_from_json(entry)
                    coeff = entry.get("coeff", 1)
                    if not _is_int(coeff):
                        raise InputError(
                            f"cycle coefficients must be integers, got {coeff!r}")
                    chain[key] = chain.get(key, 0) + sign * coeff
                targets.append((chain, Fraction(str(item["value"]))))
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed targets in {args.targets}: {exc!r}")
        p = solve_from_fluxes(c, targets)
        report["potential"] = potential_to_json(p)
    _emit(report, args.json, started)
    return EXIT_OK


def cmd_spanning(args) -> int:
    started = time.perf_counter()
    g, digest = _load_graph(args.graph)
    cycles = spanning_set(g, args.n)
    c = build_complex(g, args.n)
    rep = verify_spanning(cycles, c)
    report = {
        "command": "spanning", "input": digest, "n": args.n,
        "cycles": [{"kind": cyc.kind, "provenance": repr(cyc.provenance),
                    "chain": [{"spectators": list(s), "from": u, "to": v,
                               "coeff": x}
                              for (s, (u, v)), x in sorted(cyc.chain.items())]}
                   for cyc in cycles],
        "spans": rep.spans, "free_rank": rep.free_rank,
        "free_needed": rep.free_needed, "cycle_count": rep.cycle_count,
        "redundancy": rep.redundancy,
    }
    _emit(report, args.json, started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confighom",
        description="First homology of n-particle graph configuration spaces")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, needs_n=True):
        p.add_argument("graph", help="graph JSON file")
        if needs_n:
            p.add_argument("-n", type=int, default=2, help="particle count")
        p.add_argument("--json", action="store_true",
                       help="deterministic JSON output")

    p = sub.add_parser("homology", help="exact H1 by Smith normal form")
    common(p)
    p.add_argument("--no-subdivide", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("predict", help="closed-form H1 prediction")
    common(p)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("compare", help="predictor vs exact computation")
    p.add_argument("graph", nargs="?", help="graph JSON file")
    p.add_argument("--corpus", help="directory of graph JSON files")
    p.add_argument("-n", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-subdivide", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("decompose", help="connectivity decomposition")
    common(p, needs_n=False)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("star", help="closed forms for star graphs")
    p.add_argument("-E", type=int, required=True, help="number of edges")
    p.add_argument("-n", type=int, required=True, help="particle count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("gauge", help="gauge potential operations")
    p.add_argument("action",
                   choices=["check", "split", "lift", "embed", "solve"])
    common(p)
    p.add_argument("--potential", help="potential JSON file")
    p.add_argument("--edge", help="edge to subdivide, as u,v (lift)")
    p.add_argument("--targets", help="target flux JSON file (solve)")
    p.set_defaults(fn=cmd_gauge)

    p = sub.add_parser("spanning", help="AB/Y spanning set and span report")
    common(p)
    p.set_defaults(fn=cmd_spanning)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (InputError, GraphError, GaugeError, SpanningError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

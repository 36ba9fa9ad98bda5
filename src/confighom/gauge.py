"""Topological gauge potentials on configuration complexes.

A gauge potential assigns an exact rational phase (in turns, 1 turn = 2*pi)
to every directed 1-cell of D^n, antisymmetric under direction reversal.  It
is topological when every 2-cell boundary has integer flux; such potentials
are classified by H1 up to equivalence, so fluxes mod 1 realize abelian
quantum statistics.

Phases are stored as real-valued representatives, not residues mod 1: the
AB/statistics split averages over spectators, which is ill-defined on
residues.  Flux comparisons reduce mod 1 at the very end.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .complexes import (Cell1, CellComplex, boundary2_chain, build_complex,
                        cell1)
from .graphs import Graph, _is_int, subdivide_edge
from .homology import _h1_data, class_matrix, smith_normal_form

Phase = Fraction


class GaugeError(ValueError):
    pass


def _is_integer(x: Fraction) -> bool:
    return x.denominator == 1


@dataclass(frozen=True)
class GaugePotential:
    """Rational phase per canonical 1-cell of D^n(graph); unset cells are 0."""

    n: int
    graph: Graph
    values: Mapping[Cell1, Fraction]

    def __post_init__(self):
        edges = frozenset(self.graph.edges)
        object.__setattr__(self, "_edges", edges)
        for (spec, (u, v)), val in self.values.items():
            if len(spec) != self.n - 1:
                raise GaugeError("wrong spectator count for n")
            if (u, v) not in edges or set(spec) & {u, v}:
                raise GaugeError(f"not a 1-cell: {(spec, (u, v))!r}")
            if not isinstance(val, Fraction):
                raise GaugeError("phases must be Fractions")

    def value(self, spectators: Iterable[int], u: int, v: int) -> Fraction:
        """Phase of the directed move u -> v with the given spectators."""
        key, sign = cell1(spectators, u, v)
        spec, (a, b) = key
        if (a, b) not in self._edges or set(spec) & {a, b} \
                or len(spec) != self.n - 1:
            raise GaugeError(f"unknown cell {key!r}")
        return sign * self.values.get(key, Fraction(0))

    def on_cell(self, cell: Cell1) -> Fraction:
        spec, (u, v) = cell
        return self.value(spec, u, v)


def _directed(vals: dict[Cell1, Fraction], spectators: Iterable[int],
              u: int, v: int, value: Fraction) -> None:
    """Record value for the directed cell u -> v, canonicalizing."""
    key, sign = cell1(spectators, u, v)
    if value:
        vals[key] = sign * value
    else:
        vals.pop(key, None)


def flux(p: GaugePotential, z: Mapping[Cell1, int]) -> Fraction:
    """Linear extension of p over an integer 1-chain, as an exact rational."""
    total = Fraction(0)
    for cell, coeff in z.items():
        if coeff:
            total += coeff * p.on_cell(cell)
    return total


def is_topological(p: GaugePotential, c: CellComplex) -> bool:
    """True iff the flux through every 2-cell boundary is an integer."""
    if c.n != p.n or c.graph.edges != p.graph.edges:
        raise GaugeError("potential not defined on this complex")
    return all(_is_integer(flux(p, boundary2_chain(cell))) for cell in c.cells2)


# ---------------------------------------------------------------------------
# AB / statistics decomposition (two particles)

def ab_statistics_split(p: GaugePotential,
                        g: Graph) -> tuple[GaugePotential, GaugePotential]:
    """Split a two-particle potential into pure AB and pure statistics parts.

    The AB part on {i, j->k} is the spectator average of p over all V-2
    placements of i; the statistics part is the remainder and has zero
    spectator average on every edge.
    """
    if p.n != 2:
        raise GaugeError("split is defined for two particles")
    V = g.vertex_count
    if V < 3:
        raise GaugeError("no spectators")
    ab_vals: dict[Cell1, Fraction] = {}
    st_vals: dict[Cell1, Fraction] = {}
    for (u, v) in set(g.edges):
        spectators = [i for i in range(V) if i not in (u, v)]
        avg = sum(p.value((i,), u, v) for i in spectators) / Fraction(V - 2)
        for i in spectators:
            _directed(ab_vals, (i,), u, v, avg)
            _directed(st_vals, (i,), u, v, p.value((i,), u, v) - avg)
    return GaugePotential(2, g, ab_vals), GaugePotential(2, g, st_vals)


def ab_part_as_omega1(ab: GaugePotential) -> dict[tuple[int, int], Fraction]:
    """Collapse a pure AB potential to a one-particle potential on graph edges."""
    out: dict[tuple[int, int], Fraction] = {}
    for (spec, (u, v)) in ab.values:
        val = ab.value(spec, u, v)
        prev = out.setdefault((u, v), val)
        if prev != val:
            raise GaugeError("potential is not spectator-independent")
    return out


def is_pure_statistics(p: GaugePotential, g: Graph) -> bool:
    if p.n != 2:
        raise GaugeError("pure-statistics check is for two particles")
    V = g.vertex_count
    for (u, v) in set(g.edges):
        total = sum(p.value((i,), u, v) for i in range(V) if i not in (u, v))
        if total:
            return False
    return True


# ---------------------------------------------------------------------------
# subdivision lift (two particles)

def lift_subdivision(pbar: GaugePotential,
                     edge: tuple[int, int]) -> GaugePotential:
    """Lift a topological two-particle potential across one edge subdivision.

    The subdivided edge (p, q) gains a midpoint a (the next vertex id); the
    two halves each carry half the original phase, a spectator at a sees the
    average of spectators at p and q, and moves out of p or q with the
    spectator at a pick up a compensating half-phase.  The two cells those
    rules do not reach (spectator at one endpoint, mover on the adjacent
    half-edge) are fixed by zeroing a single 2-cell flux each; the result is
    checked to be topological and any residual non-integer flux raises
    "lift inconsistency".
    """
    gbar = pbar.graph
    if pbar.n != 2:
        raise GaugeError("lift is defined for two particles")
    if not is_topological(pbar, build_complex(gbar, 2)):
        raise GaugeError("potential is not topological")
    pv, qv = min(edge), max(edge)
    if (pv, qv) not in set(gbar.edges):
        raise GaugeError("not an edge of the graph")
    a = gbar.vertex_count
    g = subdivide_edge(gbar, (pv, qv), 1)
    V = gbar.vertex_count

    vals: dict[Cell1, Fraction] = {}
    kept = [e for e in set(gbar.edges) if e != (pv, qv)]
    for (j, k) in kept:
        for i in range(V):
            if i in (j, k):
                continue
            _directed(vals, (i,), j, k, pbar.value((i,), j, k))
    for i in range(V):
        if i in (pv, qv):
            continue
        half = pbar.value((i,), pv, qv) / 2
        _directed(vals, (i,), pv, a, half)
        _directed(vals, (i,), a, qv, half)
    # cells not reachable by the halving rule: mover on a touching half-edge
    # with the spectator at the far endpoint.  These are a residual gauge
    # freedom; fix them to zero.
    _directed(vals, (qv,), pv, a, Fraction(0))
    _directed(vals, (pv,), a, qv, Fraction(0))

    # every cell with the spectator at a is pinned by zeroing the flux of one
    # 2-cell whose other three sides are already set.  For potentials whose
    # 2-cell fluxes vanish exactly this reproduces the averaging rule
    # (spectator at a sees the mean of spectators at p and q); solving the
    # constraints instead keeps the remaining 2-cells integral even when the
    # fluxes are nonzero integers, e.g. for torsion-carrying representatives.
    for (j, k) in kept:
        half = (qv, a) if pv in (j, k) else (pv, a)
        e2 = (min(j, k), max(j, k))
        cell2 = ((), min(half, e2), max(half, e2))
        target, _ = cell1((a,), j, k)
        rest = Fraction(0)
        coeff = 0
        for bcell, bco in boundary2_chain(cell2).items():
            if bcell == target:
                coeff = bco
            else:
                rest += bco * vals.get(bcell, Fraction(0))
        if coeff not in (1, -1):
            raise GaugeError("lift inconsistency")
        if rest:
            vals[target] = -rest / coeff
        else:
            vals.pop(target, None)

    lifted = GaugePotential(2, g, vals)
    if not is_topological(lifted, build_complex(g, 2)):
        raise GaugeError("lift inconsistency")
    return lifted


def lift_path(chain: Mapping[Cell1, int], edge: tuple[int, int],
              a: int) -> dict[Cell1, int]:
    """Map a 1-chain across a subdivision: {i, p->q} becomes the two halves."""
    pv, qv = min(edge), max(edge)
    out: dict[Cell1, int] = {}
    for (spec, (u, v)), coeff in chain.items():
        if (u, v) == (pv, qv):
            for key, sign in (cell1(spec, pv, a), cell1(spec, a, qv)):
                out[key] = out.get(key, 0) + sign * coeff
        else:
            out[(spec, (u, v))] = out.get((spec, (u, v)), 0) + coeff
    return {k: v for k, v in out.items() if v}


def lift_to_subdivision(pbar: GaugePotential,
                        n: int) -> tuple[Graph, GaugePotential]:
    """Repeatedly lift until the graph is sufficiently subdivided for n.

    Inserts n-2 vertices into each original edge, matching the vertex
    numbering of graphs.sufficiently_subdivide.
    """
    p = pbar
    for (u, v) in pbar.graph.edges:
        end = v
        start = u
        for _ in range(max(0, n - 2)):
            a = p.graph.vertex_count
            p = lift_subdivision(p, (start, end))
            start = a
    return p.graph, p


# ---------------------------------------------------------------------------
# n-particle construction

def build_n_particle(stat2: GaugePotential,
                     omega1: Mapping[tuple[int, int], Fraction],
                     c: CellComplex) -> GaugePotential:
    """Assemble a potential on the n-particle complex c from one-particle and
    statistics data.

    The phase of a move i -> j is omega1(i -> j) plus the two-particle
    statistics phase of every spectator.  The output is topological whenever
    stat2 is; that is re-checked by callers via is_topological on c.
    """
    g = c.graph
    if stat2.graph.edges != g.edges or stat2.n != 2:
        raise GaugeError("statistics potential must be two-particle on g")
    if not is_pure_statistics(stat2, g):
        raise GaugeError("statistics potential has nonzero spectator average")
    if not is_topological(stat2, build_complex(g, 2)):
        raise GaugeError("statistics potential is not topological")
    edges = set(g.edges)
    for e in omega1:
        if e != (min(e), max(e)) or e not in edges:
            raise GaugeError("omega1 keyed by canonical graph edges")

    vals: dict[Cell1, Fraction] = {}
    for (spec, (u, v)) in c.cells1:
        total = Fraction(omega1.get((u, v), 0))
        for r in spec:
            total += stat2.value((r,), u, v)
        if total:
            vals[(spec, (u, v))] = total
    return GaugePotential(c.n, g, vals)


# ---------------------------------------------------------------------------
# realizing prescribed fluxes

def potential_from_class_values(c: CellComplex,
                                free_values: Sequence[Fraction],
                                torsion_values: Sequence[Fraction]) -> GaugePotential:
    """Topological potential whose flux on a cycle is its class paired with
    the given values: zero on a spanning forest, class functional elsewhere.

    Torsion values must be multiples of 1/d for their modulus d, otherwise
    some 2-cell boundary picks up fractional flux.
    """
    data = _h1_data(c, log=True)
    if len(free_values) != data.rank or \
            len(torsion_values) != len(data.torsion):
        raise GaugeError("wrong number of class values")
    for val, d in zip(torsion_values, data.torsion):
        if not _is_integer(val * d):
            raise GaugeError("unrealizable phase")
    # each non-forest cell's phase is its class table column paired with the
    # values; torsion entries of the table are already reduced mod d
    den, num = _scaled(list(free_values) + list(torsion_values))
    vals: dict[Cell1, Fraction] = {}
    for j in data.nontree:
        w = data.table.get(data.pos[j])
        if w:
            total = sum(u * num[s] for s, u in w.items())
            if total:
                vals[c.cells1[j]] = Fraction(total, den)
    return GaugePotential(c.n, c.graph, vals)


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators of values, and each value times it."""
    den = lcm(*(Fraction(v).denominator for v in values))
    return den, [int(v * den) for v in values]


def _dot_rows(rows: Sequence[Sequence[int]],
              vec: Sequence[Fraction]) -> list[Fraction]:
    """Each integer row's exact dot product with vec, over one denominator."""
    den, num = _scaled(vec)
    nonzero = [(j, x) for j, x in enumerate(num) if x]
    return [Fraction(sum(row[j] * x for j, x in nonzero), den) for row in rows]


def solve_from_fluxes(c: CellComplex,
                      targets: Sequence[tuple[Mapping, Fraction]]) -> GaugePotential:
    """Topological potential with prescribed fluxes (mod 1) on given cycles.

    Solves for a linear functional on H1 whose pairing with each target class
    matches the target phase; torsion relations n_i * y_i = 0 mod 1 are part
    of the system.  Raises "unrealizable phase" when the targets violate them.
    """
    m = class_matrix(c, [z for z, _ in targets])
    l = m.rows - len(targets)           # one relation row per torsion factor
    k = m.cols - l
    b = [Fraction(t) for _, t in targets] + [Fraction(0)] * l
    factors, U, V = smith_normal_form(m, transforms=True)
    ub = _dot_rows(U, b)
    w = [Fraction(0)] * m.cols
    for i, d in enumerate(factors):
        w[i] = ub[i] / d
    for i in range(len(factors), len(b)):
        if not _is_integer(ub[i]):
            raise GaugeError("unrealizable phase")
    y = _dot_rows(V, w)
    p = potential_from_class_values(c, y[:k], y[k:])
    for z, target in targets:
        if not _is_integer(flux(p, _as_cell_chain(c, z)) - target):
            raise GaugeError("solved potential misses a target flux")
    return p


def _as_cell_chain(c: CellComplex, z: Mapping) -> dict[Cell1, int]:
    out: dict[Cell1, int] = {}
    for key, coeff in z.items():
        cell = c.cells1[key] if isinstance(key, int) else key
        out[cell] = out.get(cell, 0) + coeff
    return out


def random_topological_potential(c: CellComplex,
                                 rng: random.Random) -> GaugePotential:
    """Random topological potential: random rationals on free classes,
    random multiples of 1/d on torsion classes."""
    data = _h1_data(c, log=True)
    free = [Fraction(rng.randint(-24, 24), rng.randint(1, 12))
            for _ in range(data.rank)]
    tors = [Fraction(rng.randrange(d), d) for d in data.torsion]
    return potential_from_class_values(c, free, tors)


# ---------------------------------------------------------------------------
# JSON interchange

def potential_to_json(p: GaugePotential) -> list[dict]:
    out = []
    for (spec, (u, v)) in sorted(p.values):
        val = p.values[(spec, (u, v))]
        out.append({"spectators": list(spec), "from": u, "to": v,
                    "value": f"{val.numerator}/{val.denominator}"})
    return out


def cell_from_json(entry: Mapping) -> tuple[Cell1, int]:
    """Canonical cell and direction sign of a JSON move
    {"spectators": [...], "from": u, "to": v}; vertex ids must be integers."""
    spec, u, v = entry["spectators"], entry["from"], entry["to"]
    if not (isinstance(spec, (list, tuple)) and all(_is_int(s) for s in spec)
            and _is_int(u) and _is_int(v)):
        raise GaugeError("vertex ids must be integers, got spectators "
                         f"{spec!r}, from {u!r}, to {v!r}")
    return cell1(spec, u, v)


def potential_from_json(obj: Sequence[Mapping], g: Graph,
                        n: int) -> GaugePotential:
    vals: dict[Cell1, Fraction] = {}
    for item in obj:
        try:
            key, sign = cell_from_json(item)
            val = Fraction(str(item["value"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise GaugeError(f"malformed potential entry: {exc}")
        if key in vals:
            raise GaugeError(f"duplicate cell {key!r}")
        vals[key] = sign * val
    return GaugePotential(n, g, vals)

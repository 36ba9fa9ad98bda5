"""Exact integer homology of configuration complexes via Smith normal form.

H1 = ker d1 / im d2 is computed in fundamental-cycle coordinates: a spanning
forest of the 1-skeleton identifies ker d1 with Z^k (k = #non-forest 1-cells),
where the coordinates of any cycle are simply its coefficients on non-forest
cells.  The invariant factors of d2 restricted to those coordinates give the
torsion; the free rank follows from the rank identity.

All arithmetic is arbitrary-precision Python integers.  The eliminator first
removes unit entries that are alone in their row or column (coreduction, no
fill-in), then takes unit pivots by least Markowitz score
(len(row) - 1) * (len(col) - 1), ties going to the earliest column and, inside
it, the earliest row in that column's order.  A lazy min-heap of columns finds
that pivot without rescanning the matrix.  A dense textbook reduction finishes
the small residual block without unit entries.

Class coordinates need the transform U (the product of the logged row
operations) only through its rows at the free and torsion-pivot positions.
A logged reduction builds them once, as a class table held column by
column: one backward pass over the log, in which x_i += m * x_j adds m times
column i to column j and a negation negates column i.  The log is then
dropped, and the coordinates of any chain are a sparse dot product with the
table.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Mapping, Optional, Sequence, Union

from .complexes import Cell1, CellComplex


class HomologyError(ValueError):
    pass


@dataclass(frozen=True)
class IntegerMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]  # (row, col, value), values nonzero

    def __post_init__(self):
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise HomologyError("entry index out of range")
            if v == 0:
                raise HomologyError("stored entries must be nonzero")

    @staticmethod
    def from_dense(rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        ent = tuple(
            (i, j, rows[i][j]) for i in range(nr) for j in range(nc) if rows[i][j]
        )
        return IntegerMatrix(nr, nc, ent)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries:
            out[r][c] = v
        return out


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise HomologyError("rank must be nonnegative")
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise HomologyError("torsion factors must be >= 2")
            if i and self.torsion[i - 1] and t % self.torsion[i - 1]:
                raise HomologyError("torsion factors must form a divisibility chain")

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def render(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# sparse elimination engine

class _Eliminator:
    """Brings a sparse integer matrix to Smith form by unimodular operations.

    Rows and columns keep their original indices throughout; the result is a
    list of pivots (row, col, positive factor) plus, when logging is on, the
    row/column operation logs that realize the transforms.

    The unit pivot is the argmin of (Markowitz score, the column's position in
    `col`, the row's position in that column's dict).  Columns are only ever
    deleted during the unit phase, never re-inserted, so a column's position
    is the one it had when the phase began.  A min-heap holds
    (score lower bound, position, column) entries; `_key` maps each column to
    its lowest pushed bound.  Invariant: every live column with a unit entry
    has `_key[c]` at most its true score.  The top is therefore the pivot's
    column once its recomputed score equals its key; a column whose score has
    risen is pushed back with the new score.  After each unit elimination the
    columns of the pivot row are rescored and the unit entries of every row
    that got shorter lower their columns' keys, the only ways a score can fall.
    """

    def __init__(self, nrows: int, ncols: int,
                 entries: Iterable[tuple[int, int, int]], log: bool = False):
        self.nrows = nrows
        self.ncols = ncols
        self.row: dict[int, dict[int, int]] = {}
        self.col: dict[int, dict[int, int]] = {}
        for r, c, v in entries:
            if v == 0:
                continue
            d = self.row.setdefault(r, {})
            d[c] = d.get(c, 0) + v
            if d[c] == 0:
                del d[c]
        for r, d in list(self.row.items()):
            if not d:
                del self.row[r]
                continue
            for c, v in d.items():
                self.col.setdefault(c, {})[r] = v
        self.log = log
        self.row_ops: list[tuple] = []
        self.col_ops: list[tuple] = []
        self.pivots: list[tuple[int, int, int]] = []
        self.done = False
        self._heap: Optional[list[tuple[int, int, int]]] = None
        self._key: dict[int, int] = {}
        self._pos: dict[int, int] = {}

    # -- elementary operations (maintain both indexes) --

    def _row_add(self, i: int, j: int, m: int):
        """row_i += m * row_j"""
        if m == 0:
            return
        if self.log:
            self.row_ops.append(("add", i, j, m))
        ri = self.row.setdefault(i, {})
        for c, v in self.row.get(j, {}).items():
            nv = ri.get(c, 0) + m * v
            if nv:
                ri[c] = nv
                self.col.setdefault(c, {})[i] = nv
            else:
                ri.pop(c, None)
                self.col.get(c, {}).pop(i, None)
        if not ri:
            self.row.pop(i, None)

    def _col_add(self, i: int, j: int, m: int):
        """col_i += m * col_j"""
        if m == 0:
            return
        if self.log:
            self.col_ops.append(("add", i, j, m))
        ci = self.col.setdefault(i, {})
        for r, v in self.col.get(j, {}).items():
            nv = ci.get(r, 0) + m * v
            if nv:
                ci[r] = nv
                self.row.setdefault(r, {})[i] = nv
            else:
                ci.pop(r, None)
                self.row.get(r, {}).pop(i, None)
        if not ci:
            self.col.pop(i, None)

    def _row_neg(self, i: int):
        if self.log:
            self.row_ops.append(("neg", i))
        for c, v in self.row.get(i, {}).items():
            self.row[i][c] = -v
            self.col[c][i] = -v

    def _remove(self, r: int, c: int):
        """Detach an eliminated pivot row/column from the active matrix."""
        for c2 in list(self.row.get(r, {})):
            self.col.get(c2, {}).pop(r, None)
            if c2 in self.col and not self.col[c2]:
                del self.col[c2]
        self.row.pop(r, None)
        for r2 in list(self.col.get(c, {})):
            self.row.get(r2, {}).pop(c, None)
            if r2 in self.row and not self.row[r2]:
                del self.row[r2]
        self.col.pop(c, None)

    # -- pivoting --

    def _eliminate_unit(self, r: int, c: int):
        v = self.row[r][c]
        if abs(v) != 1:
            raise HomologyError("unit pivot expected")
        if v < 0:
            self._row_neg(r)
            v = 1
        rows = [x for x in self.col[c] if x != r]
        lengths = [len(self.row[x]) for x in rows]
        for r2 in rows:
            self._row_add(r2, r, -self.row[r2][c])
        cols = [x for x in self.row[r] if x != c]
        for c2 in cols:
            self._col_add(c2, c, -self.row[r][c2])
        self.pivots.append((r, c, 1))
        self._remove(r, c)
        if self._heap is None:
            return
        # only the pivot row's columns changed entries; elsewhere a score
        # falls only through a row that got shorter
        for c2 in cols:
            score, _ = self._column_best(c2)
            if score is not None:
                self._lower(c2, score)
        for r2, before in zip(rows, lengths):
            d = self.row.get(r2)
            if d is not None and len(d) < before:
                rn = len(d) - 1
                for c2, v2 in d.items():
                    if v2 == 1 or v2 == -1:
                        self._lower(c2, rn * (len(self.col[c2]) - 1))

    def _coreduce(self, queue: list[tuple[str, int]]):
        """Eliminate singleton rows/cols with unit entry: zero fill-in."""
        while queue:
            kind, idx = queue.pop()
            if kind == "col":
                d = self.col.get(idx)
                if d is None or len(d) != 1:
                    continue
                (r, v), = d.items()
                if abs(v) != 1:
                    continue
                touched = [("col", c2) for c2 in self.row[r] if c2 != idx]
                self._eliminate_unit(r, idx)
                queue.extend(touched)
            else:
                d = self.row.get(idx)
                if d is None or len(d) != 1:
                    continue
                (c, v), = d.items()
                if abs(v) != 1:
                    continue
                touched = [("row", r2) for r2 in self.col[c] if r2 != idx]
                self._eliminate_unit(idx, c)
                queue.extend(touched)

    def _column_best(self, c: int) -> tuple[Optional[int], Optional[int]]:
        """Least Markowitz score of a unit entry in column c, and the first
        row in the column's order that has it; (None, None) without one."""
        best = best_score = None
        cd = self.col.get(c)
        if cd:
            cn = len(cd) - 1
            row = self.row
            for r, v in cd.items():
                if v != 1 and v != -1:
                    continue
                score = (len(row[r]) - 1) * cn
                if best_score is None or score < best_score:
                    best, best_score = r, score
                    if score == 0:
                        break
        return best_score, best

    def _lower(self, c: int, score: int):
        """Let column c's heap key fall to score if that is lower."""
        key = self._key.get(c)
        if key is None or score < key:
            self._key[c] = score
            heappush(self._heap, (score, self._pos[c], c))

    def _start_heap(self):
        self._pos = {c: i for i, c in enumerate(self.col)}
        self._heap = []
        for c in self._pos:
            score, _ = self._column_best(c)
            if score is not None:
                self._lower(c, score)

    def _best_unit_pivot(self) -> Optional[tuple[int, int]]:
        """Unit entry with least Markowitz fill score, earliest on ties."""
        heap, key = self._heap, self._key
        while heap:
            bound, i, c = heappop(heap)
            if key.get(c) != bound:
                continue  # stale: c was pushed again since, or is settled
            score, r = self._column_best(c)
            if score == bound:
                del key[c]
                return r, c
            if score is None:
                del key[c]
            else:
                key[c] = score
                heappush(heap, (score, i, c))
        return None

    def reduce(self):
        if self.done:
            return
        queue = [("col", c) for c in list(self.col) if len(self.col[c]) == 1]
        queue += [("row", r) for r in list(self.row) if len(self.row[r]) == 1]
        self._coreduce(queue)
        self._start_heap()
        while True:
            piv = self._best_unit_pivot()
            if piv is None:
                break
            r, c = piv
            neighbors = [("col", c2) for c2 in self.row[r] if c2 != c]
            neighbors += [("row", r2) for r2 in self.col[c] if r2 != r]
            self._eliminate_unit(r, c)
            self._coreduce(neighbors)
        self._heap, self._key, self._pos = None, {}, {}  # free before dense
        if self.row:
            self._dense_finish()
        self.done = True

    def _dense_finish(self):
        """Textbook Smith reduction of the residual block (no unit entries left)."""
        while self.row:
            # minimal absolute value pivot
            r0, c0, v0 = None, None, None
            for r, d in self.row.items():
                for c, v in d.items():
                    if v0 is None or abs(v) < abs(v0):
                        r0, c0, v0 = r, c, v
            while True:
                # clear the pivot column
                restart = False
                for r2 in [x for x in self.col[c0] if x != r0]:
                    q = self.row[r2][c0] // self.row[r0][c0]
                    self._row_add(r2, r0, -q)
                    if self.row.get(r2, {}).get(c0):
                        r0 = r2  # strictly smaller remainder becomes the pivot
                        restart = True
                        break
                if restart:
                    continue
                # clear the pivot row
                for c2 in [x for x in self.row[r0] if x != c0]:
                    q = self.row[r0][c2] // self.row[r0][c0]
                    self._col_add(c2, c0, -q)
                    if self.row.get(r0, {}).get(c2):
                        c0 = c2
                        restart = True
                        break
                if restart:
                    continue
                # enforce divisibility against the rest of the block
                v = self.row[r0][c0]
                culprit = None
                for r2, d in self.row.items():
                    if r2 == r0:
                        continue
                    for c2, v2 in d.items():
                        if v2 % v:
                            culprit = r2
                            break
                    if culprit is not None:
                        break
                if culprit is None:
                    break
                self._row_add(r0, culprit, 1)
            v = self.row[r0][c0]
            if v < 0:
                self._row_neg(r0)
                v = -v
            self.pivots.append((r0, c0, v))
            self._remove(r0, c0)

    # -- results --

    def invariant_factors(self) -> list[int]:
        ones = sum(1 for _, _, d in self.pivots if d == 1)
        rest = sorted(d for _, _, d in self.pivots if d != 1)
        # unit pivots divide everything; the dense phase produces a chain,
        # but sort defensively and verify
        factors = [1] * ones + rest
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise HomologyError("invariant factors do not form a chain")
        return factors


def smith_normal_form(m: IntegerMatrix, transforms: bool = False):
    """Invariant factors of m; optionally unimodular U, V with U m V = diag.

    Returns (factors,) or (factors, U, V) with U, V dense row-major lists.
    """
    elim = _Eliminator(m.rows, m.cols, m.entries, log=transforms)
    elim.reduce()
    factors = tuple(elim.invariant_factors())
    if not transforms:
        return (factors,)

    U = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    for op in elim.row_ops:
        if op[0] == "add":
            _, i, j, mm = op
            U[i] = [a + mm * b for a, b in zip(U[i], U[j])]
        elif op[0] == "neg":
            U[op[1]] = [-a for a in U[op[1]]]
    V = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    for op in elim.col_ops:
        if op[0] == "add":
            _, i, j, mm = op
            for row in V:
                row[i] += mm * row[j]
        elif op[0] == "neg":
            for row in V:
                row[op[1]] = -row[op[1]]

    # permute pivots onto the leading diagonal in chain order
    order = sorted(elim.pivots, key=lambda p: p[2])
    row_perm = [r for r, _, _ in order] + [r for r in range(m.rows)
                                           if r not in {p[0] for p in order}]
    col_perm = [c for _, c, _ in order] + [c for c in range(m.cols)
                                           if c not in {p[1] for p in order}]
    U = [U[r] for r in row_perm]
    V = [[row[c] for c in col_perm] for row in V]
    return factors, U, V


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------------------
# homology of a CellComplex

@dataclass
class H1Coordinates:
    """Coordinates of a cycle class: free integer part plus torsion residues."""

    free: tuple[int, ...]
    torsion: tuple[int, ...]
    moduli: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


class _H1Data:
    def __init__(self, c: CellComplex, log: bool):
        self.log = log
        n0, n1 = len(c.cells0), len(c.cells1)
        parent = list(range(n0))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        forest: set[int] = set()
        for j, cell in enumerate(c.cells1):
            chain = c.boundary1_chain(cell)
            (a, _), (b, _) = chain.items()
            ra, rb = find(c.index0[a]), find(c.index0[b])
            if ra != rb:
                parent[ra] = rb
                forest.add(j)
        self.components = len({find(i) for i in range(n0)})
        self.rank_d1 = n0 - self.components
        self.forest = forest
        self.nontree = [j for j in range(n1) if j not in forest]
        self.pos = {j: i for i, j in enumerate(self.nontree)}
        k = len(self.nontree)

        entries = [
            (self.pos[r], col, v)
            for (r, col, v) in c.boundary2
            if r in self.pos
        ]
        elim = _Eliminator(k, len(c.cells2), entries, log=log)
        elim.reduce()
        self.rank_d2 = len(elim.pivots)
        pivot_rows = {r for r, _, _ in elim.pivots}
        free_rows = sorted(set(range(k)) - pivot_rows)
        torsion_pivots = sorted(
            [(r, d) for r, _, d in elim.pivots if d > 1], key=lambda p: p[1]
        )
        self.torsion = tuple(d for _, d in torsion_pivots)
        self.rank = (n1 - self.rank_d1) - self.rank_d2
        if self.rank != len(free_rows):
            raise HomologyError("rank identity failed")
        sel = free_rows + [r for r, _ in torsion_pivots]
        self.table = (_class_table(elim.row_ops, sel, self.rank, self.torsion)
                      if log else {})


def _class_table(row_ops: Sequence[tuple], sel: Sequence[int], rank: int,
                 moduli: Sequence[int]) -> dict[int, dict[int, int]]:
    """Columns of the rows sel of U, the product of the logged row operations.

    Entry table[r][s] is U[sel[s], r], nonzero entries only, with torsion
    slots s >= rank reduced mod their modulus.  Row e_sel[s] times U is built
    by walking the log backwards: x_i += m * x_j (an "add") turns into
    column j gaining m times column i, and a "neg" negates column i.
    """
    table = {r: {s: 1} for s, r in enumerate(sel)}
    for op in reversed(row_ops):
        wi = table.get(op[1])
        if not wi:
            continue
        if op[0] == "neg":
            for s, v in wi.items():
                wi[s] = -v
            continue
        _, _, j, m = op
        wj = table.setdefault(j, {})
        for s, v in wi.items():
            nv = wj.get(s, 0) + m * v
            if nv:
                wj[s] = nv
            else:
                wj.pop(s, None)
        if not wj:
            del table[j]
    for r, w in list(table.items()):
        for s, d in enumerate(moduli, rank):
            if s in w:
                w[s] %= d
                if not w[s]:
                    del w[s]
        if not w:
            del table[r]
    return table


def _h1_data(c: CellComplex, log: bool = False) -> _H1Data:
    cache = c._homology_cache
    if cache is None or (log and not cache.log):
        cache = _H1Data(c, log)
        c._homology_cache = cache
    return cache


def h0(c: CellComplex) -> AbelianGroup:
    if not c.cells0:
        return AbelianGroup(0)
    return AbelianGroup(_h1_data(c).components)


def h1(c: CellComplex) -> AbelianGroup:
    data = _h1_data(c)
    return AbelianGroup(data.rank, data.torsion)


Chain1 = Union[Mapping[int, int], Mapping[Cell1, int]]


def _chain_to_indices(c: CellComplex, z: Chain1) -> dict[int, int]:
    out: dict[int, int] = {}
    for key, coeff in z.items():
        if isinstance(key, int):
            idx = key
        else:
            if key not in c.index1:
                raise HomologyError(f"unknown 1-cell {key!r}")
            idx = c.index1[key]
        out[idx] = out.get(idx, 0) + coeff
    return {j: v for j, v in out.items() if v}


def is_cycle(c: CellComplex, z: Chain1) -> bool:
    zi = _chain_to_indices(c, z)
    acc: dict = {}
    for j, coeff in zi.items():
        for c0, v in c.boundary1_chain(c.cells1[j]).items():
            acc[c0] = acc.get(c0, 0) + coeff * v
    return not any(acc.values())


def _coordinates(data: _H1Data, x: Mapping[int, int]) -> H1Coordinates:
    """Class coordinates of the vector x over the non-forest rows."""
    acc = [0] * (data.rank + len(data.torsion))
    table = data.table
    for r, v in x.items():
        w = table.get(r)
        if w:
            for s, u in w.items():
                acc[s] += v * u
    free = tuple(acc[:data.rank])
    torsion = tuple(a % d for a, d in zip(acc[data.rank:], data.torsion))
    return H1Coordinates(free, torsion, data.torsion)


def nontree_classes(c: CellComplex) -> dict[Cell1, H1Coordinates]:
    """Class coordinates of the fundamental cycle of every non-forest 1-cell.

    The fundamental cycle of a non-forest cell (the cell plus the forest path
    closing it) has that cell as its only non-forest coefficient, so its class
    is the coordinate image of a unit vector: column r of the class table,
    read from the rows of U that give the free and torsion coordinates.  The
    table comes from one backward pass over the logged row operations, and
    every coordinate read is a sparse dot product with it.  This is the
    lookup table behind cocycle-style constructions: any linear functional on
    H1 extends to a 1-cochain that vanishes on the forest.
    """
    data = _h1_data(c, log=True)
    return {c.cells1[j]: _coordinates(data, {data.pos[j]: 1})
            for j in data.nontree}


def homology_coordinates(c: CellComplex, z: Chain1) -> H1Coordinates:
    """Coordinates of a cycle's class in the H1 basis fixed by the SNF transforms.

    Homologous cycles yield identical coordinates; boundaries map to zero.
    """
    if not is_cycle(c, z):
        raise HomologyError("chain is not a cycle")
    data = _h1_data(c, log=True)
    zi = _chain_to_indices(c, z)
    return _coordinates(data, {data.pos[j]: v for j, v in zi.items()
                               if j in data.pos})


def class_matrix(c: CellComplex, chains: Sequence[Chain1]) -> IntegerMatrix:
    """The class coordinates of cycles stacked over the torsion relations.

    Row i holds the free then torsion coordinates of chains[i]; one more row
    d * e_(k+j) follows for the j-th torsion factor d, where k is the free
    rank.  The integer row span is then the subgroup of H1 the chains
    generate, written in Z^k x Z^l.
    """
    data = _h1_data(c, log=True)
    k, l, count = data.rank, len(data.torsion), len(chains)
    entries = []
    for i, z in enumerate(chains):
        coords = homology_coordinates(c, z)
        entries += [(i, j, v) for j, v in enumerate(coords.free + coords.torsion)
                    if v]
    entries += [(count + i, k + i, d) for i, d in enumerate(data.torsion)]
    return IntegerMatrix(count + l, k + l, tuple(entries))

"""Spans around the benchmark's calls into confighom's layers.

`layer_functions(tracer)` hands the workloads every layer function they call.
Without a tracer these are the library functions themselves, so untraced runs
pay nothing.  With one, each is wrapped to record a span: name, start, end,
parent span and case id.  Only calls made from the benchmark's files are
wrapped; calls the library makes internally fall into the caller's self time.
"""
from __future__ import annotations

import time
from types import SimpleNamespace

from confighom import complexes, connectivity, gauge, graphs, homology, spanning

LAYERS = {
    graphs: ("graph_from_json", "sufficiently_subdivide"),
    complexes: ("build_complex",),
    homology: ("h1",),
    connectivity: ("predict_h1",),
    spanning: ("spanning_set", "verify_spanning"),
    gauge: ("random_topological_potential", "flux", "solve_from_fluxes"),
}

CASE_SPAN = "bench.case"


def layer_name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, case]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.case = None

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.case])
        self._open.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, children):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def to_json(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "case": case}
                for name, start, end, parent, case in self.spans]


def layer_functions(tracer: Tracer | None = None) -> SimpleNamespace:
    fns = {}
    for module, names in LAYERS.items():
        for name in names:
            fn = getattr(module, name)
            if tracer is not None:
                fn = tracer.wrap(f"{layer_name(module)}.{name}", fn)
            fns[name] = fn
    return SimpleNamespace(**fns)

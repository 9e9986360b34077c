"""In-memory spans for the traced benchmark run.

A case is the root span; each call the benchmark makes into a qlbench layer
is a child span of it.  Spans stay in memory while the run measures and are
written out once, at the end.  A span's self time is its duration minus the
part of it that its direct children cover; spans are strictly nested because
the benchmark is single-threaded, so that part is the sum of the children's
durations.
"""

from __future__ import annotations

import json
from time import perf_counter
from types import SimpleNamespace


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, root index]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][4] if self._stack else index
        self.spans.append([name, perf_counter(), 0.0, parent, root])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def self_times(self, first: int = 0) -> dict[str, list]:
        """{name: [calls, self seconds]} over the spans from index ``first`` on."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _root in self.spans[first:]:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = {}
        for index in range(first, len(self.spans)):
            name, start, end, _parent, _root = self.spans[index]
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - covered[index]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                record = {"id": index, "case": root, "parent": parent, "name": name,
                          "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")


def bind(table: dict, tracer: Tracer | None) -> SimpleNamespace:
    """Namespace of layer entry points, ``{attr: (span name, function)}``.

    Untraced runs get the functions themselves, so tracing costs nothing
    there; traced runs get each wrapped in a span.
    """
    if tracer is None:
        return SimpleNamespace(**{attr: fn for attr, (_name, fn) in table.items()})
    return SimpleNamespace(
        **{attr: tracer.wrap(name, fn) for attr, (name, fn) in table.items()}
    )

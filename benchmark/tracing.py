"""Spans recorded from the benchmark's own files, around the public
functions each sudokulab module looks up at call time.

Nothing under ``src/`` changes: ``install`` swaps module (or class)
attributes for timing wrappers and ``restore`` puts the originals back.
Every span is counted and summed per (phase, name).  Spans of hot names,
called hundreds of times per operation, are only summed; the others are
also kept as (phase, operation, name, start, end) records and written out
when the run ends.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from sudokulab import annealing, backtracking, bench, projections

#: (owner, attribute, span name, hot)
WRAPPED = (
    (bench, "load_suite", "bench.load_suite", False),
    (bench, "parse_puzzle", "board.parse", False),
    (backtracking, "order_cells", "backtracking.order_cells", False),
    (backtracking, "candidates", "board.candidates", True),
    (annealing, "initial_board", "annealing.initial_board", False),
    (annealing.AnnealState, "create", "annealing.state_create", False),
    (projections, "build_constraint_plan", "projections.build_constraint_plan", False),
    (projections, "sweep", "projections.sweep", False),
    (projections, "project_simplex", "projections.project_simplex", True),
    (projections, "round_tensor", "projections.round_tensor", False),
    (projections, "is_solved", "board.is_solved", True),
)


class Tracer:
    def __init__(self) -> None:
        self.phase: str | None = None   # spans outside a phase are not recorded
        self.op: int | None = None      # id of the operation being run
        self.count: dict[tuple[str, str], int] = defaultdict(int)
        self.total: dict[tuple[str, str], float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._saved: list[tuple] = []

    def record(self, name: str, start: float, end: float, keep: bool = True) -> None:
        if self.phase is None:
            return
        key = (self.phase, name)
        self.count[key] += 1
        self.total[key] += end - start
        if keep:
            self.spans.append((self.phase, self.op, name, start, end))

    def _wrapper(self, fn, name: str, hot: bool):
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, start, perf_counter(), not hot)
        return traced

    def install(self) -> None:
        for owner, attr, name, hot in WRAPPED:
            raw = vars(owner)[attr]
            wrapper = self._wrapper(getattr(owner, attr), name, hot)
            setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
            self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def n(self, phase: str, name: str) -> int:
        return self.count[(phase, name)]

    def sum(self, phase: str, name: str) -> float:
        return self.total[(phase, name)]

    def mean(self, phase: str, name: str) -> float:
        n = self.n(phase, name)
        if n == 0:
            raise ValueError(f"no {name} span in phase {phase}")
        return self.sum(phase, name) / n

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for phase, op, name, start, end in self.spans:
                fh.write(json.dumps({"phase": phase, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")

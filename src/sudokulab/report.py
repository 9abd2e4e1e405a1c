"""Result record shared by the three solvers and the benchmark harness."""
from __future__ import annotations

from typing import NamedTuple

from .board import Board


class SolveReport(NamedTuple):
    method: str                 # "backtracking" | "annealing" | "projection"
    solved: bool
    board: Board
    wall_time: float            # seconds around the solve call only
    work: int                   # nodes visited / iterations / sweeps
    final_cost: int | None = None
    note: str | None = None

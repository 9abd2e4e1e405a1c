"""Stochastic solver: Metropolis annealing over clue-respecting full boards.

The state space is the set of full boards that respect the clues and use
each digit exactly nine times.  A move swaps two non-clue cells, chosen
with probability proportional to exp(violation degree), and is accepted
with probability min{exp((cost_current - cost_proposed)/temperature), 1}
against a single uniform deviate.  Temperature follows a geometric
cooling schedule with a single mid-run reset to the initial temperature
(the board is kept across the reset).
"""
from __future__ import annotations

import itertools
import math
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

from .board import (
    Board,
    CELL_UNITS,
    ClueMask,
    UNITS,
    clue_unit_masks,
    violation_cost,
)
from .report import SolveReport

#: exp(degree) proposal weights; a cell sits in 3 units so degree <= 3.
_EXP_DEGREE = [math.exp(i) for i in range(4)]


@dataclass(frozen=True)
class AnnealConfig:
    initial_temperature: float = 200.0
    cooling_factor: float = 0.99
    cooling_period: int = 50
    max_iterations: int = 200_000
    reset_at: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.initial_temperature > 0:
            raise ValueError("initial_temperature must be positive")
        if not 0 < self.cooling_factor < 1:
            raise ValueError("cooling_factor must lie in (0,1)")
        if self.cooling_period < 1 or self.max_iterations < 1:
            raise ValueError("cooling_period and max_iterations must be positive")
        if not 1 <= self.reset_at <= self.max_iterations:
            raise ValueError("reset_at must lie in [1, max_iterations]")


@dataclass
class AnnealState:
    board: list[int]
    cost: int
    temperature: float
    iteration: int
    rng: random.Random
    # caches kept consistent by the annealing loop; an accepted swap of da
    # and db re-weighs only the free cells of the two cells' units that
    # hold da or db, and the draw table is rebuilt from the lowest such slot
    _counts: list[list[int]] = field(repr=False, default_factory=list)  # 27 x 10 digit counts
    _free: list[int] = field(repr=False, default_factory=list)          # non-clue cell indices
    _fpos: list[int] = field(repr=False, default_factory=list)          # cell -> slot in _free, -1 for clues
    _fw: list[float] = field(repr=False, default_factory=list)          # weight per free slot

    @classmethod
    def create(
        cls, board: Board, clue_mask: ClueMask, config: AnnealConfig, rng: random.Random | None = None
    ) -> "AnnealState":
        state = cls(
            board=list(board),
            cost=violation_cost(board),
            temperature=config.initial_temperature,
            iteration=0,
            rng=rng if rng is not None else random.Random(config.seed),
        )
        counts = state._counts = [[0] * 10 for _ in range(27)]
        for i, d in enumerate(state.board):
            for u in CELL_UNITS[i]:
                counts[u][d] += 1
        state._free = [i for i in range(81) if not clue_mask[i]]
        state._fpos = [-1] * 81
        for slot, i in enumerate(state._free):
            state._fpos[i] = slot
        # weight exp(degree), the degree counting the units that repeat the cell's digit
        state._fw = [
            _EXP_DEGREE[sum(counts[u][board[i]] >= 2 for u in CELL_UNITS[i])] for i in state._free
        ]
        return state


def initial_board(puzzle: Board, clue_mask: ClueMask, rng: random.Random) -> Board:
    """Fill the empty cells with a random permutation of the digits missing
    from each row's clues, which gives every digit exactly nine occurrences.
    Raises ``PuzzleError`` for a mask that ``clue_unit_masks`` rejects."""
    rows = clue_unit_masks(puzzle, clue_mask)[:9]
    pool = [d for d in range(1, 10) for used in rows if not used >> d & 1]
    rng.shuffle(pool)
    filled = list(puzzle)
    pos = 0
    for i in range(81):
        if not clue_mask[i]:
            filled[i] = pool[pos]
            pos += 1
    return tuple(filled)


def acceptance_probability(cost_current: int, cost_proposed: int, temperature: float) -> float:
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if cost_proposed <= cost_current:
        return 1.0
    return math.exp((cost_current - cost_proposed) / temperature)


def anneal(
    puzzle: Board,
    clue_mask: ClueMask,
    config: AnnealConfig | None = None,
    observer: Callable[[AnnealState], None] | None = None,
) -> SolveReport:
    """Run one annealing chain; deterministic for a fixed (puzzle, config)."""
    cfg = config or AnnealConfig()
    start = time.perf_counter()
    rng = random.Random(cfg.seed)
    state = AnnealState.create(initial_board(puzzle, clue_mask, rng), clue_mask, cfg, rng=rng)

    if state.cost == 0:
        return SolveReport(
            "annealing", True, tuple(state.board), time.perf_counter() - start, 0, final_cost=0
        )

    # local bindings for the hot loop
    board = state.board
    counts = state._counts
    free = state._free
    fpos = state._fpos
    fw = state._fw
    rnd = rng.random
    exp = math.exp
    accumulate = itertools.accumulate
    bisect = bisect_right
    cell_units = CELL_UNITS
    exp_degree = _EXP_DEGREE
    t0, cool, period = cfg.initial_temperature, cfg.cooling_factor, cfg.cooling_period
    max_iters, reset_at = cfg.max_iterations, cfg.reset_at
    nfree = len(free)
    if nfree < 2:
        # no swap can move, and the distinct second draw below would never
        # end; valid clues that leave fewer free cells are solved by the fill
        raise ValueError("need at least two non-clue cells to propose a swap")
    # per cell its three count rows; per unit its free cells as (slot, cell, row0, row1, row2)
    rows_of = [(counts[u0], counts[u1], counts[u2]) for u0, u1, u2 in cell_units]
    unit_free = [[(fpos[i], i, *rows_of[i]) for i in cells if fpos[i] >= 0] for cells in UNITS]

    reset_base = 0
    temp = t0
    cost = state.cost
    cum = list(accumulate(fw))
    total = cum[-1]
    last = nfree - 1
    solved = False
    n = 0
    while n < max_iters:
        if n == reset_at:
            reset_base = n
        steps = n - reset_base
        if steps % period == 0:
            # never 0.0: once the schedule underflows, every uphill move is rejected
            temp = max(t0 * cool ** (steps // period), math.ulp(0.0))

        # weighted draws; the second repeats until distinct
        sa = bisect(cum, rnd() * total)
        if sa > last:
            sa = last  # float round-off on the final bin
        while True:
            sb = bisect(cum, rnd() * total)
            if sb > last:
                sb = last
            if sb != sa:
                break
        a, b = free[sa], free[sb]
        da, db = board[a], board[b]

        if da == db:
            rnd()  # the uniform acceptance deviate; exp(0) = 1 always accepts
        else:
            rows_a, rows_b = rows_of[a], rows_of[b]
            delta = 0
            for row in rows_a:
                if row[da] == 1:
                    delta += 1
                row[da] -= 1
                if row[db] == 0:
                    delta -= 1
                row[db] += 1
            for row in rows_b:
                if row[db] == 1:
                    delta += 1
                row[db] -= 1
                if row[da] == 0:
                    delta -= 1
                row[da] += 1

            if rnd() <= (1.0 if delta <= 0 else exp(-delta / temp)):
                board[a], board[b] = db, da
                cost += delta
                # only da's and db's counts moved, in the units of a and b, so
                # only those units' cells holding da or db can re-weigh (a
                # shared unit is visited twice, the second time to no effect)
                lo = nfree
                for u in cell_units[a] + cell_units[b]:
                    for slot, i, r0, r1, r2 in unit_free[u]:
                        d = board[i]
                        if d == da or d == db:
                            w = exp_degree[(r0[d] >= 2) + (r1[d] >= 2) + (r2[d] >= 2)]
                            if w != fw[slot]:
                                fw[slot] = w
                                if slot < lo:
                                    lo = slot
                if lo < nfree:
                    # accumulate adds left to right, so rebuilding from the
                    # lowest changed slot gives the floats of a full rebuild
                    cum[lo:] = accumulate(fw[lo + 1:], initial=cum[lo - 1] + fw[lo] if lo else fw[lo])
                    total = cum[-1]
            else:
                # revert the tentative count shift
                for row in rows_a:
                    row[db] -= 1
                    row[da] += 1
                for row in rows_b:
                    row[da] -= 1
                    row[db] += 1

        n += 1
        if observer is not None:
            state.cost = cost
            state.temperature = temp
            state.iteration = n
            observer(state)
        if cost == 0:
            solved = True
            break

    elapsed = time.perf_counter() - start
    return SolveReport(
        "annealing", solved, tuple(board), elapsed, n, final_cost=cost
    )

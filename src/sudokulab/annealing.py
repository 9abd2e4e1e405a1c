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
from typing import Callable, NamedTuple

from .board import (
    Board,
    CELL_UNITS,
    ClueMask,
    UNITS,
    check_clue_mask,
    unit_masks,
    violation_cost,
)
from .report import SolveReport

#: exp(degree) proposal weights; a cell sits in 3 units so degree <= 3.
_EXP_DEGREE = [math.exp(i) for i in range(4)]


class _AnnealFields(NamedTuple):
    initial_temperature: float = 200.0
    cooling_factor: float = 0.99
    cooling_period: int = 50
    max_iterations: int = 200_000
    reset_at: int = 100_000
    seed: int = 0


class AnnealConfig(_AnnealFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "AnnealConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.initial_temperature < math.inf:   # NaN too
            raise ValueError("initial_temperature must be positive and finite")
        if not 0 < self.cooling_factor < 1:
            raise ValueError("cooling_factor must lie in (0,1)")
        # NaN, 2.5 or True would pass the range tests below, and a None seed draws from the OS
        if {type(self.cooling_period), type(self.max_iterations), type(self.reset_at), type(self.seed)} != {int}:
            raise ValueError("cooling_period, max_iterations, reset_at and seed must be ints")
        if self.cooling_period < 1 or self.max_iterations < 1:
            raise ValueError("cooling_period and max_iterations must be positive")
        if self.seed < 0:   # random.Random(-5) draws what random.Random(5) draws
            raise ValueError("seed must be nonnegative")
        if not 1 <= self.reset_at <= self.max_iterations:
            raise ValueError("reset_at must lie in [1, max_iterations]")
        return self

    @classmethod
    def _make(cls, iterable) -> "AnnealConfig":
        return cls(*iterable)   # checked; _replace builds through here too


class AnnealState:
    def __init__(self, board: list[int], cost: int, temperature: float, iteration: int, rng: random.Random) -> None:
        self.board, self.cost, self.temperature, self.iteration, self.rng = board, cost, temperature, iteration, rng
        # caches kept consistent by the annealing loop, which maps each free
        # cell to its slot in _free itself; an accepted swap of da and db
        # re-weighs only the free cells near a or b (sharing a unit) that hold
        # da or db, and then rebuilds the whole draw table
        self._counts: list[list[int]] = []   # 27 x 10 digit counts
        self._free: list[int] = []           # non-clue cell indices
        self._fw: list[float] = []           # weight per free slot

    @classmethod
    def create(cls, board: Board, clue_mask: ClueMask, config: AnnealConfig, rng: random.Random) -> "AnnealState":
        state = cls(list(board), violation_cost(board), config.initial_temperature, 0, rng)
        counts = state._counts = [[0] * 10 for _ in range(27)]
        for i, d in enumerate(state.board):
            for u in CELL_UNITS[i]:
                counts[u][d] += 1
        state._free = [i for i in range(81) if not clue_mask[i]]
        # weight exp(degree), the degree counting the units that repeat the cell's digit
        state._fw = [
            _EXP_DEGREE[sum(counts[u][board[i]] >= 2 for u in CELL_UNITS[i])] for i in state._free
        ]
        return state


def initial_board(puzzle: Board, clue_mask: ClueMask, rng: random.Random) -> Board:
    """Fill the empty cells with a random permutation of the digits missing
    from each row's clues, which gives every digit exactly nine occurrences.
    Raises ``PuzzleError`` for input ``check_clue_mask`` or ``unit_masks`` rejects."""
    rows = unit_masks(check_clue_mask(puzzle, clue_mask))[:9]
    pool = [d for d in range(1, 10) for used in rows if not used >> d & 1]
    rng.shuffle(pool)
    fill = iter(pool)   # unit_masks rejects repeated clues, so one digit per free cell
    return tuple(d if c else next(fill) for d, c in zip(puzzle, clue_mask))


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

    # local bindings for the hot loop
    board = state.board
    counts = state._counts
    free = state._free
    fw = state._fw
    rnd = rng.random
    exp = math.exp
    accumulate = itertools.accumulate
    bisect = bisect_right
    cell_units = CELL_UNITS
    exp_degree = _EXP_DEGREE
    t0, cool, period = cfg.initial_temperature, cfg.cooling_factor, cfg.cooling_period
    max_iters, reset_at = cfg.max_iterations, cfg.reset_at
    cost = state.cost
    nfree = len(free)
    if nfree < 2 and cost:
        # no swap can move, and the distinct second draw below would never
        # end; valid clues that leave fewer free cells are solved by the fill
        raise ValueError("need at least two non-clue cells to propose a swap")
    # per cell its three count rows; per free cell the free cells of its units, each
    # once, as shared (slot, cell, row0, row1, row2) entries; None for a clue
    rows_of = [(counts[u0], counts[u1], counts[u2]) for u0, u1, u2 in cell_units]
    entry = {i: (slot, i, *rows_of[i]) for slot, i in enumerate(free)}
    near = [tuple({j: entry[j] for u in cell_units[i] for j in UNITS[u] if j in entry}.values())
            if i in entry else None for i in range(81)]

    temp = t0
    hooked = 0.0   # time in the observer branch, kept out of wall_time
    cum = list(accumulate(fw))
    last = nfree - 1
    n = 0
    while cost and n < max_iters:
        steps = n - reset_at if n >= reset_at else n
        if steps % period == 0:
            # never 0.0: once the schedule underflows, every uphill move is rejected
            temp = max(t0 * cool ** (steps // period), math.ulp(0.0))

        # weighted draws, the second repeated until distinct; searching only
        # cum[:last] puts a draw past the final bin by round-off into it
        sa = sb = bisect(cum, rnd() * cum[-1], 0, last)
        while sb == sa:
            sb = bisect(cum, rnd() * cum[-1], 0, last)
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
                # only the cells near a or b holding da or db can re-weigh (a
                # cell near both a and b is visited twice, to no effect)
                for peers in (near[a], near[b]):
                    for slot, i, r0, r1, r2 in peers:
                        d = board[i]
                        if d == da or d == db:
                            fw[slot] = exp_degree[(r0[d] >= 2) + (r1[d] >= 2) + (r2[d] >= 2)]
                cum[:] = accumulate(fw)
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
            hook_start = time.perf_counter()
            state.cost = cost
            state.temperature = temp
            state.iteration = n
            observer(state)
            hooked += time.perf_counter() - hook_start

    return SolveReport(
        "annealing", cost == 0, tuple(board), time.perf_counter() - start - hooked, n, final_cost=cost
    )

"""Exact solver: cardinality-ordered depth-first search over partial solutions.

Empty cells are ordered once, on the initial board, by ascending candidate
list size (ties broken row-major).  The search grows a digit string along
that order in dictionary order, abandoning a prefix the moment a placed digit
duplicates a digit in one of its three units (read from 27 unit bitmasks).
A step table built before the search holds, per depth, the cell, its three
units and its digit list; each call reads its three masks once, places a digit
by writing them with its bit, and restores them once after its digit loop.
Without a trace hook only the digits the units still lack are tried, read from
a 512-entry table; the rejected ones are still counted as placement attempts.
Enumeration thus yields complete solutions in the dictionary order induced by
the cell ordering; exhausting the tree proves uniqueness or unsatisfiability.
"""
from __future__ import annotations

import time
from functools import reduce
from typing import Callable, NamedTuple

from .board import (
    CELL_UNITS,
    Board,
    CellRef,
    ClueMask,
    candidates,
    cell_index,
    cell_ref,
    check_clue_mask,
    unit_masks,
)
from .report import SolveReport

#: Called once per placement attempt with the grown prefix string (the
#: digits placed so far, in search order) and whether the placement was
#: feasible.  Infeasible placements are rejected and their subtree pruned.
TraceHook = Callable[[str, bool], None]

#: Entry m lists, ascending, the digits d whose bit d - 1 is clear in m; built
#: by doubling, d joining the entries of the masks with bit d - 1 clear.
_LACKING: list[tuple[int, ...]] = reduce(lambda t, d: [x + (d,) for x in t] + t, range(1, 10), [()])


class SearchOrder(NamedTuple):
    cells: list[CellRef]          # empty cells, sorted by |candidates| then row-major
    lists: list[tuple[int, ...]]  # initial candidate list per cell, ascending digits


def order_cells(board: Board) -> SearchOrder:
    """Static search order: empty cells by ascending initial candidate count."""
    entries = []
    for i, d in enumerate(board):
        if d == 0:
            cell = cell_ref(i)
            cands = tuple(sorted(candidates(board, cell)))
            entries.append((len(cands), i, cell, cands))
    entries.sort()  # the indexes differ, so no two cells or lists are compared
    return SearchOrder([cell for _, _, cell, _ in entries], [cands for *_, cands in entries])


def enumerate_solutions(
    board: Board,
    clue_mask: ClueMask,
    cap: int,
    trace: TraceHook | None = None,
) -> list[Board]:
    """Return up to ``cap`` complete solutions in dictionary order.

    Returns fewer than ``cap`` boards iff the whole search tree was
    exhausted, which proves no further solution exists.  Searches the board
    ``check_clue_mask`` returns; raises ``PuzzleError`` as it or ``unit_masks`` does.
    """
    return _search(check_clue_mask(board, clue_mask), cap, trace)[0]


def _search(board: Board, cap: int, trace: TraceHook | None) -> tuple[list[Board], int]:
    """Up to ``cap`` solutions and the number of placement attempts made."""
    if type(cap) is not int or cap < 1:   # NaN or 1.5 would let the search run past the cap
        raise ValueError("cap must be an int >= 1")
    used = unit_masks(board)  # per unit, bit d set while digit d is in it
    order = order_cells(board)
    # one step per depth: (cell, its three units, its digit list, the list's length)
    cells = [cell_index(r, c) for r, c in order.cells]
    steps = [(i, *CELL_UNITS[i], ds, len(ds)) for i, ds in zip(cells, order.lists)]
    grid = list(board)
    solutions: list[Board] = []
    n = len(steps)
    nodes = 0

    def dfs(depth: int, prefix: str) -> bool:
        nonlocal nodes
        if depth == n:
            solutions.append(tuple(grid))
            return len(solutions) >= cap
        i, u0, u1, u2, digits, size = steps[depth]
        a, b, c = used[u0], used[u1], used[u2]  # restored after the loop, or the search ends
        taken = a | b | c
        # untraced, only the digits the units lack are tried: as used only gains
        # bits along a path, they are the feasible part of digits, in order.  Each
        # call counts its attempts, rejected ones too: all of its digits, or
        # those up to the one whose subtree ended the search
        grown = prefix  # digits placed so far, in search order; grown only for a trace hook
        for d in digits if trace is not None else _LACKING[taken >> 1]:
            bit = 1 << d
            if trace is not None:
                grown = prefix + str(d)
                trace(grown, not taken & bit)
                if taken & bit:
                    continue
            grid[i] = d  # every cell below is rewritten before the grid is copied
            used[u0], used[u1], used[u2] = a | bit, b | bit, c | bit
            if dfs(depth + 1, grown):
                nodes += digits.index(d) + 1
                return True
        used[u0], used[u1], used[u2] = a, b, c
        nodes += size
        return False

    dfs(0, "")
    return solutions, nodes


def solve(board: Board, clue_mask: ClueMask) -> SolveReport:
    """First solution (or failure) with a work count of placement attempts,
    the calls a ``trace`` hook would receive.  Raises ``PuzzleError`` as ``enumerate_solutions`` does."""
    start = time.perf_counter()
    found, nodes = _search(check_clue_mask(board, clue_mask), 1, None)
    elapsed = time.perf_counter() - start
    return SolveReport("backtracking", bool(found), found[0] if found else board, elapsed, nodes,
                       final_cost=0 if found else None)

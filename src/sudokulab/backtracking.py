"""Exact solver: cardinality-ordered depth-first search over partial solutions.

Empty cells are ordered once, on the initial board, by ascending candidate
list size (ties broken row-major).  The search grows a digit string along
that order in dictionary order, abandoning a prefix the moment a placed digit
duplicates a digit in one of its three units (read from 27 unit bitmasks).
A step table built before the search holds, per depth, the cell, its three
units and its digit list; one call places two consecutive steps, the second in
the first's digit loop.  Each step reads its three masks once, tries only the
digits its units still lack (read from a 512-entry table), places one by
writing the masks with its bit, and restores them once after its loop.  The
rejected digits still count as placement attempts, and a trace hook hears them
from the same loop.
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
    """Up to ``cap`` solutions and the number of placement attempts made; one
    ``dfs`` call places two steps, and a hook hears rejected digits from its loops."""
    if type(cap) is not int or cap < 1:   # NaN or 1.5 would let the search run past the cap
        raise ValueError("cap must be an int >= 1")
    used = unit_masks(board)  # per unit, bit d set while digit d is in it
    order = order_cells(board)
    # one step per depth: (cell, its three units, its digit list, the list's length)
    cells = [cell_index(r, c) for r, c in order.cells]
    steps = [(i, *CELL_UNITS[i], ds, len(ds)) for i, ds in zip(cells, order.lists)]
    steps += [(None,) * 6] * (len(steps) % 2)  # an odd count's last frame holds one step
    frames = None  # linked from the last, flat: (*step, *next step, next frame or None)
    for k in range(len(steps) - 2, -1, -2):
        frames = (*steps[k], *steps[k + 1], frames)
    grid = list(board)
    solutions: list[Board] = []
    nodes = 0

    def hear(prefix: str, digits: tuple[int, ...], taken: int, d: int) -> str:
        """Tell ``trace`` the listed digits since the last feasible one below ``d``
        as rejected, then ``d`` as feasible; ``d`` = 10 tells those after the loop."""
        last = (~taken & (1 << d) - 2).bit_length() - 1  # -1 if none below d is feasible
        for x in digits:
            if last < x <= d:
                trace(prefix + str(x), x == d)
        return prefix + str(d)

    def dfs(frame, prefix: str) -> bool:
        nonlocal nodes
        if frame is None:
            solutions.append(tuple(grid))
            return len(solutions) >= cap
        i, u0, u1, u2, digits, size, j, v0, v1, v2, digits2, size2, below = frame
        a, b, c = used[u0], used[u1], used[u2]  # restored after the loop, or the search ends
        taken = a | b | c
        # only the digits the units lack are placed: as used only gains bits along
        # a path, they are the feasible part of digits, in order.  Each step counts
        # all of its digits as attempts, or those up to the one that ended the search
        grown = grown2 = prefix  # digits placed so far, in search order; grown only for a trace hook
        for d in _LACKING[taken >> 1]:
            if trace is not None:
                grown = hear(prefix, digits, taken, d)
            bit = 1 << d
            grid[i] = d  # every cell below is rewritten before the grid is copied
            used[u0], used[u1], used[u2] = a | bit, b | bit, c | bit
            if j is None:  # d fills the last empty cell
                if dfs(None, grown):
                    nodes += digits.index(d) + 1
                    return True
                continue
            a2, b2, c2 = used[v0], used[v1], used[v2]
            taken2 = a2 | b2 | c2
            for e in _LACKING[taken2 >> 1]:
                if trace is not None:
                    grown2 = hear(grown, digits2, taken2, e)
                bit = 1 << e
                grid[j] = e
                used[v0], used[v1], used[v2] = a2 | bit, b2 | bit, c2 | bit
                if dfs(below, grown2):
                    nodes += digits2.index(e) + 1 + digits.index(d) + 1
                    return True
            used[v0], used[v1], used[v2] = a2, b2, c2
            if trace is not None:
                hear(grown, digits2, taken2, 10)
            nodes += size2
        used[u0], used[u1], used[u2] = a, b, c
        if trace is not None:
            hear(prefix, digits, taken, 10)
        nodes += size
        return False

    dfs(frames, "")
    return solutions, nodes


def solve(board: Board, clue_mask: ClueMask) -> SolveReport:
    """First solution (or failure) with a work count of placement attempts,
    the calls a ``trace`` hook would receive.  Raises ``PuzzleError`` as ``enumerate_solutions`` does."""
    start = time.perf_counter()
    found, nodes = _search(check_clue_mask(board, clue_mask), 1, None)
    elapsed = time.perf_counter() - start
    return SolveReport("backtracking", bool(found), found[0] if found else board, elapsed, nodes,
                       final_cost=0 if found else None)

"""Output checks made apart from sudokulab.

Nothing here imports the package: the unit tables, the board check and the
solution count are written afresh, so a fault in ``sudokulab.board`` or in
a solver cannot also hide in the check of that solver's output.  The
solution count uses a different search from the package's (bitmasks and
a dynamic fewest-candidates cell choice instead of a static order).
"""
from __future__ import annotations

DIGITS = frozenset(range(1, 10))
ALL_BITS = 0x3FE  # bits 1..9

ROWS = [tuple(r * 9 + c for c in range(9)) for r in range(9)]
COLS = [tuple(r * 9 + c for r in range(9)) for c in range(9)]
BOXES = [
    tuple((br + r) * 9 + bc + c for r in range(3) for c in range(3))
    for br in (0, 3, 6)
    for bc in (0, 3, 6)
]
UNITS = [("row", k, u) for k, u in enumerate(ROWS)] + [
    ("column", k, u) for k, u in enumerate(COLS)
] + [("box", k, u) for k, u in enumerate(BOXES)]


def board_fault(board, puzzle) -> str | None:
    """Why ``board`` is not a solution of ``puzzle``, or None if it is.

    Every row, column and box must be a permutation of 1-9, and every
    nonzero cell of the puzzle must be kept.
    """
    if len(board) != 81:
        return f"board has {len(board)} cells, not 81"
    for kind, k, unit in UNITS:
        if {board[i] for i in unit} != DIGITS:
            return f"{kind} {k + 1} is not a permutation of 1-9"
    for i, clue in enumerate(puzzle):
        if clue and board[i] != clue:
            return f"clue {clue} at cell {i} changed to {board[i]}"
    return None


def digit_count_fault(board) -> str | None:
    """Why ``board`` does not hold nine of each digit, or None."""
    for d in range(1, 10):
        n = sum(1 for x in board if x == d)
        if n != 9:
            return f"digit {d} occurs {n} times"
    return None


def all_solutions(puzzle, limit: int = 1000) -> list[tuple[int, ...]]:
    """Every completion of ``puzzle`` (up to ``limit``), by exhaustive search.

    Raises ValueError when the clues themselves repeat a digit in a unit.
    """
    grid = list(puzzle)
    used = [0] * 27  # digit bits per unit: rows 0-8, columns 9-17, boxes 18-26
    cell_units = [(i // 9, 9 + i % 9, 18 + (i // 27) * 3 + (i % 9) // 3) for i in range(81)]
    for i, d in enumerate(grid):
        if d:
            bit = 1 << d
            for u in cell_units[i]:
                if used[u] & bit:
                    raise ValueError(f"clue {d} at cell {i} repeats in its unit")
                used[u] |= bit
    empty = [i for i in range(81) if grid[i] == 0]
    found: list[tuple[int, ...]] = []

    def search() -> None:
        best, best_free, best_n = -1, 0, 10
        for i in empty:
            if grid[i]:
                continue
            r, c, b = cell_units[i]
            free = ALL_BITS & ~(used[r] | used[c] | used[b])
            n = bin(free).count("1")
            if n < best_n:
                best, best_free, best_n = i, free, n
                if n <= 1:
                    break
        if best < 0:
            found.append(tuple(grid))
            return
        r, c, b = cell_units[best]
        for d in range(1, 10):
            bit = 1 << d
            if best_free & bit:
                grid[best] = d
                used[r] |= bit
                used[c] |= bit
                used[b] |= bit
                search()
                used[r] ^= bit
                used[c] ^= bit
                used[b] ^= bit
                grid[best] = 0
                if len(found) >= limit:
                    return

    search()
    return found

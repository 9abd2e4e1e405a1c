"""Canonical 9x9 board representation shared by every solver.

A board is a flat tuple of 81 integers in row-major order, 0 marking an
empty cell.  Coordinates in the public API are 1-based (row, col) pairs.
All values are immutable; solvers copy before modifying.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Iterable

Board = tuple[int, ...]
ClueMask = tuple[bool, ...]
CellRef = tuple[int, int]

DIGITS = frozenset(range(1, 10))
_DIGIT_SET = set(DIGITS)  # never mutated: candidates returns a new set from it
_VALUES = frozenset(range(10))
_INT = frozenset({int})


class PuzzleError(ValueError):
    """Raised for malformed or internally inconsistent puzzle input."""


def cell_index(row: int, col: int) -> int:
    """Flat index of 1-based (row, col)."""
    if not (1 <= row <= 9 and 1 <= col <= 9):
        raise PuzzleError(f"cell ({row},{col}) out of range")
    return (row - 1) * 9 + (col - 1)


def cell_ref(index: int) -> CellRef:
    return index // 9 + 1, index % 9 + 1


#: For each flat cell index, the ids of its row (0-8), column (9-17) and subgrid (18-26).
CELL_UNITS: list[tuple[int, int, int]] = [
    (i // 9, 9 + i % 9, 18 + i // 27 * 3 + i % 9 // 3) for i in range(81)
]

#: 27 units: rows 0-8, columns 9-17, subgrids 18-26, each its cells in row-major order.
UNITS: list[tuple[int, ...]] = [
    tuple(i for i, units in enumerate(CELL_UNITS) if u in units) for u in range(27)
]

#: For each flat cell index, a getter of the 27 values of its three units.
_UNIT_VALUES = [itemgetter(*(j for u in CELL_UNITS[i] for j in UNITS[u])) for i in range(81)]

_IGNORED = set(" \t\r\n|+-")


def parse_puzzle(text: str) -> tuple[Board, ClueMask]:
    """Parse line or grid format into a (board, clue mask) pair.

    Whitespace and the grid separators '|', '-', '+' are ignored.  The
    remaining 81 characters must each be '1'-'9', '0', or '.'; nonzero
    entries become clues.  Clue sets with a duplicated digit inside any
    unit are rejected.
    """
    chars = [ch for ch in text if ch not in _IGNORED]
    if len(chars) != 81:
        raise PuzzleError(f"expected 81 significant characters, got {len(chars)}")
    cells = []
    for pos, ch in enumerate(chars):
        if ch == "." or ch == "0":
            cells.append(0)
        elif "1" <= ch <= "9":
            cells.append(int(ch))
        else:
            raise PuzzleError(f"illegal character {ch!r} at index {pos}")
    board = tuple(cells)
    unit_masks(board)
    mask = tuple(d != 0 for d in board)
    return board, mask


def unit_masks(board: Board) -> list[int]:
    """The 27 unit masks of a board, bit d of mask u set when a filled cell
    of unit u holds digit d.  The one clue check: raises ``PuzzleError``
    when a unit repeats a digit; the types are ``check_clue_mask``'s to check."""
    used = [0] * 27
    for i, d in enumerate(board):
        if d:
            u0, u1, u2 = CELL_UNITS[i]
            bit = 1 << d
            if (used[u0] | used[u1] | used[u2]) & bit:
                raise PuzzleError("inconsistent puzzle (clue conflict): "
                                  f"digit {d} repeated in a unit of cell {cell_ref(i)}")
            used[u0], used[u1], used[u2] = used[u0] | bit, used[u1] | bit, used[u2] | bit
    return used


def check_clue_mask(puzzle: Board, clue_mask: ClueMask) -> Board:
    """The one check of raw input; returns the puzzle every method solves, the
    clue cells with 0 elsewhere.  Raises ``PuzzleError`` unless the puzzle is 81
    ints in 0-9 and the mask has 81 entries, none marking an empty cell as a clue."""
    # a float such as 1.0 equals an int digit, so the types are checked too
    if len(puzzle) != 81 or not _VALUES.issuperset(puzzle) or set(map(type, puzzle)) != _INT:
        raise PuzzleError("a board must be 81 ints in 0-9")
    if len(clue_mask) != 81:
        raise PuzzleError(f"a clue mask must have 81 entries, got {len(clue_mask)}")
    for i, c in enumerate(clue_mask):
        if c and not puzzle[i]:
            raise PuzzleError(f"clue mask marks the empty cell {cell_ref(i)} as a clue")
    return tuple(d if c else 0 for d, c in zip(puzzle, clue_mask))


def render_board(board: Board, style: str = "grid") -> str:
    """Serialize a board; 'line' gives the 81-char form, 'grid' a 9-row block."""
    sym = ["." if d == 0 else str(d) for d in board]
    if style == "line":
        return "".join(sym)
    if style == "grid":
        out = []
        for r in range(9):
            row = sym[r * 9 : r * 9 + 9]
            out.append("".join(row[0:3]) + "|" + "".join(row[3:6]) + "|" + "".join(row[6:9]))
            if r in (2, 5):
                out.append("---+---+---")
        return "\n".join(out)
    raise ValueError(f"unknown style {style!r}")


def violation_cost(board: Board) -> int:
    """Total unit deficiency: sum over the 27 units of 9 minus the number
    of distinct digits 1-9 present.  Zero iff the board is solved."""
    cost = 0
    for unit in UNITS:
        distinct = {board[i] for i in unit} & DIGITS
        cost += 9 - len(distinct)
    return cost


def cell_violation_degree(board: Board, cell: CellRef) -> int:
    """Number of the cell's three units in which its digit occurs more than once."""
    i = cell_index(*cell)
    d = board[i]
    if d == 0:
        return 0
    deg = 0
    for u in CELL_UNITS[i]:
        count = sum(1 for j in UNITS[u] if board[j] == d)
        if count > 1:
            deg += 1
    return deg


def candidates(board: Board, cell: CellRef) -> set[int]:
    """Digits placeable at an empty cell without duplicating any digit in
    the cell's row, column, or subgrid."""
    i = cell_index(*cell)
    if board[i] != 0:
        raise PuzzleError(f"cell {cell} is not empty")
    return _DIGIT_SET.difference(_UNIT_VALUES[i](board))  # the cell's own 0 is no digit


def is_solved(board: Board) -> bool:
    return 0 not in board and violation_cost(board) == 0


def clues_respected(board: Board, puzzle: Board, mask: ClueMask) -> bool:
    """True when every clue cell of the puzzle is unchanged on the board."""
    return all(board[i] == puzzle[i] for i in range(81) if mask[i])


def digit_histogram(board: Iterable[int]) -> list[int]:
    """Counts of digits 1-9 (index 0 = digit 1)."""
    hist = [0] * 9
    for d in board:
        if d:
            hist[d - 1] += 1
    return hist

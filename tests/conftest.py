import random

import pytest

from sudokulab.backtracking import solve
from sudokulab.bench import load_suite
from sudokulab.board import parse_puzzle
from sudokulab.datasets import SAMPLE_PUZZLE_LINE, suite_path

#: A full board two swaps away from a solution: cost 2 from two column
#: duplicates, and no single clue-respecting swap lowers the cost.  Used
#: as a violation-accounting fixture, not as a puzzle.
TRAPPED_BOARD_LINE = (
    "417962835"
    "632158749"
    "958734612"
    "825497361"
    "391586427"
    "746312598"
    "289653174"
    "573241986"
    "164879253"
)


@pytest.fixture(scope="session")
def sample():
    """The bundled 35-clue puzzle: (board, clue_mask)."""
    return parse_puzzle(SAMPLE_PUZZLE_LINE)


@pytest.fixture(scope="session")
def sample_solution(sample):
    board, mask = sample
    report = solve(board, mask)
    assert report.solved
    return report.board


@pytest.fixture(scope="session")
def trapped():
    # deliberately violates unit constraints, so it bypasses parse_puzzle
    return tuple(int(ch) for ch in TRAPPED_BOARD_LINE)


@pytest.fixture(scope="session")
def easy_suite():
    return load_suite(suite_path("easy"), "easy")


@pytest.fixture(scope="session")
def medium_suite():
    return load_suite(suite_path("medium"), "medium")


@pytest.fixture(scope="session")
def unsat_puzzle(easy_suite):
    """A parse-consistent but unsatisfiable puzzle: a unique-solution
    puzzle plus one extra clue contradicting its solution."""
    _, puzzle, mask = easy_suite.puzzles[0]
    solution = solve(puzzle, mask).board
    rng = random.Random(1)
    from sudokulab.board import candidates, cell_ref, render_board

    cells = [i for i in range(81) if not mask[i]]
    rng.shuffle(cells)
    for i in cells:
        wrong = candidates(puzzle, cell_ref(i)) - {solution[i]}
        if wrong:
            poisoned = list(puzzle)
            poisoned[i] = min(wrong)
            return parse_puzzle(render_board(tuple(poisoned), "line"))
    raise AssertionError("could not poison the puzzle")

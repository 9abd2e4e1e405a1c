"""Metamorphic checks: relabelling the digits, transposing the grid and
permuting its bands and stacks map a puzzle's solutions onto the solutions
of the transformed puzzle, so each solver must answer the transformed
puzzle with the transformed answers."""
import functools

from hypothesis import given, settings, strategies as st

from sudokulab.backtracking import enumerate_solutions
from sudokulab.bench import load_suite
from sudokulab.board import parse_puzzle
from sudokulab.datasets import SAMPLE_PUZZLE_LINE, suite_path
from sudokulab.projections import solve_by_projection

from oracles import solve_all

# the 20 easy and medium puzzles, each with one solution, then the sample
# board, which has 12
PUZZLES = [
    (board, mask)
    for name in ("easy", "medium")
    for _, board, mask in load_suite(suite_path(name), name).puzzles
] + [parse_puzzle(SAMPLE_PUZZLE_LINE)]


@functools.cache
def _completions(index: int) -> tuple:
    """Every solution of puzzle ``index``: the unique ones from the search
    itself, the sample's from the plain reference solver."""
    board, mask = PUZZLES[index]
    if index < 20:
        (solution,) = enumerate_solutions(board, mask, cap=2)
        return (solution,)
    return tuple(solve_all(board, cap=100))


@st.composite
def symmetries(draw):
    """(relabel, source): cell i of the transformed board holds
    relabel[d], where d is the digit in cell source[i] of the original."""
    relabel = (0, *draw(st.permutations(range(1, 10))))
    transpose = draw(st.booleans())
    bands, stacks = draw(st.permutations(range(3))), draw(st.permutations(range(3)))
    source = []
    for i in range(81):
        r, c = divmod(i, 9)
        r, c = bands[r // 3] * 3 + r % 3, stacks[c // 3] * 3 + c % 3
        source.append(c * 9 + r if transpose else r * 9 + c)
    return relabel, tuple(source)


def _transform(symmetry, board):
    relabel, source = symmetry
    return tuple(relabel[board[j]] for j in source)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(PUZZLES) - 1), symmetries())
def test_solvers_commute_with_symmetries(index, symmetry):
    board = _transform(symmetry, PUZZLES[index][0])
    mask = tuple(PUZZLES[index][1][j] for j in symmetry[1])
    expected = {_transform(symmetry, s) for s in _completions(index)}
    assert len(expected) == len(_completions(index))

    found = enumerate_solutions(board, mask, cap=2)
    assert len(found) == min(2, len(expected)) and len(set(found)) == len(found)
    assert set(found) <= expected

    report = solve_by_projection(board, mask)
    if report.solved:
        assert report.board in expected

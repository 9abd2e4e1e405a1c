"""Differential check on puzzles none of the bundled suites hold: random
complete grids are carved into unique puzzles, as
``scripts/make_suites.py`` carves the bundled ones, and every solution a
method claims must be the completion the plain reference solver finds."""
import random

from sudokulab.annealing import AnnealConfig
from sudokulab.backtracking import enumerate_solutions
from sudokulab.bench import METHODS, solve

from oracles import solve_all


def random_grid(rng: random.Random) -> tuple:
    """A complete grid filled row-major, each cell's free digits in shuffled order."""
    grid = [0] * 81

    def fill(i):
        if i == 81:
            return True
        r, c = divmod(i, 9)
        br, bc = r - r % 3, c - c % 3
        seen = {grid[r * 9 + k] for k in range(9)} | {grid[k * 9 + c] for k in range(9)}
        seen |= {grid[(br + x) * 9 + bc + y] for x in range(3) for y in range(3)}
        digits = [d for d in range(1, 10) if d not in seen]
        rng.shuffle(digits)
        for d in digits:
            grid[i] = d
            if fill(i + 1):
                return True
        grid[i] = 0
        return False

    assert fill(0)
    return tuple(grid)


def carve(solution: tuple, rng: random.Random, target_clues: int) -> tuple:
    """Remove clues in shuffled order while the puzzle keeps one solution."""
    board = list(solution)
    cells = list(range(81))
    rng.shuffle(cells)
    clues = 81
    for i in cells:
        if clues == target_clues:
            break
        board[i] = 0
        if len(enumerate_solutions(tuple(board), tuple(d != 0 for d in board), cap=2)) == 1:
            clues -= 1
        else:
            board[i] = solution[i]
    return tuple(board)


def test_solved_claims_equal_the_reference_completion():
    claims = dict.fromkeys(METHODS, 0)
    for seed in range(6):
        rng = random.Random(seed)
        solution = random_grid(rng)
        puzzle = carve(solution, rng, rng.randint(28, 40))
        mask = tuple(d != 0 for d in puzzle)
        assert solve_all(puzzle, cap=2) == [solution]
        # annealing on a fast schedule, so that a 20,000-iteration chain often solves
        runs = [("backtracking", None), ("projection", None)] + [
            ("annealing", AnnealConfig(cooling_period=10, max_iterations=20_000, reset_at=10_000, seed=s))
            for s in range(3)
        ]
        for method, config in runs:
            report = solve(method, puzzle, mask, config)
            assert report.method == method
            if report.solved or method == "backtracking":
                assert report.solved and report.board == solution, (seed, method)
                claims[method] += 1
    assert claims["backtracking"] == 6 and claims["annealing"] > 0 and claims["projection"] > 0

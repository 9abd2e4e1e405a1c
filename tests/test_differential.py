"""Differential check on puzzles none of the bundled suites hold: random
complete grids are carved into unique puzzles by the functions
``scripts/make_suites.py`` builds the bundled suites with, and every
solution a method claims must be the completion the plain reference
solver finds."""
import importlib.util
import random
from pathlib import Path

from sudokulab.annealing import AnnealConfig
from sudokulab.bench import METHODS, solve

from oracles import solve_all


def test_solved_claims_equal_the_reference_completion():
    spec = importlib.util.spec_from_file_location(
        "make_suites", Path(__file__).resolve().parent.parent / "scripts" / "make_suites.py")
    make_suites = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_suites)
    claims = dict.fromkeys(METHODS, 0)
    for seed in range(6):
        rng = random.Random(seed)
        solution = make_suites.random_solution(rng)
        puzzle = make_suites.carve_puzzle(solution, rng, rng.randint(28, 40))
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

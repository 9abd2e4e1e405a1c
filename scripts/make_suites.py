#!/usr/bin/env python3
"""Regenerate the bundled puzzle suites.

Builds random complete grids, then removes clues while the solution stays
unique.  Easy/medium puzzles are additionally screened so that the default
annealing configuration solves them for seeds 0-4 without excessive work,
keeping the bundled benchmark fast and reproducible.

Usage: python scripts/make_suites.py [outdir]
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

from sudokulab.annealing import AnnealConfig, anneal
from sudokulab.backtracking import enumerate_solutions
from sudokulab.board import CELL_UNITS, UNITS, Board, render_board
from sudokulab.projections import solve_by_projection

MASTER_SEED = 20240817


def random_solution(rng: random.Random) -> Board:
    grid = [0] * 81

    def rec(pos: int) -> bool:
        if pos == 81:
            return True
        seen = {grid[j] for u in CELL_UNITS[pos] for j in UNITS[u]}
        digits = list(range(1, 10))
        rng.shuffle(digits)
        for d in digits:
            if d not in seen:
                grid[pos] = d
                if rec(pos + 1):
                    return True
                grid[pos] = 0
        return False

    assert rec(0)
    return tuple(grid)


def carve_puzzle(solution: Board, rng: random.Random, target_clues: int) -> Board:
    board = list(solution)
    order = list(range(81))
    rng.shuffle(order)
    clues = 81
    for i in order:
        if clues <= target_clues:
            break
        saved = board[i]
        board[i] = 0
        mask = tuple(d != 0 for d in board)
        if len(enumerate_solutions(tuple(board), mask, cap=2)) == 1:
            clues -= 1
        else:
            board[i] = saved
    return tuple(board)


def anneals_quickly(board: Board, max_work: int) -> bool:
    mask = tuple(d != 0 for d in board)
    for seed in range(5):
        report = anneal(board, mask, AnnealConfig(seed=seed))
        if not report.solved or report.work > max_work:
            return False
    return True


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("src/sudokulab/data")
    rng = random.Random(MASTER_SEED)
    specs = {
        "easy": dict(n=10, target_clues=40, screen=True, max_work=90_000),
        "medium": dict(n=10, target_clues=32, screen=True, max_work=150_000),
        "hard": dict(n=5, target_clues=25, screen=False, max_work=0),
    }
    for name, spec in specs.items():
        lines = [f"# bundled {name} suite, generated by scripts/make_suites.py"]
        produced = 0
        while produced < spec["n"]:
            solution = random_solution(rng)
            puzzle = carve_puzzle(solution, rng, spec["target_clues"])
            clues = sum(1 for d in puzzle if d)
            if spec["screen"] and not anneals_quickly(puzzle, spec["max_work"]):
                print(f"  [{name}] rejected ({clues} clues): annealing screen")
                continue
            mask = tuple(d != 0 for d in puzzle)
            proj = solve_by_projection(puzzle, mask)
            lines.append(render_board(puzzle, "line"))
            produced += 1
            print(f"  [{name}] kept #{produced} ({clues} clues, projection solved={proj.solved})")
        path = outdir / f"suite_{name}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

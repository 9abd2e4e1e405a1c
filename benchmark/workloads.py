"""The three workloads, one per solver of the paper, and how each operation
is called, checked and counted.

Import this module only after ``src`` is on ``sys.path`` (``run.py`` does
that); it calls sudokulab through its public entry points and looks each
one up at call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

from dataclasses import dataclass

from sudokulab import annealing, backtracking, bench, datasets, projections

import checker


@dataclass(frozen=True)
class Puzzle:
    suite: str
    index: int
    board: tuple[int, ...]
    mask: tuple[bool, ...]

    @property
    def label(self) -> str:
        return f"{self.suite}#{self.index}"


@dataclass(frozen=True)
class Op:
    kind: str            # "solve" | "verify" | "anneal" | "project"
    puzzle: Puzzle
    seed: int = 0        # annealing chain seed; unused by the other kinds

    @property
    def label(self) -> str:
        suffix = f" seed {self.seed}" if self.kind == "anneal" else ""
        return f"{self.kind} {self.puzzle.label}{suffix}"


SUITES = ("easy", "medium", "hard")


@dataclass(frozen=True)
class Workload:
    name: str
    module: str                  # the sudokulab solver module it runs
    suites: tuple[str, ...]      # suite files loaded during set-up
    kinds: tuple[str, ...]       # operations made on each puzzle
    chain_seeds: tuple[int, ...]
    hard: tuple[int, ...]        # hard puzzles kept; easy and medium are all kept
    min_rounds: int              # guarantees the tail percentile ten samples beyond it
    probe: str                   # the puzzle a traced run of another workload uses

    def ops(self, puzzles: dict[str, list[Puzzle]], only: str | None = None) -> list[Op]:
        """One round: every operation of the workload, in a fixed order.
        ``only`` keeps the operations on that one puzzle label."""
        chosen = [p for s in ("easy", "medium") if s in puzzles for p in puzzles[s]]
        chosen += [puzzles["hard"][i] for i in self.hard]
        return [
            Op(kind, p, seed)
            for p in chosen
            if only is None or p.label == only
            for kind in self.kinds
            for seed in self.chain_seeds
        ]

    def tail_percentile(self, ops_per_round: int) -> int:
        """The highest whole percentile with at least ten samples beyond it
        at the fewest samples a run makes.  Whole rounds keep the mix of
        operations fixed, so this picks the same operations in every run."""
        n = ops_per_round * self.min_rounds
        return (100 * (n - 10)) // n


WORKLOADS = {
    "exact": Workload(
        "exact", "backtracking", SUITES, ("solve", "verify"), (0,),
        hard=(0, 1, 2, 3, 4), min_rounds=3, probe="hard#4",
    ),
    "anneal": Workload(
        "anneal", "annealing", ("easy", "medium"), ("anneal",), (0, 1, 2, 3, 4),
        hard=(), min_rounds=1, probe="easy#0",
    ),
    "project": Workload(
        "project", "projections", SUITES, ("project",), (0,),
        hard=(1, 4), min_rounds=2, probe="medium#3",
    ),
}


def load_puzzles(suites) -> dict[str, list[Puzzle]]:
    """Load and parse the bundled suites through the package's own loader."""
    out = {}
    for name in suites:
        suite = bench.load_suite(datasets.suite_path(name), name)
        out[name] = [Puzzle(name, pid, board, mask) for pid, board, mask in suite.puzzles]
    return out


def bind(op: Op):
    """A zero-argument call of the operation's public entry point.  Config
    objects are built here, outside the timed call."""
    b, m = op.puzzle.board, op.puzzle.mask
    if op.kind == "solve":
        return lambda: backtracking.solve(b, m)
    if op.kind == "verify":
        return lambda: backtracking.enumerate_solutions(b, m, cap=2)
    if op.kind == "anneal":
        cfg = annealing.AnnealConfig(seed=op.seed)
        return lambda: annealing.anneal(b, m, cfg)
    if op.kind == "project":
        return lambda: projections.solve_by_projection(b, m)
    raise ValueError(f"unknown operation kind {op.kind!r}")


@dataclass(frozen=True)
class Outcome:
    work: int | None          # nodes / iterations / sweeps; None for verify
    gave_up: bool             # the solver reported no solution
    fault: str | None         # why a returned answer is wrong


def judge(op: Op, result, reference: list[tuple[int, ...]]) -> Outcome:
    """Check one result against the independent ``reference`` solutions of
    its puzzle.  The bundled puzzles are unique, so every method must
    return exactly the reference board."""
    puzzle = op.puzzle.board
    if op.kind == "verify":
        boards = tuple(result)
        expected = min(2, len(reference))
        if len(boards) != expected:
            return Outcome(None, False, f"verify counted {len(boards)}, expected {expected}")
        for board in boards:
            fault = checker.board_fault(board, puzzle)
            if fault is None and board not in reference:
                fault = "solution missing from the independent enumeration"
            if fault:
                return Outcome(None, False, fault)
        if len(set(boards)) != len(boards):
            return Outcome(None, False, "verify returned a solution twice")
        return Outcome(None, False, None)

    board = tuple(result.board)
    if not result.solved:
        return Outcome(result.work, True, None)
    fault = checker.board_fault(board, puzzle)
    if fault is None and op.kind == "anneal":
        fault = checker.digit_count_fault(board)
    if fault is None and board != reference[0]:
        fault = "board differs from the unique independent solution"
    return Outcome(result.work, False, fault)


def count_search(puzzle: Puzzle, cap: int) -> tuple[int, int]:
    """(placement attempts, feasible placements) of the static-order search,
    counted through the public ``trace`` hook of ``enumerate_solutions``.
    At cap 1 this is the search ``backtracking.solve`` makes."""
    attempts = feasible = 0

    def hook(prefix: str, ok: bool) -> None:
        nonlocal attempts, feasible
        attempts += 1
        feasible += ok

    backtracking.enumerate_solutions(puzzle.board, puzzle.mask, cap=cap, trace=hook)
    return attempts, feasible

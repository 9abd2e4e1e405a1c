#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 benchmark/selftest.py

Shows that the independent checker rejects a board with one digit changed,
a board with a dropped clue, a relabelled board that breaks a clue and a
wrong ``verify`` count, then runs each workload on one operation through
the same timing and checking path as a full run.  Exits 0 when every check
holds and 1 otherwise.
"""
from __future__ import annotations

import random
import sys

import run


def main() -> int:
    run.use_checkout_source()
    import checker
    import workloads
    from sudokulab import SolveReport, datasets, parse_puzzle

    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    puzzles = workloads.load_puzzles(workloads.SUITES)
    puzzle = puzzles["easy"][0]
    references = {p.label: checker.all_solutions(p.board)
                  for suite in puzzles.values() for p in suite}
    reference = references[puzzle.label]
    solution = reference[0]
    expect(all(len(r) == 1 for r in references.values()),
           "every bundled puzzle has exactly one independent solution")
    sample, _ = parse_puzzle(datasets.SAMPLE_PUZZLE_LINE)
    expect(len(checker.all_solutions(sample)) == 12, "the sample board has 12 completions")
    expect(checker.board_fault(solution, puzzle.board) is None, "the reference solution passes")

    free = puzzle.board.index(0)
    changed = list(solution)
    changed[free] = changed[free] % 9 + 1
    expect(checker.board_fault(changed, puzzle.board) is not None, "one changed digit is rejected")
    expect(checker.digit_count_fault(changed) is not None, "one changed digit breaks the digit count")

    clue = next(i for i, d in enumerate(puzzle.board) if d)
    dropped = list(solution)
    dropped[clue] = 0
    expect(checker.board_fault(dropped, puzzle.board) is not None, "a dropped clue is rejected")

    a, b = solution[clue], solution[clue] % 9 + 1
    relabelled = tuple(b if d == a else a if d == b else d for d in solution)
    fault = checker.board_fault(relabelled, puzzle.board)
    expect(fault is not None and fault.startswith("clue"),
           "a valid board that breaks a clue is rejected")

    verify = workloads.Op("verify", puzzle)
    expect(workloads.judge(verify, [solution], reference).fault is None,
           "the right verify count passes")
    expect(workloads.judge(verify, [], reference).fault is not None, "verify count 0 is rejected")
    expect(workloads.judge(verify, [solution, solution], reference).fault is not None,
           "verify count 2 on a unique puzzle is rejected")

    for kind in ("solve", "anneal", "project"):
        report = SolveReport(kind, True, tuple(changed), 0.0, 1)
        expect(workloads.judge(workloads.Op(kind, puzzle), report, reference).fault is not None,
               f"a wrong {kind} board claimed as solved is rejected")

    for wl in workloads.WORKLOADS.values():
        op = wl.ops(puzzles)[0]
        samples, _ = run.run_rounds([op], references, random.Random(0), 0, 1)
        expect(len(samples) == 1 and samples[0].failed is None,
               f"{wl.name}: {op.label} runs and passes its check")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

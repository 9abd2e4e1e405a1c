#!/usr/bin/env python3
"""Print, anew, the work count and the board of every operation of one round.

    python3 benchmark/work_counts.py [exact] [anneal] [project]

One tab-separated line per operation, in each workload's fixed order:
workload, operation, work, solved, board.  Work is the node count for
``solve`` (``SolveReport.work``), the iterations for ``anneal`` and the
sweeps for ``project``.  For ``verify``, which reports no work, it is the
placement attempts and feasible placements counted through the public
``trace`` hook, and the board column holds every solution found.

Nothing is timed and nothing is stored: run this at two commits and diff
the outputs to show that a speed change kept the trajectory (the same
boards and the same work counts for the same seeds).
"""
from __future__ import annotations

import sys

import run


def main(names: list[str]) -> int:
    run.use_checkout_source()
    import workloads
    from sudokulab.board import render_board

    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        for op in wl.ops(workloads.load_puzzles(wl.suites)):
            result = workloads.bind(op)()
            if op.kind == "verify":
                attempts, feasible = workloads.count_search(op.puzzle, 2)
                work, solved = f"{attempts}/{feasible}", str(len(result))
                boards = " ".join(render_board(b, "line") for b in result)
            else:
                work, solved = str(result.work), str(result.solved)
                boards = render_board(result.board, "line")
            print("\t".join((name, op.label, work, solved, boards)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Mutation check: every mutant in ``MUTANTS`` must make its tests fail.

    python3 scripts/mutants.py

A mutant is one exact edit of one file: its old text, which must occur
exactly once, becomes its new text.  For each mutant the script extracts the
committed tree (``git archive HEAD``, so commit before running) into a fresh
temporary directory, applies the edit there and runs ``pytest -x -q`` on the
mutant's test files with that copy's ``src`` first on ``PYTHONPATH``.  The
mutant is killed when pytest reports a failed test (exit code 1).  The script
prints one line per mutant and a summary line, and exits 1 if a mutant
survives, pytest cannot run its tests, or an old text does not occur exactly
once; 0 otherwise.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str                # file to edit, relative to the repo root
    old: str                 # exact text, which must occur once in the file
    new: str
    tests: tuple[str, ...]   # test files that must fail on the mutant


MUTANTS = (
    Mutant("raw input: float type test dropped", "src/sudokulab/board.py",
           " or set(map(type, puzzle)) != _INT:", ":",
           ("tests/test_bench.py",)),
    Mutant("raw input: whole puzzle returned, not its clue cells", "src/sudokulab/board.py",
           "    return tuple(d if c else 0 for d, c in zip(puzzle, clue_mask))", "    return puzzle",
           ("tests/test_board.py", "tests/test_bench.py")),
    Mutant("clue check: subgrid term dropped", "src/sudokulab/board.py",
           "(used[u0] | used[u1] | used[u2]) & bit", "(used[u0] | used[u1]) & bit",
           ("tests/test_board.py",)),
    Mutant("geometry: subgrid row term unscaled", "src/sudokulab/board.py",
           "18 + i // 27 * 3 + i % 9 // 3", "18 + i // 27 + i % 9 // 3",
           ("tests/test_board.py",)),
    Mutant("candidates: getter drops the subgrid unit", "src/sudokulab/board.py",
           "for u in CELL_UNITS[i] for j in UNITS[u])) for i in range(81)]",
           "for u in CELL_UNITS[i][:2] for j in UNITS[u])) for i in range(81)]",
           ("tests/test_board.py", "tests/test_backtracking.py")),
    Mutant("search order: cells left unsorted", "src/sudokulab/backtracking.py",
           "    entries.sort()", "    pass",
           ("tests/test_backtracking.py",)),
    Mutant("exact search: unit masks not restored", "src/sudokulab/backtracking.py",
           "        used[u0], used[u1], used[u2] = a, b, c\n", "",
           ("tests/test_backtracking.py",)),
    Mutant("exact search: lacking-digit table indexed unshifted", "src/sudokulab/backtracking.py",
           "_LACKING[taken >> 1]", "_LACKING[taken]",
           ("tests/test_backtracking.py",)),
    Mutant("exact search: second step's unit masks not restored", "src/sudokulab/backtracking.py",
           "            used[v0], used[v1], used[v2] = a2, b2, c2\n", "",
           ("tests/test_backtracking.py",)),
    Mutant("exact search: inner success count drops the first step's attempts", "src/sudokulab/backtracking.py",
           "digits2.index(e) + 1 + digits.index(d) + 1", "digits2.index(e) + 1",
           ("tests/test_backtracking.py",)),
    Mutant("exact search: the hook is told every listed digit is feasible", "src/sudokulab/backtracking.py",
           "trace(grown, not taken >> d & 1)", "trace(grown, True)",
           ("tests/test_backtracking.py",)),
    Mutant("exact search: the second step's traced loop places a rejected digit", "src/sudokulab/backtracking.py",
           "                    if taken2 >> e & 1:\n                        continue\n", "",
           ("tests/test_backtracking.py",)),
    Mutant("annealing: draw table not rebuilt after an accepted swap", "src/sudokulab/annealing.py",
           "                cum[:] = accumulate(fw)\n", "",
           ("tests/test_annealing.py",)),
    Mutant("annealing: refresh re-weighs only the cells holding da", "src/sudokulab/annealing.py",
           "if d == da or d == db:", "if d == da:",
           ("tests/test_annealing.py",)),
    Mutant("annealing: chain runs on past cost 0", "src/sudokulab/annealing.py",
           "    while cost and n < max_iters:\n", "    while n < max_iters:\n",
           ("tests/test_annealing.py",)),
    Mutant("annealing: temperature never reset", "src/sudokulab/annealing.py",
           "steps = n - reset_at if n >= reset_at else n", "steps = n",
           ("tests/test_annealing.py",)),
    Mutant("annealing: swap guard raises for a solved fill", "src/sudokulab/annealing.py",
           "if nfree < 2 and cost:", "if nfree < 2:",
           ("tests/test_annealing.py",)),
    Mutant("annealing: fill swapped between clues and free cells", "src/sudokulab/annealing.py",
           "d if c else next(fill)", "next(fill) if c else d",
           ("tests/test_annealing.py",)),
    Mutant("annealing: refresh skips b's neighbourhood", "src/sudokulab/annealing.py",
           "(near[a], near[b])", "(near[a],)",
           ("tests/test_annealing.py",)),
    Mutant("annealing: neighbourhood drops the subgrid", "src/sudokulab/annealing.py",
           "for u in cell_units[i] for j", "for u in cell_units[i][:2] for j",
           ("tests/test_annealing.py",)),
    Mutant("bench: no fresh-pool retry of a lost run", "src/sudokulab/bench.py",
           "_pooled([a], 1)[0] if workers > 1 else ", "",
           ("tests/test_bench.py",)),
    Mutant("projection: slice families reversed", "src/sudokulab/projections.py",
           '_FAMILIES = ("row", "column", "subgrid", "cell")', '_FAMILIES = ("cell", "subgrid", "column", "row")',
           ("tests/test_projections.py",)),
    Mutant("projection: sweep projects without the fixed members' pad", "src/sudokulab/projections.py",
           "project_simplex(y + fam.pad)", "project_simplex(y)",
           ("tests/test_projections.py",)),
    Mutant("projection: solved test takes any in place of all", "src/sudokulab/projections.py",
           "== 511.0).all())", "== 511.0).any())",
           ("tests/test_projections.py",)),
    Mutant("projection: solved test's incidence drops the subgrids", "src/sudokulab/projections.py",
           "np.eye(81)[_UNITS].sum(axis=1)", "np.eye(81)[_UNITS[:18]].sum(axis=1)",
           ("tests/test_projections.py",)),
    Mutant("projection: simplex threshold drops the minus one", "src/sudokulab/projections.py",
           "    thr -= 1.0\n", "",
           ("tests/test_projections.py",)),
    Mutant("projection: simplex check rejects only all-absent points", "src/sudokulab/projections.py",
           "if not math.isfinite(tau.sum()):", "if w[:, 0].min() == -np.inf:",
           ("tests/test_projections.py",)),
    Mutant("projection: rounding not tested before each sweep", "src/sudokulab/projections.py",
           "while not _rounds_solved(tensor) and ", "while ",
           ("tests/test_projections.py",)),
    Mutant("projection: slice table holds family ids, not slice ids", "src/sudokulab/projections.py",
           "_SLICE_OF[_MEMBERS, np.arange(324)[:, None] // 81] = np.arange(324)[:, None]\n",
           "_SLICE_OF[_MEMBERS, np.arange(324)[:, None] // 81] = np.arange(324)[:, None] // 81\n",
           ("tests/test_projections.py",)),
    Mutant("projection: config int check dropped", "src/sudokulab/projections.py",
           "        if type(self.max_sweeps) is not int:   # NaN, 2.5 or True would pass the test below\n"
           "            raise ValueError(\"max_sweeps must be an int\")\n", "",
           ("tests/test_projections.py",)),
    Mutant("annealing: config int check dropped", "src/sudokulab/annealing.py",
           "        if {type(self.cooling_period), type(self.max_iterations), type(self.reset_at), type(self.seed)} != {int}:\n"
           "            raise ValueError(\"cooling_period, max_iterations, reset_at and seed must be ints\")\n", "",
           ("tests/test_annealing.py",)),
    Mutant("projection: config _make unchecked", "src/sudokulab/projections.py",
           "    @classmethod\n    def _make(cls, iterable) -> \"ProjectionConfig\":\n"
           "        return cls(*iterable)   # checked; _replace builds through here too\n", "",
           ("tests/test_projections.py",)),
    Mutant("annealing: config _make unchecked", "src/sudokulab/annealing.py",
           "    @classmethod\n    def _make(cls, iterable) -> \"AnnealConfig\":\n"
           "        return cls(*iterable)   # checked; _replace builds through here too\n", "",
           ("tests/test_annealing.py",)),
    Mutant("cli: bench output paths not checked before the runs", "src/sudokulab/cli.py",
           "        if Path(path).is_dir() or not Path(path).parent.is_dir():\n", "        if False:\n",
           ("tests/test_cli.py",)),
    Mutant("bench: claimed solutions not re-checked", "src/sudokulab/bench.py",
           'report = report._replace(solved=False, note="failed independent re-check")', "pass",
           ("tests/test_bench.py",)),
    Mutant("bench: process pool imported at the top", "src/sudokulab/bench.py",
           "from typing import NamedTuple\n", "from concurrent.futures import ProcessPoolExecutor\nfrom typing import NamedTuple\n",
           ("tests/test_cli.py",)),
    Mutant("exact search: cap type check dropped", "src/sudokulab/backtracking.py",
           "if type(cap) is not int or cap < 1:", "if cap < 1:",
           ("tests/test_backtracking.py",)),
    Mutant("bench: job count type check dropped", "src/sudokulab/bench.py",
           "if type(jobs) is not int or jobs < 1:", "if jobs < 1:",
           ("tests/test_bench.py",)),
    Mutant("cli: one file taken for both bench output paths", "src/sudokulab/cli.py",
           "if len({Path(p).resolve() for p in paths}) < len(paths):", "if False:",
           ("tests/test_cli.py",)),
    Mutant("annealing: negative seed accepted", "src/sudokulab/annealing.py",
           "        if self.seed < 0:", "        if False:",
           ("tests/test_annealing.py",)),
    Mutant("cli: a puzzle may come inline and from --input at once", "src/sudokulab/cli.py",
           "source = sub.add_mutually_exclusive_group(required=True)", "source = sub",
           ("tests/test_cli.py",)),
    Mutant("cli: verify exits 0 for any solution count but none", "src/sudokulab/cli.py",
           "0 if count == 1 else 1", "0 if count else 1",
           ("tests/test_cli.py",)),
    Mutant("bench: annealing loaded for every method list", "src/sudokulab/bench.py",
           'if "annealing" in methods:', "if True:",
           ("tests/test_cli.py",)),
    Mutant("report: dataclasses imported at the top", "src/sudokulab/report.py",
           "from typing import NamedTuple\n", "from dataclasses import dataclass\nfrom typing import NamedTuple\n",
           ("tests/test_cli.py",)),
    Mutant("annealing: reset_at below 1 accepted", "src/sudokulab/annealing.py",
           "if not 1 <= self.reset_at <= self.max_iterations:", "if not self.reset_at <= self.max_iterations:",
           ("tests/test_annealing.py",)),
    Mutant("search order: ties broken by descending index", "src/sudokulab/backtracking.py",
           "    entries.sort()", "    entries.sort(key=lambda e: (e[0], -e[1]))",
           ("tests/test_backtracking.py",)),
    Mutant("bench: a repeated method runs twice", "src/sudokulab/bench.py",
           "        if methods.count(method) > 1:", "        if False:",
           ("tests/test_bench.py",)),
)


def run(mutant: Mutant, archive: bytes) -> str:
    """``killed``, ``SURVIVED`` or the reason the mutant could not be tried."""
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        target = Path(tmp) / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"ERROR: old text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return f"ERROR: pytest exit code {proc.returncode}: {last[0]}"


def main() -> int:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD"], check=True, capture_output=True).stdout
    outcomes = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcomes.append(run(mutant, archive))
        print(f"{outcomes[-1]:<9} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    killed = outcomes.count("killed")
    print(f"mutants: {killed} of {len(MUTANTS)} killed, {outcomes.count('SURVIVED')} survived, "
          f"{len(MUTANTS) - killed - outcomes.count('SURVIVED')} not tried")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

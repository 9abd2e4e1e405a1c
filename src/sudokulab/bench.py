"""Benchmark harness: run solver methods over puzzle suites, re-check every
claimed solution independently, and summarize success rates and timings."""
from __future__ import annotations

import csv
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import annealing, backtracking
from .board import Board, ClueMask, clues_respected, is_solved, parse_puzzle, PuzzleError
from .report import SolveReport

METHODS = ("backtracking", "annealing", "projection")

REPORTS_HEADER = "suite,puzzle_id,method,solved,wall_time_s,work,final_cost,note"
STATS_HEADER = "suite,method,success_rate,min_s,median_s,mean_s,max_s"


@dataclass(frozen=True)
class PuzzleSuite:
    name: str
    puzzles: tuple[tuple[int, Board, ClueMask], ...]

    def __len__(self) -> int:
        return len(self.puzzles)


@dataclass(frozen=True)
class BenchRecord:
    suite: str
    puzzle_id: int
    report: SolveReport


@dataclass(frozen=True)
class SummaryStats:
    suite: str
    method: str
    success_rate: float
    time_min: float | None
    time_median: float | None
    time_mean: float | None
    time_max: float | None


def load_suite(path, name: str) -> PuzzleSuite:
    """One line-format puzzle per line; '#' comments and blank lines ignored."""
    puzzles = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                board, mask = parse_puzzle(stripped)
            except PuzzleError as exc:
                raise PuzzleError(f"{path}:{lineno}: {exc}") from exc
            puzzles.append((len(puzzles), board, mask))
    return PuzzleSuite(name=name, puzzles=tuple(puzzles))


def solve(method: str, puzzle: Board, mask: ClueMask, config=None) -> SolveReport:
    """Run one method on one puzzle.  ``config`` is the method's config
    object (``AnnealConfig`` or ``ProjectionConfig``), None for its
    defaults; backtracking takes none."""
    if method == "backtracking":
        return backtracking.solve(puzzle, mask)
    if method == "annealing":
        return annealing.anneal(puzzle, mask, config)
    if method == "projection":
        from . import projections  # the only solver that needs numpy

        return projections.solve_by_projection(puzzle, mask, config)
    raise ValueError(f"unknown method {method!r}")


def _guarded(args, run) -> SolveReport:
    """``run()``, with an exception turned into an unsolved report, so one
    crashing run or one dead pool worker cannot abort the bench."""
    try:
        return run()
    except Exception as exc:
        note = f"error: {type(exc).__name__}: {exc}"
        return SolveReport(args[2], False, args[0], 0.0, 0, note=note)


def _run_job(args) -> SolveReport:
    """One bench run."""
    puzzle, mask, method, config = args
    return _guarded(args, lambda: solve(method, puzzle, mask, config))


def run_bench(
    suite: PuzzleSuite,
    methods=METHODS,
    base_seed: int = 0,
    jobs: int = 1,
) -> list[BenchRecord]:
    """One report per (puzzle, method), each with its method's default config;
    annealing is seeded with base_seed + puzzle index, whatever the run order.
    Every claimed solution is re-checked here; a board failing the check
    is demoted to unsolved rather than trusted."""
    if not suite.puzzles or not methods:
        raise ValueError("suite and methods must be nonempty")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    tasks = [
        (pid, puzzle, mask, method)
        for method in methods
        for pid, puzzle, mask in suite.puzzles
    ]
    job_args = [
        (p, m, meth, annealing.AnnealConfig(seed=base_seed + pid) if meth == "annealing" else None)
        for pid, p, m, meth in tasks
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # a dead worker breaks the pool: every unfinished job and any later
            # submission raise BrokenProcessPool, and each becomes an error
            # report; none is retried, since one of them killed the worker
            runs = [_guarded(a, lambda: pool.submit(_run_job, a)) for a in job_args]
            reports = [r if isinstance(r, SolveReport) else _guarded(a, r.result) for r, a in zip(runs, job_args)]
    else:
        reports = [_run_job(a) for a in job_args]

    records = []
    for (pid, puzzle, mask, method), report in zip(tasks, reports):
        if report.solved and not (
            is_solved(report.board) and clues_respected(report.board, puzzle, mask)
        ):
            report = replace(report, solved=False, note="failed independent re-check")
        records.append(BenchRecord(suite.name, pid, report))
    return records


def summarize(records: list[BenchRecord]) -> list[SummaryStats]:
    """Per (suite, method) success rate plus timing stats over solved runs
    only; the median of an even count is the mean of the middle pair."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, str], list[BenchRecord]] = {}
    for rec in records:
        groups.setdefault((rec.suite, rec.report.method), []).append(rec)
    stats = []
    for (suite, method), recs in groups.items():
        times = sorted(r.report.wall_time for r in recs if r.report.solved)
        rate = len(times) / len(recs)
        if times:
            stats.append(
                SummaryStats(
                    suite,
                    method,
                    rate,
                    min(times),
                    statistics.median(times),
                    statistics.fmean(times),
                    max(times),
                )
            )
        else:
            stats.append(SummaryStats(suite, method, rate, None, None, None, None))
    return stats


def _fmt(t: float | None) -> str:
    return "" if t is None else f"{t:.6f}"


def export_reports_csv(records: list[BenchRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORTS_HEADER.split(","))
        for rec in records:
            writer.writerow(
                [
                    rec.suite,
                    rec.puzzle_id,
                    rec.report.method,
                    "true" if rec.report.solved else "false",
                    f"{rec.report.wall_time:.6f}",
                    rec.report.work,
                    rec.report.final_cost,  # csv writes None as an empty field
                    rec.report.note,
                ]
            )


def export_stats_csv(stats: list[SummaryStats], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_HEADER.split(","))
        for s in stats:
            writer.writerow(
                [
                    s.suite,
                    s.method,
                    f"{s.success_rate:.6f}",
                    _fmt(s.time_min),
                    _fmt(s.time_median),
                    _fmt(s.time_mean),
                    _fmt(s.time_max),
                ]
            )


def format_stats_table(stats: list[SummaryStats]) -> str:
    w = max([10] + [len(s.suite) for s in stats])   # a suite is named after its file
    header = f"{'suite':<{w}} {'method':<13} {'success':>8} {'min_s':>10} {'median_s':>10} {'mean_s':>10} {'max_s':>10}"
    lines = [header]
    for s in stats:
        lines.append(
            f"{s.suite:<{w}} {s.method:<13} {s.success_rate:>8.2f} "
            f"{_fmt(s.time_min) or '-':>10} {_fmt(s.time_median) or '-':>10} "
            f"{_fmt(s.time_mean) or '-':>10} {_fmt(s.time_max) or '-':>10}"
        )
    return "\n".join(lines)

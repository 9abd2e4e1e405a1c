"""Benchmark harness: run solver methods over puzzle suites, re-check every
claimed solution independently, and summarize success rates and timings."""
from __future__ import annotations

from typing import NamedTuple

from .board import Board, ClueMask, clues_respected, is_solved, parse_puzzle, PuzzleError
from .report import SolveReport

METHODS = ("backtracking", "annealing", "projection")

REPORTS_HEADER = "suite,puzzle_id,method,solved,wall_time_s,work,final_cost,note"
STATS_HEADER = "suite,method,success_rate,min_s,median_s,mean_s,max_s"


class PuzzleSuite(NamedTuple):
    name: str
    puzzles: tuple[tuple[int, Board, ClueMask], ...]


class BenchRecord(NamedTuple):
    suite: str
    puzzle_id: int
    report: SolveReport


class SummaryStats(NamedTuple):
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
    defaults; backtracking takes none.  A run imports only the solver it calls."""
    if method == "backtracking":
        from . import backtracking

        return backtracking.solve(puzzle, mask)
    if method == "annealing":
        from . import annealing

        return annealing.anneal(puzzle, mask, config)
    if method == "projection":
        from . import projections  # the only solver that needs numpy

        return projections.solve_by_projection(puzzle, mask, config)
    raise ValueError(f"unknown method {method!r}")


def _failed(args, exc: BaseException) -> SolveReport:
    """The unsolved report of a bench run lost to ``exc``."""
    return SolveReport(args[2], False, args[0], 0.0, 0, note=f"error: {type(exc).__name__}: {exc}")


def _run_job(args) -> SolveReport:
    """One bench run; an exception becomes an unsolved report, so one
    crashing run cannot abort the bench."""
    puzzle, mask, method, config, _ = args
    try:
        return solve(method, puzzle, mask, config)
    except Exception as exc:
        return _failed(args, exc)


def _pooled(job_args, workers: int) -> list[SolveReport]:
    """The runs' reports from a pool of ``workers`` processes.  A dead worker
    breaks the pool and loses every run still open or submitted after it; in
    a larger pool each lost run gets one more try, alone in a fresh pool, so
    only a run that kills its own worker becomes an error report."""
    from concurrent.futures import Future, ProcessPoolExecutor  # loads multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = []
        for a in job_args:
            try:
                futures.append(pool.submit(_run_job, a))
            except BrokenProcessPool as exc:
                futures.append(Future())
                futures[-1].set_exception(exc)
        errors = [f.exception() for f in futures]
    return [
        f.result() if e is None else _pooled([a], 1)[0] if workers > 1 else _failed(a, e)
        for f, e, a in zip(futures, errors, job_args)
    ]


def run_bench(
    suite: PuzzleSuite,
    methods=METHODS,
    base_seed: int = 0,
    jobs: int = 1,
) -> list[BenchRecord]:
    """One report per (puzzle, method), each with its method's default config;
    annealing is seeded with base_seed + puzzle index, whatever the run order.
    ``jobs`` is an int of at least 1; above 1 the runs go to a pool of at
    most one worker per run.
    Every claimed solution is re-checked here; a board failing the check
    is demoted to unsolved rather than trusted."""
    if not suite.puzzles or not methods:
        raise ValueError("suite and methods must be nonempty")
    if type(jobs) is not int or jobs < 1:   # NaN or True would run serially, 2.5 fail in the pool
        raise ValueError(f"jobs must be an int of at least 1, got {jobs!r}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if "annealing" in methods:
        from .annealing import AnnealConfig

    # one job per run: (puzzle, mask, method, config, puzzle id)
    runs = [
        (puzzle, mask, method, AnnealConfig(seed=base_seed + pid) if method == "annealing" else None, pid)
        for method in methods
        for pid, puzzle, mask in suite.puzzles
    ]
    reports = _pooled(runs, min(jobs, len(runs))) if jobs > 1 else [_run_job(run) for run in runs]

    records = []
    for (puzzle, mask, *_, pid), report in zip(runs, reports):
        if report.solved and not (
            is_solved(report.board) and clues_respected(report.board, puzzle, mask)
        ):
            report = report._replace(solved=False, note="failed independent re-check")
        records.append(BenchRecord(suite.name, pid, report))
    return records


def summarize(records: list[BenchRecord]) -> list[SummaryStats]:
    """Per (suite, method) success rate plus timing stats over solved runs
    only; the median of an even count is the mean of the middle pair."""
    import statistics

    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, str], list[BenchRecord]] = {}
    for rec in records:
        groups.setdefault((rec.suite, rec.report.method), []).append(rec)
    stats = []
    for (suite, method), recs in groups.items():
        times = [r.report.wall_time for r in recs if r.report.solved]
        timing = (
            (min(times), statistics.median(times), statistics.fmean(times), max(times))
            if times else (None,) * 4
        )
        stats.append(SummaryStats(suite, method, len(times) / len(recs), *timing))
    return stats


def _fmt(t: float | None) -> str:
    return "" if t is None else f"{t:.6f}"


def _write_csv(path, header: str, rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header.split(","))
        writer.writerows(rows)


def export_reports_csv(records: list[BenchRecord], path) -> None:
    _write_csv(path, REPORTS_HEADER, (
        (rec.suite, rec.puzzle_id, rec.report.method, "true" if rec.report.solved else "false",
         f"{rec.report.wall_time:.6f}", rec.report.work,
         rec.report.final_cost,  # csv writes None as an empty field
         rec.report.note)
        for rec in records
    ))


def export_stats_csv(stats: list[SummaryStats], path) -> None:
    _write_csv(path, STATS_HEADER, (
        (s.suite, s.method, f"{s.success_rate:.6f}",
         _fmt(s.time_min), _fmt(s.time_median), _fmt(s.time_mean), _fmt(s.time_max))
        for s in stats
    ))


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

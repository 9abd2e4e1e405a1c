import csv
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from sudokulab import backtracking
from sudokulab.annealing import AnnealConfig, anneal
from sudokulab.bench import (
    METHODS,
    BenchRecord,
    PuzzleSuite,
    REPORTS_HEADER,
    STATS_HEADER,
    SummaryStats,
    export_reports_csv,
    export_stats_csv,
    format_stats_table,
    load_suite,
    run_bench,
    solve,
    summarize,
)
from sudokulab.board import PuzzleError, clues_respected, is_solved, render_board
from sudokulab.projections import ProjectionConfig
from sudokulab.report import SolveReport


def _write_suite(path, puzzles):
    path.write_text("# header comment\n\n" + "\n".join(puzzles) + "\n")
    return path


class TestLoadSuite:
    def test_bundled_easy(self, easy_suite):
        assert easy_suite.name == "easy"
        assert len(easy_suite) == 10
        assert [pid for pid, _, _ in easy_suite.puzzles] == list(range(10))

    def test_comments_and_blanks_skipped(self, tmp_path, sample):
        board, _ = sample
        line = render_board(board, "line")
        suite = load_suite(_write_suite(tmp_path / "s.txt", [line, "", "# tail", line]), "s")
        assert len(suite) == 2
        assert suite.puzzles[1][1] == board

    def test_error_includes_line_number(self, tmp_path, sample):
        line = render_board(sample[0], "line")
        path = _write_suite(tmp_path / "bad.txt", [line, "." * 80])
        with pytest.raises(PuzzleError, match="bad.txt:4"):
            load_suite(path, "bad")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_suite(tmp_path / "absent.txt", "x")


def _tiny(easy_suite):
    return PuzzleSuite("tiny", easy_suite.puzzles[:3])


class TestRunBench:
    def test_one_record_per_pair(self, easy_suite):
        suite = _tiny(easy_suite)
        records = run_bench(suite)
        assert len(records) == 9
        pairs = {(r.report.method, r.puzzle_id) for r in records}
        assert len(pairs) == 9

    def test_solutions_verified(self, easy_suite):
        suite = _tiny(easy_suite)
        for rec in run_bench(suite):
            _, puzzle, mask = suite.puzzles[rec.puzzle_id]
            if rec.report.solved:
                assert is_solved(rec.report.board)
                assert clues_respected(rec.report.board, puzzle, mask)

    def test_deterministic_boards(self, easy_suite):
        suite = _tiny(easy_suite)

        def boards():
            recs = run_bench(suite, methods=("annealing",), base_seed=5)
            return [(r.puzzle_id, r.report.board, r.report.work) for r in recs]

        assert boards() == boards()

    def test_seed_offsets_by_puzzle_index(self, easy_suite):
        suite = _tiny(easy_suite)
        recs = run_bench(suite, methods=("annealing",), base_seed=7)
        for rec in recs:
            _, puzzle, mask = suite.puzzles[rec.puzzle_id]
            direct = anneal(puzzle, mask, AnnealConfig(seed=7 + rec.puzzle_id))
            assert rec.report.board == direct.board

    def test_recheck_demotes_bad_claims(self, easy_suite, monkeypatch, tmp_path):
        suite = _tiny(easy_suite)

        def liar(args):
            puzzle, mask, method = args[0], args[1], args[2]
            return SolveReport(method, True, puzzle, 0.0, 0)

        monkeypatch.setattr("sudokulab.bench._run_job", liar)
        records = run_bench(suite, methods=("backtracking",))
        assert all(not r.report.solved for r in records)
        assert all(r.report.note == "failed independent re-check" for r in records)
        path = tmp_path / "reports.csv"
        export_reports_csv(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["solved"], r["final_cost"], r["note"]) for r in rows] == [
            ("false", "", "failed independent re-check")
        ] * len(records)

    def test_solver_exception_is_a_per_run_error(self, easy_suite, monkeypatch, tmp_path):
        suite = _tiny(easy_suite)
        methods = ("backtracking", "projection")
        n = len(suite)

        def outcomes(records):
            return [
                (r.puzzle_id, r.report.method, r.report.solved, r.report.board,
                 r.report.work, r.report.final_cost, r.report.note)
                for r in records
            ]

        clean = run_bench(suite, methods=methods)

        def crash(puzzle, mask):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr("sudokulab.backtracking.solve", crash)
        records = run_bench(suite, methods=methods)
        error = "error: RuntimeError: solver crashed"
        assert [(r.report.method, r.report.solved, r.report.note) for r in records[:n]] == [
            ("backtracking", False, error)
        ] * n
        assert outcomes(records[n:]) == outcomes(clean[n:])
        path = tmp_path / "reports.csv"
        export_reports_csv(records, path)
        with open(path, newline="") as fh:
            notes = [row["note"] for row in csv.DictReader(fh)]
        assert notes == [error] * n + [""] * n

    def test_empty_inputs_rejected(self, easy_suite):
        with pytest.raises(ValueError):
            run_bench(PuzzleSuite("empty", ()))
        with pytest.raises(ValueError):
            run_bench(easy_suite, methods=())

    def test_unknown_method_rejected_up_front(self, easy_suite, monkeypatch):
        def no_run(args):
            raise AssertionError("a run started before the methods were checked")

        monkeypatch.setattr("sudokulab.bench._run_job", no_run)
        with pytest.raises(ValueError, match="'bogus'"):
            run_bench(_tiny(easy_suite), methods=("backtracking", "bogus"))

    def test_dead_worker_is_a_per_run_error(self, easy_suite, monkeypatch):
        # a solver that kills its worker process on easy #3 breaks the pool
        # of two; the bench still returns one record per run
        suite = PuzzleSuite("easy", easy_suite.puzzles[:5])
        methods = ("backtracking", "projection")
        doomed = easy_suite.puzzles[3][1]
        real = backtracking.solve

        def dying(puzzle, mask):
            if puzzle == doomed:
                os._exit(1)
            return real(puzzle, mask)

        monkeypatch.setattr("sudokulab.backtracking.solve", dying)
        # forked workers inherit the patched solver, whatever the default start method
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr("sudokulab.bench.ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=fork))
        records = run_bench(suite, methods=methods, jobs=2)
        assert [(r.puzzle_id, r.report.method) for r in records] == [
            (pid, method) for method in methods for pid in range(5)
        ]
        lost = "error: BrokenProcessPool: "
        assert not records[3].report.solved and records[3].report.note.startswith(lost)
        for rec in records:
            _, puzzle, mask = suite.puzzles[rec.puzzle_id]
            if rec.report.solved:
                assert is_solved(rec.report.board) and clues_respected(rec.report.board, puzzle, mask)
            else:
                assert rec.report.note.startswith(lost)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fewer_than_one_job_rejected(self, easy_suite, monkeypatch, jobs):
        def no_run(args):
            raise AssertionError("a run started with an invalid job count")

        monkeypatch.setattr("sudokulab.bench._run_job", no_run)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_bench(_tiny(easy_suite), methods=("backtracking",), jobs=jobs)

    def test_parallel_matches_serial(self, easy_suite):
        suite = _tiny(easy_suite)
        methods = ("backtracking", "projection")
        serial = run_bench(suite, methods=methods, jobs=1)
        parallel = run_bench(suite, methods=methods, jobs=2)
        assert [(r.puzzle_id, r.report.method, r.report.board) for r in serial] == [
            (r.puzzle_id, r.report.method, r.report.board) for r in parallel
        ]


class TestClueConflict:
    """Every method rejects a board whose clues repeat a digit in a unit,
    with the one error of ``board.unit_masks``."""

    @pytest.mark.parametrize("method", METHODS)
    def test_same_error_for_every_method(self, method, sample):
        board, _ = sample
        assert board[1] == 5 and board[5] == 0
        board = board[:5] + (5,) + board[6:]  # a second 5 in row 1, past the parser
        mask = tuple(d != 0 for d in board)
        message = "inconsistent puzzle (clue conflict): digit 5 repeated in a unit of cell (1, 6)"
        with pytest.raises(PuzzleError, match=re.escape(message)):
            solve(method, board, mask)
        (record,) = run_bench(PuzzleSuite("conflict", ((0, board, mask),)), methods=(method,))
        assert not record.report.solved
        assert record.report.note == f"error: PuzzleError: {message}"

    @pytest.mark.parametrize("method, config", [
        ("annealing", AnnealConfig(max_iterations=100, reset_at=100)),
        ("projection", ProjectionConfig(max_sweeps=10)),
    ], ids=["annealing", "projection"])
    def test_empty_cell_marked_as_clue(self, method, config):
        # backtracking never reads the mask, so it is not asked to check it
        mask = (True,) + (False,) * 80
        message = "clue mask marks the empty cell (1, 1) as a clue"
        with pytest.raises(PuzzleError, match=re.escape(message)):
            solve(method, (0,) * 81, mask, config)


def _record(suite, pid, method, solved, t):
    return BenchRecord(suite, pid, SolveReport(method, solved, (0,) * 81, t, 1))


class TestSummarize:
    def test_rate_and_times_over_solved_only(self):
        records = [
            _record("s", 0, "annealing", True, 0.2),
            _record("s", 1, "annealing", True, 0.4),
            _record("s", 2, "annealing", False, 9.9),
            _record("s", 3, "annealing", True, 0.6),
        ]
        (stats,) = summarize(records)
        assert stats.success_rate == pytest.approx(0.75)
        assert stats.time_min == pytest.approx(0.2)
        assert stats.time_median == pytest.approx(0.4)
        assert stats.time_mean == pytest.approx(0.4)
        assert stats.time_max == pytest.approx(0.6)

    def test_even_count_median(self):
        records = [_record("s", i, "m", True, t) for i, t in enumerate([0.1, 0.2, 0.3, 1.0])]
        (stats,) = summarize(records)
        assert stats.time_median == pytest.approx(0.25)

    def test_all_unsolved(self):
        records = [_record("s", i, "m", False, 0.1) for i in range(3)]
        (stats,) = summarize(records)
        assert stats.success_rate == 0.0
        assert stats.time_min is stats.time_median is stats.time_mean is stats.time_max is None

    def test_groups_by_suite_and_method(self):
        records = [
            _record("a", 0, "m1", True, 0.1),
            _record("a", 0, "m2", True, 0.1),
            _record("b", 0, "m1", True, 0.1),
        ]
        keys = {(s.suite, s.method) for s in summarize(records)}
        assert keys == {("a", "m1"), ("a", "m2"), ("b", "m1")}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ordering_invariants(self, easy_suite):
        suite = _tiny(easy_suite)
        records = run_bench(suite)
        for s in summarize(records):
            if s.time_min is None:
                continue
            assert s.time_min <= s.time_median <= s.time_max
            assert s.time_min <= s.time_mean <= s.time_max


class TestCsv:
    def test_reports_header_and_rows(self, tmp_path, easy_suite):
        suite = _tiny(easy_suite)
        records = run_bench(suite, methods=("backtracking",))
        path = tmp_path / "reports.csv"
        export_reports_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == REPORTS_HEADER
        assert len(lines) == 1 + len(records)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for rec, row in zip(records, rows):
            assert row["suite"] == "tiny"
            assert int(row["puzzle_id"]) == rec.puzzle_id
            assert row["solved"] == ("true" if rec.report.solved else "false")
            assert row["wall_time_s"] == f"{rec.report.wall_time:.6f}"
            assert int(row["work"]) == rec.report.work
            assert int(row["final_cost"]) == rec.report.final_cost == 0
            assert row["note"] == ""

    def test_stats_header_and_blanks(self, tmp_path):
        stats = [
            SummaryStats("s", "m", 0.5, 0.1, 0.2, 0.2, 0.3),
            SummaryStats("s", "m2", 0.0, None, None, None, None),
        ]
        path = tmp_path / "stats.csv"
        export_stats_csv(stats, path)
        lines = path.read_text().splitlines()
        assert lines[0] == STATS_HEADER
        assert lines[1] == "s,m,0.500000,0.100000,0.200000,0.200000,0.300000"
        assert lines[2] == "s,m2,0.000000,,,,"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_reports_csv([], path)
        assert path.read_text().splitlines() == [REPORTS_HEADER]
        path = tmp_path / "empty_stats.csv"
        export_stats_csv([], path)
        assert path.read_text().splitlines() == [STATS_HEADER]


def test_format_stats_table():
    stats = [
        SummaryStats("easy", "annealing", 1.0, 0.1, 0.2, 0.2, 0.3),
        SummaryStats("easy", "projection", 0.0, None, None, None, None),
    ]
    text = format_stats_table(stats)
    lines = text.splitlines()
    assert lines[0].split() == ["suite", "method", "success", "min_s", "median_s", "mean_s", "max_s"]
    assert "annealing" in lines[1] and "0.100000" in lines[1]
    assert lines[2].split()[-1] == "-"


def test_format_stats_table_fits_long_suite_names():
    stats = [SummaryStats("suite_medium", "annealing", 1.0, 0.1, 0.2, 0.2, 0.3)]
    header, row = format_stats_table(stats).splitlines()
    assert row.startswith("suite_medium annealing")
    assert len(header) == len(row)

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sudokulab
from sudokulab.annealing import AnnealConfig
from sudokulab.bench import load_suite
from sudokulab.board import is_solved, parse_puzzle, render_board
from sudokulab.cli import run_cli
from sudokulab.datasets import SAMPLE_PUZZLE_LINE, suite_path
from sudokulab.projections import ProjectionConfig
from sudokulab.report import SolveReport

from oracles import unit_scan_solved


def _suite_line(easy_suite, i=0):
    return render_board(easy_suite.puzzles[i][1], "line")


class TestSolve:
    def test_backtracking_line_output(self, capsys, easy_suite):
        line = _suite_line(easy_suite)
        code = run_cli(["solve", "--method", "backtracking", "--line", line])
        out = capsys.readouterr().out.strip()
        assert code == 0
        board, _ = parse_puzzle(out)
        assert unit_scan_solved(board)
        # clue cells survive
        _, puzzle, mask = easy_suite.puzzles[0]
        assert all(board[i] == puzzle[i] for i in range(81) if mask[i])

    def test_grid_output_round_trips(self, capsys):
        code = run_cli(["solve", "--method", "backtracking", SAMPLE_PUZZLE_LINE])
        out = capsys.readouterr().out
        assert code == 0
        assert "+" in out  # grid separators
        board, _ = parse_puzzle(out)
        assert is_solved(board)

    def test_input_file(self, tmp_path, capsys, easy_suite):
        path = tmp_path / "p.txt"
        path.write_text(_suite_line(easy_suite) + "\n")
        code = run_cli(["solve", "--method", "projection", "--line", "--input", str(path)])
        assert code == 0
        assert is_solved(parse_puzzle(capsys.readouterr().out.strip())[0])

    def test_annealing_seed_reproducible(self, capsys, easy_suite):
        line = _suite_line(easy_suite, 1)
        argv = ["solve", "--method", "annealing", "--line", "--seed", "4", line]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first

    def test_solver_failure_exits_1(self, capsys):
        # an over-constrained annealing budget cannot finish
        code = run_cli(
            ["solve", "--method", "annealing", "--max-iters", "10", SAMPLE_PUZZLE_LINE]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "failed" in captured.err

    def test_underflowed_temperature_exits_1(self, capsys):
        # at --cool 0.5 --period 1 the schedule reaches 0.0 at iteration 1,075
        hard = load_suite(suite_path("hard"), "hard")
        line = render_board(hard.puzzles[0][1], "line")
        argv = ["solve", "--method", "annealing", "--cool", "0.5", "--period", "1",
                "--max-iters", "5000", line]
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("annealing failed after 5000 steps")
        assert "Traceback" not in captured.err

    def test_bad_puzzle_exits_2(self, capsys):
        code = run_cli(["solve", "--method", "backtracking", "X" * 81])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_missing_puzzle_exits_2(self):
        assert run_cli(["solve", "--method", "backtracking"]) == 2

    def test_missing_input_file_exits_2(self, tmp_path):
        code = run_cli(
            ["solve", "--method", "backtracking", "--input", str(tmp_path / "nope.txt")]
        )
        assert code == 2

    def test_unknown_method_exits_2(self, capsys):
        assert run_cli(["solve", "--method", "magic", SAMPLE_PUZZLE_LINE]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "projection", "--max-sweeps", "0"],
            ["--method", "annealing", "--cool", "1.5"],
            ["--method", "annealing", "--max-iters", "0"],
        ],
        ids=["max-sweeps-0", "cool-1.5", "max-iters-0"],
    )
    def test_bad_config_exits_2(self, capsys, flags):
        code = run_cli(["solve", *flags, SAMPLE_PUZZLE_LINE])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["solve", "--method", "backtracking", "--frobnicate"]) == 2

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--method", "annealing"], AnnealConfig()),
            (["--method", "annealing", "--seed", "3", "--t0", "50", "--cool", "0.9", "--period", "7"],
             AnnealConfig(initial_temperature=50.0, cooling_factor=0.9, cooling_period=7, seed=3)),
            (["--method", "annealing", "--max-iters", "500"],
             AnnealConfig(max_iterations=500, reset_at=500)),
            (["--method", "annealing", "--max-iters", "150000"],
             AnnealConfig(max_iterations=150_000)),
            (["--method", "projection"], ProjectionConfig()),
            (["--method", "projection", "--max-sweeps", "9", "--tol", "0.5", "--seed", "1"],
             ProjectionConfig(max_sweeps=9, stall_tolerance=0.5)),
            (["--method", "backtracking", "--max-iters", "5", "--max-sweeps", "5"], None),
        ],
        ids=["anneal-defaults", "anneal-flags", "short-cap", "long-cap", "projection-defaults",
             "projection-flags", "backtracking"],
    )
    def test_flags_set_only_their_config_fields(self, monkeypatch, capsys, flags, expected):
        calls = []

        def fake_solve(method, puzzle, mask, config=None):
            calls.append((method, config))
            return SolveReport(method, True, puzzle, 0.0, 0)

        monkeypatch.setattr("sudokulab.bench.solve", fake_solve)
        assert run_cli(["solve", *flags, SAMPLE_PUZZLE_LINE]) == 0
        assert calls == [(flags[1], expected)]


class TestVerify:
    def test_unique(self, capsys, easy_suite):
        code = run_cli(["verify", _suite_line(easy_suite)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "unique"

    def test_multiple(self, capsys):
        code = run_cli(["verify", SAMPLE_PUZZLE_LINE])
        assert code == 1
        assert capsys.readouterr().out.strip() == "multiple"

    def test_unsatisfiable(self, capsys, unsat_puzzle):
        board, _ = unsat_puzzle
        code = run_cli(["verify", render_board(board, "line")])
        assert code == 1
        assert capsys.readouterr().out.strip() == "unsatisfiable"


class TestBench:
    def test_bench_writes_both_csvs(self, tmp_path, capsys, easy_suite):
        suite = tmp_path / "suite.txt"
        suite.write_text("\n".join(_suite_line(easy_suite, i) for i in range(2)) + "\n")
        reports_csv = tmp_path / "runs.csv"
        stats_csv = tmp_path / "stats.csv"
        code = run_cli(
            [
                "bench",
                "--suite", str(suite),
                "--methods", "backtracking,projection",
                "--csv", str(reports_csv),
                "--stats-csv", str(stats_csv),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("suite")
        with open(reports_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"backtracking", "projection"}
        with open(stats_csv, newline="") as fh:
            stats = list(csv.DictReader(fh))
        assert {s["method"] for s in stats} == {"backtracking", "projection"}
        assert all(s["success_rate"] == "1.000000" for s in stats)

    def test_suite_named_after_its_file(self, tmp_path, capsys, easy_suite):
        suite = tmp_path / "picked.txt"
        suite.write_text(_suite_line(easy_suite) + "\n")
        reports_csv = tmp_path / "runs.csv"
        stats_csv = tmp_path / "stats.csv"
        code = run_cli(["bench", "--suite", str(suite), "--methods", "backtracking",
                        "--csv", str(reports_csv), "--stats-csv", str(stats_csv)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "picked"
        for path in (reports_csv, stats_csv):
            with open(path, newline="") as fh:
                assert [row["suite"] for row in csv.DictReader(fh)] == ["picked"]

    def test_bundled_suite_runs(self, capsys):
        code = run_cli(
            ["bench", "--suite", str(suite_path("easy")), "--methods", "backtracking"]
        )
        assert code == 0
        assert "backtracking" in capsys.readouterr().out

    def test_unknown_method_exits_2(self, capsys):
        code = run_cli(["bench", "--suite", str(suite_path("easy")), "--methods", "magic"])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_empty_suite_exits_2(self, tmp_path, capsys):
        suite = tmp_path / "empty.txt"
        suite.write_text("# no puzzles\n")
        code = run_cli(["bench", "--suite", str(suite)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_fewer_than_one_job_exits_2(self, capsys, jobs):
        code = run_cli(["bench", "--suite", str(suite_path("easy")), "--methods", "backtracking",
                        "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: jobs must be at least 1, got {jobs}\n"

    def test_missing_suite_file_exits_2(self, tmp_path):
        assert run_cli(["bench", "--suite", str(tmp_path / "none.txt")]) == 2


def test_cli_and_bench_import_without_numpy():
    # only the projection solver needs numpy, so the other commands skip its import
    src = Path(sudokulab.__file__).resolve().parents[1]
    code = "import sys, sudokulab.cli, sudokulab.bench; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(["dance"]) == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

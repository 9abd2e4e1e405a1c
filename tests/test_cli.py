import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sudokulab
from sudokulab import bench
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

    @pytest.mark.parametrize("command, inline_first", [(["solve", "--method", "backtracking"], False),
                                                        (["verify"], False), (["verify"], True)],
                             ids=["solve", "verify", "verify-inline-first"])
    def test_both_sources_exit_2(self, tmp_path, capsys, command, inline_first):
        # the parser rejects the pair, so neither the sample in the file nor
        # the malformed inline puzzle is read
        path = tmp_path / "p.txt"
        path.write_text(SAMPLE_PUZZLE_LINE + "\n")
        inline, from_file = ["X" * 81], ["--input", str(path)]
        assert run_cli(command + (inline + from_file if inline_first else from_file + inline)) == 2
        assert capsys.readouterr().out == ""

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
            ["--method", "projection", "--tol", "nan"],
            ["--method", "annealing", "--t0", "inf"],
            ["--method", "projection", "--tol", "inf"],
        ],
        ids=["max-sweeps-0", "cool-1.5", "max-iters-0", "tol-nan", "t0-inf", "tol-inf"],
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

    def test_repeated_method_exits_2_before_any_run(self, monkeypatch, capsys):
        def no_job(*args, **kwargs):
            pytest.fail("a run started with a repeated method")

        monkeypatch.setattr("sudokulab.bench._run_job", no_job)
        code = run_cli(["bench", "--suite", str(suite_path("easy")),
                        "--methods", "backtracking,backtracking"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: method 'backtracking' named more than once\n"

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
        assert captured.err == f"error: jobs must be an int of at least 1, got {jobs}\n"

    def test_negative_base_seed_exits_2_before_any_run(self, monkeypatch, capsys):
        def no_job(*args, **kwargs):
            pytest.fail("a run started with a negative seed")

        monkeypatch.setattr("sudokulab.bench._run_job", no_job)
        code = run_cli(["bench", "--suite", str(suite_path("easy")), "--methods", "annealing",
                        "--base-seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: seed must be nonnegative\n"

    def test_missing_suite_file_exits_2(self, tmp_path):
        assert run_cli(["bench", "--suite", str(tmp_path / "none.txt")]) == 2

    @pytest.fixture
    def no_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            pytest.fail("run_bench ran before the output path was checked")

        monkeypatch.setattr("sudokulab.bench.run_bench", no_run)

    @pytest.mark.parametrize("flag, name", [("--csv", "."), ("--stats-csv", "missing/stats.csv")],
                             ids=["csv-directory", "stats-csv-missing-directory"])
    def test_bad_output_path_exits_2_before_any_run(self, tmp_path, no_run, capsys, flag, name):
        code = run_cli(["bench", "--suite", str(suite_path("easy")), "--methods", "annealing",
                        flag, str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path / name}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stats_name", ["out.csv", "./out.csv"])
    def test_one_file_for_both_outputs_exits_2_before_any_run(self, tmp_path, no_run, capsys, stats_name):
        # the stats table would overwrite the run reports
        code = run_cli(["bench", "--suite", str(suite_path("easy")), "--methods", "backtracking",
                        "--csv", str(tmp_path / "out.csv"), "--stats-csv", f"{tmp_path}/{stats_name}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --csv and --stats-csv name the same file")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--csv", "--stats-csv"])
    def test_empty_output_path_exits_2_before_any_run(self, no_run, capsys, flag):
        # an empty path names the working directory, not an unset flag
        code = run_cli(["bench", "--suite", str(suite_path("easy")), "--methods", "backtracking", flag, ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")


def test_cli_and_bench_import_without_numpy():
    # only the projection solver needs numpy, so the other commands skip its import
    src = Path(sudokulab.__file__).resolve().parents[1]
    code = "import sys, sudokulab.cli, sudokulab.bench; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_cold_start_loads_only_what_the_command_uses():
    # the process pool is for bench --jobs >1, statistics and csv for summaries
    # and exports, and each solver for the runs that call it; no path needs
    # dataclasses, and only numpy, on the projection path, loads inspect
    src = Path(sudokulab.__file__).resolve().parents[1]
    code = (
        "import sys, sudokulab.cli, sudokulab.bench\n"
        "names = ('concurrent.futures', 'multiprocessing', 'statistics', 'csv',\n"
        "         'sudokulab.annealing', 'numpy', 'dataclasses', 'inspect')\n"
        "print(sorted(n for n in names if n in sys.modules))\n"
        f"sudokulab.cli.run_cli(['verify', {SAMPLE_PUZZLE_LINE!r}])\n"
        "print('sudokulab.annealing' in sys.modules)\n"
        "import sudokulab.annealing\n"
        "from sudokulab.board import parse_puzzle\n"
        f"puzzle, mask = parse_puzzle({SAMPLE_PUZZLE_LINE!r})\n"
        "cfg = sudokulab.annealing.AnnealConfig(max_iterations=50, reset_at=50)\n"
        "print(sudokulab.bench.solve('annealing', puzzle, mask, cfg).work > 0)\n"
        "print(sorted(n for n in names[-3:] if n in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.splitlines() == ["[]", "multiple", "False", "True", "[]"]


def test_bench_loads_only_the_solvers_it_runs():
    # a backtracking-only bench builds no annealing config, so it never loads annealing
    src = Path(sudokulab.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from sudokulab.cli import run_cli\n"
        f"code = run_cli(['bench', '--suite', {str(suite_path('easy'))!r}, '--methods', 'backtracking'])\n"
        "print(code, sorted(n for n in ('sudokulab.annealing', 'sudokulab.projections') if n in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_benchmark_selftest_passes():
    # the benchmark imports SolveReport and parse_puzzle from the package top
    # level and runs each workload's first operation through its own checker
    selftest = Path(__file__).resolve().parents[1] / "benchmark" / "selftest.py"
    out = subprocess.run([sys.executable, str(selftest)], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "0 problem(s)"


_LINES = [SAMPLE_PUZZLE_LINE] + [
    render_board(board, "line")
    for name in ("easy", "medium") for _, board, _ in load_suite(suite_path(name), name).puzzles
]
_BAD_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e-320")
_FLOATS = st.sampled_from(("0.5", "0.99", "2", "100"))
# each solver flag with its good values; the iteration and sweep caps keep a run short
_SOLVE_FLAGS = {"--max-iters": st.integers(1, 2000), "--max-sweeps": st.integers(1, 50),
                "--seed": st.integers(1, 50), "--period": st.integers(1, 50),
                "--t0": _FLOATS, "--cool": _FLOATS, "--tol": _FLOATS}
_METHODS = ("backtracking", "projection", "backtracking,projection", " projection,",
            "", ",", " , ,", "magic", "backtracking,backtracking")


@st.composite
def _puzzle_text(draw):
    """A bundled puzzle line as it is, or broken so that parsing rejects it."""
    line = draw(st.sampled_from(_LINES))
    if draw(st.booleans()):
        return line
    i = draw(st.integers(0, 80))
    r = i // 9 * 9
    k = next(k for k in range(r, r + 9) if line[k] != ".")  # every bundled row holds a clue
    j = r + (k - r + 1) % 9                                  # another cell of that row
    return draw(st.sampled_from((
        line[:i],                                # too short
        line + "1",                              # too long
        line[:i] + "x" + line[i + 1:],           # illegal character
        line[:j] + line[k] + line[j + 1:],       # a digit repeated in a row
    )))


@st.composite
def _argv(draw, tmp):
    """argv for one command over files it writes in ``tmp``: good or broken
    puzzles, inline or in a good, missing, directory or binary file, bad
    solver flag values, method lists and output paths."""
    command = draw(st.sampled_from(("solve", "verify", "bench")))
    puzzles = draw(st.lists(_puzzle_text(), min_size=1, max_size=2 if command == "bench" else 1))
    (tmp / "in.txt").write_text("\n".join(puzzles) + "\n", encoding="utf-8")
    (tmp / "bin.dat").write_bytes(bytes(range(256)))
    source = str(tmp / draw(st.sampled_from(("in.txt", "in.txt", "in.txt", "none.txt", ".", "bin.dat"))))
    if command == "bench":
        argv = ["bench", "--suite", source, "--methods", draw(st.sampled_from(_METHODS)),
                "--jobs", draw(st.sampled_from(("1", "1", "2", "0", "-1")))]
        for flag in ("--csv", "--stats-csv"):
            out = draw(st.sampled_from((None, None, "out.csv", "", ".", "missing/out.csv", "in.txt/out.csv")))
            if out is not None:
                argv += [flag, out and str(tmp / out)]
        return argv
    argv = [command, *(["--input", source] if draw(st.booleans()) else puzzles)]
    if command == "solve":
        argv += ["--method", draw(st.sampled_from(bench.METHODS))]
        for flag, good in _SOLVE_FLAGS.items():
            # the caps are always set; a set value is a bad number one time in four
            if flag in ("--max-iters", "--max-sweeps") or draw(st.booleans()):
                bad = draw(st.integers(0, 3)) == 0
                argv += [flag, str(draw(st.sampled_from(_BAD_NUMBERS) if bad else good))]
    return argv


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_argv_exits_0_1_or_2(data):
    with tempfile.TemporaryDirectory() as name:
        argv = data.draw(_argv(Path(name)), label="argv")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(["dance"]) == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

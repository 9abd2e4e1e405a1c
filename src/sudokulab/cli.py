"""Command-line entry point: solve, verify, and bench subcommands.

Exit codes: 0 success, 1 solver failure / non-unique verification,
2 usage or input errors.  Results go to stdout, diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench
from .board import parse_puzzle, render_board


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sudokulab")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="solve one puzzle with a chosen method",
        epilog="An unset solver flag keeps the default of AnnealConfig or ProjectionConfig.",
    )
    solve.add_argument("--method", required=True, choices=bench.METHODS)
    _add_puzzle_args(solve)
    solve.add_argument("--line", action="store_true", help="print the result in line format")
    # each flag's dest is the name of the config field it sets
    solve.add_argument("--seed", type=int, help="annealing chain seed")
    solve.add_argument("--max-iters", type=int, dest="max_iterations", help="annealing iteration cap")
    solve.add_argument("--t0", type=float, dest="initial_temperature", help="annealing initial temperature")
    solve.add_argument("--cool", type=float, dest="cooling_factor", help="annealing cooling factor")
    solve.add_argument("--period", type=int, dest="cooling_period", help="proposals per cooling step")
    solve.add_argument("--max-sweeps", type=int, help="projection sweep cap")
    solve.add_argument("--tol", type=float, dest="stall_tolerance", help="projection stall tolerance")

    verify = sub.add_parser("verify", help="check whether a puzzle has a unique solution")
    _add_puzzle_args(verify)

    b = sub.add_parser("bench", help="run a suite through the benchmark harness")
    b.add_argument("--suite", required=True, help="suite file, one 81-char puzzle per line")
    b.add_argument("--methods", default=",".join(bench.METHODS),
                   help="comma-separated method list")
    b.add_argument("--csv", help="write per-run reports CSV here")
    b.add_argument("--stats-csv", help="write summary stats CSV here")
    b.add_argument("--base-seed", type=int, default=0)
    b.add_argument("--jobs", type=int, default=1)
    return parser


def _add_puzzle_args(sub: argparse.ArgumentParser) -> None:
    # argparse exits 2 when neither source, or both, are given
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("puzzle", nargs="?", help="inline 81-character puzzle")
    source.add_argument("--input", help="path to a puzzle file")


def _read_puzzle(args):
    if args.input is None:
        return parse_puzzle(args.puzzle)
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_puzzle(fh.read())


def _solve_config(args):
    """The chosen method's config, with the fields of the flags the user
    set; None when the method takes no config."""
    if args.method == "annealing":
        from .annealing import AnnealConfig as cls
    elif args.method == "projection":
        from .projections import ProjectionConfig as cls
    else:
        return None
    flags = {name: getattr(args, name, None) for name in cls._fields}
    kwargs = {name: value for name, value in flags.items() if value is not None}
    if "max_iterations" in kwargs:
        # a cap below the default reset point moves the reset to the cap
        kwargs["reset_at"] = min(cls._field_defaults["reset_at"], kwargs["max_iterations"])
    return cls(**kwargs)


def _cmd_solve(args) -> int:
    puzzle, mask = _read_puzzle(args)
    report = bench.solve(args.method, puzzle, mask, _solve_config(args))
    if not report.solved:
        print(
            f"{args.method} failed after {report.work} steps"
            + (f" (cost {report.final_cost})" if report.final_cost is not None else ""),
            file=sys.stderr,
        )
        return 1
    print(render_board(report.board, "line" if args.line else "grid"))
    return 0


def _cmd_verify(args) -> int:
    from . import backtracking

    puzzle, mask = _read_puzzle(args)
    count = len(backtracking.enumerate_solutions(puzzle, mask, cap=2))
    print(("unsatisfiable", "unique", "multiple")[count])
    return 0 if count == 1 else 1


def _cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    for path in (p for p in (args.csv, args.stats_csv) if p is not None):
        # checked before the runs, which a failed write would lose
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise OSError(f"cannot write {path}: it is a directory, or its directory is missing")
    suite = bench.load_suite(args.suite, name=Path(args.suite).stem)
    records = bench.run_bench(
        suite, methods=methods, base_seed=args.base_seed, jobs=args.jobs
    )
    stats = bench.summarize(records)
    if args.csv is not None:
        bench.export_reports_csv(records, args.csv)
    if args.stats_csv is not None:
        bench.export_stats_csv(stats, args.stats_csv)
    print(bench.format_stats_table(stats))
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except (ValueError, OSError) as exc:
        # PuzzleError is a ValueError, as are a solver config's out-of-range
        # flag and the empty suite or unknown method that run_bench rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    entry()

import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sudokulab.board import PuzzleError, is_solved, violation_cost
from sudokulab.projections import (
    ProjectionConfig,
    build_constraint_plan,
    project_simplex,
    round_tensor,
    solve_by_projection,
    sweep,
)

from sudokulab import projections
from sudokulab.bench import load_suite
from sudokulab.datasets import suite_path

from oracles import (
    FIXED_ONE,
    FREE,
    brute_force_simplex,
    per_slice_sweep,
    reference_plan,
    reference_simplex,
    solve_all,
)

_FULL = solve_all((0,) * 81, cap=1)[0]

vectors = st.lists(
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=9
).map(np.asarray)


@st.composite
def padded_stacks(draw):
    """(n, d) stacks with -inf padding and at least one present entry per
    row; values drawn partly from a small set, so rows hold ties."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    value = st.one_of(
        st.sampled_from([0.0, 1.0 / 9.0, 0.5, 1.0, -1.0]),
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    )
    y = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    present = np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))).reshape(n, d)
    present[np.arange(n), draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))] = True
    return np.where(present, y, -np.inf)


@st.composite
def drawn_boards(draw):
    """A full board: a solution with its digits relabelled, the same with
    two cells swapped or with two rows of different bands swapped (rows and
    columns stay whole, subgrids repeat digits), or a grid of random digits."""
    kind = draw(st.sampled_from(["relabelled", "swapped", "rows", "random"]))
    if kind == "random":
        return tuple(draw(st.lists(st.integers(1, 9), min_size=81, max_size=81)))
    relabel = draw(st.permutations(range(1, 10)))
    board = [relabel[d - 1] for d in _FULL]
    if kind == "swapped":
        a, b = draw(st.lists(st.integers(0, 80), min_size=2, max_size=2, unique=True))
        board[a], board[b] = board[b], board[a]
    if kind == "rows":
        r = draw(st.integers(0, 8))
        q = (r + 3 * draw(st.integers(1, 2))) % 9
        board[9 * r:9 * r + 9], board[9 * q:9 * q + 9] = board[9 * q:9 * q + 9], board[9 * r:9 * r + 9]
    return tuple(board)


def _bundled(name):
    return load_suite(suite_path(name), name).puzzles


def _indicator(board) -> np.ndarray:
    t = np.zeros((9, 9, 9))
    for i in range(9):
        for j in range(9):
            t[i, j, board[i * 9 + j] - 1] = 1.0
    return t


def _record_sweeps(monkeypatch, sweeper=sweep) -> list[tuple[int, float, int]]:
    """Install a wrapper around ``sweeper`` as ``projections.sweep``, which
    ``solve_by_projection`` calls; the returned list gets one (sweep,
    max_change, rounded_cost) row per sweep, counting from 1."""
    rows = []

    def recording(tensor, plan):
        tensor, max_change = sweeper(tensor, plan)
        rows.append((len(rows) + 1, max_change, violation_cost(round_tensor(tensor))))
        return tensor, max_change

    monkeypatch.setattr(projections, "sweep", recording)
    return rows


def _fixed(plan) -> np.ndarray:
    """Flat mask of the entries that no active slice of the plan lists as free."""
    fixed = np.ones(729, dtype=bool)
    for s in plan.slices:
        fixed[list(s.free)] = False
    return fixed


class TestSimplex:
    def test_centroid_preserved(self):
        y = np.full(9, 1.0 / 9.0)
        assert np.allclose(project_simplex(y), y)

    def test_dominant_coordinate(self):
        out = project_simplex(np.array([10.0, 0.0, 0.0]))
        assert out.tolist() == [1.0, 0.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))

    def test_stack_rows_match_1d(self):
        # each row of a stack, -inf padding dropped, is projected exactly
        # as the 1-d call on its present entries; padding comes out as 0
        rng = np.random.default_rng(7)
        for _ in range(200):
            y = rng.uniform(-3.0, 3.0, (int(rng.integers(1, 12)), 9))
            present = rng.random(y.shape) < 0.7
            present[:, int(rng.integers(9))] = True
            present[0] = True  # one row without padding
            x = project_simplex(np.where(present, y, -np.inf))
            assert x.shape == y.shape
            for row in range(len(y)):
                ref = project_simplex(y[row][present[row]])
                assert x[row][present[row]].tobytes() == ref.tobytes()
                assert np.all(x[row][~present[row]] == 0.0)

    @pytest.mark.parametrize(
        "point",
        [np.float64(1.0), np.zeros((2, 2, 2)), np.zeros((0, 9)), np.zeros((3, 0)),
         np.array([[1.0, 0.0], [-np.inf, -np.inf]]), np.array([np.nan, 1.0]), np.array([np.inf, 0.0]),
         np.array([[1.0, 0.0], [0.5, np.nan]]), np.array([[1.0, 0.0, 0.0], [0.0, np.inf, -1.0]])],
        ids=["0-d", "3-d", "no-rows", "empty-rows", "all-absent-row", "nan", "inf", "nan-row", "inf-row"],
    )
    def test_bad_shapes_rejected(self, point):
        with pytest.raises(ValueError):
            project_simplex(point)

    @given(vectors)
    def test_feasible(self, y):
        x = project_simplex(y)
        assert float(np.sum(x)) == pytest.approx(1.0, abs=1e-9)
        assert np.all(x >= 0.0)

    @given(vectors)
    def test_idempotent(self, y):
        x = project_simplex(y)
        assert np.allclose(project_simplex(x), x, atol=1e-9)

    @given(vectors)
    def test_order_preserved(self, y):
        # the projection is a translate-and-clip, so it cannot swap ranks
        x = project_simplex(y)
        order = np.argsort(y, kind="stable")
        assert np.all(np.diff(x[order]) >= -1e-12)

    @given(vectors, vectors)
    def test_nonexpansive(self, y, z):
        if y.shape != z.shape:
            return
        dist_in = float(np.linalg.norm(y - z))
        dist_out = float(np.linalg.norm(project_simplex(y) - project_simplex(z)))
        assert dist_out <= dist_in + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=7,
        )
    )
    def test_matches_brute_force(self, y):
        y = np.asarray(y)
        assert np.allclose(project_simplex(y), brute_force_simplex(y), atol=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(padded_stacks())
    @example(np.array([[-np.inf, 0.5, -np.inf], [0.2, 0.2, 0.2], [1.0, 1.0, -np.inf]]))
    def test_matches_reference_on_padded_stacks(self, stack):
        # the same floating-point operations as the reference, so the same bytes
        before = stack.tobytes()
        assert project_simplex(stack).tobytes() == reference_simplex(stack).tobytes()
        assert project_simplex(stack[0]).tobytes() == reference_simplex(stack[0]).tobytes()
        assert stack.tobytes() == before   # the kernel writes only into its own buffers

    def test_kkt_threshold(self):
        y = np.array([0.9, 0.6, -0.4])
        x = project_simplex(y)
        # active support {0, 1}: threshold lam = (0.9 + 0.6 - 1) / 2
        assert np.allclose(x, [0.65, 0.35, 0.0])


class TestConstraintPlan:
    def test_empty_puzzle(self):
        tensor, plan = build_constraint_plan((0,) * 81, (False,) * 81)
        assert plan.fixed_count == 0
        assert len(plan.slices) == 324
        assert all(len(s.free) == 9 for s in plan.slices)
        assert [s.kind for s in plan.slices[:81]] == ["row"] * 81
        assert plan.slices[-1].kind == "cell"
        assert tensor.shape == (9, 9, 9) and tensor.dtype == np.float64
        assert np.count_nonzero(tensor) == 0
        assert not _fixed(plan).any()

    def test_single_clue(self):
        board = [0] * 81
        board[0] = 5
        mask = [False] * 81
        mask[0] = True
        tensor, plan = build_constraint_plan(tuple(board), tuple(mask))
        # one fixed one plus 8 + 8 + 8 + 4 fixed zeros
        assert plan.fixed_count == 29
        assert np.flatnonzero(tensor).tolist() == [4]
        assert tensor[0, 0, 4] == 1.0
        fixed = _fixed(plan)
        assert fixed[4] and np.count_nonzero(fixed) == 29
        # the four slices through the fixed one are voided
        assert len(plan.slices) == 320

    def test_full_board(self):
        tensor, plan = build_constraint_plan(_FULL, (True,) * 81)
        assert plan.fixed_count == 729
        assert plan.slices == ()
        assert np.array_equal(tensor, _indicator(_FULL))
        assert _fixed(plan).all()

    def test_conflicting_clues(self):
        board = [0] * 81
        board[0] = board[1] = 5  # same row, contradictory fixes
        mask = [False] * 81
        mask[0] = mask[1] = True
        with pytest.raises(PuzzleError):
            build_constraint_plan(tuple(board), tuple(mask))

    @pytest.mark.parametrize("suite", ["easy", "medium", "hard"])
    def test_matches_reference_on_bundled(self, suite):
        for _, board, mask in _bundled(suite):
            tensor, plan = build_constraint_plan(board, mask)
            status, active = reference_plan(board, mask)
            assert np.array_equal(_fixed(plan), status != FREE)
            assert np.array_equal(tensor.reshape(-1), (status == FIXED_ONE) * 1.0)
            assert plan.fixed_count == np.count_nonzero(status)
            assert [(s.kind, s.members, s.free) for s in plan.slices] == active

    def test_active_slices_hold_no_clue_one(self, sample):
        # sweep writes each family's projection back whole, which returns
        # the non-free members as 0.0: they must hold 0.0 to begin with
        single = (5,) + (0,) * 80, (True,) + (False,) * 80
        puzzles = [(b, m) for name in ("easy", "medium", "hard") for _, b, m in _bundled(name)]
        for board, mask in puzzles + [sample, single]:
            tensor, plan = build_constraint_plan(board, mask)
            flat = tensor.reshape(-1)
            clue_ones = {i * 9 + board[i] - 1 for i in range(81) if mask[i]}
            for fam in plan.families:
                assert np.all(flat[fam.members[fam.pad == -np.inf]] == 0.0)
                assert clue_ones.isdisjoint(fam.members.reshape(-1).tolist())

    def test_free_members_disjoint_from_fixed(self, sample):
        board, mask = sample
        _, plan = build_constraint_plan(board, mask)
        status, _ = reference_plan(board, mask)
        for s in plan.slices:
            assert all(status[m] == FREE for m in s.free)
            assert set(s.free) <= set(s.members)


class TestSweep:
    def test_solution_indicator_is_fixed_point(self):
        tensor = _indicator(_FULL)
        plan = build_constraint_plan((0,) * 81, (False,) * 81)[1]
        _, change = sweep(tensor, plan)
        assert change == pytest.approx(0.0, abs=1e-12)
        assert round_tensor(tensor) == _FULL

    def test_first_sweep_from_origin(self):
        tensor, plan = build_constraint_plan((0,) * 81, (False,) * 81)
        _, change = sweep(tensor, plan)
        # the first row slice moves each entry from 0 to 1/9
        assert change > 0.0
        # every cell distribution was projected last, so it sums to one
        assert np.allclose(tensor.sum(axis=2), 1.0)

    def test_fixed_entries_untouched(self, sample):
        board, mask = sample
        tensor, plan = build_constraint_plan(board, mask)
        before = tensor.copy()
        fixed = _fixed(plan).reshape(9, 9, 9)
        assert np.count_nonzero(fixed) == plan.fixed_count > 0
        for _ in range(3):
            sweep(tensor, plan)
        assert np.array_equal(tensor[fixed], before[fixed])

    @pytest.mark.parametrize("suite", ["easy", "medium", "hard"])
    def test_batched_equals_per_slice(self, suite):
        # bit-identical tensors and max_change, sweep by sweep
        for _, board, mask in _bundled(suite):
            tensor, plan = build_constraint_plan(board, mask)
            ref = tensor.copy()
            for _ in range(25):
                _, change = sweep(tensor, plan)
                _, ref_change = per_slice_sweep(ref, plan)
                assert change == ref_change
                assert tensor.tobytes() == ref.tobytes()


class TestRoundTensor:
    def test_solution_indicator(self):
        assert round_tensor(_indicator(_FULL)) == _FULL

    def test_tie_breaks_to_smallest_digit(self):
        tensor = np.zeros((9, 9, 9))
        tensor[0, 0, 3] = 0.5
        tensor[0, 0, 6] = 0.5
        assert round_tensor(tensor)[0] == 4

    def test_zero_tensor_rounds_to_ones(self):
        assert round_tensor(np.zeros((9, 9, 9))) == (1,) * 81


class TestRoundsSolved:
    """The solved test on the tensor against rounding and ``is_solved``."""

    def test_matches_is_solved_of_rounding(self):
        assert projections._rounds_solved(_indicator(_FULL))
        assert not projections._rounds_solved(np.zeros((9, 9, 9)))   # all ties: digit 1 everywhere
        latin = tuple((r + c) % 9 + 1 for r in range(9) for c in range(9))   # its subgrids repeat digits
        assert not projections._rounds_solved(_indicator(latin))
        seen = set()
        for name in ("easy", "medium", "hard"):
            for _, board, mask in _bundled(name):
                tensor, plan = build_constraint_plan(board, mask)
                for _ in range(300):   # hard #0, #2 and #3 never round to a solution
                    solved = is_solved(round_tensor(tensor))
                    assert projections._rounds_solved(tensor) == solved
                    seen.add(solved)
                    if solved:
                        break
                    sweep(tensor, plan)
        assert seen == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(drawn_boards())
    def test_matches_is_solved_on_drawn_boards(self, board):
        assert projections._rounds_solved(_indicator(board)) == is_solved(board)


class TestConfig:
    BAD = [
        {"max_sweeps": 0},
        {"max_sweeps": -1},
        {"stall_tolerance": -1.0},
        {"stall_tolerance": float("nan")},
        {"max_sweeps": float("nan")},
        {"max_sweeps": 2.5},
        {"max_sweeps": True},
    ]

    @pytest.mark.parametrize("kwargs", BAD)
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ProjectionConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", BAD)
    def test_replace_and_make_reject_bad_values(self, kwargs):
        # a bare NamedTuple's _make and _replace skip __new__ and its checks
        with pytest.raises(ValueError) as made:
            ProjectionConfig(**kwargs)
        message = f"^{re.escape(str(made.value))}$"
        with pytest.raises(ValueError, match=message):
            ProjectionConfig(max_sweeps=5)._replace(**kwargs)
        with pytest.raises(ValueError, match=message):
            ProjectionConfig._make({**ProjectionConfig()._asdict(), **kwargs}.values())

    def test_pickle_round_trip(self):
        cfg = ProjectionConfig(max_sweeps=40, stall_tolerance=1e-6)
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and type(back) is ProjectionConfig


class TestSolveByProjection:
    def test_full_board_zero_sweeps(self):
        report = solve_by_projection(_FULL, (True,) * 81)
        assert report.solved and report.work == 0 and report.board == _FULL

    def test_one_missing_cell(self):
        board = list(_FULL)
        board[40] = 0
        mask = tuple(d != 0 for d in board)
        report = solve_by_projection(tuple(board), mask)
        assert report.solved
        assert report.board == _FULL
        assert report.work <= 2

    def test_solves_bundled_easy(self, easy_suite):
        for _, board, mask in easy_suite.puzzles[:3]:
            report = solve_by_projection(board, mask)
            assert report.solved
            assert is_solved(report.board)
            assert report.final_cost == 0

    def test_deterministic(self, easy_suite):
        _, board, mask = easy_suite.puzzles[0]
        r1 = solve_by_projection(board, mask)
        r2 = solve_by_projection(board, mask)
        assert (r1.board, r1.work, r1.solved) == (r2.board, r2.work, r2.solved)

    def test_sweep_cap(self, medium_suite):
        _, board, mask = medium_suite.puzzles[0]
        report = solve_by_projection(board, mask, ProjectionConfig(max_sweeps=1))
        assert report.work <= 1

    def test_diagnostics_rows(self, easy_suite, monkeypatch):
        _, board, mask = easy_suite.puzzles[0]
        diag = _record_sweeps(monkeypatch)
        report = solve_by_projection(board, mask)
        assert len(diag) == report.work
        sweeps = [row[0] for row in diag]
        assert sweeps == list(range(1, report.work + 1))
        # rounded cost reaches zero exactly when the solver reports success
        assert (diag[-1][2] == 0) == report.solved

    @pytest.mark.parametrize("suite", ["easy", "medium"])
    def test_matches_per_slice_solve(self, suite, monkeypatch):
        puzzles = _bundled(suite)
        runs = []
        for sweeper in (sweep, per_slice_sweep):
            diag = _record_sweeps(monkeypatch, sweeper)
            run = []
            for _, board, mask in puzzles:
                report = solve_by_projection(board, mask)
                run.append((report.board, report.work, report.solved, diag[:]))
                diag.clear()
            runs.append(run)
        assert runs[0] == runs[1]

    def test_frozen_trajectory(self):
        # (solved, sweeps, final_cost) at the default config on all 25 bundled
        # puzzles, frozen so that a change to the trajectory fails here
        easy = [10, 23, 2, 5, 8, 24, 5, 4, 6, 3]
        medium = [52, 17, 23, 129, 24, 33, 49, 90, 17, 7]
        expected = [(True, n, 0) for n in easy + medium] + [
            (False, 2000, 16), (True, 1008, 0), (False, 2000, 14), (False, 1034, 25), (True, 1705, 0),
        ]
        got = []
        for name in ("easy", "medium", "hard"):
            for _, board, mask in _bundled(name):
                report = solve_by_projection(board, mask)
                got.append((report.solved, report.work, report.final_cost))
        assert got == expected

    def test_unsolved_reports_cost(self, unsat_puzzle):
        board, mask = unsat_puzzle
        report = solve_by_projection(board, mask, ProjectionConfig(max_sweeps=200))
        assert not report.solved
        assert report.final_cost > 0

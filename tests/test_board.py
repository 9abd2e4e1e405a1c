import random

import pytest
from hypothesis import example, given, strategies as st

from sudokulab.board import (
    CELL_UNITS,
    DIGITS,
    PuzzleError,
    UNITS,
    candidates,
    cell_index,
    cell_ref,
    cell_violation_degree,
    check_clue_mask,
    digit_histogram,
    is_solved,
    parse_puzzle,
    render_board,
    unit_masks,
    violation_cost,
)
from sudokulab.datasets import SAMPLE_PUZZLE_LINE, TRAPPED_DUPLICATE_CELLS

from oracles import (
    reference_cell_units,
    reference_units,
    solve_all,
    unit_scan_digits,
    unit_scan_solved,
)

_FULL_BOARD = solve_all((0,) * 81, cap=1)[0]


class TestGeometry:
    def test_units_cover_each_cell_three_times(self):
        assert len(UNITS) == 27
        counts = [0] * 81
        for unit in UNITS:
            assert len(set(unit)) == 9
            for i in unit:
                counts[i] += 1
        assert counts == [3] * 81

    def test_tables_equal_the_reference_loops(self):
        # the slice tables, the sweep order and acceptance 06 read this order
        assert UNITS == reference_units()
        assert CELL_UNITS == reference_cell_units()

    def test_cell_index_round_trip(self):
        for i in range(81):
            assert cell_index(*cell_ref(i)) == i

    def test_cell_index_range_checked(self):
        with pytest.raises(PuzzleError):
            cell_index(0, 5)
        with pytest.raises(PuzzleError):
            cell_index(5, 10)


class TestParse:
    def test_sample_puzzle(self, sample):
        board, mask = sample
        assert sum(mask) == 35
        assert board[cell_index(1, 1)] == 1
        assert board[cell_index(9, 8)] == 2
        assert board[cell_index(2, 9)] == 0

    def test_all_empty(self):
        board, mask = parse_puzzle("." * 81)
        assert board == (0,) * 81
        assert sum(mask) == 0

    def test_zero_means_empty(self):
        board, _ = parse_puzzle("0" * 81)
        assert board == (0,) * 81

    def test_illegal_character_reports_index(self):
        text = "." * 40 + "X" + "." * 40
        with pytest.raises(PuzzleError, match="index 40"):
            parse_puzzle(text)

    def test_wrong_length(self):
        with pytest.raises(PuzzleError, match="80"):
            parse_puzzle("." * 80)

    def test_duplicate_clue_rejected(self):
        text = "55" + "." * 79
        with pytest.raises(PuzzleError, match="inconsistent"):
            parse_puzzle(text)

    def test_grid_separators_ignored(self, sample):
        board, _ = sample
        assert parse_puzzle(render_board(board, "grid"))[0] == board


class TestRender:
    def test_empty_line(self):
        assert render_board((0,) * 81, "line") == "." * 81

    def test_sample_round_trip(self, sample):
        board, _ = sample
        assert render_board(board, "line") == SAMPLE_PUZZLE_LINE

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render_board((0,) * 81, "fancy")

    @given(st.sets(st.integers(min_value=0, max_value=80)))
    def test_round_trip_on_masked_solutions(self, blanks):
        # any unit-consistent board survives both round trips
        board = tuple(0 if i in blanks else d for i, d in enumerate(_FULL_BOARD))
        for style in ("line", "grid"):
            assert parse_puzzle(render_board(board, style))[0] == board


class TestViolationCost:
    def test_trapped_board_cost(self, trapped):
        assert violation_cost(trapped) == 2

    def test_solved_board_zero(self, sample_solution):
        assert violation_cost(sample_solution) == 0

    def test_all_ones(self):
        assert violation_cost((1,) * 81) == 216

    def test_empty_board(self):
        assert violation_cost((0,) * 81) == 27 * 9

    def test_band_row_permutation_preserves_cost(self, trapped):
        # relabeling rows inside a band maps units to units
        rng = random.Random(3)
        board = list(trapped)
        for _ in range(20):
            rows = list(range(9))
            for band in range(3):
                chunk = rows[band * 3 : band * 3 + 3]
                rng.shuffle(chunk)
                rows[band * 3 : band * 3 + 3] = chunk
            permuted = tuple(board[rows[r] * 9 + c] for r in range(9) for c in range(9))
            assert violation_cost(permuted) == violation_cost(trapped)


class TestCellViolationDegree:
    def test_trapped_duplicates(self, trapped):
        for cell in TRAPPED_DUPLICATE_CELLS:
            assert cell_violation_degree(trapped, cell) == 1

    def test_solved_board_all_zero(self, sample_solution):
        for i in range(81):
            assert cell_violation_degree(sample_solution, cell_ref(i)) == 0

    def test_all_ones_center(self):
        assert cell_violation_degree((1,) * 81, (5, 5)) == 3

    def test_degree_sum_bounds_cost(self, trapped):
        rng = random.Random(5)
        for _ in range(25):
            board = tuple(rng.randint(1, 9) for _ in range(81))
            total = sum(cell_violation_degree(board, cell_ref(i)) for i in range(81))
            assert total >= violation_cost(board)


class TestCandidates:
    def test_reference_lists(self, sample):
        board, _ = sample
        assert candidates(board, (7, 4)) == {7}
        assert candidates(board, (2, 9)) == {2, 3, 5, 6, 7}

    def test_empty_board(self):
        assert candidates((0,) * 81, (4, 4)) == set(DIGITS)

    def test_occupied_cell_rejected(self, sample):
        board, _ = sample
        with pytest.raises(PuzzleError):
            candidates(board, (1, 1))

    def test_disjoint_from_unit_digits(self, sample):
        board, _ = sample
        for i in range(81):
            if board[i]:
                continue
            r, c = cell_ref(i)
            cands = candidates(board, (r, c))
            seen = {board[j] for unit in UNITS if i in unit for j in unit} - {0}
            assert not (cands & seen)


class TestUnitMasks:
    @given(st.dictionaries(st.integers(0, 80), st.integers(1, 9), max_size=30))
    @example({0: 5, 10: 5})  # a repeat in subgrid 1 only
    @example(dict(enumerate(_FULL_BOARD)))
    def test_matches_set_scan(self, filled):
        board = tuple(filled.get(i, 0) for i in range(81))
        units = unit_scan_digits(board)
        if any(len(set(u)) < len(u) for u in units):
            with pytest.raises(PuzzleError, match="clue conflict"):
                unit_masks(board)
        else:
            assert unit_masks(board) == [sum(1 << d for d in u) for u in units]


    @pytest.mark.parametrize("board", [(0,) * 80, (0,) * 82, (10,) + (0,) * 80, (-1,) + (0,) * 80, "." * 81],
                             ids=["80 cells", "82 cells", "a 10", "a -1", "a string"])
    def test_rejects_malformed_board(self, board):
        with pytest.raises(PuzzleError, match="a board must be 81 ints in 0-9"):
            check_clue_mask(board, (False,) * 81)


class TestCheckClueMask:
    def test_returns_the_clue_cells(self):
        mask = tuple(i % 4 == 0 for i in range(81))
        clues = check_clue_mask(_FULL_BOARD, mask)
        assert clues == tuple(d if c else 0 for d, c in zip(_FULL_BOARD, mask))


class TestIsSolved:
    def test_partial_board(self, sample):
        assert not is_solved(sample[0])

    def test_trapped_board(self, trapped):
        assert not is_solved(trapped)

    def test_solution(self, sample_solution):
        assert is_solved(sample_solution)
        assert unit_scan_solved(sample_solution)


    def test_ten_is_not_a_digit(self, sample_solution):
        # a 10 in place of one digit repeats nothing, but that digit is
        # missing from each of the cell's three units
        board = (10,) + sample_solution[1:]
        assert violation_cost(board) == 3
        assert not is_solved(board)


def test_digit_histogram():
    assert digit_histogram((1,) * 81) == [81] + [0] * 8
    assert digit_histogram((0,) * 81) == [0] * 9

import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from sudokulab import backtracking
from sudokulab.backtracking import enumerate_solutions, order_cells, solve
from sudokulab.bench import load_suite
from sudokulab.board import (
    PuzzleError, candidates, cell_ref, clues_respected, is_solved, violation_cost,
)
from sudokulab.datasets import suite_path

from oracles import _free_digits, peer_scan_search, search_head, solve_all, unit_scan_solved

EMPTY = (0,) * 81
EMPTY_MASK = (False,) * 81


class TestOrderCells:
    def test_sample_puzzle_order(self, sample):
        board, _ = sample
        order = order_cells(board)
        # three singleton-list cells, then the cardinality-2 cells of row 1
        assert order.cells[:5] == [(7, 4), (8, 5), (9, 5), (1, 6), (1, 7)]
        assert order.lists[:5] == [(7,), (8,), (9,), (2, 3), (3, 9)]
        sizes = [len(l) for l in order.lists]
        assert sizes == sorted(sizes)

    def test_empty_board(self):
        order = order_cells(EMPTY)
        assert len(order.cells) == 81
        assert order.cells == [cell_ref(i) for i in range(81)]  # row-major on ties
        assert all(l == tuple(range(1, 10)) for l in order.lists)

    def test_solved_board(self, sample_solution):
        order = order_cells(sample_solution)
        assert order.cells == []

    @given(st.lists(st.just(0) | st.integers(1, 9), min_size=81, max_size=81))  # about half empty
    def test_matches_unit_scan_on_drawn_boards(self, cells):
        # digits drawn at random, so units may repeat one
        board = tuple(cells)
        lists = {i: sorted(_free_digits(board, i)) for i in range(81) if board[i] == 0}
        for i, free in lists.items():
            got = candidates(board, cell_ref(i))
            assert type(got) is set and got == set(free)
            got.clear()  # a new set each call: clearing it changes no later answer
        order = sorted(lists, key=lambda i: (len(lists[i]), i))
        assert order_cells(board) == ([cell_ref(i) for i in order], [tuple(lists[i]) for i in order])


class TestEnumerate:
    def test_sample_puzzle_solution_count(self, sample):
        # the bundled sample puzzle is not uniquely solvable: 12 completions
        board, mask = sample
        sols = enumerate_solutions(board, mask, cap=100)
        assert len(sols) == 12
        for s in sols:
            assert is_solved(s)
            assert clues_respected(s, board, mask)

    def test_cap_respected(self, sample):
        board, mask = sample
        assert len(enumerate_solutions(board, mask, cap=2)) == 2

    def test_empty_board_cap(self):
        sols = enumerate_solutions(EMPTY, EMPTY_MASK, cap=3)
        assert len(sols) == 3
        assert all(is_solved(s) for s in sols)

    def test_unsatisfiable(self, unsat_puzzle):
        board, mask = unsat_puzzle
        assert enumerate_solutions(board, mask, cap=2) == []

    def test_unique_bundled_puzzle(self, easy_suite):
        _, board, mask = easy_suite.puzzles[0]
        sols = enumerate_solutions(board, mask, cap=2)
        assert len(sols) == 1
        assert unit_scan_solved(sols[0])

    def test_bad_cap(self, sample):
        with pytest.raises(ValueError):
            enumerate_solutions(*sample, cap=0)

    @pytest.mark.parametrize("cap", [float("nan"), 1.5, 2.0, True], ids=["nan", "1.5", "2.0", "True"])
    def test_non_int_cap(self, sample, cap):
        # a NaN cap never compares reached, so the search would list all 12
        # completions of the sample; 1.5 would let it return 2 boards
        with pytest.raises(ValueError, match="cap must be an int"):
            enumerate_solutions(*sample, cap=cap)

    def test_deterministic(self, sample):
        board, mask = sample

        def run():
            nodes = []
            sols = enumerate_solutions(board, mask, cap=5, trace=lambda p, ok: nodes.append((p, ok)))
            return sols, nodes

        assert run() == run()

    def test_matches_oracle_on_random_maskings(self):
        rng = random.Random(11)
        base = solve_all(EMPTY, cap=1)[0]
        for trial in range(100):
            # random full grid via a shuffled relabeling keeps unit structure
            relabel = list(range(1, 10))
            rng.shuffle(relabel)
            full = tuple(relabel[d - 1] for d in base)
            board = list(full)
            for i in rng.sample(range(81), rng.randint(35, 44)):
                board[i] = 0
            board = tuple(board)
            mask = tuple(d != 0 for d in board)
            # cap high enough that both searches exhaust the tree
            ours = enumerate_solutions(board, mask, cap=5000)
            theirs = solve_all(board, cap=5000)
            assert len(ours) < 5000 and len(theirs) < 5000
            assert set(ours) == set(theirs)


class TestClueConflict:
    def test_full_board_with_repeated_digit_raises(self, sample_solution):
        # every cell a clue, (1,1) repeating the digit at (1,2): nothing is
        # left to search, and the board is not a solution
        board = (sample_solution[1],) + sample_solution[1:]
        assert violation_cost(board) == 3
        with pytest.raises(PuzzleError, match="clue conflict"):
            solve(board, (True,) * 81)
        with pytest.raises(PuzzleError, match="clue conflict"):
            enumerate_solutions(board, (True,) * 81, cap=2)


    def test_empty_cell_marked_as_clue_raises(self, sample):
        board, mask = sample
        mask = mask[:5] + (True,) + mask[6:]
        for call in (lambda: solve(board, mask), lambda: enumerate_solutions(board, mask, cap=2)):
            with pytest.raises(PuzzleError, match=r"clue mask marks the empty cell \(1, 6\) as a clue"):
                call()


class TestPeerScanOracle:
    """The unit-mask search against the peer-scan search it replaced."""

    def test_solutions_and_attempts(self, sample, unsat_puzzle, easy_suite, medium_suite):
        hard = load_suite(suite_path("hard"), "hard").puzzles
        boards = [sample[0], unsat_puzzle[0]]
        boards += [b for suite in (easy_suite, medium_suite) for _, b, _ in suite.puzzles]
        boards += [hard[1][1], hard[4][1]]
        for board in boards:
            for cap in (1, 2):
                assert backtracking._search(board, cap, None) == peer_scan_search(board, cap)

    def test_trace_events(self, sample, unsat_puzzle, easy_suite, medium_suite):
        puzzles = [sample, unsat_puzzle]
        puzzles += [(b, m) for suite in (easy_suite, medium_suite) for _, b, m in suite.puzzles]
        total = 0
        for board, mask in puzzles:
            for cap in (1, 2):
                ours, theirs = [], []
                enumerate_solutions(board, mask, cap=cap, trace=lambda p, ok: ours.append((p, ok)))
                peer_scan_search(board, cap, lambda p, ok: theirs.append((p, ok)))
                assert ours == theirs, (puzzles.index((board, mask)), cap)
                total += len(ours)
        assert total > 60_000


class TestFrameEdges:
    """The search, which places two steps per call, against the peer-scan
    search, which places one, where the frames end: no step at all, a last
    frame holding one step, and searches that end on a frame's second step."""

    @staticmethod
    def assert_same_search(board, cap):
        assert backtracking._search(board, cap, None) == peer_scan_search(board, cap)
        ours, theirs = [], []
        traced = backtracking._search(board, cap, lambda p, ok: ours.append((p, ok)))
        assert traced == peer_scan_search(board, cap, lambda p, ok: theirs.append((p, ok)))
        assert ours == theirs

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("holes", [0, 1, 2, 3])
    def test_boards_cut_from_a_solution(self, sample_solution, holes, cap):
        board = tuple(0 if i in (4, 22, 60)[:holes] else d for i, d in enumerate(sample_solution))
        assert len(order_cells(board).cells) == holes
        self.assert_same_search(board, cap)

    @pytest.mark.parametrize("cap", range(1, 14))
    def test_sample_at_every_cap(self, sample, cap):
        board, _ = sample
        assert len(order_cells(board).cells) % 2 == 0  # the last frame holds two steps
        self.assert_same_search(board, cap)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_odd_count_of_empty_cells(self, easy_suite, cap):
        board = easy_suite.puzzles[0][1]
        assert len(order_cells(board).cells) % 2 == 1  # the last frame holds one step
        self.assert_same_search(board, cap)


class TestLackingDigits:
    """The untraced search tries only the digits a cell's units lack, and
    still counts the rejected ones."""

    # (solutions, placement attempts) of the untraced search at caps 1 and
    # 2, frozen from the search that tried every digit of each list
    FROZEN = {
        "easy": [((1, 210), (1, 766)), ((1, 334), (1, 500)), ((1, 73), (1, 163)),
                 ((1, 135), (1, 582)), ((1, 240), (1, 356)), ((1, 134), (1, 348)),
                 ((1, 101), (1, 157)), ((1, 71), (1, 431)), ((1, 124), (1, 170)),
                 ((1, 66), (1, 163))],
        "medium": [((1, 107), (1, 2345)), ((1, 181), (1, 1973)), ((1, 639), (1, 890)),
                   ((1, 7588), (1, 18451)), ((1, 422), (1, 1103)), ((1, 9070), (1, 10548)),
                   ((1, 1521), (1, 2015)), ((1, 275), (1, 1887)), ((1, 216), (1, 459)),
                   ((1, 294), (1, 362))],
        "hard": [((1, 530542), (1, 1317177)), ((1, 193945), (1, 207855)),
                 ((1, 76112), (1, 4494226)), ((1, 209001), (1, 364211)),
                 ((1, 6268), (1, 10690))],
    }

    def test_table(self):
        assert len(backtracking._LACKING) == 512
        for m in range(512):
            assert backtracking._LACKING[m] == tuple(d for d in range(1, 10) if not m >> (d - 1) & 1)

    def test_frozen_counts(self):
        for name, frozen in self.FROZEN.items():
            suite = load_suite(suite_path(name), name)
            counts = []
            for _, board, _ in suite.puzzles:
                runs = (backtracking._search(board, cap, None) for cap in (1, 2))
                counts.append(tuple((len(sols), nodes) for sols, nodes in runs))
            assert counts == frozen, name

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(30, 50), st.integers(1, 3))
    def test_matches_traced_search(self, rng, holes, cap):
        full = solve_all(EMPTY, cap=1)[0]
        relabel = list(range(1, 10))
        rng.shuffle(relabel)
        board = [relabel[d - 1] for d in full]
        for i in rng.sample(range(81), holes):
            board[i] = 0
        board = tuple(board)
        events = []

        def hook(prefix, ok):
            events.append(ok)
            if len(events) > 50_000:
                # about 0.03 s of tracing; a few drawn boards need millions of
                # attempts, and test_frozen_counts covers trees that large
                reject()

        traced = enumerate_solutions(board, tuple(d != 0 for d in board), cap, trace=hook)
        assert backtracking._search(board, cap, None) == (traced, len(events))
        assert not all(events)  # some digits were rejected, and counted


class TestStepTable:
    """The untraced search, which restores a cell's unit masks once after its
    digit loop, against the traced search, which tries every listed digit."""

    def test_matches_traced_search_on_bundled_boards(self, easy_suite, medium_suite):
        hard = load_suite(suite_path("hard"), "hard").puzzles
        puzzles = [p[1:] for suite in (easy_suite, medium_suite) for p in suite.puzzles]
        puzzles += [hard[1][1:], hard[4][1:]]
        for board, mask in puzzles:
            for cap in (1, 2):
                calls = []
                traced = enumerate_solutions(board, mask, cap, trace=lambda p, ok: calls.append(ok))
                assert backtracking._search(board, cap, None) == (traced, len(calls))
                assert len(traced) == 1


class TestTrace:
    def test_prefix_growth_on_sample(self, sample):
        # frozen replay of the search head: the three forced cells, then
        # the two rejected extensions in row 1, then the recovery
        board, mask = sample
        events = []

        def hook(prefix, ok):
            if len(events) < 8:
                events.append((prefix, ok))

        enumerate_solutions(board, mask, cap=1, trace=hook)
        expected = [
            ("7", True),
            ("78", True),
            ("789", True),
            ("7892", True),
            ("78923", True),
            ("789232", False),
            ("789233", False),
            ("78929", True),
        ]
        assert expected == search_head(board, len(expected))
        assert events == expected


class TestSolve:
    def test_report(self, sample):
        report = solve(*sample)
        assert report.solved and report.method == "backtracking"
        assert is_solved(report.board)
        assert report.work > 0

    def test_work_counts_placement_attempts(self, sample, unsat_puzzle):
        # stopped at the first solution, and with the tree exhausted
        for board, mask in (sample, unsat_puzzle):
            calls = []
            enumerate_solutions(board, mask, cap=1, trace=lambda p, ok: calls.append(p))
            assert solve(board, mask).work == len(calls)

    def test_unsolvable_report(self, unsat_puzzle):
        report = solve(*unsat_puzzle)
        assert not report.solved

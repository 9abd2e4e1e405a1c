import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from sudokulab import annealing
from sudokulab.annealing import (
    AnnealConfig,
    AnnealState,
    acceptance_probability,
    anneal,
    initial_board,
    propose_swap,
)
from sudokulab.board import cell_index, digit_histogram, is_solved, violation_cost

from oracles import solve_all

_FULL = solve_all((0,) * 81, cap=1)[0]
_FULL_MASK = (True,) * 81


class TestConfig:
    def test_defaults(self):
        cfg = AnnealConfig()
        assert cfg.initial_temperature == 200.0
        assert cfg.cooling_factor == 0.99
        assert cfg.cooling_period == 50
        assert cfg.max_iterations == 200_000
        assert cfg.reset_at == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_temperature": 0.0},
            {"cooling_factor": 1.0},
            {"cooling_factor": 0.0},
            {"cooling_period": 0},
            {"max_iterations": 0},
            {"reset_at": 300_000},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AnnealConfig(**kwargs)


class TestInitialBoard:
    def test_full_board_unchanged(self):
        rng = random.Random(0)
        assert initial_board(_FULL, _FULL_MASK, rng) == _FULL

    def test_histogram_balanced(self, sample):
        board, mask = sample
        for seed in range(5):
            filled = initial_board(board, mask, random.Random(seed))
            assert digit_histogram(filled) == [9] * 9
            assert all(filled[i] == board[i] for i in range(81) if mask[i])

    def test_overfull_digit_rejected(self):
        board = tuple([5] * 10 + [0] * 71)  # bypasses the parser on purpose
        mask = tuple(d != 0 for d in board)
        with pytest.raises(ValueError, match="digit 5"):
            initial_board(board, mask, random.Random(0))


class TestAcceptanceProbability:
    def test_cost_decrease_always_accepted(self):
        for tau in (0.01, 1.0, 200.0):
            assert acceptance_probability(12, 9, tau) == 1.0

    def test_equal_costs(self):
        assert acceptance_probability(7, 7, 1.0) == 1.0

    def test_cost_increase(self):
        assert acceptance_probability(10, 12, 200.0) == pytest.approx(math.exp(-0.01), rel=1e-12)

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            acceptance_probability(1, 2, 0.0)

    @given(
        st.integers(0, 216),
        st.integers(0, 216),
        st.integers(0, 216),
        st.floats(0.01, 500.0),
        st.floats(0.01, 500.0),
    )
    def test_monotonicity(self, c0, c1, c2, t1, t2):
        lo, hi = sorted((c1, c2))
        # nonincreasing in the proposed-cost increase
        assert acceptance_probability(c0, lo, t1) >= acceptance_probability(c0, hi, t1)
        # nondecreasing in temperature for a fixed increase
        tlo, thi = sorted((t1, t2))
        if c1 > c0:
            assert acceptance_probability(c0, c1, thi) >= acceptance_probability(c0, c1, tlo)


def _state_on(board, mask, seed=0):
    return AnnealState.create(board, mask, AnnealConfig(seed=seed))


class TestProposeSwap:
    def test_two_free_cells(self):
        mask = [True] * 81
        mask[3] = mask[60] = False
        pair = propose_swap(_state_on(_FULL, tuple(mask)))
        assert {cell_index(*pair[0]), cell_index(*pair[1])} == {3, 60}

    def test_too_few_free_cells(self):
        mask = [True] * 81
        mask[3] = False
        with pytest.raises(ValueError):
            propose_swap(_state_on(_FULL, tuple(mask)))

    def test_uniform_on_violation_free_board(self):
        # solved board: every degree is 0, so first draws must be uniform
        mask = [False] * 81
        for i in range(0, 81, 4):
            mask[i] = True
        state = _state_on(_FULL, tuple(mask), seed=42)
        free = [i for i in range(81) if not mask[i]]
        counts = dict.fromkeys(free, 0)
        draws = 100_000
        for _ in range(draws):
            a, _b = propose_swap(state)
            counts[cell_index(*a)] += 1
        expected = draws / len(free)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        dof = len(free) - 1
        assert chi2 < dof + 3 * math.sqrt(2 * dof)

    def test_exp_weighting_of_violating_cell(self):
        # corrupt one cell so it is duplicated in all three of its units;
        # mask its three duplicate partners so every other free cell has
        # degree 0, then the hot cell must be drawn ~e^3 as often
        hot = cell_index(5, 5)
        r, c = 4, 4
        orig = _FULL[hot]
        for d in range(1, 10):
            if d == orig:
                continue
            involved = [
                i for i in range(81)
                if i != hot and _FULL[i] == d
                and (i // 9 == r or i % 9 == c
                     or (i // 27 == r // 3 and (i % 9) // 3 == c // 3))
            ]
            if len(involved) == 3:
                break
        else:
            raise AssertionError("no digit with three distinct duplicates")
        board = list(_FULL)
        board[hot] = d
        mask = [False] * 81
        for i in involved:
            mask[i] = True
        state = _state_on(tuple(board), tuple(mask), seed=7)
        n_free = 81 - 3
        draws = 1_000_000
        hot_hits = 0
        for _ in range(draws):
            a, _b = propose_swap(state)
            if cell_index(*a) == hot:
                hot_hits += 1
        w = math.exp(3)
        expected_rate = w / (w + (n_free - 1))
        observed_ratio = (hot_hits / draws) / ((1 - hot_hits / draws) / (n_free - 1))
        assert observed_ratio == pytest.approx(w, rel=0.05)
        assert hot_hits / draws == pytest.approx(expected_rate, rel=0.05)


class TestAnneal:
    def test_already_solved(self):
        report = anneal(_FULL, _FULL_MASK)
        assert report.solved and report.work == 0 and report.board == _FULL

    def test_solves_bundled_easy(self, easy_suite):
        _, board, mask = easy_suite.puzzles[0]
        report = anneal(board, mask, AnnealConfig(seed=0))
        assert report.solved
        assert is_solved(report.board)

    def test_wall_time_counts_initial_fill(self, monkeypatch):
        def slow_fill(puzzle, clue_mask, rng):
            time.sleep(0.05)
            return initial_board(puzzle, clue_mask, rng)

        monkeypatch.setattr(annealing, "initial_board", slow_fill)
        report = anneal(_FULL, _FULL_MASK)
        assert report.solved
        assert report.wall_time >= 0.05

    def test_deterministic(self, easy_suite):
        _, board, mask = easy_suite.puzzles[1]
        cfg = AnnealConfig(seed=3)
        r1 = anneal(board, mask, cfg)
        r2 = anneal(board, mask, cfg)
        assert (r1.board, r1.work, r1.solved) == (r2.board, r2.work, r2.solved)

    def test_unsatisfiable_runs_out(self, unsat_puzzle):
        board, mask = unsat_puzzle
        cfg = AnnealConfig(max_iterations=20_000, reset_at=10_000, seed=0)
        report = anneal(board, mask, cfg)
        assert not report.solved
        assert report.work == 20_000
        assert report.final_cost > 0

    def test_invariants_along_trace(self, sample):
        board, mask = sample
        seen = []

        def observer(state):
            if state.iteration % 250 == 0:
                seen.append(state.iteration)
                assert digit_histogram(state.board) == [9] * 9
                assert all(state.board[i] == board[i] for i in range(81) if mask[i])
                assert violation_cost(tuple(state.board)) == state.cost

        anneal(board, mask, AnnealConfig(seed=2, max_iterations=10_000, reset_at=5_000), observer)
        assert seen

    def test_temperature_schedule(self, sample):
        board, mask = sample
        cfg = AnnealConfig(seed=0, max_iterations=6_000, reset_at=6_000)
        temps = []

        def observer(state):
            temps.append((state.iteration, state.temperature))

        anneal(board, mask, cfg, observer)
        for iteration, temp in temps:
            n = iteration - 1  # temperature used by that proposal
            assert temp == 200.0 * 0.99 ** (n // 50)

    def test_temperature_reset(self, unsat_puzzle):
        board, mask = unsat_puzzle
        cfg = AnnealConfig(seed=0, max_iterations=12_000, reset_at=10_000)
        temps = {}

        def observer(state):
            temps[state.iteration] = state.temperature

        anneal(board, mask, cfg, observer)
        assert temps[10_001] == 200.0  # proposal 10_000 runs at the reset value
        assert temps[10_000] == 200.0 * 0.99 ** (9_999 // 50)
        assert temps[10_051] == 200.0 * 0.99

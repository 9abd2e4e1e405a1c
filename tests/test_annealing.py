import bisect
import itertools
import math
import pickle
import random
import re
import time

import pytest
from hypothesis import given, strategies as st

from sudokulab import annealing
from sudokulab.annealing import (
    AnnealConfig,
    anneal,
    initial_board,
)
from sudokulab.board import (
    PuzzleError,
    cell_ref,
    cell_violation_degree,
    digit_histogram,
    is_solved,
    violation_cost,
)

from oracles import acceptance_probability, solve_all, weighted_pair

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

    BAD = [
        {"initial_temperature": 0.0},
        {"cooling_factor": 1.0},
        {"cooling_factor": 0.0},
        {"cooling_period": 0},
        {"max_iterations": 0},
        {"reset_at": 300_000},
        {"cooling_period": float("nan")},
        {"cooling_period": 2.5},
        {"cooling_period": True},
        {"max_iterations": float("nan")},
        {"max_iterations": 2.5, "reset_at": 1},
        {"max_iterations": 3000.0, "reset_at": 3000},
        {"max_iterations": True, "reset_at": 1},
        {"reset_at": float("nan")},
        {"reset_at": 2.5},
        {"reset_at": True},
        {"seed": None},   # random.Random(None) would seed from the OS
        {"seed": 2.5},
        {"seed": True},
    ]

    @pytest.mark.parametrize("kwargs", BAD)
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AnnealConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", BAD)
    def test_replace_and_make_reject_bad_values(self, kwargs):
        # a bare NamedTuple's _make and _replace skip __new__ and its checks
        with pytest.raises(ValueError) as made:
            AnnealConfig(**kwargs)
        message = f"^{re.escape(str(made.value))}$"
        with pytest.raises(ValueError, match=message):
            AnnealConfig(seed=3)._replace(**kwargs)
        with pytest.raises(ValueError, match=message):
            AnnealConfig._make({**AnnealConfig()._asdict(), **kwargs}.values())

    def test_pickle_round_trip(self):
        cfg = AnnealConfig(cooling_factor=0.9, max_iterations=500, reset_at=250, seed=7)
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and type(back) is AnnealConfig


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


def _live_draws(monkeypatch, board, mask, iterations, seed=0):
    """Run the annealing loop from ``board`` as given (the random fill is
    patched out) and return its report and, per iteration, the cells of
    its weighted draws in order: the first cell, then the second draw and
    its repeats until one differs from the first."""
    monkeypatch.setattr(annealing, "initial_board", lambda puzzle, clue_mask, rng: puzzle)
    slots = []

    def recording_bisect(cum, x, *bounds):
        slots.append(bisect.bisect_right(cum, x, *bounds))
        return slots[-1]

    monkeypatch.setattr(annealing, "bisect_right", recording_bisect)
    draws = []

    def observer(state):  # called once after each iteration
        draws.append([state._free[s] for s in slots])
        slots.clear()

    cfg = AnnealConfig(seed=seed, max_iterations=iterations, reset_at=iterations)
    return anneal(board, mask, cfg, observer), draws


class TestProposeSwap:
    def test_two_free_cells(self, monkeypatch):
        board = list(_FULL)
        board[3], board[60] = board[60], board[3]
        assert board[3] != board[60]
        mask = [True] * 81
        mask[3] = mask[60] = False
        report, draws = _live_draws(monkeypatch, tuple(board), tuple(mask), 10)
        # the only pair is drawn and swapping it back solves the board
        assert report.solved and report.work == 1 and report.board == _FULL
        assert set(draws[0]) == {3, 60} and draws[0][0] != draws[0][-1]

    def test_too_few_free_cells(self):
        # two clues swapped across units conflict; one free cell cannot move
        board = list(_FULL)
        board[0], board[40] = board[40], board[0]
        assert board[0] != board[40]
        mask = [True] * 81
        mask[80] = False
        board[80] = 0
        with pytest.raises(ValueError):
            anneal(tuple(board), tuple(mask), AnnealConfig(max_iterations=10, reset_at=10))

    def test_empty_cell_marked_as_clue_rejected(self):
        board = list(_FULL)
        board[0] = 0
        mask = [True] * 81
        mask[80] = False
        with pytest.raises(PuzzleError, match=re.escape("marks the empty cell (1, 1) as a clue")):
            anneal(tuple(board), tuple(mask), AnnealConfig(max_iterations=10, reset_at=10))

    @pytest.mark.parametrize("free", [(), (80,)])
    def test_swap_guard(self, monkeypatch, free):
        # valid clues that leave fewer than two free cells are solved by the
        # fill, so only a replaced fill reaches the guard on an unsolved board
        monkeypatch.setattr(annealing, "initial_board", lambda puzzle, clue_mask, rng: puzzle)
        board = list(_FULL)
        board[80] = _FULL[80] % 9 + 1
        mask = tuple(i not in free for i in range(81))
        with pytest.raises(ValueError, match="two non-clue cells"):
            anneal(tuple(board), mask, AnnealConfig(max_iterations=10, reset_at=10))

    def test_uniform_on_violation_free_board(self, monkeypatch):
        # the nine cells holding 1 are free and conflict with nothing, so
        # every weight is exp(0); a clue repeated in its units keeps the
        # cost positive, and swapping two equal digits leaves the weights
        # as they are, so every first draw must be uniform
        board = list(_FULL)
        clue = next(i for i in range(81) if _FULL[i] != 1)
        board[clue] = 2 if _FULL[clue] != 2 else 3
        mask = tuple(d != 1 for d in board)
        assert violation_cost(board) > 0
        draws_n = 100_000
        report, draws = _live_draws(monkeypatch, tuple(board), mask, draws_n, seed=42)
        assert report.work == draws_n and tuple(report.board) == tuple(board)
        free = [i for i in range(81) if not mask[i]]
        counts = dict.fromkeys(free, 0)
        for d in draws:
            counts[d[0]] += 1
        expected = draws_n / len(free)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        dof = len(free) - 1
        assert chi2 < dof + 3 * math.sqrt(2 * dof)

    def test_exp_weighting_of_violating_cell(self, monkeypatch):
        # write a 1 into a cell whose row, column and box hold their 1s in
        # three distinct cells; with those three as clues and the other
        # cells holding 1 free, the hot cell has degree 3 and the six
        # others degree 0, so the hot cell must be drawn ~e^3 as often
        ones = [i for i in range(81) if _FULL[i] == 1]
        for hot in range(81):
            if _FULL[hot] == 1:
                continue
            r, c = divmod(hot, 9)
            involved = {
                i for i in ones
                if i // 9 == r or i % 9 == c
                or (i // 27 == r // 3 and (i % 9) // 3 == c // 3)
            }
            if len(involved) == 3:
                break
        else:
            raise AssertionError("no cell whose units hold three distinct 1s")
        board = list(_FULL)
        board[hot] = 1
        mask = [not (board[i] == 1 and i not in involved) for i in range(81)]
        n_free = 9 - 3 + 1
        assert sum(not m for m in mask) == n_free
        draws_n = 200_000
        report, draws = _live_draws(monkeypatch, tuple(board), tuple(mask), draws_n, seed=7)
        assert report.work == draws_n
        hot_hits = sum(d[0] == hot for d in draws)
        w = math.exp(3)
        expected_rate = w / (w + (n_free - 1))
        observed_ratio = (hot_hits / draws_n) / ((1 - hot_hits / draws_n) / (n_free - 1))
        assert observed_ratio == pytest.approx(w, rel=0.05)
        assert hot_hits / draws_n == pytest.approx(expected_rate, rel=0.05)


class TestProposal:
    def test_live_loop_draws_by_exp_degree(self, sample):
        # at each observer call every free cell weighs exp(degree), and the
        # next iteration changes no cell but the pair that a linear-scan
        # weighted draw picks from the same generator state and weights
        board, mask = sample
        last = []  # (generator state, weights, board) at the previous call
        moves = 0

        def observer(state):
            nonlocal moves
            now = tuple(state.board)
            for slot, i in enumerate(state._free):
                assert state._fw[slot] == math.exp(cell_violation_degree(now, cell_ref(i)))
            if last:
                rng_state, weights, before = last.pop()
                rng = random.Random()
                rng.setstate(rng_state)
                a, b = weighted_pair(weights, rng)
                changed = {i for i in range(81) if now[i] != before[i]}
                assert changed in (set(), {state._free[a], state._free[b]})
                moves += bool(changed)
            last.append((state.rng.getstate(), list(state._fw), now))

        cfg = AnnealConfig(seed=5, max_iterations=2_000, reset_at=2_000)
        report = anneal(board, mask, cfg, observer)
        assert report.work == 2_000
        assert moves > 1_000


class TestMetropolis:
    def test_live_loop_accepts_by_acceptance_probability(self, sample):
        # replay each iteration from the previous call's generator state:
        # the weighted pair, the swapped board's cost, then one uniform
        # deviate against acceptance_probability at the temperature the
        # iteration ran at; the next board and cost must follow from it
        board, mask = sample
        last = []  # (generator state, weights, board, cost) at the previous call
        tally = {"uphill": 0, "rejected": 0}

        def observer(state):
            now = tuple(state.board)
            if last:
                rng_state, weights, before, cost = last.pop()
                rng = random.Random()
                rng.setstate(rng_state)
                a, b = (state._free[s] for s in weighted_pair(weights, rng))
                proposal = list(before)
                proposal[a], proposal[b] = before[b], before[a]
                proposed = violation_cost(tuple(proposal))
                accept = rng.random() <= acceptance_probability(cost, proposed, state.temperature)
                assert rng.getstate() == state.rng.getstate()
                assert (now, state.cost) == ((tuple(proposal), proposed) if accept else (before, cost))
                tally["uphill"] += accept and proposed > cost
                tally["rejected"] += not accept
            last.append((state.rng.getstate(), list(state._fw), now, state.cost))

        cfg = AnnealConfig(initial_temperature=1.0, seed=3, max_iterations=5_000, reset_at=5_000)
        report = anneal(board, mask, cfg, observer)
        assert report.work == 5_000
        assert tally["uphill"] > 50 and tally["rejected"] > 1_000, tally


class TestAnneal:
    @pytest.mark.parametrize("nfree", [0, 1])
    def test_already_solved(self, nfree):
        # one free cell takes the one digit its row lacks, so the fill solves
        # the board and the swap guard, which needs two free cells, stays quiet
        puzzle = _FULL[:81 - nfree] + (0,) * nfree
        mask = _FULL_MASK[:81 - nfree] + (False,) * nfree
        calls = []
        report = anneal(puzzle, mask, observer=calls.append)
        assert report.solved and report.work == 0 and report.board == _FULL
        assert report.final_cost == 0 and calls == []

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

    def test_wall_time_leaves_out_observer(self, easy_suite):
        _, board, mask = easy_suite.puzzles[0]
        cfg = AnnealConfig(max_iterations=100, reset_at=50)
        slept = []

        def sleeper(state):
            start = time.perf_counter()
            time.sleep(0.002)
            slept.append(time.perf_counter() - start)

        report = anneal(board, mask, cfg, sleeper)
        plain = anneal(board, mask, cfg)
        assert (report.board, report.work) == (plain.board, plain.work) and len(slept) == report.work
        # 100 sleeps take at least 0.2 s; the chain alone takes about a millisecond
        assert report.wall_time < sum(slept) / 4

    def test_deterministic(self, easy_suite):
        _, board, mask = easy_suite.puzzles[1]
        cfg = AnnealConfig(seed=3)
        r1 = anneal(board, mask, cfg)
        r2 = anneal(board, mask, cfg)
        assert (r1.board, r1.work, r1.solved) == (r2.board, r2.work, r2.solved)

    # default chains: (suite, puzzle index) -> final board, and per seed
    # (work, final cost)
    FROZEN = {
        ("easy", 0): ("463271895157498263892356174345927681918564327276813459629135748734689512581742936",
                      {0: (25_589, 0), 1: (27_417, 0)}),
        ("easy", 1): ("182674359695832471347915862863491725521367948974528136456183297219746583738259614",
                      {0: (25_425, 0), 1: (25_268, 0)}),
        ("easy", 2): ("634517298952483167817269453581942736746135829293876541428391675375628914169754382",
                      {0: (25_131, 0), 1: (28_213, 0)}),
        ("medium", 3): ("561978432987342516342516879175423968823169754496857321234791685658234197719685243",
                        {0: (30_681, 0), 1: (131_358, 0)}),
    }

    def test_frozen_chains(self, easy_suite, medium_suite):
        suites = {"easy": easy_suite, "medium": medium_suite}
        for (name, index), (line, runs) in self.FROZEN.items():
            _, board, mask = suites[name].puzzles[index]
            for seed, (work, cost) in runs.items():
                report = anneal(board, mask, AnnealConfig(seed=seed))
                got = (report.work, report.final_cost, "".join(map(str, report.board)))
                assert got == (work, cost, line), (name, index, seed)

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

    def test_temperature_floored_when_schedule_underflows(self, unsat_puzzle):
        # 200 * 0.5 ** k is 0.0 from k = 1075 on; the floor keeps every
        # temperature positive, and at the floor no uphill move is accepted
        board, mask = unsat_puzzle
        cfg = AnnealConfig(cooling_factor=0.5, cooling_period=1, max_iterations=5_000, reset_at=5_000)
        seen = []

        def observer(state):
            seen.append((state.temperature, state.cost))

        report = anneal(board, mask, cfg, observer)
        assert not report.solved and report.work == len(seen) == 5_000
        assert all(temp > 0 for temp, _ in seen)
        floor = [temp for temp, _ in seen].index(math.ulp(0.0))
        assert floor == 1_075
        costs = [cost for _, cost in seen[floor:]]
        assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))

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


class TestDrawTable:
    def test_prefix_sums_match_full_rebuild(self, monkeypatch, medium_suite):
        # the loop keeps its prefix-sum table up to date from the lowest
        # re-weighed slot; at every draw it must equal, float for float and
        # in length, the prefix sums of the current weights
        live = []
        create = annealing.AnnealState.create

        def recording_create(*args, **kwargs):
            live.append(create(*args, **kwargs))
            return live[-1]

        draws = 0

        def checking_bisect(cum, x, *bounds):
            nonlocal draws
            draws += 1
            assert cum == list(itertools.accumulate(live[0]._fw))
            return bisect.bisect_right(cum, x, *bounds)

        monkeypatch.setattr(annealing.AnnealState, "create", recording_create)
        monkeypatch.setattr(annealing, "bisect_right", checking_bisect)
        moves = 0
        before = []

        def observer(state):
            nonlocal moves
            moves += bool(before) and state.board != before[0]
            before[:] = [list(state.board)]

        _, board, mask = medium_suite.puzzles[0]
        cfg = AnnealConfig(seed=0, max_iterations=20_000, reset_at=20_000)
        report = anneal(board, mask, cfg, observer)
        assert report.work == 20_000 and draws >= 2 * 20_000
        assert moves > 5_000

"""Independent reference implementations used only to cross-check the
package; deliberately simple and slow.  They import nothing from the
package, and every one that reads the grid's geometry reads it from the
unit table that ``reference_units`` builds from coordinates."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

#: entry codes of ``reference_plan``'s status vector
FREE, FIXED_ZERO, FIXED_ONE = 0, 1, 2


def reference_units():
    """The 27 units as tuples of flat cell indices: the rows, the columns,
    then the subgrids in row-major block order, each cell list row-major."""
    rows = [tuple(range(r * 9, r * 9 + 9)) for r in range(9)]
    cols = [tuple(range(c, 81, 9)) for c in range(9)]
    boxes = []
    for br in (0, 3, 6):
        for bc in (0, 3, 6):
            boxes.append(tuple((br + r) * 9 + (bc + c) for r in range(3) for c in range(3)))
    return rows + cols + boxes


_UNITS = reference_units()
#: per flat cell index, the ids of the 3 units that hold it, by searching all 27
_CELL_UNITS = [tuple(u for u, unit in enumerate(_UNITS) if i in unit) for i in range(81)]
#: per flat cell index, the other cells of its three units, sorted
_PEERS = [tuple(sorted({j for u in _CELL_UNITS[i] for j in _UNITS[u]} - {i})) for i in range(81)]


def reference_cell_units():
    """For each flat cell index, the ids of the 3 ``reference_units`` that hold it."""
    return list(_CELL_UNITS)


def reference_peers():
    """For each flat cell index, the other cells of its three units, sorted."""
    return list(_PEERS)


def _free_digits(g, i):
    """Digits missing from the row, column and subgrid of flat index i."""
    return set(range(1, 10)) - {g[j] for u in _CELL_UNITS[i] for j in _UNITS[u]}


def unit_scan_digits(board):
    """The filled digits of each unit, in ``reference_units`` order."""
    return [[board[j] for j in unit if board[j]] for unit in _UNITS]


def unit_scan_solved(board) -> bool:
    """Full-board check: every unit holds each digit 1..9 once."""
    return all({board[j] for j in unit} == set(range(1, 10)) for unit in _UNITS)


def solve_all(board, cap=10):
    """Plain first-empty-cell recursive solver, digits tried 1..9."""
    g = list(board)
    sols = []

    def rec():
        if len(sols) >= cap:
            return
        try:
            i = g.index(0)
        except ValueError:
            sols.append(tuple(g))
            return
        free = _free_digits(g, i)
        for d in range(1, 10):
            if d in free:
                g[i] = d
                rec()
                g[i] = 0
                if len(sols) >= cap:
                    return
    rec()
    return sols


def peer_scan_search(board, cap, trace=None):
    """(up to ``cap`` solutions, placement attempts) of the static-order
    search: empty cells sorted by (unit-scan list size, row-major index),
    each list tried in ascending digit order, each placement tested by
    scanning the cell's 20 peers on the grid.  Attempts are counted as
    ``backtracking.solve`` counts them, and ``trace`` receives the same
    (digit prefix, feasible) calls as the package's trace hook."""
    grid = list(board)
    lists = {i: sorted(_free_digits(grid, i)) for i in range(81) if grid[i] == 0}
    cells = sorted(lists, key=lambda i: (len(lists[i]), i))
    solutions = []
    n = len(cells)
    nodes = 0

    def dfs(depth):
        nonlocal nodes
        if depth == n:
            solutions.append(tuple(grid))
            return len(solutions) >= cap
        i = cells[depth]
        digits = lists[i]
        for d in digits:
            ok = all(grid[j] != d for j in _PEERS[i])
            if trace is not None:
                trace("".join(str(grid[c]) for c in cells[:depth]) + str(d), ok)
            if ok:
                grid[i] = d
                if dfs(depth + 1):
                    nodes += digits.index(d) + 1
                    return True
                grid[i] = 0
        nodes += len(digits)
        return False

    dfs(0)
    return solutions, nodes


def search_head(board, count):
    """First ``count`` placement events, as (digit prefix, feasible), of
    ``peer_scan_search`` stopped at its first solution."""
    events = []
    peer_scan_search(board, 1, lambda prefix, ok: events.append((prefix, ok)))
    return events[:count]


def weighted_draw(weights, rng):
    """A slot drawn with probability proportional to its weight, by a
    linear scan: the first slot whose running weight sum exceeds one
    uniform deviate times the total; the last slot on float round-off."""
    total = 0.0
    for w in weights:
        total += w
    target = rng.random() * total
    acc = 0.0
    for slot, w in enumerate(weights):
        acc += w
        if acc > target:
            return slot
    return len(weights) - 1


def weighted_pair(weights, rng):
    """Two distinct slots by ``weighted_draw``; the second draw repeats
    until it differs from the first."""
    a = weighted_draw(weights, rng)
    b = weighted_draw(weights, rng)
    while b == a:
        b = weighted_draw(weights, rng)
    return a, b


def acceptance_probability(cost_current, cost_proposed, temperature):
    """The Metropolis rule: min{exp((cost_current - cost_proposed)/temperature), 1}."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if cost_proposed <= cost_current:
        return 1.0
    return math.exp((cost_current - cost_proposed) / temperature)


def reference_simplex(point) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) = 1}.

    A 2-d ``point`` is a stack of points, each row projected on its own.
    A ``-inf`` entry is absent from its point and comes out as 0.

    Sort descending, keep the largest k with w_k > (sum of the top k - 1)/k,
    and clip at the resulting threshold.  O(d log d), exact up to round-off.
    """
    y = np.asarray(point, dtype=float)
    if y.ndim not in (1, 2) or y.size == 0:
        raise ValueError("point must be a nonempty 1-d vector or 2-d stack of them")
    pts = y.reshape(-1, y.shape[-1])   # a 1-d point is a stack of one
    w = np.sort(pts, axis=1)[:, ::-1]
    if np.any(w[:, 0] == -np.inf):
        raise ValueError("every point needs an entry above -inf")
    css = np.cumsum(w, axis=1)
    d = pts.shape[1]
    # w_1 > w_1 - 1 always holds, so every point keeps at least one entry;
    # k counts the entries up to the last one where the test holds
    k = d - np.argmax((w > (css - 1.0) / np.arange(1, d + 1))[:, ::-1], axis=1)
    lam = (css[np.arange(len(pts)), k - 1] - 1.0) / k
    return np.maximum(pts - lam[:, None], 0.0).reshape(y.shape)


def brute_force_simplex(y):
    """Nearest point of the unit simplex by enumerating all 2^d - 1
    candidate supports and solving each support's closed form."""
    y = np.asarray(y, dtype=float)
    d = y.size
    best = None
    best_dist = np.inf
    for r in range(1, d + 1):
        for support in combinations(range(d), r):
            lam = (sum(y[i] for i in support) - 1.0) / r
            x = np.zeros(d)
            feasible = True
            for i in support:
                xi = y[i] - lam
                if xi < -1e-12:
                    feasible = False
                    break
                x[i] = max(xi, 0.0)
            if not feasible:
                continue
            dist = float(np.sum((x - y) ** 2))
            if dist < best_dist:
                best_dist = dist
                best = x
    return best


def _constraint_slices():
    """The 324 constraint slices as (kind, 9 flat tensor indices) in sweep
    order: one per unit and digit, rows, columns and subgrids, then the
    cell distributions."""
    kinds = ("row", "column", "subgrid")
    units = [(kinds[u // 9], tuple(i * 9 + k for i in unit))
             for u, unit in enumerate(_UNITS) for k in range(9)]
    return units + [("cell", tuple(range(i * 9, i * 9 + 9))) for i in range(81)]


def reference_plan(board, mask):
    """(flat status vector, active slices as (kind, members, free)) of a
    conflict-free clue set: each clue fixes its own entry to one and zeroes
    the rest of every slice through it; a slice holding a fixed one is
    void, and the others keep their free members if they have any."""
    slices = _constraint_slices()
    ones = {i * 9 + board[i] - 1 for i in range(81) if mask[i]}
    zeros = {e for _, members in slices if ones & set(members) for e in members} - ones
    status = np.full(729, FREE, dtype=np.int8)
    status[sorted(zeros)] = FIXED_ZERO
    status[sorted(ones)] = FIXED_ONE
    active = []
    for kind, members in slices:
        free = tuple(m for m in members if status[m] == FREE)
        if free and not ones & set(members):
            active.append((kind, members, free))
    return status, active


def per_slice_sweep(tensor, plan):
    """The sweep of the (9, 9, 9) tensor as one 1-d ``reference_simplex``
    call per active slice, on its free entries, in plan order; returns the
    tensor and the largest absolute entry change."""
    flat = tensor.reshape(-1)
    max_change = 0.0
    for s in plan.slices:
        idx = np.asarray(s.free, dtype=np.intp)
        y = flat[idx]
        x = reference_simplex(y)
        change = float(np.max(np.abs(x - y)))
        if change > max_change:
            max_change = change
        flat[idx] = x
    return tensor, max_change

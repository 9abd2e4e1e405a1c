"""Continuous-relaxation solver via cyclic projection onto simplex slices.

The relaxation places a probability p_ijk on digit k at cell (i,j): a
9x9x9 tensor subject to 324 sum-to-one constraints (each digit once per
row, once per column, once per subgrid, and a distribution per cell) plus
nonnegativity.  Each constraint restricted to the nonnegative orthant is
a unit simplex over a 9-entry slice, so one sweep projects every active
slice in a fixed order: the row slices, then the columns, the subgrids
and the cells.  The slices of one family are disjoint, so each family is
projected as one batch, a stack of slices padded to 9 entries, which
gives the same numbers as projecting its slices one after another.
Clues fix variables to 0 or 1 up front and void every slice through
them, so no active slice holds a clue's 1.  The relaxed fixed point is
rounded to a board by imputing each cell's most probable digit.
"""
from __future__ import annotations

import functools
import time
from typing import NamedTuple

import numpy as np

from .board import UNITS, Board, ClueMask, check_clue_mask, is_solved, unit_masks, violation_cost
from .report import SolveReport


class ConstraintSlice(NamedTuple):
    kind: str                  # "row" | "column" | "subgrid" | "cell"
    members: tuple[int, ...]   # 9 flat indices into the 729-vector
    free: tuple[int, ...]      # members still free after clue elimination


class SliceFamily(NamedTuple):
    """The active slices of one family, padded to 9 members each; the
    slices are disjoint, so one batched projection equals projecting them
    one after another."""
    kind: str
    members: np.ndarray   # (n, 9) intp flat indices, one row per slice
    pad: np.ndarray       # (n, 9) float, 0.0 where free and -inf where fixed


class ConstraintPlan(NamedTuple):
    families: tuple[SliceFamily, ...]   # non-empty families, in sweep order
    fixed_count: int

    @property
    def slices(self) -> tuple[ConstraintSlice, ...]:
        """Every active slice, in sweep order."""
        return tuple(
            ConstraintSlice(fam.kind, tuple(m), tuple(x for x, ok in zip(m, f) if ok))
            for fam in self.families
            for m, f in zip(fam.members.tolist(), (fam.pad == 0.0).tolist())
        )


class _ProjectionFields(NamedTuple):
    max_sweeps: int = 2000
    stall_tolerance: float = 1e-9


class ProjectionConfig(_ProjectionFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ProjectionConfig":
        self = super().__new__(cls, *args, **kwargs)
        if type(self.max_sweeps) is not int:   # NaN, 2.5 or True would pass the test below
            raise ValueError("max_sweeps must be an int")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if not 0 <= self.stall_tolerance < np.inf:   # NaN too
            raise ValueError("stall_tolerance must be nonnegative and finite")
        return self

    @classmethod
    def _make(cls, iterable) -> "ProjectionConfig":
        return cls(*iterable)   # checked; _replace builds through here too


def project_simplex(point) -> np.ndarray:
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
    if w[:, 0].min() == -np.inf:
        raise ValueError("every point needs an entry above -inf")
    rows, steps = _ranges(*pts.shape)
    thr = np.add.accumulate(w, axis=1)   # the running sums, then in place (sum - 1)/k
    thr -= 1.0
    thr /= steps
    # w_1 > w_1 - 1 always holds, so every point keeps at least one entry;
    # the threshold is the one at the last entry where the test holds
    last = pts.shape[1] - 1 - (w > thr)[:, ::-1].argmax(axis=1)
    out = pts - thr[rows, last][:, None]   # a new array, so the input stays as it was
    np.maximum(out, 0.0, out=out)
    return out.reshape(y.shape)


@functools.lru_cache(maxsize=128)
def _ranges(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The row index 0..n-1 and the step vector 1..d of an (n, d) stack."""
    rows, steps = np.arange(n), np.arange(1, d + 1)
    rows.flags.writeable = steps.flags.writeable = False
    return rows, steps


_FAMILIES = ("row", "column", "subgrid", "cell")
_UNITS = np.array(UNITS, dtype=np.intp)   # (27, 9) cells of each unit

#: The (324, 9) flat indices of the constraint slices in the fixed sweep
#: order.  Slice u * 9 + k is digit k over ``board.UNITS[u]``, in its order,
#: so rows, columns and subgrids come 81 each as the units do; slice 243 + c
#: lists the nine digits of cell c.
_MEMBERS = np.concatenate([
    (_UNITS[:, None, :] * 9 + np.arange(9)[:, None]).reshape(243, 9),   # unit, digit, position
    np.arange(729).reshape(81, 9),
])
#: The (729, 4) ids of the row, column, subgrid and cell slice through each entry.
_SLICE_OF = np.empty((729, 4), dtype=np.intp)
_SLICE_OF[_MEMBERS, np.arange(324)[:, None] // 81] = np.arange(324)[:, None]
_INCIDENCE = np.eye(81)[_UNITS].sum(axis=1)   # (27, 81) 0/1: cell c lies in unit u
_BITS = 2.0 ** np.arange(9)                    # digit k weighs 2**k in the solved test
_UNITS.flags.writeable = _MEMBERS.flags.writeable = _SLICE_OF.flags.writeable = False
_INCIDENCE.flags.writeable = _BITS.flags.writeable = False


def build_constraint_plan(puzzle: Board, clue_mask: ClueMask) -> tuple[np.ndarray, ConstraintPlan]:
    """The starting tensor, a (9, 9, 9) float64 array of p_ijk laid out
    [i-1, j-1, k-1] with 1 at each clue's entry, and the constraint plan.

    A clue k at (i,j) fixes p_ijk = 1 and zeroes the other members of the
    four slices through it: the other eight digits of the cell, and digit
    k elsewhere in the row, the column and the subgrid.  Each slice through
    a clue is voided; the others keep their free members, and the fixed
    entries are those that no plan slice lists as free.  ``board.check_clue_mask``
    rejects a mask marking an empty cell, ``board.unit_masks`` clues repeating a digit.
    """
    unit_masks(check_clue_mask(puzzle, clue_mask))
    cells = np.flatnonzero(np.asarray(clue_mask, dtype=bool))
    ones = cells * 9 + np.asarray(puzzle, dtype=np.intp)[cells] - 1
    tensor = np.zeros((9, 9, 9))
    tensor.reshape(-1)[ones] = 1.0
    fixed = np.zeros(729, dtype=bool)
    fixed[_MEMBERS[_SLICE_OF[ones].reshape(-1)]] = True

    pad = np.where(fixed[_MEMBERS], -np.inf, 0.0)
    active = (pad == 0.0).any(axis=1)
    families = []
    for f, kind in enumerate(_FAMILIES):
        rows = np.flatnonzero(active[81 * f : 81 * f + 81]) + 81 * f
        if rows.size:
            families.append(SliceFamily(kind, _MEMBERS[rows], pad[rows]))
    return tensor, ConstraintPlan(tuple(families), int(np.count_nonzero(fixed)))


def sweep(tensor: np.ndarray, plan: ConstraintPlan) -> tuple[np.ndarray, float]:
    """Project every active slice of the tensor once, in place, one batched
    projection per family in plan order, the fixed members padded to -inf
    and back as the 0 they hold; returns it and the largest absolute change."""
    flat = tensor.reshape(-1)
    changes = []
    for fam in plan.families:
        y = flat[fam.members]
        x = project_simplex(y + fam.pad)
        changes.append(x - y)
        flat[fam.members] = x
    return tensor, float(np.abs(np.concatenate(changes)).max()) if changes else 0.0


def round_tensor(tensor: np.ndarray) -> Board:
    """Impute to each cell (i, j) the digit k of maximal p_ijk in the
    (9, 9, 9) tensor; ties go to the smallest digit."""
    return tuple((np.argmax(tensor, axis=2) + 1).reshape(-1).tolist())


def _rounds_solved(tensor: np.ndarray) -> bool:
    """``is_solved(round_tensor(tensor))`` read off the tensor: every unit's
    cells take nine different argmax digits, ties going the same way.  One
    incidence product sums 2**k over each unit's digits k; nine powers of two
    sum to 511 only if all nine differ, and such integer sums are exact in float64."""
    digits = tensor.reshape(81, 9).argmax(axis=1)
    return bool((_INCIDENCE @ _BITS[digits] == 511.0).all())


def solve_by_projection(
    puzzle: Board,
    clue_mask: ClueMask,
    config: ProjectionConfig | None = None,
) -> SolveReport:
    """Alternating projections from the origin, testing the rounding after
    every sweep; stops on a solved rounding, a stalled sweep, or the sweep cap."""
    cfg = config or ProjectionConfig()
    start = time.perf_counter()
    tensor, plan = build_constraint_plan(puzzle, clue_mask)

    sweeps = 0
    max_change = np.inf
    while not _rounds_solved(tensor) and sweeps < cfg.max_sweeps and max_change >= cfg.stall_tolerance:
        tensor, max_change = sweep(tensor, plan)
        sweeps += 1
    board = round_tensor(tensor)
    solved = is_solved(board)

    return SolveReport(
        "projection",
        solved,
        board,
        time.perf_counter() - start,
        sweeps,
        final_cost=0 if solved else violation_cost(board),   # a rounding holds no 0
    )

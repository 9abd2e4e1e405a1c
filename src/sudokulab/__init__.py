"""Workbench comparing three 9x9 Sudoku solvers: exact cardinality-ordered
backtracking, Metropolis simulated annealing, and alternating projections
onto a continuous probability-tensor relaxation."""

from .board import parse_puzzle
from .report import SolveReport

__version__ = "0.1.0"

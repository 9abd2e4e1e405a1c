"""Bundled boards and puzzle suites (see data/*.txt)."""
from __future__ import annotations

from importlib import resources

#: 35-clue puzzle used throughout the tests.  Three cells are forced by
#: their units alone: (7,4) = 7, (8,5) = 8 and (9,5) = 9.  The board has
#: 12 completions, so it is not uniquely solvable.  It is not verbatim the
#: illustration board of Chi & Lange (arXiv:1203.2295).
SAMPLE_PUZZLE_LINE = (
    "15764..8..4........329..14.7.41.52..2..86..74....7...1.8..21......3.4.19...5.682."
)

#: The four cells causing the two column duplicates of ``TRAPPED_BOARD_LINE`` (tests/conftest.py).
TRAPPED_DUPLICATE_CELLS = ((1, 6), (2, 5), (6, 6), (7, 5))


def suite_path(name: str):
    """Filesystem path of a bundled suite file ('easy', 'medium', 'hard')."""
    return resources.files("sudokulab.data") / f"suite_{name}.txt"

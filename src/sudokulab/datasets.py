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

#: A full board two swaps away from a solution: cost 2 from two column
#: duplicates, and no single clue-respecting swap lowers the cost.  Used
#: as a violation-accounting fixture, not as a puzzle.
TRAPPED_BOARD_LINE = (
    "417962835"
    "632158749"
    "958734612"
    "825497361"
    "391586427"
    "746312598"
    "289653174"
    "573241986"
    "164879253"
)

#: The four cells causing the trapped board's two column duplicates.
TRAPPED_DUPLICATE_CELLS = ((1, 6), (2, 5), (6, 6), (7, 5))


def suite_path(name: str):
    """Filesystem path of a bundled suite file ('easy', 'medium', 'hard')."""
    return resources.files("sudokulab.data") / f"suite_{name}.txt"

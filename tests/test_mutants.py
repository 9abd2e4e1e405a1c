"""The table of ``scripts/mutants.py`` still aims at the code: every old
text occurs exactly once and every named test file exists.  No mutant runs."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_old_text_occurs_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.tests and all((ROOT / t).is_file() for t in m.tests), m.name

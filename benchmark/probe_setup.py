"""Time sudokulab's set-up in a fresh interpreter and print the seconds.

    python3 benchmark/probe_setup.py setup SOLVER SUITE...
        import the package, the solver module and the harness, then load
        and parse the named bundled suites
    python3 benchmark/probe_setup.py cli
        import sudokulab.cli

The clock starts before the first sudokulab import, so interpreter start-up
is not counted.  ``run.py`` runs this several times and takes the median.
"""
import os
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

if sys.argv[1] == "cli":
    import sudokulab.cli  # noqa: F401
else:
    import importlib

    from sudokulab import bench, datasets

    importlib.import_module(f"sudokulab.{sys.argv[2]}")
    for name in sys.argv[3:]:
        bench.load_suite(datasets.suite_path(name), name)

print(perf_counter() - start)

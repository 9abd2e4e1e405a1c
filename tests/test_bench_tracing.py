"""The benchmark's traced run wraps named sudokulab functions
(``benchmark/tracing.py``) and needs a span from each of them.  A rename,
or a call through an alias that the wrapper cannot see, fails here in
seconds instead of at the end of a traced benchmark run."""
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import tracing
    import workloads

    return tracing, workloads


def test_every_wrapped_span_is_recorded(bench_modules):
    tracing, workloads = bench_modules
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "contract"
        easy = workloads.load_puzzles(["easy"])["easy"]
        for kind in ("solve", "verify", "anneal", "project"):
            workloads.bind(workloads.Op(kind, easy[0]))()
    finally:
        tracer.restore()
    missing = [name for _, _, name, _ in tracing.WRAPPED if tracer.n("contract", name) == 0]
    assert missing == []
    assert [vars(owner)[attr] for owner, attr, _, _ in tracing.WRAPPED] == originals

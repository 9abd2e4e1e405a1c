#!/usr/bin/env python3
"""Benchmark of sudokulab's three solvers, one workload per process.

    python3 benchmark/run.py --workload exact|anneal|project \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy.  One run loads the workload's
puzzles, computes their solutions apart from the program (``checker.py``),
then times whole rounds of the workload's operations, each a public
sudokulab call, until ``--seconds`` have passed and at least the workload's
minimum number of rounds is done.  The seed fixes the order of operations
inside each round.  Every output is checked outside the timed calls.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run wraps the package's
layer functions (``tracing.py``) and reports per-layer metrics instead.
Raw samples and spans go to ``.bench_results/`` at the checkout root.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

SETUP_SAMPLES = 7     # fewest fresh interpreters timed per run; the median is reported
PROBE_ROUNDS = 3      # rounds of another workload's probe in a traced run

# workloads.py and tracing.py import sudokulab, so they are imported only
# after use_checkout_source() has put src/ first on the path.


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the path and make sure that is
    where sudokulab comes from."""
    if not (SRC / "sudokulab" / "__init__.py").is_file():
        fail(f"no sudokulab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sudokulab

    if not Path(sudokulab.__file__).resolve().is_relative_to(SRC):
        fail(f"sudokulab was imported from {sudokulab.__file__}, not from {SRC}")


def child_seconds(args: list[str]) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), *args],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"set-up probe {args} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


class SetupProbe:
    """Times set-up in fresh interpreters (``probe_setup.py``) between the
    operations of a run, one every ``interval`` seconds.  The machine's
    speed drifts over seconds, so spreading the samples over the whole run
    makes their median steadier than a burst of samples at its start."""

    def __init__(self, args: list[str], interval: float) -> None:
        self.args, self.interval = args, interval
        self.samples: list[float] = []
        child_seconds(args)  # warm-up: writes bytecode caches, fills the file cache
        self.due = perf_counter()

    def poll(self) -> None:
        if perf_counter() >= self.due:
            self.samples.append(child_seconds(self.args))
            self.due = perf_counter() + self.interval

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(child_seconds(self.args))
        return statistics.median(self.samples)


@dataclass
class Sample:
    round: int
    op: int            # index into the round's operation list
    seconds: float
    work: int | None
    failed: str | None  # why the operation failed, None if it did not
    wrong: bool         # it returned an answer that the checker rejected


def run_rounds(ops, references, rng, seconds, min_rounds, tracer=None, phase=None,
               between=None):
    """Time whole rounds of ``ops`` in a seeded shuffled order: at least
    ``min_rounds``, then another only while the mean round so far would
    still end within ``seconds``.  ``between`` is called before each
    operation, outside its timing.  Returns the samples and the number of
    rounds."""
    import workloads

    calls = [workloads.bind(op) for op in ops]
    first_work: dict[int, int | None] = {}
    samples: list[Sample] = []
    start = perf_counter()
    rounds = 0
    while rounds < min_rounds or (perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for k in order:
            if between is not None:
                between()
            if tracer is not None:
                tracer.phase, tracer.op = phase, k
            error = None
            t0 = perf_counter()
            try:
                result = calls[k]()
            except Exception as exc:  # a crashing operation is a failed one, not a crashed run
                error = f"raised {exc!r}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.record(f"op.{ops[k].kind}", t0, t1)
                tracer.phase = None
            if error is not None:
                samples.append(Sample(rounds, k, t1 - t0, None, error, False))
                continue
            out = workloads.judge(ops[k], result, references[ops[k].puzzle.label])
            failed = out.fault or ("solver gave up" if out.gave_up else None)
            if first_work.setdefault(k, out.work) != out.work:
                failed = f"work {out.work} differs from round 0 ({first_work[k]})"
            samples.append(Sample(rounds, k, t1 - t0, out.work, failed, out.fault is not None))
        rounds += 1
    return samples, rounds


def harrell_davis(sorted_values: list[float], p: float) -> float:
    """The p-quantile (0 < p < 1) by the Harrell-Davis estimator: a mean of
    all order statistics, the i-th weighted by the Beta(p(n+1), (1-p)(n+1))
    probability of ((i-1)/n, i/n].  It draws on every sample near the
    quantile rather than on one, so it moves less between runs when a few
    operations sit near the quantile and each is timed only a few times."""
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    per_value = 64  # midpoint-rule steps per order statistic
    weights = [0.0] * n
    for j in range(per_value * n):
        x = (j + 0.5) / (per_value * n)
        weights[j // per_value] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def round_work(ops, samples, kind: str) -> int:
    """Summed work of one round's operations of ``kind``."""
    return sum(s.work for s in samples if s.round == 0 and ops[s.op].kind == kind)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(name, tracer, ops, samples, rounds) -> tuple[dict, list[str]]:
    """Per-layer metrics of workload ``name`` from the spans of its phase,
    and a list of faults found in the work counts."""
    import workloads

    faults: list[str] = []
    m: dict[str, dict] = {}
    if name == "exact":
        solve = verify = feasible = attempts = 0
        for op in ops:
            a, f = workloads.count_search(op.puzzle, 1 if op.kind == "solve" else 2)
            attempts += a
            feasible += f
            if op.kind == "solve":
                solve += a
            else:
                verify += a
        if solve != round_work(ops, samples, "solve"):
            faults.append(f"solve reports {round_work(ops, samples, 'solve')} nodes, "
                          f"the trace hook counts {solve}")
        m["backtracking.nodes"] = metric(solve + verify, "count")
        m["backtracking.feasible_ratio"] = metric(feasible / attempts, "ratio")
        m["backtracking.solve_ns_per_node"] = metric(
            1e9 * tracer.sum(name, "op.solve") / (rounds * solve), "ns")
        m["backtracking.verify_ns_per_node"] = metric(
            1e9 * tracer.sum(name, "op.verify") / (rounds * verify), "ns")
        m["backtracking.order_cells_us"] = metric(
            1e6 * tracer.mean(name, "backtracking.order_cells"), "us")
        m["board.candidates_us"] = metric(1e6 * tracer.mean(name, "board.candidates"), "us")
    elif name == "anneal":
        iters = round_work(ops, samples, "anneal")
        setup = tracer.sum(name, "annealing.initial_board") + tracer.sum(name, "annealing.state_create")
        m["annealing.iterations"] = metric(iters, "count")
        m["annealing.us_per_iter"] = metric(
            1e6 * (tracer.sum(name, "op.anneal") - setup) / (rounds * iters), "us")
        m["annealing.setup_us"] = metric(1e6 * setup / tracer.n(name, "op.anneal"), "us")
    else:
        calls = tracer.n(name, "projections.project_simplex")
        if calls % rounds:
            faults.append(f"{calls} simplex calls do not split evenly over {rounds} rounds")
        m["projections.sweeps"] = metric(round_work(ops, samples, "project"), "count")
        m["projections.simplex_calls"] = metric(calls // rounds, "count")
        m["projections.sweep_ms"] = metric(1e3 * tracer.mean(name, "projections.sweep"), "ms")
        m["projections.simplex_us"] = metric(
            1e6 * tracer.mean(name, "projections.project_simplex"), "us")
        m["projections.plan_build_ms"] = metric(
            1e3 * tracer.mean(name, "projections.build_constraint_plan"), "ms")
        m["projections.round_us"] = metric(1e6 * tracer.mean(name, "projections.round_tensor"), "us")
        m["board.is_solved_us"] = metric(1e6 * tracer.mean(name, "board.is_solved"), "us")
    return m, faults


def main(argv=None) -> int:
    use_checkout_source()
    import checker
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = workloads.WORKLOADS[args.workload]
    probe_args = ["cli"] if args.trace else ["setup", wl.module, *wl.suites]
    setup_probe = SetupProbe(probe_args, args.seconds / SETUP_SAMPLES)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase = "load"
    puzzles = workloads.load_puzzles(wl.suites)
    if tracer is not None:
        tracer.phase = None  # the other workloads' probes need every suite
        puzzles.update(workloads.load_puzzles(set(workloads.SUITES) - set(puzzles)))

    references = {}
    for suite in puzzles.values():
        for p in suite:
            references[p.label] = checker.all_solutions(p.board)
            if len(references[p.label]) != 1:
                fail(f"bundled puzzle {p.label} has {len(references[p.label])} solutions")

    ops = wl.ops(puzzles)
    first = ops[0].puzzle.label
    warm = [op for op in ops if op.puzzle.label == first and op.seed == 0]
    run_rounds(warm, references, random.Random(args.seed), 0, 1)

    rng = random.Random(args.seed)
    samples, rounds = run_rounds(ops, references, rng, args.seconds, wl.min_rounds,
                                 tracer, wl.name, setup_probe.poll)
    times = [s.seconds for s in samples]
    failed = [s for s in samples if s.failed]
    correct = not any(s.wrong for s in samples)
    for s in failed[:5]:
        print(f"failed: {ops[s.op].label}: {s.failed}", file=sys.stderr)

    if tracer is None:
        tail_pct = wl.tail_percentile(len(ops))
        metrics = {
            "setup_s": metric(setup_probe.median(), "s"),
            "ops_per_s": metric(len(times) / sum(times), "1/s"),
            "op_p50_s": metric(statistics.median(times), "s"),
            "op_tail_s": metric(harrell_davis(sorted(times), tail_pct / 100), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"op_tail_s is p{tail_pct} of {len(times)} samples ({rounds} rounds)")
    else:
        metrics, faults = layer_metrics(wl.name, tracer, ops, samples, rounds)
        print(f"traced: ops_per_s {len(times) / sum(times):.6g} 1/s, "
              f"op_p50_s {statistics.median(times):.6g} s over {rounds} rounds")
        for other in workloads.WORKLOADS.values():
            if other is wl:
                continue
            probe_ops = other.ops(puzzles, only=other.probe)
            probe_samples, probe_rounds = run_rounds(
                probe_ops, references, random.Random(args.seed), 0, PROBE_ROUNDS, tracer, other.name)
            more, more_faults = layer_metrics(other.name, tracer, probe_ops, probe_samples,
                                              probe_rounds)
            metrics.update(more)
            faults += more_faults
            correct = correct and not any(s.failed for s in probe_samples)
        for fault in faults:
            print(f"work-count fault: {fault}", file=sys.stderr)
        correct = correct and not faults
        metrics["board.parse_us"] = metric(1e6 * tracer.mean("load", "board.parse"), "us")
        metrics["bench.load_suite_ms"] = metric(1e3 * tracer.mean("load", "bench.load_suite"), "ms")
        metrics["cli.import_ms"] = metric(1e3 * setup_probe.median(), "ms")
        tracer.restore()

    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "rounds": rounds, "metrics": metrics,
                   "samples": [[s.round, ops[s.op].label, s.seconds, s.work, s.failed]
                               for s in samples]}, fh)
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.jsonl")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {len(samples)}, failed {len(failed)}, correct {correct}")
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

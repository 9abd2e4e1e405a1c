#!/usr/bin/env python3
"""Run the benchmark and write its results as one JSON record.

    python3 scripts/bench_json.py --pair PARENT --seeds 11 12 13 --out BENCH_n.json

Every run is ``benchmark/run.py`` in a subprocess, for ``BENCHMARK.json``'s
``run_seconds``, and its last line of standard output, a JSON object, is all
this script reads from it.

The script exports PARENT's tracked files with ``git archive`` into a
temporary directory and runs that copy and this checkout in turn for each
seed and every workload in ``BENCHMARK.json``, swapping which goes first
from one pair to the next, so the machine's drifting speed falls on both
sides alike.

Per workload and end-to-end metric the record holds each side's runs,
median and quartiles (``statistics.quantiles(n=4)``), the pairs the change
won, whether the median gain is larger than the parent's quartile spread,
and whether the change's median is worse than the parent's by more than the
metric's bound in ``BENCHMARK.json``.  Per side it holds one traced run per
workload (per-layer metrics, on the first seed), the sha256 of the
``benchmark/work_counts.py`` output for every workload (equal on both sides
when the work and boards are unchanged), the ``src/`` line count, the git
commit, and the wall time and passed/skipped/failed counts of the tier-1
tests run on that side's own ``src``; once, the Python and numpy versions
and the CPU.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(side: str, root: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``benchmark/run.py`` run in ``root``: its final JSON line."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_json: {' '.join(cmd)} failed in {root}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    print(f"  {side} {workload} seed {seed} trace {trace}: "
          f"failed {result['failed']}/{result['attempted']}, correct {result['correct']}",
          file=sys.stderr)
    return result


def tier1(side: str, root: Path) -> dict:
    """Wall time and outcome counts of the tier-1 tests of one checkout,
    run on its own ``src``."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=root, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|skipped|failed|error)", summary)}
    print(f"  {side} tier-1: {summary}", file=sys.stderr)
    return {"wall_s": wall, "summary": summary,
            **{kind: counts.get(kind, 0) for kind in ("passed", "skipped", "failed", "error")}}


def describe(side: str, root: Path, commit: str, uncommitted: bool, seed: int) -> dict:
    """Commit, size, tier-1 outcome, work digest and traced per-layer
    metrics of one checkout."""
    work = subprocess.run([sys.executable, "benchmark/work_counts.py", *WORKLOADS],
                          cwd=root, check=True, capture_output=True).stdout
    return {
        "commit": commit,
        "uncommitted_changes": uncommitted,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py")),
        "tier1": tier1(side, root),
        "work_counts_sha256": hashlib.sha256(work).hexdigest(),
        "traced": {w: bench(side, root, w, seed, 1) for w in WORKLOADS},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric: both sides' spreads, wins and bound check."""
    out = {}
    for name, spec in BOUNDS.items():
        sign = 1 if spec["better"] == "lower" else -1
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        ps, cs = spread(p), spread(c)
        gain = sign * (ps["median"] - cs["median"])  # > 0 when the change is better
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": ps, "change": cs,
            "change_over_parent": cs["median"] / ps["median"],
            "wins": wins, "pairs": len(p),
            "gain_exceeds_parent_iqr": gain > ps["q3"] - ps["q1"],
            "claim_holds": wins >= 0.9 * len(p) and gain > ps["q3"] - ps["q1"],
            "worse_past_bound": -gain > spec["bound"] * ps["median"],
        }
    return out


def failures(runs: list[dict]) -> dict:
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def record(args: argparse.Namespace, parent_root: Path) -> dict:
    sides = {"parent": parent_root, "change": ROOT}
    runs: dict = {w: {side: [] for side in sides} for w in WORKLOADS}
    for k, seed in enumerate(args.seeds):
        for j, w in enumerate(WORKLOADS):
            order = list(sides) if (k + j) % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[w][side].append(bench(side, sides[side], w, seed, 0))
    info = {
        "parent": describe("parent", parent_root, git(ROOT, "rev-parse", f"{args.pair}^{{commit}}"),
                           False, args.seeds[0]),
        "change": describe("change", ROOT, git(ROOT, "rev-parse", "HEAD"),
                           bool(git(ROOT, "status", "--porcelain", "--untracked-files=no")), args.seeds[0]),
    }
    return {
        "env": {"python": platform.python_version(), "numpy": metadata.version("numpy"),
                "cpu_count": os.cpu_count(), "cpu": cpu_model(),
                "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "settings": {"seeds": args.seeds, "seconds": SECONDS, "pair": args.pair},
        "sides": info,
        "workloads": {w: {"failures": {side: failures(r) for side, r in by_side.items()},
                          "end_to_end": compare(by_side["parent"], by_side["change"])}
                      for w, by_side in runs.items()},
        "work_unchanged": info["parent"]["work_counts_sha256"] == info["change"]["work_counts_sha256"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pair", metavar="PARENT", required=True,
                    help="commit to run alternately against this checkout")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.pair],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        result = record(args, Path(tmp))
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

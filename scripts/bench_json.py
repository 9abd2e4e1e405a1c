#!/usr/bin/env python3
"""Run the benchmark and write its results as one JSON record.

    python3 scripts/bench_json.py --pair PARENT --seeds 11 12 13 --out BENCH_n.json

Every run is ``benchmark/run.py`` in a subprocess, for ``BENCHMARK.json``'s
``run_seconds``, and its last line of standard output, a JSON object, is all
this script reads from it.

The script checks PARENT out into a ``git worktree`` under a temporary
directory and runs the parent's checkout and this one in turn for each seed
and every workload in ``BENCHMARK.json``, swapping which goes first from one
pair to the next, so the machine's drifting speed falls on both sides alike.

Per workload and end-to-end metric the record holds each side's runs,
median and quartiles (``statistics.quantiles(n=4)``), the pairs the change
won, whether the median gain is larger than the parent's quartile spread,
and whether the change's median is worse than the parent's by more than the
metric's bound in ``BENCHMARK.json``.  Per side it holds one traced run per
workload (per-layer metrics, on the first seed), the sha256 of the
``benchmark/work_counts.py`` output for every workload (equal on both sides
when the work and boards are unchanged), the ``src/`` line count and the git
commit; once, the Python and numpy versions and the CPU.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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


def describe(side: str, root: Path, seed: int) -> dict:
    """Commit, size, work digest and traced per-layer metrics of one checkout."""
    work = subprocess.run([sys.executable, "benchmark/work_counts.py", *WORKLOADS],
                          cwd=root, check=True, capture_output=True).stdout
    return {
        "commit": git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py")),
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
    info = {side: describe(side, root, args.seeds[0]) for side, root in sides.items()}
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
        parent_root = Path(tmp) / "parent"
        git(ROOT, "worktree", "add", "--detach", str(parent_root), args.pair)
        try:
            result = record(args, parent_root)
        finally:
            git(ROOT, "worktree", "remove", "--force", str(parent_root))
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change runs of the benchmark, summarised per metric.

Run from anywhere, with git and tar on PATH:

    python tools/pairs.py --parent HEAD~1 --pairs 5 --seconds 30 --label NAME

Both sides run from fresh directories under one temporary directory, so
neither starts with a bytecode cache the other lacks: the parent is
`git archive <rev>` of this repository, and the change a copy of this
checkout's `src/` and `perfbench/`. For each workload named in
BENCHMARK.json, each pair runs
`python3 perfbench/run.py --workload W --seconds T --trace 0` once in each
tree, one process at a time. The first pair starts with the parent, and
each later pair swaps which side goes first, so a drifting core favours
neither. BENCH_<label>.json, at the root of the checkout, then holds per
workload and end-to-end metric: every run's value, each side's median and
quartiles, and the number of pairs the change won (better, in the direction
BENCHMARK.json gives, not tied). It also holds the failed operations of
each side. Exits 1, writing no JSON, when the parent cannot be exported or
at the first run that exits non-zero or whose last line is no correct
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


class Failed(Exception):
    """The export or a run failed; the message says which."""


def export(rev: str, dest: Path) -> str:
    """Unpack the tree of rev into dest and return its commit id."""
    found = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if found.returncode:
        raise Failed(f"no commit {rev!r}: {found.stderr.strip()}")
    commit = found.stdout.strip()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
    unpacked = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or unpacked.returncode:
        raise Failed(f"could not export {commit} to {dest}")
    return commit


def parse_result(line: str) -> dict | None:
    """The object a run's last line holds, or None unless it is a JSON
    object with `"correct": true`, the `failed` and `attempted` counts, and
    a numeric value and a unit for each metric of BENCHMARK.json: all that
    summarise reads."""
    try:
        result = json.loads(line)
        correct = result["correct"] is True and "failed" in result and "attempted" in result
        metrics = [result["metrics"][name] for name in BETTER]
        numeric = all(type(m["value"]) in (int, float) and "unit" in m for m in metrics)
    except (ValueError, TypeError, KeyError):
        return None
    return result if correct and numeric else None


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """The result line of one untraced benchmark run in tree; Failed when
    the run exits non-zero or its last line is no result (see parse_result)."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = parse_result(lines[-1]) if done.returncode == 0 and lines else None
    if result is None:
        sys.stderr.write(done.stderr[-4000:])
        raise Failed(f"{workload} in {tree} exited {done.returncode}: {lines[-1:]}")
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles; a single value is all three."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs: dict[str, list[dict]]) -> dict:
    """Per metric of one workload, both sides' values and spreads, and the
    pairs the change won; then each side's failed and attempted operations."""
    out = {}
    for name, better in BETTER.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins = sum(
            c < p if better == "lower" else c > p
            for p, c in zip(values["parent"], values["change"])
        )
        out[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": better,
            "parent": {**spread(values["parent"]), "values": values["parent"]},
            "change": {**spread(values["change"]), "values": values["change"]},
            "change_won": wins,
        }
    out["failed"] = {side: [r["failed"] for r in runs[side]] for side in runs}
    out["attempted"] = {side: [r["attempted"] for r in runs[side]] for side in runs}
    return out


def compare(trees: dict[str, Path], workload: str, pairs: int, seconds: float) -> dict:
    """The summary of `pairs` alternating runs of one workload in both trees."""
    runs: dict[str, list[dict]] = {side: [] for side in trees}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(trees[side], workload, seconds)
            runs[side].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {i + 1} {side}: wall_s {wall:.4f}", flush=True)
    return summarise(runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"pairs must be >= 1, got {args.pairs}")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
            trees["parent"].mkdir()
            commit = export(args.parent, trees["parent"])
            for part in ("src", "perfbench"):
                shutil.copytree(
                    ROOT / part,
                    trees["change"] / part,
                    ignore=shutil.ignore_patterns("__pycache__", "out"),
                )
            summary = {w: compare(trees, w, args.pairs, args.seconds) for w in WORKLOADS}
    except Failed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = {
        "parent": {"rev": args.parent, "commit": commit},
        "change": "working tree",
        "pairs": args.pairs,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": summary,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

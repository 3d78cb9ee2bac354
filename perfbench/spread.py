"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/spread.py --workload exact-scan --seeds 1-10 --label set-a

Runs go one after another, untraced and for the run_seconds of
BENCHMARK.json, each in its own process started from the checkout root. Every
result is appended to perfbench/out/<label>.jsonl. The summary covers every
run of the workload in that file and gives, per metric, the median, the
quartiles from statistics.quantiles(n=4) and the spread (Q3 - Q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(records: list[dict]) -> None:
    shares = {r["failed"] / r["attempted"] for r in records}
    print(f"runs={len(records)} correct={all(r['correct'] for r in records)} failed share={shares}")
    for name in records[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in records]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a seed or a range like 1-10")
    parser.add_argument("--label", default="runs")
    args = parser.parse_args()
    log = HERE / "out" / f"{args.label}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed)
        with log.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    records = [r for r in records if r["workload"] == args.workload]
    summarise(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""walkrank benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; walkrank is imported from its `src/`. The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With --trace 0 the metrics are end to end: the median wall and
CPU time of one round, the peak resident memory of the timed part and the
median set-up time. The set-ups that only time are repeated after the timed
part, so the modules they leave behind do not count in its peak memory.
With --trace 1, rounds alternate untraced and traced, and the metrics are the
median per-round self time and call count of each layer, plus the tracing
overhead. Correctness is checked after the timed part and counts in no metric.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # numpy in the checks must not start a thread pool

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-ups repeat until both limits are met; setup_s is their median. Repeating
# a 50 ms set-up for 2 s averages over short swings in the speed of a shared CPU.
SETUP_MIN_COUNT = 7
SETUP_MIN_SECONDS = 2.0


def import_program(baseline: set[str]) -> SimpleNamespace:
    """Import walkrank afresh, with the modules its import pulls in.

    Every module loaded since `baseline` was taken is dropped first, so each
    set-up pays walkrank's import closure and a new import in walkrank shows
    in the median. A top-level package with a compiled module stays loaded:
    such modules cannot in general be set up twice in one process (numpy
    refuses), so their import shows only in the first set-up.
    """
    new = [m for m in sys.modules if m not in baseline]
    compiled = {
        m.partition(".")[0]
        for m in new
        if not (getattr(sys.modules[m], "__file__", None) or "").endswith(".py")
    }
    for name in new:
        if name.partition(".")[0] not in compiled:
            del sys.modules[name]
    names = ("cli", "reports", "quotient", "graphs")
    mods = {name: importlib.import_module(f"walkrank.{name}") for name in names}
    return SimpleNamespace(pkg=sys.modules["walkrank"], **mods)


def set_up(workload, data, baseline: set[str]):
    t0 = time.perf_counter()
    wr = import_program(baseline)
    inputs = workload.make_inputs(wr, data)
    return time.perf_counter() - t0, wr, inputs


def measure(workload, wr, inputs, seconds: float, trace: bool):
    """Run whole rounds until the next one would end past `seconds`."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = tracing.Tracer() if trace and len(rounds) % 2 else None
        with tracer.patched() if tracer else contextlib.nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            attempted, failed, output = workload.run_round(wr, inputs)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        rounds.append(
            SimpleNamespace(
                wall=wall, cpu=cpu, attempted=attempted, failed=failed, output=output, tracer=tracer
            )
        )
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= (2 if trace else 1) and time.perf_counter() + typical > deadline:
            return rounds


def end_to_end(rounds, setups, peak_kb: int) -> dict:
    return {
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu for r in rounds), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(rounds) -> dict:
    per_round = [tracing.self_times(r.tracer.spans) for r in rounds if r.tracer]
    out = {}
    for layer in tracing.LAYERS:
        ms = statistics.median(t.get(layer, (0.0, 0))[0] * 1000 for t in per_round)
        calls = statistics.median(t.get(layer, (0.0, 0))[1] for t in per_round)
        out[f"{layer}_ms"] = (ms, "ms")
        out[f"{layer}_calls"] = (calls, "count")
    # each traced round against the untraced round just before it, so slow drift cancels
    overhead = statistics.median(b.wall - a.wall for a, b in zip(rounds[::2], rounds[1::2]))
    out["trace.overhead_ms"] = (overhead * 1000, "ms")
    return out


def write_trace(path: Path, rounds) -> None:
    path.parent.mkdir(exist_ok=True)
    spans = [r.tracer.spans for r in rounds if r.tracer]
    path.write_text(json.dumps({"fields": ["layer", "start", "end", "parent"], "rounds": spans}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "walkrank" / "__init__.py").is_file():
        print(f"error: no walkrank package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    data = workload.prepare(args.seed)  # walkrank plays no part in it, so it is not timed

    baseline = set(sys.modules)
    elapsed, wr, inputs = set_up(workload, data, baseline)
    setups = [elapsed]
    rounds = measure(workload, wr, inputs, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(rounds)
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json", rounds)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        # Modules dropped by a set-up can stay alive through their atexit
        # hooks, about 1.5 MB each time, so these come after the peak is read.
        while len(setups) < SETUP_MIN_COUNT or sum(setups) < SETUP_MIN_SECONDS:
            setups.append(set_up(workload, data, baseline)[0])
            gc.collect()
        metrics = end_to_end(rounds, setups, peak_kb)

    try:
        workload.check(wr, inputs, [r.output for r in rounds])
        correct = True
    except Exception:  # any disagreement or crash in the checks makes the run incorrect
        traceback.print_exc()
        correct = False
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

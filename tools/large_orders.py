"""Stage timings and peak memory of every check at large orders of D̃_n.

Run from anywhere:

    python tools/large_orders.py --orders 300,500,1000 --out BENCH_large_orders.json

Each order runs `run_checks(n, ALL_CHECKS)` from this checkout's `src/` in a
fresh child process, one order at a time, so each peak RSS is that order's
alone. The JSON holds, per order, the stage timings `run_checks` reports
(ms), the total wall time of the call (ms), the child's `ru_maxrss` (MB), the
pass/fail flag of each check and the exact rank. Exits 1 unless every order
passes every theorem-backed check with rank ⌊n/2⌋, the paper's formula.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from walkrank.reports import ALL_CHECKS, run_checks

# ru_maxrss is in bytes on macOS and in kilobytes elsewhere
_RSS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10


def _measure(n: int, conn) -> None:
    t0 = time.perf_counter()
    row = run_checks(n, ALL_CHECKS)
    total_ms = (time.perf_counter() - t0) * 1000.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send(
        {
            "n": n,
            "rank_exact": row.report.rank_exact,
            "passed": row.passed,
            "theorem_ok": row.theorem_ok,
            "total_ms": round(total_ms, 1),
            "timings_ms": {key: round(ms, 1) for key, ms in row.report.timings.items()},
            "peak_rss_mb": round(peak / _RSS_PER_MB, 1),
        }
    )


def measure(n: int) -> dict:
    """One order's row, from a child process of its own, with the child's
    exit code; a child that fails before sending gives only n and that."""
    ctx = multiprocessing.get_context("spawn")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_measure, args=(n, send))
    child.start()
    send.close()
    try:
        row = receive.recv()
    except EOFError:
        row = {"n": n}
    child.join()
    row["exit_code"] = child.exitcode
    return row


def row_ok(row: dict) -> bool:
    """The child exited cleanly and the order passed every theorem-backed
    check, with rank floor(n/2)."""
    ok = row["exit_code"] == 0 and row.get("theorem_ok") is True
    return ok and row.get("rank_exact") == row["n"] // 2


def _orders(text: str) -> list[int]:
    orders = [int(part) for part in text.split(",")]
    if any(n < 4 for n in orders):
        raise argparse.ArgumentTypeError(f"every order must be >= 4, got {text}")
    return orders


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=_orders, required=True, help="e.g. 300,500,1000")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    rows = []
    for n in args.orders:
        row = measure(n)
        rows.append(row)
        if "total_ms" in row:
            note = f"{row['total_ms'] / 1000:.1f} s, {row['peak_rss_mb']} MB"
        else:
            note = f"the child exited with {row['exit_code']}"
        print(f"n={n}: {note}, {'ok' if row_ok(row) else 'FAILED'}", flush=True)
    result = {
        "checks": list(ALL_CHECKS),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0 if all(map(row_ok, rows)) else 1


if __name__ == "__main__":
    sys.exit(main())

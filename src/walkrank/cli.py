"""Command line for the toolkit.

Subcommands: gen, walk, rank, snf, quotient, spectrum, verify, scan. Sources
may be a family spec like `ext-dynkin:8` (also `path:5`, `dynkin:6`) or a
file; `walk` reads edge-list files, `rank`/`snf` read matrix text files. For a
family spec, `rank` and `snf` eliminate W_E = W·U, which gives W's results.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .graphs import (
    Graph,
    adjacency_matrix,
    format_edge_list,
    make_dynkin,
    make_extended_dynkin,
    make_path,
    parse_edge_list,
)
from .intmatrix import (
    IntMatrix,
    chebyshev_walk_matrix,
    format_matrix_text,
    parse_ints,
    parse_matrix_text,
    rank_fraction_free,
    rank_modular,
    walk_matrix,
)
from .quotient import canonical_partition, characteristic_matrix, divisor_matrix
from .reports import (
    ALL_CHECKS,
    ScanRow,
    VerificationError,
    reports_to_csv,
    reports_to_json,
    scan,
    verify,
)
from .snf import smith_normal_form, walk_core
from .spectra import _GROUP_TOL, _PROJ_TOL, ConvergenceError, count_main_eigenvalues

FAMILIES = {
    "path": make_path,
    "dynkin": make_dynkin,
    "ext-dynkin": make_extended_dynkin,
}


def _integer(text: str) -> int:
    """One integer, written as the text formats write it (see parse_ints)."""
    values = parse_ints(text)
    if len(values) != 1:
        raise ValueError(f"expected one integer, got {text!r}")
    return values[0]


def _family_graph(source: str) -> Graph | None:
    name, sep, num = source.partition(":")
    if not sep or name not in FAMILIES:
        return None
    try:
        n = _integer(num)
    except ValueError:
        raise ValueError(f"family spec needs an integer order, got {source!r}") from None
    return FAMILIES[name](n)


def _file_text(source: str) -> str:
    """The text of the file a source names when it is no family spec."""
    path = Path(source)
    if not path.is_file():
        raise ValueError(f"{source!r} is neither a family spec nor a readable file")
    return path.read_text()


def _load_graph(source: str) -> Graph:
    g = _family_graph(source)
    return g if g is not None else parse_edge_list(_file_text(source))


def _load_matrix(source: str) -> tuple[IntMatrix, IntMatrix]:
    """The matrix a source names, and the matrix its SNF eliminates: for a
    family spec, W_E = W·U and walk_core(W_E), which have W's shape, ranks and
    factors (chebyshev_walk_matrix); for a file, the matrix itself twice, uncut."""
    g = _family_graph(source)
    if g is None:
        m = parse_matrix_text(_file_text(source))
        return m, m
    w = chebyshev_walk_matrix(adjacency_matrix(g))
    return w, walk_core(w)


def _print_aligned(m: IntMatrix) -> None:
    cells = [[str(x) for x in row] for row in m]
    widths = [max(map(len, col)) for col in zip(*cells)]
    for row in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def cmd_gen(args: argparse.Namespace) -> int:
    g = FAMILIES[args.family](args.n)
    if args.edges:
        sys.stdout.write(format_edge_list(g))
    else:
        print(f"{args.family}:{args.n} has {g.order} vertices and {g.edge_count} edges")
    return 0


def cmd_walk(args: argparse.Namespace) -> int:
    w = walk_matrix(adjacency_matrix(_load_graph(args.source)))
    if args.dump_matrix:
        sys.stdout.write(format_matrix_text(w))
    else:
        _print_aligned(w)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    m, core = _load_matrix(args.source)
    method = args.method
    if method == "snf":
        r = smith_normal_form(core).rank
    elif method == "bareiss":
        r = rank_fraction_free(m)
    elif method.startswith("mod:"):
        r = rank_modular(m, _integer(method[4:]))
    else:
        raise ValueError(f"unknown method {method!r} (use snf, bareiss, or mod:<p>)")
    print(r)
    return 0


def cmd_snf(args: argparse.Namespace) -> int:
    m, core = _load_matrix(args.source)
    result = smith_normal_form(core)
    factors = result.invariant_factors
    print(",".join(str(d) for d in factors))
    padded = list(factors) + [0] * (min(m.rows, m.cols) - result.rank)
    print("diag(" + ",".join(str(d) for d in padded) + ")")
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    n = args.n
    part = canonical_partition(n)
    g = make_extended_dynkin(n)
    print("P")
    sys.stdout.write(format_matrix_text(characteristic_matrix(part, n + 1)))
    print("B")
    sys.stdout.write(format_matrix_text(divisor_matrix(g, part)))
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _load_graph(args.source)
    report = count_main_eigenvalues(g)
    payload = {
        "order": g.order,
        "eigenvalues": list(report.eigenvalues),
        "groups": [
            {"value": rep, "multiplicity": mult, "main": flag}
            for (rep, mult), flag in zip(report.groups, report.main_flags)
        ],
        "main_count": report.main_count,
        "inertia_route": report.inertia_route,
        "inertia_ok": report.inertia_ok,
        "group_tol": _GROUP_TOL,
        "proj_tol": _PROJ_TOL,
    }
    print(json.dumps(payload, indent=2))
    if not report.inertia_ok:
        print("error: eigenvalue groups disagree with the inertia count", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rep = verify(args.n)
    for name, value in asdict(rep).items():
        if name == "timings":
            value = " ".join(f"{k}={v:.2f}ms" for k, v in value.items())
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        print(f"{name:<18}{value}")
    return 0


def _scan_pretty(rows: list[ScanRow], checks: tuple[str, ...]) -> None:
    for row in rows:
        rep = row.report
        parts = [f"n={rep.n:<3d}"]
        if rep.rank_exact is not None:
            parts.append(f"rank={rep.rank_exact}/{rep.rank_expected}")
        if rep.main_count is not None:
            parts.append(f"main={rep.main_count}")
        if rep.snf_w is not None:
            parts.append("snf=" + ",".join(str(d) for d in rep.snf_w))
        for name in checks:
            if name == "conjecture":
                verdict = "holds" if row.passed["conjecture"] else "fails"
                parts.append(f"conjecture:{verdict}")
            else:
                parts.append(f"{name}:{'PASS' if row.passed[name] else 'FAIL'}")
        print("  ".join(parts))
    failing = [row.report.n for row in rows if not row.theorem_ok]
    if failing:
        print(f"FAIL: theorem-backed checks failed at n = {failing}")
    else:
        print(f"OK: all theorem-backed checks passed for {len(rows)} orders")


def cmd_scan(args: argparse.Namespace) -> int:
    checks = tuple(tok.strip() for tok in args.checks.split(","))
    rows = scan(args.from_n, args.to_n, checks=checks, jobs=args.jobs)
    if args.format == "json":
        sys.stdout.write(reports_to_json([row.report for row in rows]))
    elif args.format == "csv":
        sys.stdout.write(reports_to_csv([row.report for row in rows]))
    else:
        _scan_pretty(rows, checks)
    return 0 if all(row.theorem_ok for row in rows) else 1


# one parser for every call: argparse ties each parser and its actions into cycles
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkrank",
        description="Exact walk-matrix toolkit: ranks, Smith normal forms, quotients and spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph family member")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("n", type=_integer)
    p.add_argument("--edges", action="store_true", help="print the edge-list file format")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("walk", help="walk matrix of a graph")
    p.add_argument("source", help="family spec (e.g. ext-dynkin:8) or edge-list file")
    p.add_argument("--dump-matrix", action="store_true", help="print the matrix text format")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("rank", help="exact rank of a matrix or family walk matrix")
    p.add_argument("source", help="family spec or matrix text file")
    p.add_argument("--method", default="bareiss", help="snf, bareiss, or mod:<p>")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("snf", help="Smith normal form of a matrix or family walk matrix")
    p.add_argument("source", help="family spec or matrix text file")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("quotient", help="characteristic and divisor matrices at order n")
    p.add_argument("n", type=_integer)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("spectrum", help="eigenvalue groups and main flags as JSON")
    p.add_argument("source", help="family spec or edge-list file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="full verification report at order n")
    p.add_argument("n", type=_integer)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="run checks over a range of orders")
    p.add_argument("--from", dest="from_n", type=_integer, default=4)
    p.add_argument("--to", dest="to_n", type=_integer, default=64)
    p.add_argument(
        "--checks",
        default=",".join(ALL_CHECKS),
        help="comma-separated subset of: " + ", ".join(ALL_CHECKS),
    )
    p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    p.add_argument("--jobs", type=_integer, default=1)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at the null device so the flush
        # at shutdown cannot raise again, and exit as a shell reports a
        # process killed by SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (VerificationError, ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

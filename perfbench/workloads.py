"""The three workloads: inputs from a seed, one timed round, and the checks.

A workload has `prepare(seed)`, which draws the seeded data without walkrank
and is not timed; `make_inputs(wr, data)`, the timed part of set-up;
`run_round(wr, inputs)` returning (attempted, failed, output); and
`check(wr, inputs, outputs)`, which raises CheckFailed. `wr` holds the freshly
imported walkrank modules. One operation is one check at one order, or one
kernel call on one corpus matrix. Only an operation that raises counts as
failed; a wrong answer, or a scan that exits nonzero because one of its own
checks failed, makes the run incorrect.

The scans call `walkrank.cli.main` in-process with stdout captured, then parse
the JSON back with `parse_scan_json`. Their orders are fixed; the seed picks
which orders the check phase recomputes through `run_checks`.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import asdict, dataclass

import corpus
import oracles

EXACT_RANGE = (4, 100)
EXACT_CHECKS = "rank,hat,snf-equiv,conjecture"
SYMPY_UP_TO = 24  # orders whose factors are also compared with sympy's SNF
HAGOS_RANGE = (4, 44)
EIGPAIRS_RANGE = (4, 73)  # eigpairs cost grows about as n**4; this evens the two halves
RECHECKED_ORDERS = 3  # orders per scan recomputed through run_checks
CORPUS_KERNELS = ("text codec", "bareiss rank", "snf rank", "modular rank", "snf", "det")


FAILED = object()  # stands in for the output of an operation that raised


class CheckFailed(Exception):
    """A program output disagrees with an independent reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _orders(span: tuple[int, int]) -> list[int]:
    return list(range(span[0], span[1] + 1))


@dataclass(frozen=True)
class Scan:
    """One `walkrank scan` call: orders, checks and a seeded recheck sample."""

    span: tuple[int, int]
    checks: str
    sample: tuple[int, ...]

    @classmethod
    def seeded(cls, rng: random.Random, span: tuple[int, int], checks: str) -> "Scan":
        return cls(span, checks, tuple(sorted(rng.sample(_orders(span), RECHECKED_ORDERS))))

    @property
    def ops(self) -> int:
        return len(_orders(self.span)) * len(self.checks.split(","))

    @property
    def argv(self) -> list[str]:
        lo, hi = self.span
        return [
            "scan", "--from", str(lo), "--to", str(hi), "--checks", self.checks,
            "--format", "json", "--jobs", "1",
        ]


def _run_scan(wr, scan: Scan):
    """(exit code, JSON text, parsed rows) of one in-process `walkrank scan`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wr.cli.main(scan.argv)
    text = buf.getvalue()
    return code, text, wr.reports.parse_scan_json(text)


def _round_of_scans(wr, scans: tuple[Scan, ...]):
    """Every check of a scan that raises counts as failed."""
    failed = 0
    outs = []
    for scan in scans:
        try:
            out = _run_scan(wr, scan)
        except Exception as exc:  # a crashing scan is a failed operation, not a crashed run
            print(f"{scan.argv}: {exc!r}", file=sys.stderr)
            failed += scan.ops
            out = FAILED
        outs.append(out)
    return sum(s.ops for s in scans), failed, outs


def _fields(rep) -> dict:
    out = asdict(rep)
    del out["timings"]
    return out


def _check_scan_output(wr, scan: Scan, outs: list) -> list:
    """Checks all scans share; returns the rows of the first round that did not fail."""
    outs = [out for out in outs if out is not FAILED]
    require(bool(outs), f"scan {scan.checks}: no round gave an output")
    for code, _, _ in outs:
        require(code == 0, f"scan {scan.checks}: walkrank's own checks failed (exit {code})")
    _, text, rows = outs[0]
    require([r.n for r in rows] == _orders(scan.span), f"scan {scan.checks}: wrong orders")
    require(wr.reports.reports_to_json(rows) == text, f"scan {scan.checks}: JSON does not round-trip")
    plain = [_fields(r) for r in rows]
    for other in outs[1:]:
        require([_fields(r) for r in other[2]] == plain, f"scan {scan.checks}: rounds disagree")
    lo = scan.span[0]
    for n in scan.sample:
        again = wr.reports.run_checks(n, scan.checks.split(",")).report
        require(_fields(again) == plain[n - lo], f"n={n}: parsed row differs from run_checks")
    return rows


class _Scans:
    """Scan workloads: the set-up has nothing to build beyond the import."""

    def make_inputs(self, wr, scans: tuple[Scan, ...]) -> tuple[Scan, ...]:
        return scans

    run_round = staticmethod(_round_of_scans)


class ExactScan(_Scans):
    """Integer layers only: walk matrix, Bareiss, SNF, quotient and `AP = PB`."""

    def prepare(self, seed: int) -> tuple[Scan, ...]:
        return (Scan.seeded(random.Random(seed), EXACT_RANGE, EXACT_CHECKS),)

    def check(self, wr, inputs, outputs) -> None:
        (scan,) = inputs
        rows = _check_scan_output(wr, scan, [out[0] for out in outputs])
        for rep in rows:
            n, r = rep.n, rep.n // 2
            require(rep.rank_exact == rep.rank_expected == r, f"n={n}: rank {rep.rank_exact}")
            require(len(rep.snf_w) == r, f"n={n}: SNF has {len(rep.snf_w)} factors")
            require(rep.snf_w == rep.snf_wprime, f"n={n}: SNF(W) != SNF(W')")
            require(rep.integrally_equiv is True, f"n={n}: W and W' not equivalent")
            require(rep.hat_equals_wb is True, f"n={n}: trimmed W != W(B)")
            require(isinstance(rep.conjecture_holds, bool), f"n={n}: no conjecture verdict")
            w = oracles.walk_matrix_rows(n)
            want = sum(1 for d in rep.snf_w if d % corpus.PRIME)
            require(oracles.rank_mod_p(w, corpus.PRIME) == want, f"n={n}: rank mod p")
            if n <= SYMPY_UP_TO:
                require(oracles.smith_factors(w) == rep.snf_w, f"n={n}: SNF differs from sympy")
        holds = sum(rep.conjecture_holds for rep in rows)
        print(f"conjecture holds at {holds} of {len(rows)} orders (recorded, not asserted)", file=sys.stderr)


class SpectralScan(_Scans):
    """Float layers: Jacobi main-eigenvalue counts, then closed-form eigenpairs."""

    def prepare(self, seed: int) -> tuple[Scan, ...]:
        rng = random.Random(seed)
        return (Scan.seeded(rng, HAGOS_RANGE, "hagos"), Scan.seeded(rng, EIGPAIRS_RANGE, "eigpairs"))

    def check(self, wr, inputs, outputs) -> None:
        hagos, eigpairs = inputs
        for rep in _check_scan_output(wr, hagos, [out[0] for out in outputs]):
            n, r = rep.n, rep.n // 2
            require(rep.main_count == rep.rank_exact == r, f"n={n}: main count {rep.main_count}")
            require(oracles.main_eigenvalue_count(n) == r, f"n={n}: numpy main count")
        for rep in _check_scan_output(wr, eigpairs, [out[1] for out in outputs]):
            n = rep.n
            b = wr.quotient.divisor_matrix(
                wr.graphs.make_extended_dynkin(n), wr.quotient.canonical_partition(n)
            ).to_rows()
            require(b == oracles.divisor_rows(n), f"n={n}: divisor matrix")
            require(oracles.divisor_spectrum_matches(n, b), f"n={n}: spectrum of B")


class MatrixCorpus:
    """The exact kernels on dense U*D*V matrices with small entries."""

    def prepare(self, seed: int) -> list[corpus.CorpusMatrix]:
        return corpus.make_corpus(seed)

    def make_inputs(self, wr, items: list[corpus.CorpusMatrix]):
        return [(item, wr.pkg.IntMatrix.from_rows(item.rows), item.det is not None) for item in items]

    def run_round(self, wr, inputs):
        pkg = wr.pkg
        p = corpus.PRIME
        kernels = (
            lambda m: pkg.parse_matrix_text(pkg.format_matrix_text(m)) == m,
            pkg.rank_fraction_free,
            pkg.rank_via_snf,
            lambda m: pkg.rank_modular(m, p),
            lambda m: pkg.smith_normal_form(m).invariant_factors,
            pkg.det_exact,
        )
        attempted = failed = 0
        results = []
        for item, m, has_det in inputs:
            todo = kernels if has_det else kernels[:-1]
            row = []
            for kernel in todo:
                attempted += 1
                try:
                    row.append(kernel(m))
                except Exception as exc:  # counted as a failed operation
                    print(f"corpus {item.shape}: {exc!r}", file=sys.stderr)
                    failed += 1
                    row.append(FAILED)
            results.append(row)
        return attempted, failed, results

    def check(self, wr, inputs, outputs) -> None:
        checked = 0
        for results in outputs:
            for (item, _, _), row in zip(inputs, results):
                want = (True, item.rank, item.rank, item.modular_rank, item.factors, item.det)
                for name, got, expected in zip(CORPUS_KERNELS, row, want):
                    if got is not FAILED:
                        require(got == expected, f"corpus {item.shape} {name}: {got} != {expected}")
                        checked += 1
        require(checked > 0, "corpus: no kernel call gave an output")


WORKLOADS = {
    "exact-scan": ExactScan(),
    "spectral-scan": SpectralScan(),
    "matrix-corpus": MatrixCorpus(),
}

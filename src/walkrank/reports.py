"""Verification workflows: per-order reports, the conjectured factor pattern,
and range scans with per-check pass/fail results."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from types import NoneType, UnionType
from typing import Iterable, Sequence, get_args, get_origin, get_type_hints

from .graphs import Graph, adjacency_matrix, check_family_order, make_extended_dynkin
from .intmatrix import (
    IntMatrix,
    chebyshev_walk_matrix,
    check_int,
    rank_fraction_free,
    row_support,
    support_product,
    walk_matrix,
)
from .quotient import (
    EquitablePartition,
    build_w_prime,
    canonical_partition,
    characteristic_matrix,
    divisor_matrix,
    hat_walk_matrix,
)
from .snf import SnfResult, distinct_nonzero_rows, smith_normal_form, walk_core
from .spectra import (
    count_main_eigenvalues,
    divisor_eigenpairs,
    eigenpair_residual,
    main_value_pattern,
)

ALL_CHECKS = ("rank", "hat", "snf-equiv", "hagos", "conjecture", "eigpairs")

EIGENPAIR_RESIDUAL_TOL = 1e-10
DOT_PATTERN_TOL = 1e-9


class VerificationError(RuntimeError):
    """A theorem-backed identity failed to hold exactly."""


@dataclass(slots=True)
class VerifyReport:
    """Everything the toolkit can say about one order n.

    Fields left as None were not requested (scans compute only the selected
    checks); verify() always fills every field.
    """

    n: int
    rank_exact: int | None = None
    rank_expected: int | None = None
    hat_equals_wb: bool | None = None
    snf_w: tuple[int, ...] | None = None
    snf_wprime: tuple[int, ...] | None = None
    integrally_equiv: bool | None = None
    main_count: int | None = None
    conjecture_holds: bool | None = None
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class ScanRow:
    report: VerifyReport
    passed: dict[str, bool]

    @property
    def theorem_failures(self) -> list[str]:
        """Failed theorem-backed checks; conjecture verdicts are recorded, never gating."""
        return [name for name, ok in self.passed.items() if not ok and name != "conjecture"]

    @property
    def theorem_ok(self) -> bool:
        return not self.theorem_failures


def conjectured_factors(n: int) -> tuple[int, ...]:
    """Guessed invariant factors: floor(n/2) - 1 ones, then n-1 or (n-1)/2.
    An order that is not an int raises TypeError, and one below 4 ValueError."""
    check_family_order(n)
    r = n // 2
    last = n - 1 if n % 2 == 0 else (n - 1) // 2
    return (1,) * (r - 1) + (last,)


def _validate_checks(checks: Iterable[str]) -> tuple[str, ...]:
    if isinstance(checks, str):
        # tuple("rank") is its letters, which would read as unknown checks
        raise TypeError(f"checks must be a collection of check names, not the str {checks!r}")
    out = tuple(checks)
    unknown = [c for c in out if c not in ALL_CHECKS]
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValueError(f"unknown checks: {names} (choose from {', '.join(ALL_CHECKS)})")
    if not out:
        raise ValueError("at least one check is required")
    if len(set(out)) != len(out):
        raise ValueError(f"each check may be named once, got {', '.join(out)}")
    return out


class _Order:
    """The artifacts of one order n, each built on first use and timed once.

    A stage's inputs are fetched before its clock starts, so no stage's time
    includes another's and the timings add up to at most the elapsed time.

    Both walk matrices are built in the Chebyshev basis: w is W_E(A) = W·U
    and wb is W_E(B) (intmatrix.chebyshev_walk_matrix), whose entries stay
    at a few bits where W's grow like 2^j. That is exact for every check. U
    is upper unitriangular over Z, so W_E has W's rank, its invariant
    factors and the same d distinct nonzero rows. Its columns from d on are
    integer combinations of earlier ones (the minimal polynomial of 1 under
    A is monic, and so is each E_j), so walk_core's cut still holds. The
    trims commute with U: hat(W_E) = hat(W)·U' and W_E(B) = W_B·U', with U'
    U's leading (n-1) x (n-1) block, which is unimodular too; so hat(W_E)
    equals W_E(B) exactly when hat(W) equals W_B, and SNF(W') is unchanged.
    """

    def __init__(self, n: int):
        self.partition = canonical_partition(n)  # rejects an n that is not an int >= 4
        self.n = n
        self.timings: dict[str, float] = {}

    def timed(self, key: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.timings[key] = self.timings.get(key, 0.0) + (time.perf_counter() - t0) * 1000.0
        return out

    @cached_property
    def graph(self) -> Graph:
        return self.timed("graph", make_extended_dynkin, self.n)

    @cached_property
    def adj(self) -> IntMatrix:
        return self.timed("graph", adjacency_matrix, self.graph)

    @cached_property
    def w(self) -> IntMatrix:
        """W_E(A), the walk matrix in the Chebyshev basis."""
        return self.timed("walk_matrix", chebyshev_walk_matrix, self.adj)

    @cached_property
    def b(self) -> IntMatrix:
        return self.timed("divisor", divisor_matrix, self.graph, self.partition)

    @cached_property
    def core(self) -> IntMatrix:
        """walk_core(W), the d x d matrix that SNF(W) eliminates."""
        return self.timed("snf_w", walk_core, self.w)

    @cached_property
    def snf_w(self) -> SnfResult:
        return self.timed("snf_w", smith_normal_form, self.core)

    @cached_property
    def hat(self) -> IntMatrix:
        """W_E with its first and last rows and last two columns dropped."""
        return self.timed("hat", hat_walk_matrix, self.w)

    @cached_property
    def wb(self) -> IntMatrix:
        """W_E(B), the walk matrix of the divisor matrix B in the Chebyshev basis."""
        return self.timed("hat", chebyshev_walk_matrix, self.b)


def _ap_equals_pb(n: int, adj: IntMatrix, b: IntMatrix, partition: EquitablePartition) -> bool:
    p = row_support(characteristic_matrix(partition, n + 1))
    return support_product(row_support(adj), p) == support_product(p, row_support(b))


def _snf_of_trim(hat: IntMatrix, core: IntMatrix, snf_w: SnfResult) -> SnfResult:
    """SNF(W'): the SNF of the trim's distinct nonzero rows cut at W's width
    core.cols (walk_core says why). When that list is the core's rows, it is
    the list SNF(W) eliminated, and SNF(W) is returned; any other list is
    eliminated on its own. It is never empty: column 0 of a walk matrix is
    all ones.
    """
    rows = distinct_nonzero_rows(r[: core.cols] for r in hat)
    if rows == list(core):
        return snf_w
    return smith_normal_form(IntMatrix.from_rows(rows))


def _eigenpairs_ok(n: int, b: IntMatrix) -> bool:
    for pair in divisor_eigenpairs(n):
        if eigenpair_residual(b, pair) >= EIGENPAIR_RESIDUAL_TOL:
            return False
        if abs(sum(pair.vector) - main_value_pattern(n, pair.k)) > DOT_PATTERN_TOL:
            return False
    return True


def _check_order(order: _Order, checks: Iterable[str]) -> ScanRow:
    checks = _validate_checks(checks)
    n = order.n
    expected = n // 2  # the paper's rank of W
    rep = VerifyReport(n=n, timings=order.timings)
    passed: dict[str, bool] = {}

    if "rank" in checks or "hagos" in checks:
        rep.rank_exact, rep.rank_expected = order.snf_w.rank, expected
    if not {"rank", "snf-equiv", "conjecture"}.isdisjoint(checks):
        rep.snf_w = order.snf_w.invariant_factors

    if "rank" in checks:
        r_bareiss = order.timed("rank_bareiss", rank_fraction_free, order.w)
        passed["rank"] = order.snf_w.rank == r_bareiss == expected

    if "hat" in checks:
        ap_eq_pb = order.timed("ap_pb", _ap_equals_pb, n, order.adj, order.b, order.partition)
        rep.hat_equals_wb = order.hat == order.wb
        passed["hat"] = ap_eq_pb and rep.hat_equals_wb

    if "snf-equiv" in checks:
        rep.snf_wprime = order.timed(
            "snf_wprime", _snf_of_trim, order.hat, order.core, order.snf_w
        ).invariant_factors
        rep.integrally_equiv = order.snf_w.invariant_factors == rep.snf_wprime
        passed["snf-equiv"] = rep.integrally_equiv

    if "hagos" in checks:
        spectrum = order.timed("main_eigenvalues", count_main_eigenvalues, order.graph)
        rep.main_count = spectrum.main_count
        passed["hagos"] = spectrum.inertia_ok and rep.main_count == order.snf_w.rank == expected

    if "conjecture" in checks:
        rep.conjecture_holds = order.snf_w.invariant_factors == conjectured_factors(n)
        passed["conjecture"] = rep.conjecture_holds

    if "eigpairs" in checks:
        passed["eigpairs"] = order.timed("eigpairs", _eigenpairs_ok, n, order.b)

    return ScanRow(rep, passed)


def run_checks(n: int, checks: Iterable[str] = ALL_CHECKS) -> ScanRow:
    """Run the selected checks at one order and collect the report row.

    Only the machinery a selected check needs is built, so exact-only scans
    never touch the floating-point code paths. Every exact artifact is built
    in the Chebyshev basis: W here is W_E = W·U (_Order says why that is
    exact), ranked by Bareiss and by its SNF. The timings hold one key per
    stage, in milliseconds: graph, walk_matrix, divisor, snf_w, rank_bareiss,
    ap_pb, hat, snf_wprime, main_eigenvalues and eigpairs. walk_matrix times
    W_E(A), and hat the trim and W_E(B). snf_w times walk_core(W_E) and its
    SNF. snf_wprime times the comparison of the trim's distinct nonzero rows,
    cut at the core's width, with the core's rows; SNF(W') is SNF(W) when
    they match, and the SNF of the trim's cut rows, timed there too, when
    they differ.
    """
    return _check_order(_Order(n), checks)


def verify(n: int) -> VerifyReport:
    """Full verification at one order.

    Runs every check, then compares three ranks: Bareiss's rank of the
    paper's W, the one matrix here not in the Chebyshev basis, so that this
    rank checks the change of basis; SNF(W_E)'s rank; and Bareiss's rank of
    the zero-padded W' (built only here). The trim needs no rank of its own:
    W' only adds zero rows, which Bareiss drops, and two zero columns, which
    hold no pivot, so both eliminate the same rows. Nor does the walk matrix
    of the quotient: the hat check has proved it equal to the trim. Any
    violation of a proven identity raises VerificationError.
    """
    order = _Order(n)
    row = _check_order(order, ALL_CHECKS)
    rank_raw = rank_fraction_free(walk_matrix(order.adj))
    rank_w = order.snf_w.rank
    rank_wprime = rank_fraction_free(build_w_prime(order.hat))
    if not rank_raw == rank_w == rank_wprime:
        raise VerificationError(
            f"rank chain broken at n={n}: W={rank_raw}, W_E={rank_w}, W'={rank_wprime}"
        )
    if row.theorem_failures:
        raise VerificationError(f"checks failed at n={n}: {', '.join(row.theorem_failures)}")
    return row.report


def _worker_count(jobs: int, orders: int, cpus: int | None) -> int:
    """Processes a scan of `orders` orders uses when asked for `jobs`.

    More workers than CPUs or than orders would only wait; `cpus` is
    os.cpu_count(), which may be None. `jobs` is checked by check_int, and
    must be at least 1.
    """
    check_int(jobs, "jobs", 1)
    return min(jobs, cpus or 1, orders)


def scan(
    from_n: int,
    to_n: int,
    checks: Iterable[str] = ALL_CHECKS,
    jobs: int = 1,
) -> list[ScanRow]:
    """Run the selected checks for every n in [from_n, to_n].

    Uses min(jobs, CPU count, number of orders) processes. Rows come back
    sorted by n regardless of how many workers ran them. An order that is
    not an int, a bool included, raises TypeError.
    """
    for n in (from_n, to_n):
        check_family_order(n)
    if to_n < from_n:
        raise ValueError(f"scan range must satisfy from <= to, got {from_n}..{to_n}")
    checks = _validate_checks(checks)
    orders = range(from_n, to_n + 1)
    workers = _worker_count(jobs, len(orders), os.cpu_count())
    if workers == 1:
        return [run_checks(n, checks) for n in orders]
    # imported here so that a serial scan never loads the process pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_checks, orders, repeat(checks)))


def _field_types() -> dict[str, tuple[type, bool]]:
    """Report field -> (its type without None, whether it may be None)."""
    out = {}
    for name, hint in get_type_hints(VerifyReport).items():
        args = get_args(hint) if get_origin(hint) is UnionType else (hint,)
        (base,) = [a for a in args if a is not NoneType]
        out[name] = (get_origin(base) or base, NoneType in args)
    return out


_FIELD_TYPES = _field_types()
_REPORT_FIELDS = tuple(_FIELD_TYPES)


def _decode(name: str, value: object) -> object:
    """One report field from its JSON value, checked against the field's type.

    parse_scan_json reads every field through here, so it never coerces: a
    float where an int belongs, a string where a bool belongs, or a timing
    that is not a finite non-negative number (json reads NaN and Infinity)
    raises ValueError.
    """
    kind, optional = _FIELD_TYPES[name]
    if value is None:
        if optional:
            return None
    elif kind is tuple:
        if type(value) is list and all(type(x) is int for x in value):
            return tuple(value)
    elif kind is dict:
        if type(value) is dict and all(
            type(x) in (int, float) and 0 <= x < math.inf for x in value.values()
        ):
            return value
    elif type(value) is kind:
        return value
    raise ValueError(f"{name}: {value!r} is not a valid {kind.__name__}")


def _report(record: object) -> VerifyReport:
    """A report from a mapping of exactly the report's fields to JSON values.

    When snf_wprime equals snf_w it is given snf_w's tuple: most rows hold
    two equal factor lists, and a scan's parsed rows then keep one of them.
    """
    if type(record) is not dict or record.keys() != _FIELD_TYPES.keys():
        fields = ", ".join(_REPORT_FIELDS)
        raise ValueError(f"a report needs exactly the fields {fields}, got {record!r}")
    rep = VerifyReport(**{name: _decode(name, value) for name, value in record.items()})
    if rep.snf_wprime == rep.snf_w:
        rep.snf_wprime = rep.snf_w
    return rep


def reports_to_json(reports: Sequence[VerifyReport]) -> str:
    """Each report as a JSON object of its fields, in _REPORT_FIELDS order.

    The fields are read with getattr, not dataclasses.asdict, which would
    deep-copy every factor tuple and the timings only to encode them.
    """
    records = [{name: getattr(r, name) for name in _REPORT_FIELDS} for r in reports]
    return json.dumps(records, indent=2) + "\n"


def parse_scan_json(text: str) -> list[VerifyReport]:
    records = json.loads(text)
    if type(records) is not list:
        raise ValueError(f"scan JSON must be an array of records, got {type(records).__name__}")
    return [_report(obj) for obj in records]


def _csv_cell(value: object) -> str:
    """The JSON encoding of a field; None is empty, a nonempty tuple
    space-separated and the empty tuple `[]`."""
    if value is None:
        return ""
    if isinstance(value, tuple) and value:
        return " ".join(str(x) for x in value)
    return json.dumps(value)


def reports_to_csv(reports: Sequence[VerifyReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_REPORT_FIELDS)
    for rep in reports:
        writer.writerow([_csv_cell(getattr(rep, name)) for name in _REPORT_FIELDS])
    return buf.getvalue()

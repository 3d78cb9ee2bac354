import gc
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest

import walkrank.quotient as quotient
import walkrank.reports as reports
import walkrank.spectra as spectra
from walkrank.graphs import adjacency_matrix, make_extended_dynkin
from walkrank.intmatrix import IntMatrix, chebyshev_walk_matrix, rank_fraction_free, walk_matrix
from walkrank.quotient import (
    build_w_prime,
    canonical_partition,
    characteristic_matrix,
    divisor_matrix,
    hat_walk_matrix,
)
from walkrank.reports import (
    ALL_CHECKS,
    VerificationError,
    VerifyReport,
    conjectured_factors,
    parse_scan_json,
    reports_to_csv,
    reports_to_json,
    run_checks,
    scan,
    verify,
)
from walkrank.snf import SnfResult, distinct_nonzero_rows, smith_normal_form, walk_core
from walkrank.spectra import divisor_eigenpairs, eigenpair_residual


def _trim_one_entry_off(w):
    """The trim of w with entry (0, 3) raised by one: its first row, a leaf's,
    then repeats no row of W, so its distinct rows are no longer W's. In the
    Chebyshev basis W_E at n = 12 this moves the factors from
    (1, 1, 1, 1, 1, 11) to six 1s; entry (0, 1) raised by one would keep them."""
    rows = hat_walk_matrix(w).to_rows()
    rows[0][3] += 1
    return IntMatrix.from_rows(rows)


def _w_e(n):
    return chebyshev_walk_matrix(adjacency_matrix(make_extended_dynkin(n)))


class TestVerify:
    def test_order8(self):
        rep = verify(8)
        assert rep.rank_exact == 4
        assert rep.rank_expected == 4
        assert rep.snf_w == (1, 1, 1, 7)
        assert rep.snf_wprime == (1, 1, 1, 7)
        assert rep.integrally_equiv is True
        assert rep.hat_equals_wb is True
        assert rep.main_count == 4
        assert rep.conjecture_holds is True

    def test_order4(self):
        assert verify(4).rank_exact == 2

    def test_order9(self):
        rep = verify(9)
        assert rep.rank_exact == 4
        assert rep.rank_expected == 4

    def test_every_field_filled(self):
        rep = verify(6)
        assert None not in (
            rep.rank_exact,
            rep.rank_expected,
            rep.hat_equals_wb,
            rep.snf_w,
            rep.snf_wprime,
            rep.integrally_equiv,
            rep.main_count,
            rep.conjecture_holds,
        )
        assert rep.timings

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            verify(3)

    @pytest.mark.parametrize("n", [True, 6.0])
    def test_rejects_an_order_that_is_not_an_int(self, n):
        for check in (verify, lambda n: run_checks(n, ALL_CHECKS)):
            with pytest.raises(TypeError, match=f"order must be an int, got {n!r}"):
                check(n)


    def test_broken_rank_chain_raises(self, monkeypatch):
        monkeypatch.setattr(reports, "rank_fraction_free", lambda m: 0)
        with pytest.raises(VerificationError, match="rank chain broken at n=8"):
            verify(8)

    def test_rank_chain_ranks_w_and_the_trim_with_bareiss(self, monkeypatch):
        # the rank check ranks W_E; verify then ranks the paper's W, the one
        # check of the change of basis, and W' of W_E's trim. Neither the trim
        # nor the walk matrix of B is ranked: W' eliminates the same rows as
        # the trim, and the hat check proves W_E(B) equals it
        ranked = []

        def spy(m):
            ranked.append(m)
            return rank_fraction_free(m)

        monkeypatch.setattr(reports, "rank_fraction_free", spy)
        verify(12)
        w_e = _w_e(12)
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(12)))
        assert w != w_e
        assert ranked == [w_e, w, build_w_prime(hat_walk_matrix(w_e))]

    def test_rank_chain_fails_when_only_the_raw_w_is_misranked(self, monkeypatch):
        raw = walk_matrix(adjacency_matrix(make_extended_dynkin(8)))
        monkeypatch.setattr(
            reports, "rank_fraction_free", lambda m: rank_fraction_free(m) + (m == raw)
        )
        assert run_checks(8, ALL_CHECKS).theorem_ok
        with pytest.raises(VerificationError, match="rank chain broken at n=8: W=5, W_E=4, W'=4"):
            verify(8)

    def test_only_verify_builds_w_prime(self, monkeypatch):
        built = []

        def spy(hat):
            built.append(hat)
            return build_w_prime(hat)

        monkeypatch.setattr(reports, "build_w_prime", spy)
        run_checks(12, ("snf-equiv",))
        run_checks(12, ALL_CHECKS)
        assert built == []
        verify(12)
        assert built == [hat_walk_matrix(_w_e(12))]

    def test_failed_check_raises(self, monkeypatch):
        monkeypatch.setattr(reports, "eigenpair_residual", lambda b, pair: 1.0)
        with pytest.raises(VerificationError, match="checks failed at n=8: eigpairs"):
            verify(8)

    @pytest.mark.parametrize("checks", [ALL_CHECKS, ("snf-equiv",)])
    def test_w_and_w_prime_are_cut_at_the_width_of_w(self, monkeypatch, checks):
        seen = []

        def spy(m):
            seen.append(m)
            return smith_normal_form(m)

        monkeypatch.setattr(reports, "smith_normal_form", spy)
        n = 12
        w = _w_e(n)
        core = walk_core(w)
        assert (core.rows, core.cols) == (n // 2, n // 2)
        # the trim's distinct rows cut at W's width are W's, so SNF(W') is
        # read from SNF(W) and no second elimination runs
        run_checks(n, checks)
        assert seen == [core]
        # a trim with other rows is eliminated at W's width, not at its own
        # count of distinct nonzero rows, as the proof needs
        bad_trim = _trim_one_entry_off(w)
        assert walk_core(bad_trim).cols != n // 2
        cut = distinct_nonzero_rows(r[: n // 2] for r in bad_trim)
        monkeypatch.setattr(reports, "hat_walk_matrix", _trim_one_entry_off)
        seen.clear()
        run_checks(n, checks)
        assert seen == [core, IntMatrix.from_rows(cut)]


class TestConjectureCheck:
    def test_order8_holds(self):
        rep = run_checks(8, ("conjecture",)).report
        assert rep.conjecture_holds is True
        assert rep.snf_w == (1, 1, 1, 7)

    def test_order9_observed_matches_direct_computation(self):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(9)))
        rep = run_checks(9, ("conjecture",)).report
        assert rep.snf_w == smith_normal_form(w).invariant_factors
        assert conjectured_factors(9) == (1, 1, 1, 4)

    def test_order4_observed_matches_direct_computation(self):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(4)))
        rep = run_checks(4, ("conjecture",)).report
        assert rep.snf_w == smith_normal_form(w).invariant_factors
        assert conjectured_factors(4) == (1, 3)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            run_checks(3, ("conjecture",))


class TestConjecturedFactors:
    def test_even(self):
        assert conjectured_factors(8) == (1, 1, 1, 7)
        assert conjectured_factors(12) == (1, 1, 1, 1, 1, 11)

    def test_odd(self):
        assert conjectured_factors(5) == (1, 2)
        assert conjectured_factors(11) == (1, 1, 1, 1, 5)

    @pytest.mark.parametrize("n", [True, 8.0, "8", None])
    def test_rejects_an_order_that_is_not_an_int(self, n):
        with pytest.raises(TypeError, match=f"order must be an int, got {n!r}"):
            conjectured_factors(n)

    @pytest.mark.parametrize("n", [3, 1, 0, -4])
    def test_rejects_an_order_below_four(self, n):
        with pytest.raises(ValueError, match=f"order must be >= 4, got {n}"):
            conjectured_factors(n)


class TestRunChecks:
    def test_rank_only_leaves_other_fields_unset(self):
        row = run_checks(8, ("rank",))
        rep = row.report
        assert row.passed == {"rank": True}
        assert rep.rank_exact == 4
        assert rep.main_count is None
        assert rep.hat_equals_wb is None
        assert rep.snf_wprime is None

    def test_exact_checks_never_touch_the_float_path(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("floating-point path invoked")

        monkeypatch.setattr(reports, "count_main_eigenvalues", boom)
        row = run_checks(8, ("rank", "hat", "snf-equiv", "conjecture"))
        assert row.theorem_ok
        with pytest.raises(AssertionError):
            run_checks(8, ("hagos",))

    def test_hagos_fails_when_the_inertia_check_fails(self, misplaced_eigenvalue):
        row = run_checks(8, ("hagos",))
        assert row.report.main_count == 4  # the count alone would still pass
        assert row.passed == {"hagos": False}

    # one fault per verdict term, each failing that term alone

    def test_rank_fails_when_bareiss_is_off_by_one(self, monkeypatch):
        monkeypatch.setattr(reports, "rank_fraction_free", lambda m: rank_fraction_free(m) + 1)
        row = run_checks(8, ("rank",))
        assert row.report.rank_exact == row.report.rank_expected == 4  # the SNF's rank
        assert row.passed == {"rank": False}

    def test_hat_fails_when_ap_differs_from_pb(self, monkeypatch):
        def misplaced(partition, order):
            rows = characteristic_matrix(partition, order).to_rows()
            rows[0] = rows[0][-1:] + rows[0][:-1]  # vertex 1 in the next cell
            return IntMatrix.from_rows(rows)

        monkeypatch.setattr(reports, "characteristic_matrix", misplaced)
        row = run_checks(8, ("hat",))
        assert row.report.hat_equals_wb is True
        assert row.passed == {"hat": False}

    def test_snf_equiv_fails_when_one_entry_of_the_trim_changes(self, monkeypatch):
        monkeypatch.setattr(reports, "hat_walk_matrix", _trim_one_entry_off)
        row = run_checks(12, ("snf-equiv",))
        assert row.report.snf_w == (1, 1, 1, 1, 1, 11)
        assert row.report.snf_wprime == (1, 1, 1, 1, 1, 1)
        assert row.report.integrally_equiv is False
        assert row.passed == {"snf-equiv": False}

    def test_eigpairs_fails_when_only_the_dot_pattern_breaks(self, monkeypatch):
        # twice an eigenvector is one, but its entries sum to twice the pattern
        def doubled(n):
            return [replace(p, vector=tuple(2 * x for x in p.vector)) for p in divisor_eigenpairs(n)]

        monkeypatch.setattr(reports, "divisor_eigenpairs", doubled)
        b = divisor_matrix(make_extended_dynkin(8), canonical_partition(8))
        assert max(eigenpair_residual(b, p) for p in doubled(8)) < reports.EIGENPAIR_RESIDUAL_TOL / 1000
        assert run_checks(8, ("eigpairs",)).passed == {"eigpairs": False}

    def test_eigpairs_fails_when_an_eigenvalue_is_off_by_1e_6(self, monkeypatch):
        def moved(n):
            pairs = divisor_eigenpairs(n)
            pairs[1] = replace(pairs[1], eigenvalue=pairs[1].eigenvalue + 1e-6)
            return pairs

        monkeypatch.setattr(reports, "divisor_eigenpairs", moved)
        assert run_checks(8, ("eigpairs",)).passed == {"eigpairs": False}

    def test_hagos_fails_when_a_simple_eigenvalue_leaves_its_bracket(self, monkeypatch):
        # the largest eigenvalue, 2, moved up by three times the half-width
        # _GROUP_TOL/4 of its inertia bracket, which then misses A's eigenvalue
        solve = spectra.symmetric_eigen

        def moved(m):
            values, z, form = solve(m)
            values[-1] += 3 * spectra._GROUP_TOL / 4
            return values, z, form

        monkeypatch.setattr(spectra, "symmetric_eigen", moved)
        row = run_checks(8, ("hagos",))
        assert row.report.main_count == row.report.rank_exact == 4
        assert row.passed == {"hagos": False}

    def test_hagos_counts_a_projection_of_1e_6_as_main(self, monkeypatch):
        # D8's simple eigenvalue 2 keeps an all-ones projection of 1e-6, which
        # lies between _PROJ_TOL * sqrt(9) and 1e-4 * sqrt(9)
        solve = spectra.symmetric_eigen

        def faint(m):
            values, z, form = solve(m)
            assert abs(values[-1] - 2.0) < 1e-9
            z[-1] = 1e-6
            return values, z, form

        monkeypatch.setattr(spectra, "symmetric_eigen", faint)
        row = run_checks(8, ("hagos",))
        assert row.report.main_count == 4
        assert row.passed == {"hagos": True}

    # a verdict, or the rank column, that read what another check computed
    # would differ here from the check run alone once one exact route is wrong
    @pytest.mark.parametrize("fault", [None, "bareiss off by one", "snf short of its last factor"])
    def test_no_verdict_depends_on_the_other_checks(self, monkeypatch, fault):
        if fault == "bareiss off by one":
            monkeypatch.setattr(reports, "rank_fraction_free", lambda m: rank_fraction_free(m) + 1)
        elif fault == "snf short of its last factor":

            def short(m):
                return SnfResult(smith_normal_form(m).invariant_factors[:-1])

            monkeypatch.setattr(reports, "smith_normal_form", short)
        for n in (4, 5, 8):
            alone = {c: run_checks(n, (c,)) for c in ALL_CHECKS}
            for size in range(1, len(ALL_CHECKS) + 1):
                for checks in itertools.combinations(ALL_CHECKS, size):
                    row = run_checks(n, checks)
                    assert row.passed == {c: alone[c].passed[c] for c in checks}, checks
                    ranks = {alone[c].report.rank_exact for c in checks} - {None}
                    assert {row.report.rank_exact} - {None} == ranks, checks

    def test_hagos_fills_rank_column(self):
        rep = run_checks(10, ("hagos",)).report
        assert rep.main_count == 5
        assert rep.rank_exact == 5
        assert rep.rank_expected == 5

    def test_conjecture_not_theorem_backed(self):
        row = run_checks(8, ("conjecture",))
        assert row.passed == {"conjecture": True}
        assert row.theorem_ok  # verdicts never gate

    def test_failed_conjecture_never_gates(self, monkeypatch):
        monkeypatch.setattr(reports, "conjectured_factors", lambda n: ())
        row = run_checks(8, ("rank", "conjecture"))
        assert row.passed == {"rank": True, "conjecture": False}
        assert row.theorem_failures == [] and row.theorem_ok
        assert verify(8).conjecture_holds is False

    def test_theorem_failures_keep_check_order(self):
        passed = {"rank": False, "hat": True, "conjecture": False, "eigpairs": False}
        row = reports.ScanRow(VerifyReport(n=8), passed)
        assert row.theorem_failures == ["rank", "eigpairs"]
        assert not row.theorem_ok

    def test_stage_timings_never_overlap(self, monkeypatch):
        # The clock moves one second per read and a stage reads it twice, so
        # stages timed once each, none inside another, add up to half the reads.
        reads = itertools.count()
        monkeypatch.setattr(reports, "time", SimpleNamespace(perf_counter=lambda: next(reads)))
        start = next(reads)
        timings = run_checks(12, ["hat"]).report.timings
        steps = next(reads) - start - 1
        assert sum(timings.values()) <= 1000.0 * steps / 2
        assert {"walk_matrix", "divisor", "ap_pb", "hat"} <= set(timings)

    def test_snf_wprime_is_timed_apart_from_its_inputs(self, monkeypatch):
        # as above: the trim, W's rows and SNF(W) are built before the
        # snf_wprime clock starts, or the stages would overlap
        reads = itertools.count()
        monkeypatch.setattr(reports, "time", SimpleNamespace(perf_counter=lambda: next(reads)))
        start = next(reads)
        timings = run_checks(12, ["snf-equiv"]).report.timings
        steps = next(reads) - start - 1
        assert sum(timings.values()) <= 1000.0 * steps / 2
        assert {"walk_matrix", "snf_w", "hat", "snf_wprime"} <= set(timings)

    def test_snf_wprime_equals_the_trims_own_snf(self, monkeypatch):
        # the trim's distinct rows cut at W's width are W's at every order
        # here, so one SNF per order runs, and its factors are the trim's
        calls = []

        def spy(m):
            calls.append(m)
            return smith_normal_form(m)

        monkeypatch.setattr(reports, "smith_normal_form", spy)
        for n in range(4, 41):
            w = _w_e(n)
            core = walk_core(w)
            calls.clear()
            rep = run_checks(n, ("snf-equiv",)).report
            assert calls == [core], n
            cut = [r[: core.cols] for r in hat_walk_matrix(w).to_rows()]
            trim = smith_normal_form(IntMatrix.from_rows(cut))
            assert rep.snf_wprime == trim.invariant_factors, n

    def test_one_trim_per_order(self, monkeypatch):
        # wrap the trim under every name a walkrank module can call it by
        trim, calls = quotient.hat_walk_matrix, []

        def counted(w):
            calls.append(w.rows)
            return trim(w)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "walkrank" and getattr(module, "hat_walk_matrix", None) is trim:
                monkeypatch.setattr(module, "hat_walk_matrix", counted)
        run_checks(20, ALL_CHECKS)
        assert calls == [21]
        verify(20)
        assert calls == [21, 21]

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError):
            run_checks(8, ("rank", "banana"))

    def test_rejects_empty_checks(self):
        with pytest.raises(ValueError):
            run_checks(8, ())

    def test_rejects_a_str_of_checks(self):
        # a str is an iterable of its letters: this read "unknown checks: 'r', 'a', 'n', 'k'"
        with pytest.raises(TypeError, match="collection of check names, not the str 'rank'"):
            run_checks(8, "rank")
        with pytest.raises(TypeError, match="not the str 'hagos'"):
            scan(4, 5, "hagos")

    def test_rejects_a_repeated_check(self):
        with pytest.raises(ValueError, match="named once"):
            run_checks(8, ("rank", "hat", "rank"))
        with pytest.raises(ValueError, match="named once"):
            scan(4, 5, checks=("rank", "rank"))


class TestScan:
    def test_rows_sorted_and_complete(self):
        rows = scan(4, 12, checks=("rank",))
        assert [row.report.n for row in rows] == list(range(4, 13))
        assert all(row.theorem_ok for row in rows)

    def test_serial_scan_calls_the_module_level_run_checks(self, monkeypatch):
        # perfbench's trace hook patches reports.run_checks and must see every order
        seen = []
        real = reports.run_checks

        def spy(n, checks):
            seen.append(n)
            return real(n, checks)

        monkeypatch.setattr(reports, "run_checks", spy)
        scan(4, 7, checks=("rank",))
        assert seen == [4, 5, 6, 7]

    def test_rank_column_follows_formula(self):
        rows = scan(4, 20, checks=("rank",))
        assert [row.report.rank_exact for row in rows] == [n // 2 for n in range(4, 21)]

    def test_hagos_column_matches_rank_column(self):
        rows = scan(4, 12, checks=("hagos",))
        for row in rows:
            assert row.report.main_count == row.report.rank_exact

    def test_single_order_window(self):
        rows = scan(8, 8, checks=("snf-equiv",))
        assert len(rows) == 1
        assert rows[0].report.integrally_equiv is True

    def test_parallel_jobs_give_identical_reports(self):
        serial = scan(4, 10, checks=("rank", "snf-equiv"))
        parallel = scan(4, 10, checks=("rank", "snf-equiv"), jobs=2)
        for a, b in zip(serial, parallel):
            da = asdict(a.report)
            db = asdict(b.report)
            da.pop("timings")
            db.pop("timings")
            assert da == db
            assert a.passed == b.passed

    def test_rejects_bad_range(self):
        for from_n, to_n in [(3, 10), (4, 3)]:
            with pytest.raises(ValueError, match="order must be >= 4, got 3"):
                scan(from_n, to_n)
        with pytest.raises(ValueError, match="from <= to, got 10..4"):
            scan(10, 4)

    # (4, 6.0) failed in range() without naming the order, and a bool failed
    # the range check as a number
    @pytest.mark.parametrize(
        "from_n, to_n, bad", [(4, 6.0, 6.0), (4.0, 6, 4.0), (True, 6, True), (4, True, True), ("4", 6, "4")]
    )
    def test_rejects_orders_that_are_not_ints(self, from_n, to_n, bad):
        with pytest.raises(TypeError, match=f"order must be an int, got {bad!r}"):
            scan(from_n, to_n)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            scan(4, 6, jobs=jobs)

    # True ran the scan serially, as jobs=1
    @pytest.mark.parametrize("jobs", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_rejects_jobs_that_is_not_an_int(self, jobs):
        with pytest.raises(TypeError, match="jobs must be an int"):
            scan(4, 6, jobs=jobs)

    @pytest.mark.parametrize(
        "jobs, orders, cpus, want",
        [
            (1, 97, 8, 1),
            (2, 97, 8, 2),
            (8, 97, 2, 2),
            (8, 3, 16, 3),
            (10**6, 97, 2, 2),
            (4, 97, None, 1),
        ],
    )
    def test_worker_count(self, jobs, orders, cpus, want):
        assert reports._worker_count(jobs, orders, cpus) == want

    def test_import_leaves_the_process_pool_unloaded(self):
        loaded = _loaded_after("walkrank.cli", ("concurrent", "multiprocessing"))
        assert loaded == []

    def test_snf_imports_neither_the_quotient_nor_the_graphs(self):
        loaded = _loaded_after("walkrank.snf", ("walkrank",))
        assert loaded == ["walkrank", "walkrank.intmatrix", "walkrank.snf"]


def _loaded_after(module, packages):
    """The modules of the given top-level packages loaded once a fresh
    interpreter has imported module."""
    code = (
        f"import sys, {module}; "
        f"print(*sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(reports.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


class TestSerialization:
    def _rows(self):
        return [row.report for row in scan(4, 8, checks=ALL_CHECKS)]

    def test_json_round_trip(self):
        rows = self._rows()
        assert parse_scan_json(reports_to_json(rows)) == rows

    def test_round_trip_with_partial_fields(self):
        rows = [row.report for row in scan(4, 6, checks=("rank",))]
        assert parse_scan_json(reports_to_json(rows)) == rows

    def test_empty_tuple_stays_distinct_from_none(self):
        rows = [VerifyReport(n=4, snf_w=()), VerifyReport(n=5, snf_w=None, snf_wprime=(1, 3))]
        assert parse_scan_json(reports_to_json(rows)) == rows

    def test_csv_writer_output_is_pinned(self):
        # an unset field, an empty and a nonempty tuple, a bool and the timings
        rep = VerifyReport(
            n=8,
            rank_exact=4,
            snf_w=(1, 1, 1, 7),
            snf_wprime=(),
            hat_equals_wb=True,
            timings={"graph": 0.5},
        )
        assert reports_to_csv([rep]) == (
            "n,rank_exact,rank_expected,hat_equals_wb,snf_w,snf_wprime,integrally_equiv,"
            "main_count,conjecture_holds,timings\r\n"
            '8,4,,true,1 1 1 7,[],,,,"{""graph"": 0.5}"\r\n'
        )

    def test_json_rejects_non_integer(self):
        text = reports_to_json([VerifyReport(n=8, rank_exact=4)])
        with pytest.raises(ValueError):
            parse_scan_json(text.replace('"rank_exact": 4', '"rank_exact": 1.5'))

    @pytest.mark.parametrize(
        "record",
        [
            {"n": 4},
            {**asdict(VerifyReport(n=4)), "extra": 1},
            [4],
            4,
        ],
        ids=["missing-fields", "unknown-field", "list", "int"],
    )
    def test_json_rejects_records_without_exactly_the_report_fields(self, record):
        with pytest.raises(ValueError):
            parse_scan_json(json.dumps([record]))

    @pytest.mark.parametrize("text", ["4", "null", "true", "{}"])
    def test_json_rejects_a_top_level_that_is_not_an_array(self, text):
        with pytest.raises(ValueError, match="array"):
            parse_scan_json(text)

    # json reads NaN and Infinity, and no elapsed time is negative
    @pytest.mark.parametrize(
        "value", ["notanumber", True, None, [1.0], {"ms": 1.0}, math.nan, math.inf, -math.inf, -1.0, -1]
    )
    def test_both_parsers_reject_a_timing_that_is_not_a_number(self, value):
        rep = VerifyReport(n=4, timings={"graph": value})
        with pytest.raises(ValueError):
            parse_scan_json(reports_to_json([rep]))

    def test_timings_take_ints_and_floats(self):
        rows = [VerifyReport(n=4, timings={"graph": 3, "walk_matrix": 0.25})]
        assert parse_scan_json(reports_to_json(rows)) == rows

    def test_equal_factor_lists_are_parsed_into_one_tuple(self):
        rows = [row.report for row in scan(4, 40, checks=("rank", "snf-equiv"))]
        parsed = parse_scan_json(reports_to_json(rows))
        assert parsed == rows
        assert all(rep.snf_wprime is rep.snf_w for rep in parsed)
        differ = [VerifyReport(n=8, snf_w=(1, 1, 1, 7), snf_wprime=(1, 1, 1, 1))]
        (rep,) = parse_scan_json(reports_to_json(differ))
        assert (rep.snf_w, rep.snf_wprime) == ((1, 1, 1, 7), (1, 1, 1, 1))

    def test_json_text_is_the_asdict_encoding(self):
        # None, (), nonempty tuples, bools and timings, in field order
        rows = [
            VerifyReport(n=4),
            VerifyReport(n=5, snf_w=(), snf_wprime=None, timings={"graph": 0.5, "hat": 2}),
            VerifyReport(
                n=8,
                rank_exact=4,
                rank_expected=4,
                hat_equals_wb=False,
                snf_w=(1, 1, 1, 7),
                snf_wprime=(1, 1, 1, 7),
                integrally_equiv=True,
                main_count=4,
                conjecture_holds=True,
                timings={"graph": 0.25},
            ),
            *(row.report for row in scan(9, 10)),
        ]
        records = (json.dumps(asdict(r)) for r in rows)
        assert reports_to_json(rows) == "[\n" + ",\n".join(records) + "\n]\n"

    def test_json_text_leaves_no_reference_cycles(self):
        # json's pure-Python encoder, which an indent selects, ties its
        # closures into cycles that only the cyclic collector frees
        rows = [row.report for row in scan(4, 40, checks=("rank", "hat", "snf-equiv"))]
        gc.collect()
        gc.disable()
        try:
            reports_to_json(rows)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_reports_have_no_instance_dict(self):
        assert not hasattr(VerifyReport(n=4), "__dict__")

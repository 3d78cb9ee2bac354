import csv
import gc
import io
import json
import os
import subprocess
import sys

import pytest

import walkrank.cli as cli
import walkrank.reports as reports
import walkrank.snf as snf
import walkrank.spectra as spectra
from walkrank.cli import main
from walkrank.graphs import adjacency_matrix, format_edge_list, make_extended_dynkin, make_path
from walkrank.intmatrix import (
    chebyshev_walk_matrix,
    format_matrix_text,
    parse_matrix_text,
    rank_fraction_free,
    rank_modular,
    walk_matrix,
)
from walkrank.quotient import canonical_partition, characteristic_matrix, divisor_matrix
from walkrank.reports import parse_scan_json, scan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_leaves_no_reference_cycles(capsys):
    # argparse ties a parser and its actions into cycles, so a parser built
    # per call left hundreds of objects that only the cyclic collector frees
    main(["gen", "path", "5"])
    gc.collect()
    gc.disable()
    try:
        main(["gen", "path", "5"])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == "path:5 has 5 vertices and 4 edges\n" * 2


class TestGen:
    def test_summary(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "ext-dynkin", "8")
        assert code == 0
        assert "9 vertices" in out and "8 edges" in out

    def test_edges_output_parses_back(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "ext-dynkin", "6", "--edges")
        assert code == 0
        assert out == format_edge_list(make_extended_dynkin(6))

    def test_path(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "path", "5", "--edges")
        assert code == 0
        assert out == format_edge_list(make_path(5))

    def test_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "gen", "dynkin", "2")
        assert code == 2
        assert "error" in err


class TestWalk:
    def test_dump_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "walk", "ext-dynkin:8", "--dump-matrix")
        assert code == 0
        expected = walk_matrix(adjacency_matrix(make_extended_dynkin(8)))
        assert parse_matrix_text(out) == expected

    def test_pretty_output_has_one_line_per_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "walk", "ext-dynkin:6")
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_edge_list_file(self, tmp_path, capsys):
        f = tmp_path / "g.edges"
        f.write_text(format_edge_list(make_path(4)))
        code, out, _ = run_cli(capsys, "walk", str(f), "--dump-matrix")
        assert code == 0
        assert parse_matrix_text(out) == walk_matrix(adjacency_matrix(make_path(4)))

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "walk", "no-such-file")
        assert code == 2
        assert "error" in err

    def test_repeated_edge_exits_2(self, tmp_path, capsys):
        f = tmp_path / "dup.edges"
        f.write_text("2 2\n1 2\n2 1\n")
        code, out, err = run_cli(capsys, "walk", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: edge list header counts 2 edges")


class TestRank:
    @pytest.mark.parametrize("method", ["snf", "bareiss", "mod:101"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run_cli(capsys, "rank", "ext-dynkin:8", "--method", method)
        assert code == 0
        assert out.strip() == "4"

    def test_matrix_file(self, tmp_path, capsys):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(8)))
        f = tmp_path / "w.mat"
        f.write_text(format_matrix_text(w))
        code, out, _ = run_cli(capsys, "rank", str(f))
        assert code == 0
        assert out.strip() == "4"

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(capsys, "rank", "ext-dynkin:8", "--method", "guess")
        assert code == 2
        assert "error" in err

    def test_composite_modulus(self, capsys):
        code, _, err = run_cli(capsys, "rank", "ext-dynkin:8", "--method", "mod:100")
        assert code == 2
        assert "prime" in err

    def test_modulus_beyond_deterministic_primality(self, capsys):
        code, out, err = run_cli(
            capsys, "rank", "ext-dynkin:8", "--method", "mod:3317044064679887385961981"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "deterministic" in err


class TestIntegerArguments:
    """Orders, ranges and moduli are read the way the text formats write
    integers: ASCII digits with an optional minus sign."""

    @pytest.mark.parametrize("spec", ["ext-dynkin:1_0", "ext-dynkin:+8", "ext-dynkin:\uff18"])
    def test_family_spec(self, capsys, spec):
        code, out, err = run_cli(capsys, "rank", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error: family spec needs an integer order")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "\uff14"],
            ["gen", "path", "1_0"],
            ["quotient", "+8"],
            ["scan", "--from", "+4"],
            ["scan", "--to", "1_0"],
            ["scan", "--jobs", "\uff12"],
        ],
    )
    def test_parser_arguments(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"invalid _integer value: {argv[-1]!r}" in captured.err

    def test_modulus(self, capsys):
        code, out, err = run_cli(capsys, "rank", "ext-dynkin:8", "--method", "mod:1_01")
        assert code == 2
        assert out == ""
        assert err.startswith("error: integers must be written as ASCII")


class TestSnf:
    def test_factor_lines(self, capsys):
        code, out, _ = run_cli(capsys, "snf", "ext-dynkin:8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1,1,1,7"
        assert lines[1] == "diag(1,1,1,7,0,0,0,0,0)"

    @pytest.mark.parametrize("command", [["snf"], ["rank", "--method", "snf"]])
    def test_a_family_spec_is_cut_and_a_file_is_not(self, tmp_path, capsys, monkeypatch, command):
        shapes = []
        real = snf.smith_normal_form

        def spy(m):
            shapes.append((m.rows, m.cols))
            return real(m)

        monkeypatch.setattr(cli, "smith_normal_form", spy)
        monkeypatch.setattr(snf, "smith_normal_form", spy)
        f = tmp_path / "w.mat"
        f.write_text(format_matrix_text(walk_matrix(adjacency_matrix(make_extended_dynkin(9)))))
        outs = []
        for source in ("ext-dynkin:9", "path:9", "dynkin:9", str(f)):
            code, out, _ = run_cli(capsys, command[0], source, *command[1:])
            assert code == 0
            outs.append(out)
        # a family's core is d x d, d its count of distinct rows of W: a mirror halves
        # D̃_9 and P_9, and D_9 swaps two leaves only; a file is eliminated whole
        assert shapes == [(4, 4), (5, 5), (8, 8), (10, 10)]
        assert outs[0] == outs[3]


class TestFamilySpecsEliminateWE:
    """`rank` and `snf` on a family spec eliminate the Chebyshev-basis W_E = W·U
    and print what the library computes on the paper's W."""

    @pytest.mark.parametrize("family", sorted(cli.FAMILIES))
    def test_output_is_that_of_raw_w(self, capsys, family):
        for n in range(4, 41):
            spec = f"{family}:{n}"
            w = walk_matrix(adjacency_matrix(cli.FAMILIES[family](n)))
            factors = snf.smith_normal_form(w).invariant_factors
            padded = [*factors, *[0] * (w.rows - len(factors))]
            expected = {
                ("rank", spec, "--method", "bareiss"): f"{rank_fraction_free(w)}\n",
                ("rank", spec, "--method", "snf"): f"{len(factors)}\n",
                ("rank", spec, "--method", "mod:7"): f"{rank_modular(w, 7)}\n",
                ("snf", spec): f"{','.join(map(str, factors))}\ndiag({','.join(map(str, padded))})\n",
            }
            for argv, out in expected.items():
                assert run_cli(capsys, *argv) == (0, out, ""), argv

    def test_load_matrix_never_builds_raw_w(self, capsys, monkeypatch):
        calls = []
        real = cli.walk_matrix

        def spy(m):
            calls.append(m.rows)
            return real(m)

        monkeypatch.setattr(cli, "walk_matrix", spy)
        for family, make in cli.FAMILIES.items():
            m, core = cli._load_matrix(f"{family}:9")
            assert m == chebyshev_walk_matrix(adjacency_matrix(make(9)))
            assert core == snf.walk_core(m)
        assert calls == []
        # the spy sees walk, which prints the paper's W
        assert run_cli(capsys, "walk", "ext-dynkin:9")[0] == 0
        assert calls == [10]


class TestQuotient:
    def test_prints_both_matrices(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "8")
        assert code == 0
        head, _, tail = out.partition("B\n")
        assert head.startswith("P\n")
        part = canonical_partition(8)
        g = make_extended_dynkin(8)
        assert parse_matrix_text(head[2:]) == characteristic_matrix(part, 9)
        assert parse_matrix_text(tail) == divisor_matrix(g, part)


class TestSpectrum:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "ext-dynkin:8")
        assert code == 0
        payload = json.loads(out)
        assert payload["main_count"] == 4
        assert payload["order"] == 9
        assert len(payload["eigenvalues"]) == 9
        assert payload["group_tol"] == 1e-8
        assert payload["proj_tol"] == 1e-8
        assert payload["inertia_route"] == "tree"
        assert payload["inertia_ok"] is True
        assert all({"value", "multiplicity", "main"} <= set(g) for g in payload["groups"])

    @pytest.mark.parametrize("flag", ["--group-tol", "--proj-tol"])
    def test_tolerance_flags_are_gone(self, capsys, flag):
        # the tolerances are fixed, so even the old default is refused
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "ext-dynkin:8", flag, "1e-8"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 1e-8" in captured.err

    def test_split_eigenvalue_exits_1(self, capsys, split_eigenvalue):
        code, out, err = run_cli(capsys, "spectrum", "ext-dynkin:8")
        assert code == 1
        payload = json.loads(out)
        assert payload["inertia_ok"] is False
        assert len(payload["groups"]) == 8  # the triple eigenvalue 0 became two groups
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_inertia_check_exits_1(self, capsys, misplaced_eigenvalue):
        code, out, err = run_cli(capsys, "spectrum", "ext-dynkin:8")
        assert code == 1
        payload = json.loads(out)
        assert payload["inertia_ok"] is False
        assert payload["inertia_route"] == "tree"
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eigenvalue_moved_inside_its_gap_exits_1(self, capsys, in_gap_eigenvalue):
        code, out, err = run_cli(capsys, "spectrum", "ext-dynkin:8")
        assert code == 1
        assert json.loads(out)["inertia_ok"] is False
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_no_convergence_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(spectra, "_MAX_QL_ITERATIONS", 0)
        code, out, err = run_cli(capsys, "spectrum", "ext-dynkin:8")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_report_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "8")
        assert code == 0
        assert "rank_exact" in out
        assert "snf_w             1,1,1,7" in out
        assert "integrally_equiv  true" in out

    def test_theorem_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(reports, "rank_fraction_free", lambda m: 0)
        code, out, err = run_cli(capsys, "verify", "8")
        assert code == 1
        assert out == ""
        assert err.startswith("error: rank chain broken")
        assert len(err.splitlines()) == 1

    def test_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "verify", "3")
        assert code == 2
        assert "error" in err


class TestScan:
    def test_pretty_all_checks(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--from", "4", "--to", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8  # 7 rows + summary
        assert lines[-1].startswith("OK")

    def test_jobs_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--from", "4", "--to", "6", "--jobs", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: jobs must be >= 1")

    def test_json_matches_library_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--from", "4", "--to", "8", "--checks", "rank,snf-equiv", "--format", "json"
        )
        assert code == 0
        parsed = parse_scan_json(out)
        direct = [row.report for row in scan(4, 8, checks=("rank", "snf-equiv"))]
        for a, b in zip(parsed, direct):
            assert (a.n, a.rank_exact, a.snf_w, a.snf_wprime) == (
                b.n,
                b.rank_exact,
                b.snf_w,
                b.snf_wprime,
            )

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--from", "4", "--to", "8", "--checks", "rank", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == ["4", "5", "6", "7", "8"]
        assert [r["rank_exact"] for r in rows] == ["2", "2", "3", "3", "4"]

    def test_conjecture_only_never_gates(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--from", "4", "--to", "8", "--checks", "conjecture"
        )
        assert code == 0
        assert "conjecture:" in out

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--from", "3", "--to", "5")
        assert code == 2
        assert "error" in err

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--from", "4", "--to", "5", "--checks", "nope")
        assert code == 2
        assert "error" in err

    def test_repeated_check_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--from", "4", "--to", "5", "--checks", "rank,rank")
        assert code == 2
        assert out == ""
        assert err.startswith("error: each check may be named once")

    @pytest.mark.parametrize("checks", ["rank,, ,hat", "rank,", ""])
    def test_empty_check_name_exits_2(self, capsys, checks):
        code, out, err = run_cli(capsys, "scan", "--from", "4", "--to", "5", "--checks", checks)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unknown checks: ''")

    def test_closed_stdout_exits_141_without_a_traceback(self):
        # the pipe's read end is closed before the process starts, so every
        # run writes into a pipe with no reader
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(os.path.abspath(reports.__file__)))
        try:
            out = subprocess.run(
                [sys.executable, "-m", "walkrank.cli", "scan", "--from", "4", "--to", "40"]
                + ["--checks", "rank", "--format", "json"],
                env=dict(os.environ, PYTHONPATH=src),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert out.returncode == 141
        assert out.stderr == ""  # no traceback, no error line

"""Acceptance gate: every criterion asserted at its stated tolerance and
runtime budget, one printed pass/fail line each (run with `pytest -s` to see
the lines as they happen)."""

import json
import math
import random
import time
from contextlib import contextmanager

from d8_data import W8_FACTORS, W8_RANK, W8_ROWS
from spectral_identities import cosine_sum, det_walk_spectral
from walkrank.cli import main as cli_main
from walkrank.graphs import adjacency_matrix, make_extended_dynkin
from walkrank.intmatrix import (
    IntMatrix,
    _is_prime,
    det_exact,
    rank_fraction_free,
    rank_modular,
    walk_matrix,
)
from walkrank.quotient import (
    build_w_prime,
    canonical_partition,
    characteristic_matrix,
    divisor_matrix,
    hat_walk_matrix,
)
from walkrank.snf import rank_via_snf, smith_normal_form
from walkrank.spectra import (
    count_main_eigenvalues,
    divisor_eigenpairs,
    eigenpair_residual,
    main_value_pattern,
)


@contextmanager
def criterion(num, desc, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed <= budget_s, f"criterion {num} blew its {budget_s}s budget: {elapsed:.2f}s"
    print(f"criterion {num:02d} PASS  {desc}  ({elapsed:.3f}s of {budget_s}s)")


def _w(n):
    return walk_matrix(adjacency_matrix(make_extended_dynkin(n)))


def test_criterion_01_walk_matrix_bit_exact():
    _w(7)  # warm construction outside the timed window
    with criterion(1, "order-8 walk matrix, all 81 entries exact", 0.010):
        w = _w(8)
        assert w.to_rows() == W8_ROWS
        assert list(w)[4] == (1, 2, 4, 10, 16, 42, 64, 170, 256)


def test_criterion_02_smith_normal_form_of_order8_pair():
    with criterion(2, "order-8 invariant factors (1,1,1,7) for both variants", 0.100):
        w = _w(8)
        snf_w = smith_normal_form(w)
        snf_wp = smith_normal_form(build_w_prime(hat_walk_matrix(w)))
        assert snf_w.invariant_factors == W8_FACTORS
        assert snf_wp.invariant_factors == W8_FACTORS
        assert snf_w.rank == W8_RANK


def test_criterion_03_rank_formula_scan_to_100():
    with criterion(3, "rank equals floor(n/2) by two exact routes, n in 4..100", 300.0):
        for n in range(4, 101):
            w = _w(n)
            assert rank_via_snf(w) == rank_fraction_free(w) == n // 2, f"n={n}"


def test_criterion_04_quotient_identities_to_64():
    with criterion(4, "AP = PB and trimmed walk matrix equals quotient walk matrix, n in 4..64", 60.0):
        for n in range(4, 65):
            g = make_extended_dynkin(n)
            a = adjacency_matrix(g)
            part = canonical_partition(n)
            p = characteristic_matrix(part, n + 1)
            b = divisor_matrix(g, part)
            assert a @ p == p @ b, f"n={n}"
            assert hat_walk_matrix(walk_matrix(a)) == walk_matrix(b), f"n={n}"


def test_criterion_05_integral_equivalence_to_48():
    with criterion(5, "equal Smith normal forms for both variants, n in 4..48", 180.0):
        for n in range(4, 49):
            w = _w(n)
            assert smith_normal_form(w) == smith_normal_form(build_w_prime(hat_walk_matrix(w))), f"n={n}"


def test_criterion_06_closed_form_eigenpairs_to_64():
    with criterion(6, "eigenpair residuals < 1e-10 and exact dot pattern, n in 4..64", 60.0):
        for n in range(4, 65):
            b = divisor_matrix(make_extended_dynkin(n), canonical_partition(n))
            for pair in divisor_eigenpairs(n):
                assert eigenpair_residual(b, pair) < 1e-10, f"n={n} k={pair.k}"
                dot = sum(pair.vector)
                assert abs(dot - main_value_pattern(n, pair.k)) <= 1e-9, f"n={n} k={pair.k}"


def test_criterion_07_main_eigenvalue_count_to_40():
    with criterion(7, "main eigenvalue count equals exact rank equals floor(n/2), n in 4..40", 60.0):
        for n in range(4, 41):
            report = count_main_eigenvalues(make_extended_dynkin(n))
            assert report.main_count == n // 2, f"n={n}"
            assert rank_fraction_free(_w(n)) == n // 2, f"n={n}"


def test_criterion_08_spectral_determinant_formula():
    with criterion(8, "spectral determinant matches exact determinant within 1e-6, n in 5..12", 60.0):
        for n in range(5, 13):
            b = divisor_matrix(make_extended_dynkin(n), canonical_partition(n))
            exact = det_exact(walk_matrix(b))
            approx = det_walk_spectral(divisor_eigenpairs(n))
            assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact)), f"n={n}"


def _random_30bit_primes(rng, count):
    primes = []
    while len(primes) < count:
        candidate = rng.randrange(2**29, 2**30) | 1
        if _is_prime(candidate):
            primes.append(candidate)
    return primes


def test_criterion_09_property_suites():
    with criterion(9, "500-matrix SNF/rank property corpus and 1000 cosine-sum samples", 120.0):
        rng = random.Random(90210)
        for _ in range(500):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
            d = smith_normal_form(m).invariant_factors
            assert all(b % a == 0 for a, b in zip(d, d[1:]))
            exact = rank_fraction_free(m)
            assert len(d) == exact
            mod_ranks = [rank_modular(m, p) for p in _random_30bit_primes(rng, 3)]
            assert all(r <= exact for r in mod_ranks)
            assert max(mod_ranks) == exact
        checked = 0
        while checked < 1000:
            a = rng.uniform(-4, 4)
            b = rng.uniform(-4, 4)
            x = rng.uniform(-4, 4)
            n = rng.randint(1, 50)
            if abs(math.sin(0.5 * a * x)) <= 1e-6:
                continue
            direct = sum(math.cos((a * k + b) * x) for k in range(1, n + 1))
            assert abs(cosine_sum(a, b, x, n) - direct) <= 1e-10
            checked += 1


def test_criterion_10_conjecture_scan_is_report_only(capsys):
    with criterion(10, "conjecture scan 4..48 emits one verdict per order without gating", 120.0):
        code = cli_main(
            ["scan", "--checks", "conjecture", "--from", "4", "--to", "48", "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0  # verdicts are recorded output, never the exit status
        rows = json.loads(out)
        assert [row["n"] for row in rows] == list(range(4, 49))
        for row in rows:
            assert isinstance(row["conjecture_holds"], bool)
        by_n = {row["n"]: row for row in rows}
        assert by_n[8]["snf_w"] == [1, 1, 1, 7]

"""Self-tests for the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import corpus
import oracles
import tracing

sympy = pytest.importorskip("sympy")


@pytest.mark.parametrize(
    "rows, cols, factors",
    [(4, 4, (1, 2, 6, 12)), (3, 5, (1, 3)), (5, 3, (2, 4, 8)), (4, 4, (1, 1, corpus.PRIME))],
)
def test_unimodular_mix_keeps_the_stated_snf(rows, cols, factors):
    for seed in range(10):
        a = corpus.unimodular_mix(random.Random(seed), rows, cols, factors)
        assert oracles.smith_factors(a) == factors
        if rows == cols == len(factors):
            assert sympy.Matrix(a).det() == corpus.CorpusMatrix(tuple(map(tuple, a)), factors).det


def test_corpus_block_matches_sympy():
    block = corpus.make_corpus(seed=7, blocks=1)
    assert [(*m.shape, m.factors) for m in block] == list(corpus.SHAPES)
    for m in block:
        assert oracles.smith_factors([list(r) for r in m.rows]) == m.factors
        assert sum(1 for x in sum(m.rows, ()) if x) > 0.7 * m.shape[0] * m.shape[1]
        assert max(abs(x) for x in sum(m.rows, ())) <= corpus.ENTRY_CAP * m.factors[-1]


def test_corpus_is_a_function_of_the_seed():
    assert corpus.make_corpus(3, blocks=1) == corpus.make_corpus(3, blocks=1)
    assert corpus.make_corpus(3, blocks=1) != corpus.make_corpus(4, blocks=1)


def test_modular_rank_and_det_follow_the_factors():
    m = corpus.CorpusMatrix(((corpus.PRIME, 0), (0, 2 * corpus.PRIME)), (corpus.PRIME, 2 * corpus.PRIME))
    assert (m.rank, m.modular_rank, m.det) == (2, 0, 2 * corpus.PRIME**2)
    wide = corpus.CorpusMatrix(((1, 0, 0), (0, 3, 0)), (1, 3))
    assert (wide.rank, wide.modular_rank, wide.det) == (2, 2, None)


def test_self_time_on_a_hand_built_span_tree():
    # cli 0..10 > scan 1..9 > {run_checks 2..5 > snf 3..4, run_checks 6..8}; codec 11..12
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["scan", 1.0, 9.0, 0],
        ["run_checks", 2.0, 5.0, 1],
        ["snf", 3.0, 4.0, 2],
        ["run_checks", 6.0, 8.0, 1],
        ["codec", 11.0, 12.0, -1],
    ]
    assert tracing.self_times(spans) == {
        "cli": (2.0, 1),
        "scan": (3.0, 1),
        "run_checks": (4.0, 2),
        "snf": (1.0, 1),
        "codec": (1.0, 1),
    }


def test_tracer_records_nesting():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (o, i) = tracer.spans
    assert (o[0], o[3], i[0], i[3]) == ("outer", -1, "inner", 0)
    assert o[1] <= i[1] <= i[2] <= o[2]


def test_oracles_agree_with_the_paper_at_small_orders():
    for n in range(4, 12):
        w = oracles.walk_matrix_rows(n)
        assert len(oracles.smith_factors(w)) == n // 2
        assert oracles.rank_mod_p(w, corpus.PRIME) == n // 2
        assert oracles.main_eigenvalue_count(n) == n // 2
        assert oracles.divisor_spectrum_matches(n, oracles.divisor_rows(n))


def test_patched_records_calls_and_restores_every_name():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import walkrank

    before = [getattr(tracing._resolve(owner), attr) for owner, attr, _ in tracing.PATCHES]
    m = walkrank.IntMatrix.identity(3)
    with tracing.Tracer().patched() as tracer:
        assert walkrank.rank_fraction_free(m @ m) == 3
    assert [span[0] for span in tracer.spans] == ["intmatrix.matmul", "intmatrix.rank_bareiss"]
    after = [getattr(tracing._resolve(owner), attr) for owner, attr, _ in tracing.PATCHES]
    assert all(a is b for a, b in zip(before, after))


def test_a_scan_that_exits_nonzero_is_wrong_not_failed():
    import workloads

    scan = workloads.Scan((4, 5), "rank", ())
    fake_reports = SimpleNamespace(parse_scan_json=lambda text: [], reports_to_json=lambda rows: "")
    wr = SimpleNamespace(cli=SimpleNamespace(main=lambda argv: 1), reports=fake_reports)
    attempted, failed, outs = workloads._round_of_scans(wr, (scan,))
    assert (attempted, failed) == (2, 0)
    with pytest.raises(workloads.CheckFailed, match="exit 1"):
        workloads._check_scan_output(wr, scan, [outs[0]])
    with pytest.raises(workloads.CheckFailed, match="no round"):
        workloads._check_scan_output(wr, scan, [workloads.FAILED])


def test_the_benchmark_imports_no_third_party_package():
    # run.py takes its module baseline after these imports; numpy or sympy in
    # it would hide the same import in walkrank from setup_s
    import subprocess

    code = "import sys, run; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'sympy'}))"
    here = Path(__file__).resolve().parent
    out = subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

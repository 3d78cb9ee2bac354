"""The names reached from outside the submodules: the package top level and
every name the benchmark in `perfbench/` patches or calls.

`perfbench/test_perfbench.py` needs sympy, so these checks live here, where
they run without it.
"""

import importlib.util
import types
from pathlib import Path

import pytest

import walkrank
import walkrank.cli
import walkrank.graphs
import walkrank.intmatrix
import walkrank.quotient
import walkrank.reports
import walkrank.snf

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

KERNELS = {
    "IntMatrix": walkrank.intmatrix,
    "format_matrix_text": walkrank.intmatrix,
    "parse_matrix_text": walkrank.intmatrix,
    "rank_fraction_free": walkrank.intmatrix,
    "rank_modular": walkrank.intmatrix,
    "det_exact": walkrank.intmatrix,
    "rank_via_snf": walkrank.snf,
    "smith_normal_form": walkrank.snf,
}


def _load_tracing() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_top_level_binds_only_the_matrix_kernels():
    public = {
        name
        for name, value in vars(walkrank).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(KERNELS)
    assert isinstance(walkrank.__version__, str)
    for name, module in KERNELS.items():
        assert getattr(walkrank, name) is getattr(module, name)


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    assert tracing.PATCHES
    for owner, attr, _ in tracing.PATCHES:
        assert callable(getattr(tracing._resolve(owner), attr)), (owner, attr)


@pytest.mark.parametrize(
    "module, attr",
    [
        (walkrank.intmatrix.IntMatrix, "from_rows"),
        (walkrank.intmatrix.IntMatrix, "identity"),
        (walkrank.quotient, "divisor_matrix"),
        (walkrank.quotient, "canonical_partition"),
        (walkrank.graphs, "make_extended_dynkin"),
        (walkrank.reports, "parse_scan_json"),
        (walkrank.reports, "reports_to_json"),
        (walkrank.reports, "run_checks"),
        (walkrank.cli, "main"),
    ],
)
def test_names_the_workloads_call(module, attr):
    assert callable(getattr(module, attr))

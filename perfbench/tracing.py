"""Spans around calls into walkrank's public functions, recorded from outside.

A traced round replaces each function in PATCHES, at the name its caller looks
it up by, with a wrapper that records a span (layer, start, end, parent) in
memory. Untraced rounds patch nothing. A layer's self time is the summed
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

# (owner, attribute, layer); an owner "module:Class" names a class attribute.
PATCHES = (
    ("walkrank.cli", "main", "cli.self"),
    ("walkrank.cli", "scan", "reports.run_checks_self"),
    ("walkrank.cli", "reports_to_json", "reports.codec"),
    ("walkrank.reports", "parse_scan_json", "reports.codec"),
    ("walkrank.reports", "run_checks", "reports.run_checks_self"),
    ("walkrank.reports", "make_extended_dynkin", "graphs.build"),
    ("walkrank.reports", "adjacency_matrix", "graphs.build"),
    ("walkrank.reports", "walk_matrix", "intmatrix.walk_matrix"),
    ("walkrank.reports", "rank_fraction_free", "intmatrix.rank_bareiss"),
    ("walkrank.reports", "smith_normal_form", "snf.snf"),
    ("walkrank.reports", "build_w_prime", "snf.w_prime"),
    ("walkrank.reports", "characteristic_matrix", "quotient.characteristic"),
    ("walkrank.reports", "divisor_matrix", "quotient.divisor"),
    ("walkrank.reports", "hat_walk_matrix", "quotient.hat"),
    ("walkrank.reports", "count_main_eigenvalues", "spectra.main_count_self"),
    ("walkrank.reports", "divisor_eigenpairs", "spectra.eigenpairs"),
    ("walkrank.reports", "eigenpair_residual", "spectra.residual"),
    ("walkrank.spectra", "symmetric_eigen", "spectra.jacobi"),
    ("walkrank.intmatrix:IntMatrix", "__matmul__", "intmatrix.matmul"),
    # the matrix corpus calls its kernels through the package's re-exports
    ("walkrank", "format_matrix_text", "intmatrix.text_codec"),
    ("walkrank", "parse_matrix_text", "intmatrix.text_codec"),
    ("walkrank", "rank_fraction_free", "intmatrix.rank_bareiss"),
    ("walkrank", "rank_via_snf", "snf.snf"),
    ("walkrank", "smith_normal_form", "snf.snf"),
    ("walkrank", "rank_modular", "intmatrix.rank_modular"),
    ("walkrank", "det_exact", "intmatrix.det"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in PATCHES))

Span = list  # [layer, start, end, parent index or -1]


def _resolve(owner: str) -> object:
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """Collects the spans of one traced round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer in PATCHES:
                target = _resolve(owner)
                fn = getattr(target, attr)
                saved.append((target, attr, fn))
                setattr(target, attr, self.wrap(layer, fn))
            yield self
        finally:
            for target, attr, fn in reversed(saved):
                setattr(target, attr, fn)


def self_times(spans: Sequence[Span]) -> dict[str, tuple[float, int]]:
    """Per layer: summed self time in seconds and the number of spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for (layer, start, end, _), child in zip(spans, covered):
        total, calls = out.get(layer, (0.0, 0))
        out[layer] = (total + (end - start) - child, calls + 1)
    return out

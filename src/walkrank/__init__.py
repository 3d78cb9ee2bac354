"""Exact-arithmetic toolkit for walk matrices of Dynkin-type tree families:
graph generators, big-integer rank and Smith normal form, equitable-partition
quotients, spectra, and verification scans.

The top level re-exports only the exact matrix kernels; everything else is
imported from its submodule.
"""

from .intmatrix import (
    IntMatrix,
    det_exact,
    format_matrix_text,
    parse_matrix_text,
    rank_fraction_free,
    rank_modular,
)
from .snf import rank_via_snf, smith_normal_form

__version__ = "0.1.0"

"""Mutation check: the test suite must fail on each listed mutant of walkrank.

Run from anywhere, with pytest installed:

    python tools/mutants.py

A mutant is one textual replacement `(file, old, new)` in a file under
`src/`. The runner first checks that each `old` occurs exactly once in its
file. It then copies `src/` to a temporary directory and runs
`python -m pytest -x -q` from the root of the checkout with that copy first
on PYTHONPATH: once unchanged, where the suite must pass, and once per
mutant with that one replacement made. It exits 1 naming every mutant the
suite passes on, and 2 when an `old` is missing or repeated or the unchanged
copy fails. Each run takes up to one suite run, about 12 s.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MUTANTS = [
    # each verdict term of run_checks, pinned by one fault test
    (
        "walkrank/reports.py",
        "EIGENPAIR_RESIDUAL_TOL = 1e-10",
        "EIGENPAIR_RESIDUAL_TOL = 1e-3",
    ),
    (
        "walkrank/reports.py",
        "if abs(sum(pair.vector) - main_value_pattern(n, pair.k)) > DOT_PATTERN_TOL:",
        "if False:",
    ),
    (
        "walkrank/reports.py",
        'passed["hat"] = ap_eq_pb and rep.hat_equals_wb',
        'passed["hat"] = rep.hat_equals_wb',
    ),
    (
        "walkrank/reports.py",
        'passed["rank"] = order.snf_w.rank == r_bareiss == expected',
        'passed["rank"] = order.snf_w.rank == expected',
    ),
    (
        "walkrank/spectra.py",
        "delta = _GROUP_TOL / 4",
        "delta = _GROUP_TOL * 25",
    ),
    (
        "walkrank/reports.py",
        'passed["hagos"] = spectrum.inertia_ok and rep.main_count',
        'passed["hagos"] = rep.main_count',
    ),
    (
        "walkrank/spectra.py",
        "_PROJ_TOL = 1e-8",
        "_PROJ_TOL = 1e-4",
    ),
    # the kernels and the rank chain of verify
    (
        "walkrank/snf.py",
        "SnfResult(tuple(_divisibility_fixup(diag)))",
        "SnfResult(tuple(diag))",
    ),
    (
        "walkrank/intmatrix.py",
        "row[c] = (p * row[c] - row[cs] * xs) // q",
        "row[c] = (row[c] - row[cs] * xs) // q",
    ),
    (
        "walkrank/snf.py",
        "for j in range(i + 1, len(d)):",
        "for j in range(i + 1, min(i + 2, len(d))):",
    ),
    (
        "walkrank/intmatrix.py",
        "a[i] = [(x - mult * y) % p for x, y in zip(a[i], prow)]",
        "a[i] = [x - mult * y for x, y in zip(a[i], prow)]",
    ),
    (
        "walkrank/spectra.py",
        "q = pivmin",
        "q = -pivmin",
    ),
    (
        "walkrank/reports.py",
        "rank_wprime = rank_fraction_free(build_w_prime(order.hat))",
        "rank_wprime = rank_w",
    ),
    # the SNF loop: each pass hands its least remainder on as the next pivot
    (
        "walkrank/snf.py",
        "if row[t] and (not best or abs(row[t]) < best):",
        "if False:",
    ),
    (
        "walkrank/snf.py",
        "if trow[j] and (not best or abs(trow[j]) < best):",
        "if False:",
    ),
    # the implicit-shift QL kernel: z's rotation, the shift and the deflation test
    (
        "walkrank/spectra.py",
        "z[i], z[i + 1] = c * z[i] - s * z[i + 1], s * z[i] + c * z[i + 1]",
        "pass",
    ),
    (
        "walkrank/spectra.py",
        "math.copysign(math.hypot(g, 1.0), g)",
        "math.copysign(math.hypot(g, 1.0), -g)",
    ),
    (
        "walkrank/spectra.py",
        "g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))",
        "g = d[m] - d[l]",
    ),
    (
        "walkrank/spectra.py",
        "while abs(e[m]) > _EPS * tst1:",
        "while abs(e[m]) > 1e-6 * tst1:",
    ),
    # SNF(W') is read from SNF(W) only when the trim's cut rows are W's
    (
        "walkrank/reports.py",
        "if rows == list(core):",
        "if True:",
    ),
    # W's core keeps d columns; a cut at d + 1 keeps the factors too, so
    # only a cut short of d is a mutant the suite can see
    (
        "walkrank/snf.py",
        "return IntMatrix.from_rows([r[: len(rows)] for r in rows])",
        "return IntMatrix.from_rows([r[: len(rows) - 1] for r in rows])",
    ),
    # the three-term walk kernel: W and W_E start from the all-ones column.
    # c = 0 on the scan path (_Order building walk_matrix in place of
    # chebyshev_walk_matrix) is not listed: the paper's W gives the same
    # outputs, so that mutant is equivalent
    (
        "walkrank/intmatrix.py",
        "    v = [1] * k\n",
        "    v = [2] * k\n",
    ),
    # the one product kernel, over row supports: each row keeps every term
    (
        "walkrank/intmatrix.py",
        "out.append([(j, x) for j, x in sorted(acc.items()) if x])",
        "out.append([(j, x) for j, x in sorted(acc.items()) if x][:-1])",
    ),
    # the divisor witness names the least inconsistent cell j
    (
        "walkrank/quotient.py",
        "return (i + 1, min(bad) + 1)",
        "return (i + 1, max(bad) + 1)",
    ),
    # an IntMatrix is read by iterating its rows: every row, in order
    (
        "walkrank/intmatrix.py",
        "return iter(self._rows)",
        "return iter(self._rows[:-1])",
    ),
    # every constructor ends in _store, which refuses a matrix with no row
    (
        "walkrank/intmatrix.py",
        "if not self._rows:",
        "if False:",
    ),
    # a claimed eigenpair refuses a non-finite vector entry when it is built
    (
        "walkrank/spectra.py",
        "if not all(map(math.isfinite, v)):",
        "if False:",
    ),
    # the one home of the rule that an integer argument is exactly an int
    (
        "walkrank/intmatrix.py",
        "if type(value) is not int:",
        "if not isinstance(value, int):",
    ),
]


def misplaced(mutants: list[tuple[str, str, str]]) -> list[str]:
    """One line per mutant whose `old` does not occur exactly once in its file."""
    out = []
    for file, old, _ in mutants:
        count = (SRC / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            out.append(f"{file}: {old!r} occurs {count} times, not once")
    return out


def _suite_passes(src: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q"]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode == 0


def _copy(tmp: Path, mutant: tuple[str, str, str] | None) -> Path:
    """A fresh copy of src/ under tmp, with the mutant's replacement made."""
    copy = tmp / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        file, old, new = mutant
        path = copy / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return copy


def main() -> int:
    problems = misplaced(MUTANTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        if not _suite_passes(_copy(Path(tmp), None)):
            print("the suite fails on the unchanged source", file=sys.stderr)
            return 2
        survivors = []
        for file, old, new in MUTANTS:
            name = f"{file}: {old!r} -> {new!r}"
            killed = not _suite_passes(_copy(Path(tmp), (file, old, new)))
            print(f"{'killed' if killed else 'SURVIVED'}: {name}", flush=True)
            if not killed:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived:", file=sys.stderr)
        print("\n".join(survivors), file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

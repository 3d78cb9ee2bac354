import pytest

import walkrank.spectra as spectra


@pytest.fixture
def misplaced_eigenvalue(monkeypatch):
    """Patch the eigensolver so that its smallest eigenvalue moves past its largest."""
    solve = spectra.symmetric_eigen

    def moved(m):
        values, z = solve(m)
        return values[1:] + [values[-1] + 1.0], z[1:] + z[:1]

    monkeypatch.setattr(spectra, "symmetric_eigen", moved)


@pytest.fixture
def split_eigenvalue(monkeypatch):
    """Patch the eigensolver so that the first copy of its smallest repeated
    eigenvalue moves down by 5e-8, five times the grouping tolerance: the
    grouping then splits that eigenvalue into two groups."""
    solve = spectra.symmetric_eigen

    def split(m):
        values, z = solve(m)
        i = next(i for i in range(len(values) - 1) if values[i + 1] - values[i] <= spectra._GROUP_TOL)
        values[i] -= 5e-8
        return values, z

    monkeypatch.setattr(spectra, "symmetric_eigen", split)

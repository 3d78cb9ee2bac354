import pytest

import walkrank.spectra as spectra


@pytest.fixture
def misplaced_eigenvalue(monkeypatch):
    """Patch the eigensolver so that its smallest eigenvalue moves past its largest."""
    solve = spectra.symmetric_eigen

    def moved(m):
        values, z, form = solve(m)
        return values[1:] + [values[-1] + 1.0], z[1:] + z[:1], form

    monkeypatch.setattr(spectra, "symmetric_eigen", moved)


@pytest.fixture
def split_eigenvalue(monkeypatch):
    """Patch the eigensolver so that the first copy of its smallest repeated
    eigenvalue moves down by 5e-8, five times the grouping tolerance: the
    grouping then splits that eigenvalue into two groups."""
    solve = spectra.symmetric_eigen

    def split(m):
        values, z, form = solve(m)
        i = next(i for i in range(len(values) - 1) if values[i + 1] - values[i] <= spectra._GROUP_TOL)
        values[i] -= 5e-8
        return values, z, form

    monkeypatch.setattr(spectra, "symmetric_eigen", split)


@pytest.fixture
def in_gap_eigenvalue(monkeypatch):
    """Patch the eigensolver so that its largest eigenvalue moves up by half
    its gap to the next one: above every gap midpoint, but not where A has
    an eigenvalue (K5's 4 becomes 6.5)."""
    solve = spectra.symmetric_eigen

    def moved(m):
        values, z, form = solve(m)
        values[-1] += 0.5 * (values[-1] - values[-2])
        return values, z, form

    monkeypatch.setattr(spectra, "symmetric_eigen", moved)


@pytest.fixture
def merged_eigenvalues(monkeypatch):
    """Patch the eigensolver so that its largest eigenvalue moves down to half
    the grouping tolerance above the next one: the grouping then merges two
    distinct eigenvalues into one group."""
    solve = spectra.symmetric_eigen

    def merged(m):
        values, z, form = solve(m)
        values[-1] = values[-2] + 0.5 * spectra._GROUP_TOL
        return values, z, form

    monkeypatch.setattr(spectra, "symmetric_eigen", merged)

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

import numpy as np
import pytest

from casimir import QuadratureConfig


@pytest.fixture(scope="session")
def quad_fast():
    """Loose tolerance for sweeps where only the verdict matters."""
    return QuadratureConfig(rel_tol=1e-6)


@pytest.fixture(scope="session")
def quad_tight():
    return QuadratureConfig(rel_tol=1e-8)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def kk_nodes(monkeypatch):
    """Frequency arrays of every direct Kramers-Kronig transform, in order:
    the Chebyshev points of each decade panel a table builds, and the nodes
    of a decade that keeps the direct transform."""
    from casimir import materials
    seen = []
    original = materials._kk_integral

    def counted(table, xi):
        seen.append(np.array(xi))
        return original(table, xi)

    monkeypatch.setattr(materials, "_kk_integral", counted)
    return seen


@pytest.fixture
def fresh_engine_caches():
    """Starts the test with the engine's scale-free solves and inner seed
    grids forgotten.  The fixture's value, ``cold(call)``, forgets them
    again and returns ``call()``."""
    from casimir import engine

    def cold(call):
        engine._SOLVED.clear()
        engine._seed.cache_clear()
        engine._scan_grid.cache_clear()
        return call()

    cold(lambda: None)
    return cold

import numpy as np
import pytest


@pytest.fixture
def factorizations(monkeypatch):
    """(name, side) of every np.linalg.cholesky and eigvalsh call, in order."""
    calls = []
    for name in ("cholesky", "eigvalsh"):
        real = getattr(np.linalg, name)
        spy = lambda a, name=name, real=real: calls.append((name, len(a))) or real(a)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls

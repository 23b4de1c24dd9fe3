"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def factorisations(monkeypatch):
    """The names of the np.linalg factorising calls made while a test runs:
    svd, matrix_rank and lstsq, each counted once per call."""
    calls = []
    for name in ("svd", "matrix_rank", "lstsq"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls

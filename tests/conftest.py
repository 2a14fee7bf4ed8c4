"""Fixtures shared by the test modules."""

from pathlib import Path

import pytest


@pytest.fixture
def bench_root(monkeypatch):
    """The repository root, put first on sys.path so that ``cluebench``
    imports wherever pytest was started."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    return root

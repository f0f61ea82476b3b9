"""Fixtures shared by the test modules."""

import pytest

from specx import engine


@pytest.fixture
def two_cpus(monkeypatch):
    """A sweep may use two processes, whatever this machine has."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)

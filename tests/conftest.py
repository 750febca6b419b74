"""Shared fixtures."""
import contextlib
from fractions import Fraction

import pytest


@pytest.fixture
def no_fraction_built(monkeypatch):
    """A context manager that fails the test if a Fraction is constructed
    inside it, by recording every call of Fraction.__new__ there."""

    @contextlib.contextmanager
    def watch():
        built = []
        new = Fraction.__new__

        def recording_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(recording_new))
        try:
            yield
        finally:
            monkeypatch.undo()
        assert built == [], f"Fractions built: {built[:5]}"

    return watch

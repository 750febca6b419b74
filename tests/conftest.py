"""Shared fixtures."""
import contextlib
import sys
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


@pytest.fixture
def digit_limit_640():
    """The interpreter's limit on the digits of an int-to-string conversion
    lowered to its floor, 640, for the test, then restored; the test is
    skipped where the interpreter has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("integer strings of any length convert")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(limit)

"""The draws and the bounded redraw loop shared by the generators, the
suites and the CLI."""
import random

import pytest

from porism.errors import DegenerateStart, GenerationExhausted
from porism.sampling import _randint, _redraw
from porism.suites import ResampleTally


def _draws(*outcomes):
    """A draw that replays outcomes in turn (raising exceptions), counting calls."""
    calls = []

    def draw():
        calls.append(None)
        outcome = outcomes[len(calls) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return draw, calls


def test_redraw_makes_exactly_tries_calls_then_raises():
    draw, calls = _draws(*[None] * 10)
    tally = ResampleTally()
    with pytest.raises(GenerationExhausted, match="^kept degenerating$"):
        _redraw(draw, 7, "kept degenerating", tally=tally)
    assert len(calls) == 7
    assert tally.resamples == 7


def test_redraw_counts_none_and_skipped_exceptions_as_rejections():
    draw, calls = _draws(None, DegenerateStart("x"), None, 0, "unused")
    tally = ResampleTally(resamples=5)
    assert _redraw(draw, 10, "unused", DegenerateStart, tally) == 0
    assert len(calls) == 4
    assert tally.resamples == 5 + 3
    draw, _ = _draws(DegenerateStart("x"), KeyError("y"), 1)
    assert _redraw(draw, 3, "unused", (KeyError, DegenerateStart)) == 1


def test_redraw_propagates_exceptions_outside_skip():
    draw, calls = _draws(None, ValueError("boom"), 1)
    tally = ResampleTally()
    with pytest.raises(ValueError, match="boom"):
        _redraw(draw, 5, "unused", DegenerateStart, tally)
    assert len(calls) == 2
    assert tally.resamples == 1
    draw, _ = _draws(DegenerateStart("not skipped"))
    with pytest.raises(DegenerateStart):
        _redraw(draw, 5, "unused")


def test_randint_refuses_an_empty_range_as_the_stdlib_does():
    rng = random.Random(0)
    for hi in (0, -3):
        with pytest.raises(ValueError):
            rng.randint(1, hi)
        with pytest.raises(ValueError, match="empty range"):
            _randint(rng.getrandbits, 1, hi)

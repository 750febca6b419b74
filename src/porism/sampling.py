"""Seeded sampling: the random draws, the line admission test and the one
bounded redraw loop that the generators, the suites and the CLI share.

Tests pin the order of the draws (the generator digests, the stdlib twin of
the draws, the suite seeds and the frozen outputs): every seeded output hangs
on it. The draws read rng.getrandbits as Random.randint does (_randint): the
same ints, in the same order, to the same final state.
"""
from __future__ import annotations

import math
import random
from typing import Callable, Optional

from .errors import GenerationExhausted
from .plane import ConicParam, ProjLine, ProjPoint, _primitive


def _budget(n: int, max_tries: Optional[int]) -> int:
    """max_tries, or by default the generators' bound on the rejected draws
    for n lines: rejections grow with n (about n/4 at n = 4096)."""
    return max(400, n) if max_tries is None else max_tries


def _randint(bits: Callable[[int], int], lo: int, hi: int) -> int:
    """rng.randint(lo, hi) from bits = rng.getrandbits, read as the stdlib's
    _randbelow_with_getrandbits does: with width = hi - lo + 1, draw
    width.bit_length() bits until they fall below width."""
    width = hi - lo + 1
    if width <= 0:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    k, r = width.bit_length(), width
    while r >= width:
        r = bits(k)
    return lo + r


def _random_param(rng: random.Random, span: int = 9,
                  den_span: Optional[int] = None) -> ConicParam:
    """A rational parameter: numerator in [-span, span], then denominator in
    [1, den_span], which defaults to span."""
    bits = rng.getrandbits
    return ConicParam._from_pair(_randint(bits, -span, span), _randint(bits, 1, den_span or span))


def _random_point(rng: random.Random, span: int = 9) -> ProjPoint:
    """A point whose coordinates are three _random_param values, redrawn
    while all are zero.

    It makes the same draws, numerator then denominator per coordinate,
    and clears the denominators in ints: no Fraction is built."""
    bits = rng.getrandbits
    while True:
        n0, d0 = _randint(bits, -span, span), _randint(bits, 1, span)
        n1, d1 = _randint(bits, -span, span), _randint(bits, 1, span)
        n2, d2 = _randint(bits, -span, span), _randint(bits, 1, span)
        if n0 or n1 or n2:
            coords = (n0 * d1 * d2, n1 * d0 * d2, n2 * d0 * d1)
            return ProjPoint._from_primitive(_primitive(coords))


def _admit(line: ProjLine, gathered: set) -> bool:
    """Whether a rational line may join the lines gathered describes, adding
    its description if so: it is not tangent, and its two conic parameters
    avoid every gathered one (so it repeats no line). Validity is pairwise,
    so lines admitted one at a time make a valid configuration.

    Decided on ints by the discriminant l1^2 - 4 l0 l2 of l2 t^2 + l1 t + l0:
    zero is a tangent; a square gives two rational roots, gathered as
    coprime pairs; a non-square gives irrational roots whose minimal
    polynomial over Q is the line's own quadratic, so only the same line
    shares them, and the line's triple is gathered in their place."""
    l0, l1, l2 = line._coords
    disc = l1 * l1 - 4 * l0 * l2
    r = math.isqrt(disc) if disc > 0 else 0
    if r * r != disc:
        keys = (line._coords,)
    elif not disc:
        return False
    elif l2:
        keys = (ConicParam._from_pair(-l1 + r, 2 * l2).pair(),
                ConicParam._from_pair(-l1 - r, 2 * l2).pair())
    else:  # infinity and -l0/l1
        keys = ((1, 0), ConicParam._from_pair(-l0, l1).pair())
    if not gathered.isdisjoint(keys):
        return False
    gathered.update(keys)
    return True


def _redraw(draw: Callable[[], object], tries: int, exhausted: str, skip=(), tally=None):
    """The first value other than None from at most tries calls to draw().

    A call that returns None, or raises an exception in skip, is a
    rejection, and adds one to tally.resamples when a tally is given;
    GenerationExhausted(exhausted) when every call is rejected."""
    for _ in range(tries):
        try:
            value = draw()
        except skip:
            value = None
        if value is not None:
            return value
        if tally is not None:
            tally.resamples += 1
    raise GenerationExhausted(exhausted)

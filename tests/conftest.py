"""Shared fixtures."""

import sys
from fractions import Fraction
from itertools import accumulate

import pytest

from omegalib.verify import enumerate_kraft_multisets


@pytest.fixture
def no_int_digit_limit():
    """Lift CPython's int<->str digit limit for one test, then restore it."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.fixture
def int_text():
    """``str`` of an int of any size; the limit holds again once it returns."""
    def convert(value: int) -> str:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(previous)
    return convert


def _kraft_orderings(rng):
    """The criterion-2/3 sweep family: every Kraft multiset of lengths up to
    6, each in its distinct ascending, descending and shuffled orders.  One
    ``rng.shuffle`` per multiset, drawn whether or not the shuffle is kept."""
    for multiset in enumerate_kraft_multisets(6):
        ascending = list(multiset)
        shuffled = ascending[:]
        rng.shuffle(shuffled)
        kept = []
        for candidate in (ascending, ascending[::-1], shuffled):
            if candidate not in kept:
                kept.append(candidate)
        yield from kept


@pytest.fixture
def kraft_orderings():
    """The sweep family's generator, called with the test's own ``rng``."""
    return _kraft_orderings


def _increasing_rationals(rng, count, ceiling):
    """``verify.random_increasing_rationals`` with steps of 1..``ceiling``: at
    1000 it makes the same draws, and a small ceiling gives small
    denominators."""
    steps = [rng.randint(1, ceiling) for _ in range(count)]
    denominator = sum(steps) + rng.randint(1, ceiling)
    return [Fraction(running, denominator) for running in accumulate(steps)]


@pytest.fixture
def increasing_rationals():
    """The increasing-rationals draw with its step ceiling as an argument."""
    return _increasing_rationals


def _outcome(call, *args):
    """A call's result, or its exception's type and message."""
    try:
        return call(*args)
    except Exception as exc:          # compared, never swallowed
        return type(exc), str(exc)


@pytest.fixture
def outcome():
    return _outcome


def _wide_increasing_rationals(rng, count):
    """Increasing rationals in (0, 1), each over its own 200-260 digit
    denominator: ``c / 10**6`` for distinct ``c``, moved by under 10**-49."""
    cuts = sorted(rng.sample(range(1, 10**6), count))
    dens = [rng.randrange(10**200, 10**260) for _ in cuts]
    return [Fraction(c * d // 10**6 + rng.randrange(10**150), d)
            for c, d in zip(cuts, dens)]


@pytest.fixture
def wide_increasing_rationals():
    return _wide_increasing_rationals

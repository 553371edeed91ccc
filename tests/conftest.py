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

"""Shared fixtures."""

import sys

import pytest


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

"""Imperative allocator: splitting, batch allocation, invariant reports."""

import copy
import pickle
import random
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product, takewhile

import pytest
from hypothesis import given, strategies as st

from omegalib import codespace
from omegalib.bits import (MAX_LENGTH_DIGITS, MAX_TEXT_LENGTH, format_word,
                           iter_length_lex, parse_word, prefix_free, read_lines,
                           validate_bits)
from omegalib.codespace import (AllocatorState, InvariantReport, allocate, allocate_all,
                                check_invariants, extend_prefix,
                                new_allocator, parse_request_lines)
from omegalib.errors import InsufficientMass, OmegalibError
from omegalib.exact import Dyadic, measure_of_lengths, pow2_neg
from omegalib.verify import enumerate_kraft_multisets, random_kraft_lengths, random_word


class TestExtendPrefix:
    def test_reference_split(self):
        assert extend_prefix("001", 5) == ["00100", "00101", "0011"]

    def test_zero_depth(self):
        assert extend_prefix("001", 3) == ["001"]

    def test_from_empty_word(self):
        assert extend_prefix("", 2) == ["00", "01", "1"]

    def test_target_too_short(self):
        with pytest.raises(OmegalibError, match=(
                "^target length 2 is below the stem length 3$")):
            extend_prefix("001", 2)

    def test_non_str_stem_refused(self):
        # Refused by the word check, before the split touches the stem.
        for stem in (("0", "1"), ["0"], b"01"):
            with pytest.raises(TypeError, match="a binary word is a str"):
                extend_prefix(stem, 4)

    @given(st.integers(min_value=0, max_value=10))
    def test_split_is_a_partition(self, depth):
        words = extend_prefix("01", 2 + depth)
        assert prefix_free(words)
        assert measure_of_lengths(map(len, words)) == measure_of_lengths([2])


class TestAllocate:
    def test_first_allocation(self):
        state = new_allocator()
        assert state.free == [""]
        assert allocate(state, 2) == "00"
        assert state.free == ["1", "01"]
        assert state.mass_allocated == Fraction(1, 4)

    def test_second_allocation(self):
        state = new_allocator()
        allocate(state, 2)
        assert allocate(state, 3) == "010"
        assert state.free == ["1", "011"]

    def test_zero_length_takes_everything(self):
        state = new_allocator()
        assert allocate(state, 0) == ""
        assert state.free == []
        assert state.mass_allocated == 1
        with pytest.raises(InsufficientMass):
            allocate(state, 5)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            allocate(new_allocator(), -1)

    @pytest.mark.parametrize("n, error", [
        (-1, ValueError), (1, InsufficientMass), (2.5, TypeError),
        # Integral floats reach an exact fit (2.0, 3.0) or a one-step split
        # (4.0), and still fail before the pool changes.
        (2.0, TypeError), (3.0, TypeError), (4.0, TypeError),
    ])
    def test_raising_call_leaves_state_untouched(self, n, error):
        state = new_allocator()
        allocate(state, 1)
        allocate(state, 3)
        before = (list(state.free), list(state.allocated), state.mass_allocated)
        assert before == (["11", "101"], ["0", "100"], Dyadic(5, 3))
        with pytest.raises(error):
            allocate(state, n)
        assert (state.free, state.allocated, state.mass_allocated) == before

    @pytest.mark.parametrize("served", [
        [0],            # empty pool: all of code space issued
        [],             # fresh pool: the empty word
        [40],           # full pool: one free word of every length 1..40
    ])
    @pytest.mark.parametrize("n", [-1, -2, -41])
    def test_negative_length_refused_on_any_pool(self, served, n):
        state = new_allocator()
        for length in served:
            allocate(state, length)
        before = (list(state.free), list(state.allocated), state.mass_allocated)
        with pytest.raises(ValueError, match="natural numbers"):
            allocate(state, n)
        assert (state.free, state.allocated, state.mass_allocated) == before

    def test_refusal_args_name_length_and_index(self):
        refusal = InsufficientMass(3)
        assert refusal.args == (3, None)
        assert (refusal.length, refusal.index) == (3, None)
        assert InsufficientMass(3, 7).args == (3, 7)
        with pytest.raises(InsufficientMass) as info:
            allocate(AllocatorState(free=[]), 4)
        assert info.value.args == (4, None)

    def test_fresh_states_share_no_lists(self):
        first, second = AllocatorState(), AllocatorState()
        assert first.free is not second.free
        assert first.allocated is not second.allocated
        allocate(first, 1)
        assert (second.free, second.allocated) == ([""], [])
        assert new_allocator().free == [""]


class TestLedger:
    @pytest.mark.parametrize("lengths, canonical", [
        # Each run ends with a request exactly as long as the longest one
        # before it, the write that leaves the raw ledger even.
        ([1, 1], (1, 0)), ([3, 3], (1, 2)), ([2, 5, 5], (5, 4)),
    ])
    def test_read_back_is_canonical(self, lengths, canonical):
        state = new_allocator()
        for n in lengths:
            allocate(state, n)
        mass = state.mass_allocated
        assert (mass.mantissa, mass.exponent) == canonical
        assert mass == measure_of_lengths(lengths)

    def test_hand_built_ledger_round_trips(self):
        state = AllocatorState(free=[""], allocated=[], mass_allocated=Dyadic(3, -1))
        mass = state.mass_allocated
        assert (mass.mantissa, mass.exponent) == (3, -1)
        report = check_invariants(state)
        assert report.mass_matches_ledger is False
        assert report.failures() == ["mass_matches_ledger"]
        state.mass_allocated = Dyadic(0)
        assert check_invariants(state).ok


class TestAllocateAll:
    def test_reference_run(self):
        table = allocate_all([(2, "0"), (3, "1"), (4, "")])
        assert [w for w, _ in table] == ["00", "010", "0110"]
        assert [y for _, y in table] == ["0", "1", ""]

    def test_empty_batch(self):
        assert allocate_all([]) == []

    def test_mass_exhaustion_reports_index(self):
        with pytest.raises(InsufficientMass) as info:
            allocate_all([(1, ""), (1, ""), (1, "")])
        assert info.value.index == 2
        assert info.value.length == 1

    @pytest.mark.parametrize("index", [None, 0, 2])
    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda e: pickle.loads(pickle.dumps(e))])
    def test_refusal_survives_copy_and_pickle(self, clone, index):
        original = InsufficientMass(5, index=index)
        where = f" (request index {index})" if index is not None else ""
        message = f"no free prefix can honour a length-5 request{where}"
        twin = clone(original)
        assert type(twin) is InsufficientMass
        assert (twin.length, twin.index) == (5, index)
        assert str(twin) == str(original) == message
        assert twin.args == original.args == (5, index)

    def test_boundary_full_mass_succeeds(self):
        table = allocate_all([(1, ""), (2, ""), (2, "")])
        assert measure_of_lengths(len(w) for w, _ in table) == 1

    def test_prefix_stability_under_extension(self):
        first = allocate_all([(3, ""), (1, ""), (4, "")])
        extended = allocate_all([(3, ""), (1, ""), (4, ""), (4, ""), (5, "")])
        assert extended[:3] == first


class TestCheckInvariants:
    def test_fresh_state_passes(self):
        report = check_invariants(new_allocator())
        assert report.ok
        assert report.remaining_requests_fit is None

    def test_remaining_requests_checked_when_supplied(self):
        state = new_allocator()
        allocate(state, 2)
        fits = check_invariants(state, remaining_lengths=[1, 2])
        assert fits.ok and fits.remaining_requests_fit is True
        too_much = check_invariants(state, remaining_lengths=[1, 1])
        assert too_much.remaining_requests_fit is False
        assert not too_much.ok
        assert too_much.failures() == ["remaining_requests_fit"]

    def test_hand_built_overlapping_pool_fails(self):
        state = AllocatorState(free=["0", "01"], allocated=[],
                               mass_allocated=Dyadic(0))
        report = check_invariants(state)
        assert not report.union_prefix_free
        assert not report.ok
        assert report.witness == ("0", "01")

    def test_gap_witness(self):
        state = AllocatorState(free=["1"], allocated=["000"],
                               mass_allocated=Dyadic(1, 3))
        report = check_invariants(state)
        assert report.failures() == ["union_measure_is_one"]
        assert report.witness == (Dyadic(1, 3), Dyadic(1, 1))

    def test_passing_report_has_no_witness(self):
        state = new_allocator()
        allocate(state, 2)
        assert check_invariants(state).witness is None
        assert check_invariants(state, [2, 3]).witness is None

    def test_non_binary_word_gets_no_gap_witness(self):
        state = AllocatorState(free=["2"], allocated=[], mass_allocated=Dyadic(0))
        report = check_invariants(state)
        assert report.failures() == ["union_measure_is_one"]
        assert report.witness is None

    def test_hand_built_unsorted_pool_fails(self):
        # Prefix-free with measure one, but not strictly increasing in length:
        # not a valid allocate input, and the report says so.
        state = AllocatorState(free=["1", "01", "00"], allocated=[],
                               mass_allocated=Dyadic(0))
        report = check_invariants(state)
        assert report.failures() == ["free_lengths_distinct"]

    def test_hand_built_longest_first_pool_fails(self):
        # The state two allocations leave, with the pool in the longest-first
        # order the allocator used to keep.
        state = AllocatorState(free=["011", "1"], allocated=["00", "010"],
                               mass_allocated=Dyadic(3, 3))
        report = check_invariants(state)
        assert report.failures() == ["free_lengths_distinct"]
        state.free.reverse()
        assert check_invariants(state).ok

    def test_wrong_ledger_detected(self):
        state = new_allocator()
        allocate(state, 3)
        state.mass_allocated = Dyadic(1, 2)
        assert not check_invariants(state).mass_matches_ledger

    def test_invariants_hold_along_a_run(self):
        lengths = [3, 1, 4, 4, 5, 6, 6, 3]
        state = new_allocator()
        for i, n in enumerate(lengths):
            allocate(state, n)
            report = check_invariants(state, remaining_lengths=lengths[i + 1:])
            assert report.ok, report.failures()


class TestRequestParsing:
    def test_round_trip(self):
        lines = ["2\t01", "3\t-", "", "0\t1"]
        assert parse_request_lines(lines) == [(2, "01"), (3, ""), (0, "1")]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_request_lines(["2 01"])
        with pytest.raises(ValueError):
            parse_request_lines(["-1\t0"])
        with pytest.raises(ValueError):
            parse_request_lines(["2\t012"])

    @pytest.mark.parametrize("length", ["1_2", "+3", "\u0661\u0662", "\u00b2", "-0"])
    def test_length_must_be_ascii_digits(self, length):
        with pytest.raises(ValueError, match="^line 2: length "):
            parse_request_lines(["2\t-", f"{length}\t-"])

    def test_padded_length_parses(self):
        assert parse_request_lines([" 12 \t-", "007\t1"]) == [(12, ""), (7, "1")]


# --- ``parse_request_lines`` as it was, with its own line loop, kept
# literally as the differential reference for the shared ``bits.read_lines``.

def parse_request_lines_own_loop(lines):
    requests: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"expected 'n<TAB>y', got {line!r}")
            length = fields[0].strip()
            if not (length.isascii() and length.isdigit()):
                raise ValueError(f"length {fields[0]!r} is not a natural number")
            if len(length) > MAX_LENGTH_DIGITS:
                raise ValueError(f"length has {len(length)} digits, "
                                 f"above the cap of {MAX_LENGTH_DIGITS}")
            n = int(length)
            if n > MAX_TEXT_LENGTH:
                raise ValueError(f"length {n} is above the cap of {MAX_TEXT_LENGTH}")
            requests.append((n, parse_word(fields[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return requests


REQUEST_LINES = ["2\t01", "3\t-", "12\t110", "007\t1"]


def bad_request_lines(line):
    """``line`` made bad in every way: no tab, three fields, a length that
    is not ASCII digits or is past a cap, and a bad character replacing or
    inserted at each position of the output."""
    yield line.replace("\t", " ")
    yield line.replace("\t", "")
    yield line + "\t0"
    yield "1\t" + line
    length, output = line.split("\t")
    for bad in ("+3", "1_2", "-0", "\u0661", "-1", "x", "1" * (MAX_LENGTH_DIGITS + 1),
                str(MAX_TEXT_LENGTH + 1)):
        yield f"{bad}\t{output}"
    for pos in range(len(output) + 1):
        for bad in ("2", "a", " ", "\u0660", "\u00b9", "\x00"):
            yield f"{length}\t{output[:pos]}{bad}{output[pos + 1:]}"
            yield f"{length}\t{output[:pos]}{bad}{output[pos:]}"


class TestRequestFilesDifferential:
    """The request reader on ``bits.read_lines`` returns what its own line
    loop returned, or raises its first exception with the same type and
    message."""

    def check(self, outcome, make_lines):
        new = outcome(lambda: parse_request_lines(make_lines()))
        assert new == outcome(lambda: parse_request_lines_own_loop(make_lines()))
        return new

    def test_seeded_valid_files(self, outcome):
        rng = random.Random(15)
        for _ in range(300):
            requests = [(n, random_word(rng, 6))
                        for n in random_kraft_lengths(rng, 30, 14)]
            lines = [rng.choice(("", " ", "0")) + f"{n}\t{format_word(y)}"
                     + rng.choice(("", " ", "\r")) for n, y in requests]
            for _ in range(rng.randint(0, 3)):
                lines.insert(rng.randint(0, len(lines)), rng.choice(("", "  ")))
            assert self.check(outcome, lambda: lines) == requests

    def test_each_line_made_bad_in_each_way(self, outcome):
        count = 0
        for i, line in enumerate(REQUEST_LINES):
            for bad in bad_request_lines(line):
                lines = REQUEST_LINES[:i] + [bad] + REQUEST_LINES[i + 1:]
                result = self.check(outcome, lambda: lines)
                # A space at either end of a line is stripped away, so a
                # few of these lines are still valid.
                if not isinstance(result, list):
                    assert result[0] is ValueError
                    assert result[1].startswith(f"line {i + 1}: ")
                    count += 1
        assert count > 150

    def test_length_at_and_past_the_caps(self, outcome):
        at_cap = "0" * (MAX_LENGTH_DIGITS - 5) + str(MAX_TEXT_LENGTH)
        assert self.check(outcome, lambda: [f"{at_cap}\t-"]) == [(MAX_TEXT_LENGTH, "")]
        result = self.check(outcome, lambda: REQUEST_LINES + ["0" + at_cap + "\t-"])
        assert result == (ValueError, "line 5: length has 101 digits, "
                          "above the cap of 100")
        result = self.check(outcome, lambda: [f"{MAX_TEXT_LENGTH + 1}\t1"])
        assert result == (ValueError, "line 1: length 16385 is above the cap "
                          "of 16384")

    def test_blank_padded_lines_and_dash_fields(self, outcome):
        # strip() removes a tab at either end, so "\t12\t0" is one request.
        lines = ["", "  2\t01  ", "\t", " \n", "3\t-\n", "0\t-", "\r\n",
                 "\t12\t0", " 7 \t1", "4\t-\t"]
        assert self.check(outcome, lambda: lines) == \
            [(2, "01"), (3, ""), (0, ""), (12, "0"), (7, "1"), (4, "")]
        result = self.check(outcome, lambda: lines + ["-\t1"])
        assert result == (ValueError, "line 11: length '-' is not a natural number")
        result = self.check(outcome, lambda: lines + ["\t- 0"])
        assert result == (ValueError, "line 11: expected 'n<TAB>y', got '- 0'")

    def test_odd_lines(self, outcome):
        for odd in (b"2\t1", None, 5):
            for lines in (REQUEST_LINES + [odd], [odd, "2\t2"]):
                assert self.check(outcome, lambda: lines)[0] in (AttributeError, TypeError)
            assert self.check(outcome, lambda: ["2\t2", odd]) == \
                (ValueError, "line 1: not a binary word: '2'")

    def test_list_tuple_and_generator_input(self, outcome):
        for lines in (REQUEST_LINES, REQUEST_LINES + ["1\t2"],
                      REQUEST_LINES + ["1"], []):
            expected = self.check(outcome, lambda: lines)
            assert self.check(outcome, lambda: tuple(lines)) == expected
            assert self.check(outcome, lambda: (line for line in lines)) == expected
            assert self.check(outcome, lambda: iter(lines)) == expected


# --- ``parse_request_lines`` as it was before each distinct line was parsed
# once: the shared line loop over the per-line parser, kept literally.

def request_line_per_line(line):
    fields = line.split("\t")
    if len(fields) != 2:
        raise ValueError(f"expected 'n<TAB>y', got {line!r}")
    length = fields[0].strip()
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"length {fields[0]!r} is not a natural number")
    if len(length) > MAX_LENGTH_DIGITS:
        raise ValueError(f"length has {len(length)} digits, "
                         f"above the cap of {MAX_LENGTH_DIGITS}")
    n = int(length)
    if n > MAX_TEXT_LENGTH:
        raise ValueError(f"length {n} is above the cap of {MAX_TEXT_LENGTH}")
    return n, parse_word(fields[1])


def parse_request_lines_per_line(lines):
    return read_lines(lines, request_line_per_line)


def alloc_stream_lines(rng: random.Random, size: int) -> list[str]:
    """Request lines shaped like the benchmark's: ``_alloc_stream_lengths``
    with an output of 0 to 6 random bits on each."""
    return [f"{n}\t{format_word(random_word(rng, 6))}"
            for n in _alloc_stream_lengths(rng, size)]


class TestOneParsePerDistinctLine:
    """The reader that parses each distinct line once returns what the per-line
    reader returned, or raises its first exception with the same type and
    message."""

    def check(self, outcome, make_lines):
        new = outcome(lambda: parse_request_lines(make_lines()))
        assert new == outcome(lambda: parse_request_lines_per_line(make_lines()))
        return new

    def test_seeded_repeated_good_and_bad_lines(self, outcome):
        rng = random.Random(17)
        good = [f"{rng.randint(0, 30)}\t{format_word(random_word(rng, 5))}"
                for _ in range(12)]
        bad = [b for line in good[:4] for b in bad_request_lines(line)]
        kinds = Counter()
        for _ in range(600):
            pool = rng.sample(good, 4) + rng.sample(bad, rng.choice((0, 0, 1, 2)))
            lines = [rng.choice(("", " ")) + rng.choice(pool) + rng.choice(("", "\r"))
                     for _ in range(rng.randint(0, 40))]
            result = self.check(outcome, lambda: lines)
            kinds[list if isinstance(result, list) else result[0]] += 1
        assert set(kinds) == {list, ValueError}
        assert min(kinds.values()) > 100

    def test_bad_line_one_character_from_a_good_line(self, outcome):
        count = 0
        for good in REQUEST_LINES:
            for pos in range(len(good)):
                for bad in ("2", "x", "\t", " ", "١", "-"):
                    line = good[:pos] + bad + good[pos + 1:]
                    if line == good:
                        continue
                    result = self.check(outcome,
                                        lambda: [good, "1\t1", good, line, good, line])
                    if not isinstance(result, list):
                        assert result[1].startswith("line 4: ")
                        count += 1
        assert count > 60

    def test_same_line_with_other_whitespace(self, outcome):
        lines = ["3\t01", " 3\t01", "3\t01 ", "\t3\t01", "3 \t01", " 3 \t01\r",
                 "\x0c3\t01", "3\t01\n", "3\t01"]
        assert self.check(outcome, lambda: lines) == [(3, "01")] * len(lines)
        result = self.check(outcome, lambda: lines + ["3\t 01", "3\t01"])
        assert result == (ValueError, "line 10: not a binary word: ' 01'")
        result = self.check(outcome, lambda: lines + ["3\t0 1"])
        assert result == (ValueError, "line 10: not a binary word: '0 1'")

    def test_blank_crlf_and_form_feed_lines(self, outcome):
        lines = ["", "\r\n", "\x0c", "2\t1\r\n", "\x0c2\t1", "   ", "\r",
                 "2\t1", "\x0c\r\n", "2\t-\x0c"]
        assert self.check(outcome, lambda: lines * 3) == \
            [(2, "1"), (2, "1"), (2, "1"), (2, "")] * 3
        result = self.check(outcome, lambda: lines + ["\x0c", "2\t\x0c1"])
        assert result == (ValueError, "line 12: not a binary word: '\\x0c1'")

    def test_bad_line_after_blanks_and_repeats(self, outcome):
        # A line's number counts the requests and the blank lines before it,
        # repeats and every kind of blank line included.
        filler = ["", "2\t01", "   ", "\r\n", "2\t01", "\t", "3\t-", "2\t01",
                  "\x0c", "3\t-", "\r", "2\t01"]
        for bad in ("2\t2", "x\t1", "2\t01\t1", "\r\n2\t0x\r\n"):
            for where in (0, 1, 4, len(filler) // 2, len(filler) - 1, len(filler)):
                lines = filler[:where] + [bad] + filler[where:] + [bad]
                result = self.check(outcome, lambda: lines)
                assert result[0] is ValueError
                assert result[1].startswith(f"line {where + 1}: ")

    def test_length_caps(self, outcome):
        at_cap = f"{MAX_TEXT_LENGTH}\t-"
        over_cap = f"{MAX_TEXT_LENGTH + 1}\t-"
        digits = "0" * (MAX_LENGTH_DIGITS - 1) + "7"
        assert len(digits) == MAX_LENGTH_DIGITS
        lines = [at_cap, f"{digits}\t1", at_cap, f"{digits}\t1"]
        assert self.check(outcome, lambda: lines) == [(MAX_TEXT_LENGTH, ""), (7, "1")] * 2
        assert self.check(outcome, lambda: lines + [over_cap, at_cap]) == \
            (ValueError, "line 5: length 16385 is above the cap of 16384")
        assert self.check(outcome, lambda: lines + [f"0{digits}\t1", at_cap]) == \
            (ValueError, "line 5: length has 101 digits, above the cap of 100")

    def test_lines_that_are_not_str(self, outcome):
        for odd in (5, None, ["2\t1"], []):
            for lines in (REQUEST_LINES + [odd], [odd, "2\t1"],
                          REQUEST_LINES * 2 + [odd] + REQUEST_LINES):
                assert self.check(outcome, lambda: lines)[0] in (AttributeError, TypeError)
            assert self.check(outcome, lambda: REQUEST_LINES + ["2\t2", odd]) == \
                (ValueError, "line 5: not a binary word: '2'")

    def test_lines_that_stop_with_an_error(self, outcome):
        def then_fail(lines):
            yield from lines
            raise RuntimeError("read failed")

        for lines in (REQUEST_LINES * 2, [], REQUEST_LINES + ["2\t2"],
                      REQUEST_LINES + ["x"], REQUEST_LINES + [None]):
            result = self.check(outcome, lambda: then_fail(lines))
            assert result[0] is not list
        assert self.check(outcome, lambda: then_fail(REQUEST_LINES)) == \
            (RuntimeError, "read failed")

    def test_more_distinct_lines_than_are_shared(self, outcome):
        rng = random.Random(18)
        shared = codespace._SHARED_LINES
        lines = [f"{rng.randint(0, 60)}\t{i:b}" for i in range(shared + 500)]
        assert len(set(lines)) == len(lines)
        lines += rng.sample(lines, 1000)
        result = self.check(outcome, lambda: lines)
        assert len(result) == len(lines)
        # A bad output, or a length that is not ASCII, on a line first seen
        # after the dict is full.
        for late in ("5\t0120", "٥\t1", "5\t01\t1"):
            for where in (len(lines), shared + 100):
                bad = lines[:where] + [late] + lines[where:]
                result = self.check(outcome, lambda: bad)
                assert result[1].startswith(f"line {where + 1}: ")

    def test_alloc_stream_shaped_lines_share_their_tuples(self, outcome):
        lines = alloc_stream_lines(random.Random(19), 45_000)
        result = self.check(outcome, lambda: lines)
        assert len(result) == 45_000
        distinct = len(set(lines))
        assert distinct < 5_000
        assert len({id(request) for request in result}) <= distinct


# --- ``allocate_all`` as it was, checking each output as its request is
# served, kept literally.

def allocate_all_per_request(requests):
    state = new_allocator()
    table: list[tuple[str, str]] = []
    for i, (n, y) in enumerate(requests):
        try:
            word = allocate(state, n)
        except InsufficientMass:
            raise InsufficientMass(n, index=i) from None
        table.append((word, validate_bits(y)))
    return table


class TestAllocateAllDifferential:
    """``allocate_all`` returns what the per-request loop, kept literally,
    returned, or raises its first exception with the same type, message and
    refusal index."""

    def check(self, outcome, make_requests):
        new = outcome(lambda: allocate_all(make_requests()))
        assert new == outcome(lambda: allocate_all_per_request(make_requests()))
        return new

    def test_seeded_requests(self, outcome):
        rng = random.Random(20)
        for _ in range(200):
            rows = [(n, random_word(rng, 6)) for n in random_kraft_lengths(rng, 30, 14)]
            rows += [(rng.randint(0, 3), "")] * rng.randint(0, 2)
            for make in (lambda: rows, lambda: tuple(rows),
                         lambda: (row for row in rows), lambda: iter(rows)):
                self.check(outcome, make)

    def test_bad_output_before_at_and_after_a_refusal(self, outcome):
        rows = [(1, "0"), (2, "1"), (2, ""), (1, "01"), (3, "1")]
        assert self.check(outcome, lambda: rows) == (
            InsufficientMass, "no free prefix can honour a length-1 request "
            "(request index 3)")
        count = 0
        for i in range(len(rows)):
            for bad in ("2", "0x", " ", "٠", None, 5, b"01", ["0"], ("0",)):
                odd = rows[:i] + [(rows[i][0], bad)] + rows[i + 1:]
                result = self.check(outcome, lambda: odd)
                # The refused request is refused before its output is read.
                assert result[0] is (InsufficientMass if i >= 3 else
                                     ValueError if isinstance(bad, str) else TypeError)
                count += 1
        assert count == 45

    def test_odd_requests(self, outcome):
        Request = namedtuple("Request", "n y")
        for odd in ([1, "0"], [1, "2"], (1,), (), (1, "0", "1"), (1, "2", "0"),
                    {0: 1, 1: "0"}, None, "10", Request(1, "0"), Request(1, "2"),
                    (-1, "0"), ("1", "0"), (None, "0"), (1.0, "0")):
            for rows in ([odd], [(2, "1"), odd, (2, "0")], [(2, "1"), (2, "x"), odd],
                         [(0, ""), odd, (1, "2")]):
                self.check(outcome, lambda: rows)

    def test_requests_that_stop_with_an_error(self, outcome):
        def then_fail(rows):
            yield from rows
            raise RuntimeError("read failed")

        for rows in ([(1, "0"), (2, "1")], [(1, "0"), (2, "2")],
                     [(0, ""), (0, "")], [(1, "0"), None], []):
            result = self.check(outcome, lambda: then_fail(rows))
            assert result[0] is not list
        assert self.check(outcome, lambda: then_fail([(1, "0")])) == \
            (RuntimeError, "read failed")


# ---------------------------------------------------------------------------
# Differential check against the linear-scan allocator that the binary-search
# version replaced.  The two functions below are kept literally as they were,
# but for the error class they raise, now OmegalibError.
# ---------------------------------------------------------------------------

def reference_extend_prefix(stem: str, target: int) -> list[str]:
    validate_bits(stem)
    depth = target - len(stem)
    if depth < 0:
        raise OmegalibError(
            f"target length {target} is below the stem length {len(stem)}")
    return [stem + "0" * depth] + [stem + "0" * j + "1"
                                   for j in range(depth - 1, -1, -1)]


def reference_allocate(state: AllocatorState, n: int) -> str:
    if n < 0:
        raise ValueError("codeword lengths are natural numbers")
    pick = next((i for i, w in enumerate(state.free) if len(w) <= n), None)
    if pick is None:
        raise InsufficientMass(n)
    stem = state.free.pop(pick)
    words = reference_extend_prefix(stem, n)
    state.free[pick:pick] = words[1:]
    state.allocated.append(words[0])
    state.mass_allocated = state.mass_allocated + pow2_neg(n)
    return words[0]


def comprehension_split(stem: str, n: int) -> tuple[str, list[str]]:
    """The codeword and the siblings of a split of depth 2 or more, built as
    ``allocate`` built them before it walked the spine once; the two lines
    are kept literally."""
    depth = n - len(stem)
    word = stem + "0" * depth
    return word, [word[:j] + "1" for j in range(len(stem), n)]


def _serve(alloc, state, n):
    try:
        return alloc(state, n)
    except InsufficientMass:
        return None


# The split a request makes, by its depth: a depth-d split takes one word
# from the pool and returns d.
SHAPES = {"exact", "one-step", "deeper", "refused"}
_SHAPE_BY_DEPTH = {0: "exact", 1: "one-step"}


def assert_same_run(lengths, free: list[str] | None = None) -> Counter:
    """Serve ``lengths`` through both allocators, comparing after every step.

    Both start from the pool ``free`` (shortest first; all of code space if
    omitted).  Returns how many requests took each of the ``SHAPES``, so
    callers can tell which split paths a stream exercised and whether it
    reached Kraft exhaustion.
    """
    old = AllocatorState(free=None if free is None else free[::-1])
    new = AllocatorState(free=None if free is None else list(free))
    shapes = Counter()
    for i, n in enumerate(lengths):
        pool_before = len(old.free)
        expected = _serve(reference_allocate, old, n)
        if expected is None:
            shapes["refused"] += 1
        else:
            shapes[_SHAPE_BY_DEPTH.get(len(old.free) - pool_before + 1, "deeper")] += 1
        assert _serve(allocate, new, n) == expected, (i, n)
        # The reference keeps the pool longest first, ``allocate`` shortest first.
        assert new.free == old.free[::-1], (i, n)
        # ``allocated`` only grows, so its length and last word pin it down.
        assert len(new.allocated) == len(old.allocated), (i, n)
        assert new.allocated[-1:] == old.allocated[-1:], (i, n)
        assert new.mass_allocated == old.mass_allocated, (i, n)
    assert new.allocated == old.allocated
    return shapes


def _alloc_stream_lengths(rng: random.Random, size: int) -> list[int]:
    """Lengths shaped like the benchmark's request streams: shuffled blocks
    holding each of 12..28 once, and one request in each block of a hundred,
    at a random place, of 500 to 1000 bits."""
    lengths: list[int] = []
    while len(lengths) < size:
        block = list(range(12, 29))
        rng.shuffle(block)
        lengths += block
    del lengths[size:]
    for start in range(0, size, 100):
        lengths[start + rng.randrange(min(100, size - start))] = rng.randint(500, 1000)
    return lengths


class TestDifferentialAgainstLinearScan:
    def test_exhaustive_multisets_in_three_orders(self, kraft_orderings):
        shapes = Counter()
        runs = 0
        for order in kraft_orderings(random.Random(2)):
            # A trailing 0 and 6 probe the refusal path and the last gap.
            shapes.update(assert_same_run(order + [0, 6]))
            runs += 1
        # Ascending, descending and shuffled orders that repeat a sibling
        # order of the same multiset are run once.
        assert runs == 81_578
        assert set(shapes) == SHAPES

    def test_seeded_random_kraft_sequences(self):
        rng = random.Random(3)
        shapes = Counter()
        for _ in range(2_000):
            shapes.update(assert_same_run(random_kraft_lengths(rng, 50, 16)))
        assert set(shapes) == {"exact", "one-step", "deeper"}

    def test_mixed_stream_past_exhaustion(self):
        rng = random.Random(5)
        lengths = [rng.randint(200, 400) if i % 50 == 49 else rng.randint(12, 28)
                   for i in range(40_000)]
        shapes = assert_same_run(lengths)
        assert shapes["refused"] > 0
        assert set(shapes) == SHAPES

    def test_alloc_stream_shaped_run_past_exhaustion(self):
        # Four short requests take 15/16 of code space first, so the shallow
        # stream reaches Kraft exhaustion within a few thousand requests.
        lengths = [1, 2, 3, 4] + _alloc_stream_lengths(random.Random(7), 3_000)
        state = new_allocator()
        widest = 0
        depths = Counter()
        for n in lengths:
            pool_before = len(state.free)
            if _serve(allocate, state, n) is not None:
                depths[len(state.free) - pool_before + 1] += 1
            widest = max(widest, len(state.free))
        assert widest > 900
        # The spine walk runs at every depth band of the benchmark stream.
        assert depths[2] > 0
        assert sum(depths[d] for d in range(3, 6)) > 0
        assert sum(count for d, count in depths.items() if d >= 6) > 0
        shapes = assert_same_run(lengths)
        assert shapes["refused"] > 500
        assert set(shapes) == SHAPES

    @pytest.mark.parametrize("n", range(6))
    def test_hand_built_pools_at_each_length(self, n):
        # Every valid pool with at most one word of each length 1..4; served
        # at n, the search bound n + 1 lies below, at or past the pool's end.
        by_length = [[None, *(format(i, f"0{k}b") for i in range(2 ** k))]
                     for k in range(1, 5)]
        pools = 0
        for choice in product(*by_length):
            pool = [w for w in choice if w is not None]
            if prefix_free(pool):
                pools += 1
                assert_same_run([n, n, 4, 2], free=pool)
        assert pools > 500

    @pytest.mark.parametrize("free, lengths, codewords, after", [
        # n + 1 == len(free): the search covers the whole pool.
        (["1", "01", "001"], [2], ["01"], ["1", "001"]),
        # n + 1 > len(free): the bound is the pool's length.
        (["1", "01", "001"], [5], ["00100"], ["1", "01", "0011", "00101"]),
        (["1", "01", "001"], [3, 4], ["001", "0100"], ["1", "011", "0101"]),
        # n + 1 < len(free): the pool's longer words lie past the bound.
        (["1", "01", "001"], [1, 0], ["1", None], ["01", "001"]),
        # n = 0 on a fresh state: the fit is at index n itself.
        ([""], [0, 0], ["", None], []),
        ([], [0, 3], [None, None], []),
    ])
    def test_search_bound_edges(self, free, lengths, codewords, after):
        state = AllocatorState(free=list(free))
        assert [_serve(allocate, state, n) for n in lengths] == codewords
        assert state.free == after
        assert_same_run(lengths, free=free)

    @pytest.mark.parametrize("stem, target", [
        ("", 0), ("", 1), ("", 7), ("1", 1), ("0110", 4), ("0110", 9),
        ("1" * 40, 41), ("01", 300),
        *((stem, len(stem) + depth) for stem in ("", "1", "0110", "1" * 40)
          for depth in (2, 3, 6, 16, 64, 500, 2000)),
    ])
    def test_extend_prefix_matches_reference(self, stem, target):
        assert extend_prefix(stem, target) == reference_extend_prefix(stem, target)

    def test_deep_split_matches_the_comprehension(self):
        stems = list(takewhile(lambda w: len(w) <= 4, iter_length_lex()))
        assert len(stems) == 31
        for stem in stems:
            for depth in range(2, 71):
                state = AllocatorState(free=[stem])
                word = allocate(state, len(stem) + depth)
                assert (word, state.free) == \
                    comprehension_split(stem, len(stem) + depth), (stem, depth)

    def test_extend_prefix_matches_reference_on_short_stems(self):
        stems = list(takewhile(lambda w: len(w) <= 6, iter_length_lex()))
        assert len(stems) == 127
        for stem in stems:
            for target in range(len(stem), len(stem) + 7):
                assert extend_prefix(stem, target) == \
                    reference_extend_prefix(stem, target), (stem, target)

    def test_refusals_come_before_any_state(self, monkeypatch):
        def no_state(*args, **kwargs):
            raise AssertionError("extend_prefix built a state")

        monkeypatch.setattr(codespace, "AllocatorState", no_state)
        with pytest.raises(OmegalibError, match=(
                "^target length 2 is below the stem length 3$")):
            extend_prefix("001", 2)
        with pytest.raises(TypeError, match="a binary word is a str"):
            extend_prefix(("0", "1"), 4)
        with pytest.raises(AssertionError, match="built a state"):
            extend_prefix("001", 5)

    @pytest.mark.parametrize("stem, target", [("", -1), ("01", 1), ("0110", 0)])
    def test_target_too_short_on_both(self, stem, target):
        message = (f"^target length {target} is below the stem length "
                   f"{len(stem)}$")
        with pytest.raises(OmegalibError, match=message):
            reference_extend_prefix(stem, target)
        with pytest.raises(OmegalibError, match=message):
            extend_prefix(stem, target)

    @pytest.mark.parametrize("stem", ["2", "01a", " 0", "0 1"])
    def test_non_binary_stem_rejected_by_both(self, stem):
        with pytest.raises(ValueError):
            reference_extend_prefix(stem, 6)
        with pytest.raises(ValueError):
            extend_prefix(stem, 6)


# ---------------------------------------------------------------------------
# Differential check of the one-sweep ``check_invariants`` against the
# version it replaced, kept literally below.  The five fields must agree on
# every state; the witness, new with the sweep, is checked on its own.
# ---------------------------------------------------------------------------

def reference_check_invariants(state: AllocatorState,
                               remaining_lengths=None) -> InvariantReport:
    free, allocated = state.free, state.allocated
    union = free + allocated
    scale = max(max(map(len, union), default=0), state._scale)
    if remaining_lengths:
        scale = max(scale, max(remaining_lengths))

    free_mass = sum(1 << (scale - len(w)) for w in free)
    alloc_mass = sum(1 << (scale - len(w)) for w in allocated)
    ledger = state._issued << (scale - state._scale)

    if remaining_lengths is None:
        fit = None
    else:
        fit = sum(1 << (scale - n) for n in remaining_lengths) <= free_mass

    return InvariantReport(
        union_prefix_free=prefix_free(union),
        union_measure_is_one=free_mass + alloc_mass == 1 << scale,
        mass_matches_ledger=alloc_mass == ledger,
        remaining_requests_fit=fit,
        free_lengths_distinct=all(len(free[i]) < len(free[i + 1])
                                  for i in range(len(free) - 1)),
    )


FIELDS = ("union_prefix_free", "union_measure_is_one", "mass_matches_ledger",
          "remaining_requests_fit", "free_lengths_distinct")


def _fields(report: InvariantReport) -> tuple:
    return tuple(getattr(report, name) for name in FIELDS)


def assert_witness_is_real(state: AllocatorState, report: InvariantReport) -> None:
    """The witness is the first overlapping adjacent pair of the sorted
    union, or else the first stretch of [0, 1) that no word covers."""
    union = sorted(state.free + state.allocated)
    if not report.union_prefix_free:
        overlaps = [(u, v) for u, v in zip(union, union[1:]) if v.startswith(u)]
        assert report.witness == overlaps[0]
    elif not report.union_measure_is_one:
        top = max(map(len, union), default=0)
        lo, hi = (int(end.as_fraction() * 2 ** top) for end in report.witness)
        cylinders = [(int(w or "0", 2) << (top - len(w)),
                      (int(w or "0", 2) + 1) << (top - len(w))) for w in union]
        assert 0 <= lo < hi <= 1 << top
        # Nothing covers [lo, hi), everything below lo is covered, and the
        # stretch runs up to the next word or to 1.
        assert all(end <= lo or start >= hi for start, end in cylinders)
        assert sum(end - start for start, end in cylinders if end <= lo) == lo
        assert hi == 1 << top or any(start == hi for start, _ in cylinders)
    else:
        assert report.witness is None


def _copy_state(state: AllocatorState) -> AllocatorState:
    return AllocatorState(list(state.free), list(state.allocated), state.mass_allocated)


# Each corruption edits a state in place.  Chained in pairs they also turn
# fields back: dropping the last free word removes an injected one, and the
# wrong ledger entry books exactly the duplicated codeword.
CORRUPTIONS = {
    "duplicate codeword": lambda s: s.allocated.append(s.allocated[0]),
    "drop free word": lambda s: s.free.pop() if s.free else None,
    "inject extension": lambda s: s.free.append(s.allocated[0] + "1"),
    "inject prefix": lambda s: s.free.append(s.allocated[-1][:-1]),
    "reverse pool": lambda s: s.free.reverse(),
    "wrong ledger": lambda s: setattr(s, "mass_allocated",
                                      s.mass_allocated + pow2_neg(len(s.allocated[0]))),
    "empty union": lambda s: (s.free.clear(), s.allocated.clear()),
}


class TestCheckInvariantsDifferential:
    def test_criterion_3_multiset_orderings(self, kraft_orderings):
        reference, check = reference_check_invariants, check_invariants
        for lengths in kraft_orderings(random.Random(1729)):
            state = new_allocator()
            for i, n in enumerate(lengths, 1):
                allocate(state, n)
                rest = lengths[i:]
                # Every state here passes, so the reports match whole.
                assert check(state, rest) == reference(state, rest), (lengths, i)

    def test_seeded_random_sequences(self):
        rng = random.Random(31)
        for _ in range(500):
            lengths = random_kraft_lengths(rng, 50, 16)
            state = new_allocator()
            for i, n in enumerate(lengths, 1):
                allocate(state, n)
                for rest in (lengths[i:], None):
                    report = check_invariants(state, rest)
                    assert _fields(report) == _fields(
                        reference_check_invariants(state, rest)), (lengths, i)
                    assert report.ok and report.witness is None

    def test_corrupted_states(self):
        rng = random.Random(37)
        sequences = [list(m) for m in enumerate_kraft_multisets(3)]
        sequences += [random_kraft_lengths(rng, 20, 10) for _ in range(12)]
        flips = {name: set() for name in FIELDS}
        witnesses = {str: 0, Dyadic: 0}
        checked = 0
        for lengths in sequences:
            base = new_allocator()
            for i, n in enumerate(lengths, 1):
                allocate(base, n)
                for rest in (None, [], lengths[i:], lengths[i:] + [0], [-1]):
                    for first in CORRUPTIONS.values():
                        for second in (None, *CORRUPTIONS.values()):
                            state = _copy_state(base)
                            before = check_invariants(state, rest)
                            for corrupt in (first, second):
                                if corrupt is None or not state.allocated:
                                    break
                                corrupt(state)
                                after = check_invariants(state, rest)
                                assert _fields(after) == _fields(
                                    reference_check_invariants(state, rest))
                                assert_witness_is_real(state, after)
                                if after.witness is not None:
                                    witnesses[type(after.witness[0])] += 1
                                for name in FIELDS:
                                    flips[name].add((getattr(before, name),
                                                     getattr(after, name)))
                                before = after
                                checked += 1
        assert checked > 50_000 and min(witnesses.values()) > 10_000, (checked, witnesses)
        for name in FIELDS:
            assert {(True, False), (False, True)} <= flips[name], name

    def test_empty_union_names_all_of_code_space(self):
        state = AllocatorState(free=[], allocated=[], mass_allocated=Dyadic(0))
        report = check_invariants(state)
        assert _fields(report) == _fields(reference_check_invariants(state))
        assert report.failures() == ["union_measure_is_one"]
        assert report.witness == (Dyadic(0), Dyadic(1))

"""Machine tables: halting mass, complexity, combination, transform."""

import contextlib
import io
import itertools
import random
from collections import namedtuple
from fractions import Fraction

import pytest

from omegalib import cli, codespace, machines, mltest, verify
from omegalib.bits import (MAX_TEXT_LENGTH, iter_length_lex, length_lex_key,
                           parse_word, prefix_free, validate_bits)
from omegalib.errors import StageOutOfRange
from omegalib.exact import measure_of_lengths
from omegalib.machines import (MachineTable, chaitin_transform,
                               chaitin_transform_table,
                               combine_universal, complexity, compose,
                               format_table_lines, omega_approx,
                               parse_table_lines)


def table(*pairs):
    return MachineTable(tuple(pairs))


class TestMachineTable:
    def test_basic_accessors(self):
        t = table(("0", "1"), ("10", ""))
        assert len(t) == 2
        assert t.domain == ("0", "10")
        assert t.lookup("10") == ""
        assert t.lookup("11") is None
        assert t.domain_measure() == Fraction(3, 4)

    def test_rejects_bad_alphabet(self):
        with pytest.raises(ValueError):
            table(("02", "1"))

    def test_rejects_non_str_words(self):
        # A tuple of bits passes an alphabet check but is not a word.
        for entry in ((("0", "1"), "1"), ("0", ["1"]), (0, "1")):
            with pytest.raises(TypeError, match="a binary word is a str"):
                MachineTable((entry,))

    def test_validate(self):
        table(("0", ""), ("10", "")).validate()
        with pytest.raises(ValueError):
            table(("0", ""), ("01", "")).validate()
        with pytest.raises(ValueError):
            table(("0", ""), ("0", "1")).validate()


# --- The word-by-word constructor check and the indexed prefix-free test
# that the one-pass versions replaced, kept literally as differential
# references.

def entries_word_by_word(entries):
    """``MachineTable.__post_init__`` as it was, returning the entries."""
    normalized = tuple((validate_bits(p), validate_bits(y))
                       for p, y in entries)
    return normalized


def prefix_free_indexed(words):
    """``bits.prefix_free`` as it was."""
    ordered = sorted(words)
    return not any(ordered[i + 1].startswith(ordered[i])
                   for i in range(len(ordered) - 1))


def built(make):
    """The entries ``make()`` returns, each word with its exact type so that
    a kept subclass shows, or the exception's type and message."""
    try:
        entries = make()
    except Exception as exc:          # compared, never swallowed
        return type(exc), str(exc)
    return tuple((type(p), p, type(y), y) for p, y in entries)


class Bits(str):
    pass


SMALL = (("01", "1"), ("10", ""), ("110", "0"), ("", "0101"))


def bad_char_tables():
    """SMALL with one character replaced or inserted at every position of
    every word, singly and with a second bad word later in the table."""
    for i, entry in enumerate(SMALL):
        for side in (0, 1):
            word = entry[side]
            for pos in range(len(word) + 1):
                for bad in ("2", "a", " ", "\n", "\u0660", "\u00b9", "\x00"):
                    for cut in (word[:pos] + bad + word[pos + 1:],
                                word[:pos] + bad + word[pos:]):
                        rows = [list(e) for e in SMALL]
                        rows[i][side] = cut
                        yield tuple(map(tuple, rows))
                        rows[-1][1] = "x"
                        yield tuple(map(tuple, rows))


def odd_entry_tables():
    """Non-str words, wrong arities, lists, strings as entries and non-pairs,
    each placed before, between and after valid and invalid entries."""
    odd = [(b"01", "1"), ("0", b"1"), (("0", "1"), "1"), ("0", ("1",)),
           (None, "1"), ("0", None), (0, "1"), ("0", ["1"]), ("0",), (),
           ("0", "1", "1"), ["0", "1"], ["0"], "01", "011", "0", None, 5,
           (Bits("01"), "1"), ("0", Bits("12")), ("0", Bits(""))]
    for entry in odd:
        yield (entry,)
        yield (("0", "1"), entry)
        yield (entry, ("0", "1"))
        yield (("0", "2"), entry)
        yield (entry, ("0", "2"))
        yield (entry, ("0", None))


class TestConstructionDifferential:
    """The one-pass constructor keeps the word-by-word check's entries, or
    its first exception's type and message."""

    def check(self, make_entries):
        new = built(lambda: MachineTable(make_entries()).entries)
        assert new == built(lambda: entries_word_by_word(make_entries()))
        return new

    def test_valid_tables(self):
        rng = random.Random(10)
        for _ in range(300):
            pairs = verify.random_table(rng, 30, 12, max_out=20).entries
            for rows in (pairs, list(pairs), [list(e) for e in pairs]):
                self.check(lambda: rows)
                assert MachineTable(rows).entries == pairs

    def test_bad_character_at_every_position(self):
        count = 0
        for rows in bad_char_tables():
            assert self.check(lambda: rows)[0] is ValueError
            count += 1
        assert count == 2 * 2 * 7 * sum(len(p) + len(y) + 2 for p, y in SMALL)

    def test_odd_entries(self):
        kinds = set()
        for rows in odd_entry_tables():
            result = self.check(lambda: rows)
            kinds.add(result[0] if isinstance(result[0], type) else "ok")
        assert kinds == {TypeError, ValueError, "ok"}

    def test_str_subclass_words_are_kept(self):
        rows = ((Bits("01"), Bits("")), ("1", Bits("1")))
        assert [p for p, *_ in self.check(lambda: rows)] == [Bits, str]

    def test_generator_input(self):
        for rows in [SMALL, SMALL + (("1", "2"),), SMALL + (("1",),), ()]:
            self.check(lambda: (e for e in rows))
            self.check(lambda: iter(rows))
        assert MachineTable(e for e in SMALL).entries == SMALL

    @pytest.mark.parametrize("rows", [(), [], None, 5, "", "01"])
    def test_empty_and_non_iterable(self, rows):
        self.check(lambda: rows)

    def test_tuple_of_tuple_pairs_is_kept(self):
        pairs = verify.random_table(random.Random(11), 30, 12, max_out=20).entries
        assert MachineTable(pairs).entries is pairs
        Pair = namedtuple("Pair", "p y")
        for rows in ([list(e) for e in pairs], tuple(Pair(*e) for e in pairs),
                     tuple(map(iter, pairs)), (e for e in pairs)):
            entries = MachineTable(rows).entries
            assert entries == pairs
            assert {*map(type, entries)} == {tuple}


class TestPrefixFreeDifferential:
    def test_small_word_lists(self):
        words = [""] + ["".join(w) for n in range(1, 4)
                        for w in itertools.product("01", repeat=n)]
        for size in range(4):
            for listing in itertools.combinations_with_replacement(words, size):
                assert prefix_free(listing) == prefix_free_indexed(listing)

    def test_random_listings(self):
        rng = random.Random(11)
        for _ in range(2000):
            listing = [verify.random_word(rng, 8) for _ in range(rng.randint(0, 12))]
            if rng.random() < 0.5:
                listing = list(verify.random_table(rng, 20, 10).domain)
            assert prefix_free(listing) == prefix_free_indexed(listing)
            assert prefix_free(iter(listing)) == prefix_free_indexed(listing)


class TestOmega:
    def test_partial_sums(self):
        t = table(("0", ""), ("10", ""), ("110", ""))
        assert omega_approx(t, 0) == 0
        assert omega_approx(t, 2) == Fraction(3, 4)
        assert omega_approx(t, 3) == Fraction(7, 8)

    def test_two_equal_lengths(self):
        assert omega_approx(table(("00", ""), ("01", "")), 2) == Fraction(1, 2)

    def test_stage_bounds(self):
        t = table(("0", ""))
        with pytest.raises(StageOutOfRange):
            omega_approx(t, 2)
        with pytest.raises(StageOutOfRange):
            omega_approx(t, -1)

    def test_tail_bound(self):
        t = table(("0", ""), ("10", ""), ("1100", ""), ("11010", ""))
        total = t.domain_measure()
        for stage in range(len(t) + 1):
            partial = omega_approx(t, stage)
            for n in range(8):
                if partial.as_fraction() >= total.as_fraction() - Fraction(1, 2**n):
                    assert all(len(p) >= n for p, _ in t.entries[stage:])


def omega_approx_own_bound(table, k):
    """``omega_approx`` as it was, with its own copy of the stage bound."""
    if not 0 <= k <= len(table):
        raise StageOutOfRange(f"stage {k} outside 0..{len(table)}")
    return measure_of_lengths(len(p) for p, _ in table.entries[:k])


class TestStages:
    """``MachineTable.prefix`` is the one stage bound, and ``omega_sums``
    gives ``omega_approx`` at every stage from one pass."""

    EDGES = {
        "empty": table(),
        "empty program": table(("", "1")),
        "complete code": table(("0", "1"), ("10", ""), ("110", "0"), ("111", "1")),
        "long next to short": table(("1", ""), ("0" * MAX_TEXT_LENGTH, "1")),
        "not prefix-free": table(("0", ""), ("", "1"), ("01", "")),
    }

    def tables(self):
        rng = random.Random(41)
        for _ in range(200):
            yield verify.random_table(rng, 40, rng.choice((3, 12, 40)))
        yield from self.EDGES.values()

    def test_omega_sums_at_every_stage(self):
        for t in self.tables():
            sums, scale = machines.omega_sums(t)
            assert len(sums) == len(t) + 1
            assert scale == max(map(len, t.domain), default=0)
            for k, total in enumerate(sums):
                reference = omega_approx_own_bound(t, k)
                assert Fraction(total, 1 << scale) == reference, (t, k)
                assert omega_approx(t, k) == reference, (t, k)

    def test_omega_sums_edges(self):
        assert machines.omega_sums(self.EDGES["empty"]) == ([0], 0)
        assert machines.omega_sums(self.EDGES["empty program"]) == ([0, 1], 0)
        assert machines.omega_sums(self.EDGES["complete code"]) == ([0, 4, 6, 7, 8], 3)
        sums, scale = machines.omega_sums(self.EDGES["long next to short"])
        assert scale == MAX_TEXT_LENGTH
        assert sums == [0, 1 << (scale - 1), (1 << (scale - 1)) + 1]
        # Omega above 1 on a table that is not prefix-free.
        assert machines.omega_sums(self.EDGES["not prefix-free"]) == ([0, 2, 6, 7], 2)

    @pytest.mark.parametrize("name", list(EDGES))
    def test_prefix_bound(self, name):
        t = self.EDGES[name]
        n = len(t)
        assert t.prefix(0) == ()
        assert t.prefix(n) == t.entries
        for k in (-1, n + 1):
            with pytest.raises(StageOutOfRange) as raised:
                t.prefix(k)
            assert str(raised.value) == f"stage {k} outside 0..{n}"

    def test_every_stage_reader_has_the_same_bound(self, tmp_path):
        t = self.EDGES["complete code"]
        path = tmp_path / "u.tsv"
        path.write_text("".join(f"{line}\n" for line in format_table_lines(t)))
        for k in (-1, 5):
            message = f"stage {k} outside 0..4"
            for read in (lambda: omega_approx(t, k),
                         lambda: complexity(t, "1", k),
                         lambda: mltest.complexity_test_stage(t, 0, k)):
                with pytest.raises(StageOutOfRange, match=f"^{message}$"):
                    read()
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(["omega", str(path), "--k", str(k)])
            assert (code, out.getvalue(), err.getvalue()) == (
                3, "", f"error: {message}\n")


class TestLengthLexOrder:
    def test_first_words_are_all_words_up_to_twelve_bits(self):
        words = ["".join(bits) for n in range(13)
                 for bits in itertools.product("01", repeat=n)]
        first = list(itertools.islice(iter_length_lex(), 2 ** 13 - 1))
        assert first == sorted(words, key=length_lex_key)


class TestComplexity:
    def test_minimum_over_stage(self):
        t = table(("00", "1"), ("1", "1"), ("01", "0"))
        assert complexity(t, "1", 1) == 2
        assert complexity(t, "1", 2) == 1
        assert complexity(t, "1") == 1
        assert complexity(t, "0", 2) is None
        assert complexity(t, "0") == 2

    def test_undefined_is_a_value(self):
        assert complexity(table(), "101") is None

    def test_stage_bound(self):
        with pytest.raises(StageOutOfRange):
            complexity(table(("0", "")), "", 2)

    def test_non_increasing_in_stage(self):
        t = table(("111", "0"), ("0", "0"), ("10", "1"))
        values = [complexity(t, "0", k) for k in range(len(t) + 1)]
        defined = [v for v in values if v is not None]
        assert defined == sorted(defined, reverse=True)


class TestCombine:
    def test_two_machines(self):
        combined = combine_universal([table(("0", "1")), table(("1", "0"))])
        assert combined.entries == (("010", "1"), ("0011", "0"))

    def test_empty_list(self):
        assert combine_universal([]).entries == ()

    def test_stays_prefix_free(self):
        machines = [table(("0", "a" * 0), ("10", "1")),
                    table(("0", "11")),
                    table(("1", ""), ("01", "1"))]
        combined = combine_universal(machines)
        combined.validate()

    def test_overhead_bound_with_witness(self):
        machines = [table(("0", "11"), ("10", "0")), table(("11", "11"))]
        combined = combine_universal(machines)
        for i, machine in enumerate(machines, start=1):
            for _, y in machine.entries:
                own = complexity(machine, y)
                assert complexity(combined, y) <= own + i + 1
                witness = next(p for p, out in machine.entries
                               if out == y and len(p) == own)
                assert ("0" * i + "1" + witness, y) in combined.entries


class TestChaitinTransform:
    def test_reference_values(self):
        u = table(("0", "1"), ("10", "0"))
        assert chaitin_transform(u, "0") == ""
        assert chaitin_transform(u, "10") == ""
        assert chaitin_transform(u, "11") is None

    def test_undefined_when_no_stage_reaches_value(self):
        u = table(("00", "1"))  # 0."1" = 1/2 > omega_1 = 1/4
        assert chaitin_transform(u, "00") is None

    def test_later_stage_needed(self):
        # partial sums 1/4, 1/2; value 0."1" = 1/2 first reached at stage 2,
        # and the least word missing from {"1", "0"} is the empty one
        u = table(("00", "1"), ("01", "0"))
        assert chaitin_transform(u, "00") == ""

    def test_collapse_on_shared_outputs(self):
        u = table(("00", "1"), ("01", "0"), ("10", "1"), ("110", "0"))
        assert chaitin_transform(u, "00") == chaitin_transform(u, "10")
        assert chaitin_transform(u, "01") == chaitin_transform(u, "110")

    def test_graph_and_complexity_inequality(self):
        u = table(("00", "1"), ("01", "0"), ("10", "1"), ("110", "0"))
        graph = chaitin_transform_table(u)
        graph.validate()
        for program, image in graph.entries:
            output = u.lookup(program)
            assert complexity(graph, image) <= complexity(u, output)


def reference_transform_table(table):
    """The quadratic graph the one-pass table replaced, kept literally: the
    per-program definition, re-run for every program."""
    graph = []
    for p, _ in table.entries:
        renamed = chaitin_transform(table, p)
        if renamed is not None:
            graph.append((p, renamed))
    return MachineTable(tuple(graph))


def analysis_shaped_table(rng, entries=200):
    """Programs of 8-14 bits and 14-28 bit outputs with 2-8 leading zeros,
    a third as many outputs as programs: small values, shared outputs."""
    outputs = []
    for _ in range(entries // 3):
        zeros = rng.randint(2, 8)
        tail = rng.randint(14, 28) - zeros
        outputs.append("0" * zeros + "".join(rng.choice("01") for _ in range(tail)))
    requests = [(rng.randint(8, 14), rng.choice(outputs)) for _ in range(entries)]
    return MachineTable(tuple(codespace.allocate_all(requests)))


class TestTransformTableDifferential:
    def test_every_small_table(self):
        # Repeated and non-prefix-free programs and empty outputs included.
        words = ["", "0", "1", "00", "01", "10", "11"]
        pairs = list(itertools.product(words, repeat=2))
        for size in range(4):
            for entries in itertools.product(pairs, repeat=size):
                t = MachineTable(entries)
                assert chaitin_transform_table(t) == reference_transform_table(t), t

    def test_seeded_random_tables(self):
        rng = random.Random(20260418)
        for max_out in (2, 4, 8):
            for _ in range(400):
                t = verify.random_table(rng, 20, 10, max_out=max_out)
                assert chaitin_transform_table(t) == reference_transform_table(t), t

    def test_analysis_shaped_tables(self):
        rng = random.Random(4)
        defined = 0
        for _ in range(12):
            t = analysis_shaped_table(rng)
            graph = chaitin_transform_table(t)
            assert graph == reference_transform_table(t)
            defined += len(graph)
        assert defined >= 12 * 50   # the renaming is defined on many programs

    def test_empty_table(self):
        assert chaitin_transform_table(table()) == table()

    @pytest.mark.parametrize("zero", ["", "0", "000"])
    def test_zero_value_is_reached_at_stage_one(self, zero):
        # Stage 1 sees only its own output, so the empty word is the image
        # unless that output is the empty word itself.
        t = table(("1", zero), ("01", "1"))
        image = "0" if zero == "" else ""
        assert chaitin_transform_table(t).entries[0] == ("1", image)
        assert chaitin_transform_table(t) == reference_transform_table(t)

    def test_value_equal_to_a_partial_sum(self):
        # 0."01" = 1/4 = omega_1, so stage 1 (seen {"01"}) gives "";
        # a strict comparison would pick stage 2 (seen {"01", ""}) and "0".
        t = table(("00", "01"), ("01", ""), ("1", "0"))
        assert chaitin_transform_table(t).entries[0] == ("00", "")
        assert chaitin_transform_table(t) == reference_transform_table(t)

    def test_value_no_stage_reaches(self):
        # 0."11" = 3/4 exceeds the whole mass 1/2: "00" has no image.
        t = table(("00", "11"), ("01", "0"))
        assert chaitin_transform_table(t).entries == (("01", ""),)
        assert chaitin_transform_table(t) == reference_transform_table(t)

    def test_repeated_program_takes_its_first_output(self):
        # "1" maps by its first output "" (stage 1, image "0"); by its last
        # output "11" it would reach stage 2, see {"", "0"} and map to "1".
        t = table(("1", ""), ("0", "0"), ("1", "11"))
        assert chaitin_transform_table(t).entries == (
            ("1", "0"), ("0", "0"), ("1", "0"))
        assert chaitin_transform_table(t) == reference_transform_table(t)

    def test_check_transform_names_the_first_disagreement(self, monkeypatch):
        t = table(("00", "1"), ("01", "0"), ("10", "1"), ("110", "0"))
        assert verify.check_transform(t) == []
        good = chaitin_transform_table(t)
        broken = MachineTable(good.entries[:1] + (("01", "11"),) + good.entries[2:])
        monkeypatch.setattr(machines, "chaitin_transform_table", lambda _: broken)
        failures = verify.check_transform(t)
        assert any("program '01'" in f for f in failures), failures
        monkeypatch.setattr(machines, "chaitin_transform_table",
                            lambda _: MachineTable(good.entries[:-1]))
        assert any("program '110'" in f for f in verify.check_transform(t))


class TestCompose:
    def test_pairs_compose_like_a_table(self):
        rng = random.Random(12)
        for _ in range(200):
            outer = verify.random_table(rng, 12, 6, max_out=5)
            pairs = codespace.allocate_all(
                (n, rng.choice(outer.domain + ("1", "")))
                for n in verify.random_kraft_lengths(rng, 20, 8))
            inner = MachineTable(tuple(pairs))
            assert compose(outer, pairs) == compose(outer, inner)

    def test_single(self):
        assert compose(table(("0", "1")), table(("00", "0"))).entries == (("00", "1"),)

    def test_unmatched_output_dropped(self):
        assert compose(table(("0", "1")), table(("00", "11"))).entries == ()

    def test_two_through(self):
        result = compose(table(("0", "1")), table(("00", "0"), ("01", "0")))
        assert result.entries == (("00", "1"), ("01", "1"))

    def test_measure_never_grows(self):
        outer = table(("0", "1"))
        inner = table(("00", "0"), ("01", "11"), ("1", "0"))
        composed = compose(outer, inner)
        assert composed.domain_measure().as_fraction() <= \
            inner.domain_measure().as_fraction()


class TestPrefixFreeCheck:
    def test_cases(self):
        table(("0", ""), ("10", "")).validate()
        with pytest.raises(ValueError):
            table(("0", ""), ("01", "")).validate()
        table().validate()


class TestTableFiles:
    def test_round_trip(self):
        t = table(("0", "1"), ("10", ""), ("", "01"))
        lines = format_table_lines(t)
        assert lines == ["0\t1", "10\t-", "-\t01"]
        assert parse_table_lines(lines) == t

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_table_lines(["0 1"])
        with pytest.raises(ValueError):
            parse_table_lines(["0\t2"])


# --- ``parse_table_lines`` as it was, checking every word as it reads it,
# kept literally as the differential reference for the structure-only pass.

def parse_table_lines_word_by_word(lines):
    entries: list[tuple[str, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"expected 'program<TAB>output', got {line!r}")
            program = parse_word(fields[0])
            if len(program) > MAX_TEXT_LENGTH:
                raise ValueError(f"program length {len(program)} "
                                 f"is above the cap of {MAX_TEXT_LENGTH}")
            entries.append((program, parse_word(fields[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return MachineTable(tuple(entries))


def parsed(make):
    """The table ``make()`` returns, or the exception's type and message."""
    try:
        return make()
    except Exception as exc:          # compared, never swallowed
        return type(exc), str(exc)


SMALL_LINES = ["01\t1", "10\t-", "110\t0", "-\t0101"]
OVER_CAP = "0" * (MAX_TEXT_LENGTH + 1)


def bad_lines(line):
    """``line`` made bad in every way: no tab, three fields, a bad character
    replacing or inserted at each position of the program and of the
    output, and a program one past the cap."""
    yield line.replace("\t", " ")
    yield line.replace("\t", "")
    yield line + "\t0"
    yield "1\t" + line
    fields = line.split("\t")
    for side in (0, 1):
        word = fields[side]
        for pos in range(len(word) + 1):
            for bad in ("2", "a", " ", "\u0660", "\u00b9", "\x00"):
                for cut in (word[:pos] + bad + word[pos + 1:],
                            word[:pos] + bad + word[pos:]):
                    changed = list(fields)
                    changed[side] = cut
                    yield "\t".join(changed)
    yield f"{OVER_CAP}\t{fields[1]}"


class TestTableFilesDifferential:
    """The structure-only pass returns the word-by-word parser's table, or
    raises its first exception with the same type and message."""

    def check(self, make_lines):
        new = parsed(lambda: parse_table_lines(make_lines()))
        assert new == parsed(lambda: parse_table_lines_word_by_word(make_lines()))
        return new

    def test_random_valid_tables(self):
        rng = random.Random(14)
        for _ in range(300):
            t = verify.random_table(rng, 30, 12, max_out=20)
            lines = format_table_lines(t)
            assert self.check(lambda: lines) == t

    def test_each_line_made_bad_in_each_way(self):
        count = 0
        for i, line in enumerate(SMALL_LINES):
            for bad in bad_lines(line):
                lines = SMALL_LINES[:i] + [bad] + SMALL_LINES[i + 1:]
                result = self.check(lambda: lines)
                # A space at either end of a line is stripped away, so a
                # few of these lines are still valid.
                if not isinstance(result, MachineTable):
                    assert result[0] is ValueError
                    assert result[1].startswith(f"line {i + 1}: ")
                    count += 1
        assert count > 250

    def test_program_at_and_past_the_cap(self):
        at_cap = "1" * MAX_TEXT_LENGTH
        assert self.check(lambda: [f"{at_cap}\t-"]) == table((at_cap, ""))
        result = self.check(lambda: SMALL_LINES + [f"{OVER_CAP}\t1"])
        assert result[1].startswith("line 5: program length")
        result = self.check(lambda: [f"{OVER_CAP}2\t1"])
        assert result[1].startswith("line 1: not a binary word")

    @pytest.mark.parametrize("structural", ["0 1", "0\t1\t1", "0\t\t1", "0"])
    def test_bad_word_before_and_after_a_structural_error(self, structural):
        for bad_word in ("0\t2", "2\t0", "0a\t-"):
            before = self.check(lambda: ["01\t1", bad_word, "1\t-", structural])
            assert before[1].startswith("line 2: not a binary word")
            after = self.check(lambda: ["01\t1", structural, "1\t-", bad_word])
            assert after[1].startswith("line 2: expected")

    def test_blank_padded_lines_and_dash_fields(self):
        # strip() removes a tab at either end, so "\t110\t0" is one entry.
        lines = ["", "  01\t1  ", "\t", " \n", "10\t-\n", "-\t-", "\r\n",
                 "\t110\t0"]
        assert self.check(lambda: lines) == \
            table(("01", "1"), ("10", ""), ("", ""), ("110", "0"))
        result = self.check(lambda: lines + ["\t- 0"])
        assert result == (ValueError, "line 9: expected 'program<TAB>output', "
                          "got '- 0'")

    def test_odd_lines(self):
        for odd in (b"0\t1", None, 5):
            self.check(lambda: SMALL_LINES + [odd])
            self.check(lambda: ["0\t2", odd])
            self.check(lambda: [odd, "0\t2"])

    def test_list_and_generator_input(self):
        for lines in (SMALL_LINES, SMALL_LINES + ["1\t2"], SMALL_LINES + ["1"],
                      []):
            expected = self.check(lambda: lines)
            assert self.check(lambda: (line for line in lines)) == expected
            assert self.check(lambda: iter(lines)) == expected
            assert self.check(lambda: tuple(lines)) == expected

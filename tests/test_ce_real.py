"""Dyadic staircases: decomposition identities and machine conversion."""

import random
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import pytest

from omegalib.bits import prefix_free
from omegalib.ce_real import (DyadicDecomposition, RationalSeq,
                              dyadic_decompose, to_machine)
from omegalib.errors import OmegalibError
from omegalib.exact import (DYADIC_ZERO, Dyadic, as_fraction, ceil_neg_log2,
                            parse_rational, pow2_neg)


class TestRationalSeq:
    def test_prefix_caches_and_extends(self):
        seq = RationalSeq(Fraction(1, n) for n in (10, 5, 2))
        assert seq.prefix(1) == (Fraction(1, 10),)
        assert seq.prefix(3) == (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2))

    def test_rejects_non_increasing(self):
        with pytest.raises(OmegalibError, match=(
                "^term 1/2 does not increase past 1/2$")):
            RationalSeq([Fraction(1, 2), Fraction(1, 2)]).prefix(2)

    def test_rejects_out_of_range(self):
        with pytest.raises(OmegalibError, match=r"^term 0 is outside \(0, 1\)$"):
            RationalSeq([Fraction(0)]).prefix(1)
        with pytest.raises(OmegalibError, match=r"^term 1 is outside \(0, 1\)$"):
            RationalSeq([Fraction(1, 2), Fraction(1)]).prefix(2)

    def test_exhaustion(self):
        seq = RationalSeq([Fraction(1, 2)])
        with pytest.raises(OmegalibError, match=(
                "^sequence ended after 1 terms, 2 were requested$")):
            seq.prefix(2)

    @pytest.mark.parametrize("k", [3, sys.maxsize, sys.maxsize + 1, 10 ** 20])
    @pytest.mark.parametrize("cached", [0, 1, 2])
    def test_prefix_past_the_terms(self, k, cached):
        # Past sys.maxsize, where islice refuses the bound, a prefix is
        # refused like any other that the terms cannot fill.
        seq = RationalSeq(iter([Fraction(1, 4), Fraction(1, 2)]))
        seq.prefix(cached)
        with pytest.raises(OmegalibError, match=(
                f"^sequence ended after 2 terms, {k} were requested$")):
            seq.prefix(k)
        assert seq.prefix(2) == (Fraction(1, 4), Fraction(1, 2))

    def test_parse_lines(self):
        seq = RationalSeq(parse_rational(line) for line in ["1/3", " 1/2 "])
        assert seq.prefix(2) == (Fraction(1, 3), Fraction(1, 2))

    def test_text_terms_refused(self):
        with pytest.raises(TypeError):
            RationalSeq(["1e-9", "1/2"]).prefix(1)


class TestDecompose:
    def test_single_step(self):
        d = dyadic_decompose(RationalSeq([Fraction(1, 2)]), 1)
        assert d.lengths == (1,)
        assert d.partials == (Dyadic(1, 1),)

    def test_dyadic_terms_are_hit_exactly(self):
        d = dyadic_decompose(
            RationalSeq([Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]), 3)
        assert d.lengths == (1, 2, 3)
        assert [p.as_fraction() for p in d.partials] == [
            Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]

    def test_non_dyadic_terms_sandwiched(self):
        d = dyadic_decompose(RationalSeq([Fraction(3, 10), Fraction(1, 2)]), 2)
        assert d.lengths == (2, 2)
        assert [p.as_fraction() for p in d.partials] == [
            Fraction(1, 4), Fraction(1, 2)]

    def test_zero_prefix(self):
        d = dyadic_decompose(RationalSeq([Fraction(1, 2)]), 0)
        assert d.lengths == () and d.partials == ()

    def test_sandwich_holds_on_awkward_sequence(self):
        terms = [Fraction(1, 7), Fraction(22, 70), Fraction(23, 70),
                 Fraction(333, 1000), Fraction(9, 10)]
        d = dyadic_decompose(RationalSeq(terms), 5)
        d.verify(terms)  # raises on any broken identity
        prev = Fraction(0)
        for a, r in zip(terms, d.partials):
            assert (a + prev) / 2 <= r.as_fraction() <= a
            prev = r.as_fraction()

    def test_verify_catches_corruption(self):
        d = dyadic_decompose(RationalSeq([Fraction(1, 2), Fraction(2, 3)]), 2)
        broken = DyadicDecomposition(d.lengths, (d.partials[0], Dyadic(1, 1)))
        with pytest.raises(ValueError):
            broken.verify([Fraction(1, 2), Fraction(2, 3)])

    def test_gap_that_does_not_clear(self):
        class Stub:                 # a sequence that skipped validation
            def prefix(self, k):
                return (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(OmegalibError) as new:
            dyadic_decompose(Stub(), 2)
        with pytest.raises(OmegalibError) as old:
            dyadic_decompose_fraction(Stub(), 2)
        assert str(new.value) == str(old.value) == (
            "term 1/2 does not clear the partial sum 1/2^1")


class TestToMachine:
    def test_measure_equals_final_partial(self):
        table = to_machine(RationalSeq([Fraction(1, 2), Fraction(3, 4)]), 2)
        assert table.domain == ("0", "10")
        assert [y for _, y in table.entries] == ["", ""]
        assert table.domain_measure() == Fraction(3, 4)

    def test_equal_step_lengths(self):
        table = to_machine(RationalSeq([Fraction(3, 10), Fraction(1, 2)]), 2)
        assert table.domain == ("00", "01")
        assert table.domain_measure() == Fraction(1, 2)

    def test_empty_prefix(self):
        table = to_machine(RationalSeq([Fraction(1, 2)]), 0)
        assert table.entries == ()

    def test_domain_always_prefix_free(self):
        terms = [Fraction(i, 101) for i in (3, 10, 31, 41, 59, 97)]
        table = to_machine(RationalSeq(terms), len(terms))
        assert prefix_free(table.domain)


# --- The Fraction implementations the integer ones replaced, kept literally
# as differential references, but for the error class they raise, now
# OmegalibError.

class FractionRationalSeq:
    """``RationalSeq`` as it was, comparing terms as Fractions."""

    def __init__(self, source: Iterable[Fraction | int | Dyadic]):
        self._iter: Iterator = iter(source)
        self._cache: list[Fraction] = []

    def prefix(self, k: int) -> tuple[Fraction, ...]:
        """The first ``k`` terms; OmegalibError if fewer are available."""
        if k < 0:
            raise ValueError("prefix length must be a natural number")
        while len(self._cache) < k:
            try:
                raw = next(self._iter)
            except StopIteration:
                raise OmegalibError(
                    f"sequence ended after {len(self._cache)} terms, "
                    f"{k} were requested") from None
            term = as_fraction(raw)
            if not 0 < term < 1:
                raise OmegalibError(f"term {term} is outside (0, 1)")
            if self._cache and term <= self._cache[-1]:
                raise OmegalibError(
                    f"term {term} does not increase past {self._cache[-1]}")
            self._cache.append(term)
        return tuple(self._cache[:k])


class PropertyRationalSeq:
    """``RationalSeq`` as it was before it carried the last term as an
    integer pair, re-reading it through the Fraction properties."""

    def __init__(self, source: Iterable[Fraction | int | Dyadic]):
        self._iter: Iterator = iter(source)
        self._cache: list[Fraction] = []

    def prefix(self, k: int) -> tuple[Fraction, ...]:
        """The first ``k`` terms; OmegalibError if fewer are available."""
        if k < 0:
            raise ValueError("prefix length must be a natural number")
        while len(self._cache) < k:
            try:
                raw = next(self._iter)
            except StopIteration:
                raise OmegalibError(
                    f"sequence ended after {len(self._cache)} terms, "
                    f"{k} were requested") from None
            term = as_fraction(raw)
            p, q = term.numerator, term.denominator
            if not 0 < p < q:
                raise OmegalibError(f"term {term} is outside (0, 1)")
            if self._cache:
                last = self._cache[-1]
                if p * last.denominator <= last.numerator * q:
                    raise OmegalibError(
                        f"term {term} does not increase past {last}")
            self._cache.append(term)
        return tuple(self._cache[:k])


def verify_fraction(self, terms: Sequence[Fraction]) -> None:
    """``DyadicDecomposition.verify`` as it was, on Fractions and Dyadics."""
    if not len(self.lengths) == len(self.partials) == len(terms):
        raise ValueError("decomposition and term prefix lengths differ")
    prev = DYADIC_ZERO
    for i, (n, r, a) in enumerate(zip(self.lengths, self.partials, terms), 1):
        a = as_fraction(a)
        if prev + pow2_neg(n) != r:
            raise ValueError(f"step {i}: recurrence broken")
        if not prev.as_fraction() < a:
            raise ValueError(f"step {i}: partial sum is not below the term")
        r_frac = r.as_fraction()
        if not (a + prev.as_fraction()) / 2 <= r_frac <= a:
            raise ValueError(f"step {i}: sandwich bound broken")
        prev = r


def dyadic_decompose_fraction(seq, k: int) -> DyadicDecomposition:
    """``dyadic_decompose`` as it was, on Fractions and Dyadics."""
    terms = seq.prefix(k)
    lengths: list[int] = []
    partials: list[Dyadic] = []
    r = DYADIC_ZERO
    for a in terms:
        gap = a - r.as_fraction()
        if gap <= 0:
            raise OmegalibError(f"term {a} does not clear the partial sum {r}")
        n = ceil_neg_log2(gap)
        r = r + pow2_neg(n)
        lengths.append(n)
        partials.append(r)
    decomposition = DyadicDecomposition(tuple(lengths), tuple(partials))
    verify_fraction(decomposition, terms)
    return decomposition


@pytest.fixture
def differential_families(increasing_rationals, wide_increasing_rationals):
    def families():
        for ceiling in (3, 1000):
            rng = random.Random(ceiling)
            for _ in range(150):
                yield increasing_rationals(rng, rng.randint(1, 60), ceiling)
        rng = random.Random(200)
        for _ in range(60):
            yield wide_increasing_rationals(rng, rng.randint(1, 30))
    return families


class TestFractionDifferential:
    def test_prefix_and_decompose_match(self, differential_families):
        for terms in differential_families():
            k = len(terms)
            assert RationalSeq(terms).prefix(k) == FractionRationalSeq(terms).prefix(k)
            new = dyadic_decompose(RationalSeq(terms), k)
            old = dyadic_decompose_fraction(FractionRationalSeq(terms), k)
            assert new == old, terms
            assert all(type(p) is Dyadic for p in new.partials)

    @pytest.mark.parametrize("terms", [
        [Fraction(0)], [Fraction(1)], [Fraction(-1, 3)], [Fraction(5, 4)],
        [Fraction(1, 3), Fraction(1, 1)], [Fraction(1, 3), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(1, 4)], [Fraction(1, 2), 0],
        [Fraction(1, 2), Dyadic(1, 2)], [Fraction(1, 10**300), Fraction(1, 10**301)],
        [Fraction(2, 3), Fraction(2 * 10**250 - 1, 3 * 10**250)]])
    def test_invalid_sequences_fail_alike(self, terms, outcome):
        for k in (1, len(terms)):
            new = outcome(dyadic_decompose, RationalSeq(terms), k)
            old = outcome(dyadic_decompose_fraction, FractionRationalSeq(terms), k)
            assert new == old
        assert new[0] is OmegalibError

    def test_random_corruptions_fail_alike(self, differential_families, outcome):
        rng = random.Random(7)
        seen = set()
        for terms in differential_families():
            d = dyadic_decompose(RationalSeq(terms), len(terms))
            for _ in range(10):
                lengths, partials, bent = list(d.lengths), list(d.partials), list(terms)
                i = rng.randrange(len(terms))
                kind = rng.randrange(4)
                if kind == 0:       # a step length moved, partials kept consistent
                    lengths[i] = rng.choice((lengths[i] - 1, lengths[i] + 1, -1))
                    if lengths[i] >= 0:
                        r = partials[i - 1] if i else DYADIC_ZERO
                        for j in range(i, len(lengths)):
                            r = r + pow2_neg(lengths[j])
                            partials[j] = r
                elif kind == 1:     # one partial sum moved
                    r = partials[i]
                    step = pow2_neg(rng.randint(0, r.exponent + 3))
                    partials[i] = r - step if step < r else r + step
                elif kind == 2:     # one term moved, up or down
                    bent[i] += Fraction(rng.choice((-1, 1)), rng.choice(
                        (2, 1 << rng.randint(1, 2 * d.lengths[i] + 2))))
                else:
                    bent.pop(i)
                broken = DyadicDecomposition(tuple(lengths), tuple(partials))
                new = outcome(broken.verify, bent)
                assert new == outcome(verify_fraction, broken, bent)
                seen.add(new and new[1].split(": ")[-1])
        assert seen == {None, "recurrence broken", "partial sum is not below the term",
                        "sandwich bound broken", "exponent must be a natural number",
                        "decomposition and term prefix lengths differ"}


class TestPrefixDifferential:
    """``prefix`` gives the old class's terms, or its exception's type and
    message, call after call, also resuming after an error."""

    KINDS = ("is outside (0, 1)", "does not increase past", "sequence ended after")

    @staticmethod
    def calls(outcome, terms, ks, lazy):
        results = []
        for cls in (RationalSeq, PropertyRationalSeq):
            seq = cls(iter(terms) if lazy else terms)
            results.append([outcome(seq.prefix, k) for k in ks])
        return results

    def test_families_called_repeatedly(self, differential_families, outcome):
        rng = random.Random(13)
        for terms in differential_families():
            n = len(terms)
            ks = [rng.randint(0, n + 2) for _ in range(5)] + [n, n + 1, 0]
            new, old = self.calls(outcome, terms, ks, lazy=rng.random() < 0.5)
            assert new == old

    def test_bad_terms_then_resume(self, differential_families, outcome):
        rng = random.Random(14)
        bad = [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(5, 4), 0, 1,
               Dyadic(1, 1), Dyadic(0), "1/2", 0.5, None]
        seen = set()
        for terms in differential_families():
            bent = list(terms)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(bent) + 1)
                pick = rng.random()
                if pick < 0.4 and i:
                    bent.insert(i, bent[i - 1])             # repeated term
                elif pick < 0.6 and i > 1:
                    bent.insert(i, bent[i - 2])             # a step back
                else:
                    bent.insert(i, rng.choice(bad))
            ks = [len(bent)] * 4 + [rng.randint(0, len(bent)) for _ in range(3)]
            new, old = self.calls(outcome, bent, ks, lazy=True)
            assert new == old
            for r in new:
                if r and isinstance(r[0], type):
                    kind = next((k for k in self.KINDS if k in r[1]), None)
                    seen.add((r[0], kind))
        assert seen == {(OmegalibError, k) for k in self.KINDS} | {(TypeError, None)}

    @pytest.mark.parametrize("k", [-1, -5])
    def test_negative_length(self, k, outcome):
        new, old = self.calls(outcome, [Fraction(1, 2)], [k, 1, k], lazy=False)
        assert new == old and new[0][0] is ValueError


H, Q, E = Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)
D = DyadicDecomposition


class TestVerifyFailureModes:
    """Each way ``verify`` can fail, with its exact message, run against the
    integer ``verify`` and the Fraction reference alike."""

    CASES = {
        "valid": (D((1, 2, 3), (Dyadic(1, 1), Dyadic(3, 2), Dyadic(7, 3))),
                  [H, Q, E], None),
        "recurrence at step 1": (D((1,), (Dyadic(1, 2),)), [H],
                                 "step 1: recurrence broken"),
        "recurrence at step 3": (D((1, 2, 3), (Dyadic(1, 1), Dyadic(3, 2), Dyadic(15, 4))),
                                 [H, Q, E], "step 3: recurrence broken"),
        "strict gap": (D((1, 2), (Dyadic(1, 1), Dyadic(3, 2))), [H, H],
                       "step 2: partial sum is not below the term"),
        "sandwich below": (D((3,), (Dyadic(1, 3),)), [Q],
                           "step 1: sandwich bound broken"),
        "sandwich above": (D((1,), (Dyadic(1, 1),)), [Fraction(1, 3)],
                           "step 1: sandwich bound broken"),
        "fewer partials": (D((1, 2), (Dyadic(1, 1),)), [H, Q],
                           "decomposition and term prefix lengths differ"),
        "fewer terms": (D((1, 2), (Dyadic(1, 1), Dyadic(3, 2))), [H],
                        "decomposition and term prefix lengths differ"),
        "negative length": (D((-1,), (Dyadic(1, -1),)), [H],
                            "exponent must be a natural number"),
        "negative exponent": (D((0, 0), (Dyadic(1), Dyadic(1, -1))), [1, 2], None),
        "negative exponent recurrence": (D((0, 0), (Dyadic(1), Dyadic(3, -1))),
                                         [1, 2], "step 2: recurrence broken"),
        "negative exponent sandwich": (D((0, 0), (Dyadic(1), Dyadic(1, -1))),
                                       [1, Fraction(3, 2)],
                                       "step 2: sandwich bound broken"),
        "int terms": (D((0,), (Dyadic(1),)), [1], None),
        "Dyadic terms": (D((1, 2), (Dyadic(1, 1), Dyadic(3, 2))),
                         [Dyadic(1, 1), Dyadic(3, 2)], None),
        "Dyadic term sandwich": (D((1,), (Dyadic(1, 1),)), [Dyadic(1, 2)],
                                 "step 1: sandwich bound broken"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("verify", [D.verify, verify_fraction],
                             ids=["integer", "fraction"])
    def test_case(self, verify, name):
        decomposition, terms, message = self.CASES[name]
        if message is None:
            verify(decomposition, terms)
        else:
            with pytest.raises(ValueError) as exc:
                verify(decomposition, terms)
            assert str(exc.value) == message

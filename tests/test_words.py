import tracemalloc

import pytest
from hypothesis import given

from strategies import word_pairs_st, words_st
from mnmap import words
from mnmap.words import (
    MAX_WORD_LETTERS,
    Letter,
    Permutation,
    Word,
    WordError,
    classical,
    commutator,
    cylindrical,
    parse_word,
    reduce_onto,
    sigma,
    tau,
    vcb,
    zeta,
)


class TestParse:
    def test_tokens(self):
        w = parse_word("s1 s2^-1", classical(3))
        assert w.letters == (sigma(1), sigma(2, -1))

    def test_exponent_expansion(self):
        w = parse_word("z^2", cylindrical(4))
        assert w.letters == (zeta(), zeta())

    def test_negative_exponent(self):
        w = parse_word("s1^-3", classical(3))
        assert w.letters == (sigma(1, -1),) * 3

    def test_flavor_violation(self):
        with pytest.raises(WordError):
            parse_word("t3", classical(5))
        with pytest.raises(WordError):
            parse_word("z", classical(5))

    def test_index_out_of_range(self):
        with pytest.raises(WordError):
            parse_word("s5", classical(3))

    def test_bad_token(self):
        for text in ("q1", "s", "s1^", "s1^0", "z3", "s0"):
            with pytest.raises(WordError):
                parse_word(text, vcb(5))

    def test_compact_classical(self):
        w = parse_word("1 -2 1", classical(3))
        assert w.letters == (sigma(1), sigma(2, -1), sigma(1))

    def test_compact_rejects_zero(self):
        with pytest.raises(WordError):
            parse_word("1 0", classical(3))

    def test_empty(self):
        assert parse_word("", classical(3)).letters == ()
        assert parse_word("   ", classical(3)).letters == ()

    def test_size_cap(self):
        with pytest.raises(WordError, match="cap"):
            parse_word(f"s1^{MAX_WORD_LETTERS + 1}", classical(2))

    def test_size_cap_counts_every_token(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 5)
        assert parse_word("s1^2 s1^-3", classical(2)).letters == (
            (sigma(1),) * 2 + (sigma(1, -1),) * 3)
        for text in ("s1^3 s1^-3", "z^6", "1 1 -1 1 1 1"):
            with pytest.raises(WordError, match="6 letters"):
                parse_word(text, cylindrical(2))

    @pytest.mark.parametrize("text", [
        "s1^" + "9" * 5000, "s" + "9" * 5000, "9" * 5000, "1 -" + "9" * 5000])
    def test_oversized_number(self, text):
        with pytest.raises(WordError, match="number too large") as info:
            parse_word(text, classical(3))
        assert len(str(info.value)) < 100

    def test_leading_zeros(self):
        assert parse_word("s1^0002", classical(3)).letters == (sigma(1),) * 2
        assert parse_word("s1^-002 s02^-1", classical(3)).letters == (
            sigma(1, -1),) * 2 + (sigma(2, -1),)
        assert parse_word("-02 002", classical(3)).letters == (
            sigma(2, -1), sigma(2))
        assert parse_word("s" + "0" * 5000 + "1", classical(3)).letters == (
            sigma(1),)

    @given(words_st())
    def test_round_trip(self, w):
        assert parse_word(str(w), w.flavor) == w


class TestWordOps:
    def test_concat_no_reduction(self):
        a = parse_word("s1", classical(3))
        b = parse_word("s1^-1", classical(3))
        assert (a * b).letters == (sigma(1), sigma(1, -1))

    def test_concat_identity(self):
        w = parse_word("s1 s2", classical(3))
        assert Word(classical(3)) * w == w

    def test_concat_flavor_mismatch(self):
        with pytest.raises(WordError):
            parse_word("s1", classical(3)) * parse_word("s1", classical(4))
        with pytest.raises(WordError):
            parse_word("s1", classical(3)) * parse_word("s1", cylindrical(3))

    def test_inverse(self):
        w = parse_word("s1 s2^-1", classical(3))
        assert w.inverse() == parse_word("s2 s1^-1", classical(3))
        assert Word(classical(3)).inverse() == Word(classical(3))

    def test_inverse_flips_tau_and_zeta(self):
        w = parse_word("z t1", vcb(3))
        assert w.inverse().letters == (tau(1, -1), zeta(-1))

    def test_free_reduce(self):
        assert parse_word("s1 s1^-1", classical(3)).free_reduce().letters == ()
        w = parse_word("s1 s2 s2^-1 s1", classical(3))
        assert w.free_reduce() == parse_word("s1 s1", classical(3))
        w = parse_word("s1 s2", classical(3))
        assert w.free_reduce() == w

    def test_free_reduce_compares_kind_index_and_sign(self):
        w = parse_word("s1 t1^-1 t2 t1 s2^-1 s1^-1 z z^-1 t2^-1 z^-1 z",
                       vcb(3))
        assert w.free_reduce() == parse_word(
            "s1 t1^-1 t2 t1 s2^-1 s1^-1 t2^-1", vcb(3))
        w = parse_word("z s1 s2 t2 t2^-1 s2^-1 s1^-1 z^-1 t1", vcb(3))
        assert w.free_reduce() == parse_word("t1", vcb(3))

    @given(words_st(min_n=2, max_n=3, max_len=40))
    def test_free_reduce_matches_inverse_letter_reduction(self, w):
        # reference: a stack reduction that builds each letter's inverse
        stack = []
        for letter in w:
            if stack and stack[-1] == letter.inverse():
                stack.pop()
            else:
                stack.append(letter)
        assert w.free_reduce() == Word(w.flavor, tuple(stack))

    @given(word_pairs_st(max_len=30))
    def test_reduce_onto_extends_a_reduced_prefix(self, pair):
        a, b = pair
        whole = a.letters + b.letters
        assert (reduce_onto(reduce_onto((), a.letters), b.letters)
                == reduce_onto((), whole)
                == Word(a.flavor, whole).free_reduce().letters)

    @given(words_st())
    def test_free_reduce_idempotent(self, w):
        assert w.free_reduce().free_reduce() == w.free_reduce()

    @given(words_st())
    def test_word_times_inverse_reduces_to_identity(self, w):
        assert (w * w.inverse()).free_reduce().letters == ()

    def test_commutator(self):
        b = parse_word("s1 s2", classical(3))
        assert commutator(Word(classical(3)), b).free_reduce().letters == ()
        a = parse_word("s1", classical(3))
        assert commutator(a, a).free_reduce().letters == ()
        c = commutator(parse_word("s1", classical(5)),
                       parse_word("s3", classical(5)))
        assert len(c) == 4

    def test_power(self):
        a = parse_word("s1", classical(3))
        assert a ** 3 == parse_word("s1 s1 s1", classical(3))
        assert a ** -2 == parse_word("s1^-2", classical(3))
        assert a ** 0 == Word(classical(3))

    @pytest.mark.parametrize("e", [10 ** 12, -10 ** 12])
    def test_power_capped_before_the_letters_are_built(self, e):
        w = Word(classical(3), (sigma(1),))
        tracemalloc.start()
        try:
            with pytest.raises(WordError, match=f"cap of {MAX_WORD_LETTERS} "
                                                r"\(MAX_WORD_LETTERS\)"):
                w ** e
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_product_capped_before_the_letters_are_built(self):
        w = Word(classical(3), (sigma(1),)) ** (MAX_WORD_LETTERS // 2 + 1)
        tracemalloc.start()
        try:
            with pytest.raises(WordError, match=(
                    f"product expands to {2 * len(w)} letters, over the cap "
                    rf"of {MAX_WORD_LETTERS} \(MAX_WORD_LETTERS\)")):
                w * w
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_product_at_the_cap(self):
        w = Word(classical(3), (sigma(1),)) ** (MAX_WORD_LETTERS // 2)
        assert len(w * w) == MAX_WORD_LETTERS
        with pytest.raises(WordError, match="product expands to"):
            w * w * Word(classical(3), (sigma(2),))

    def test_commutator_capped_before_any_part_is_built(self):
        # a^-1 alone would build half a million new letters
        a = Word(classical(3), (sigma(1),)) ** (MAX_WORD_LETTERS // 2)
        b = Word(classical(3), (sigma(2),))
        tracemalloc.start()
        try:
            with pytest.raises(WordError, match=(
                    f"commutator expands to {MAX_WORD_LETTERS + 2} letters, "
                    rf"over the cap of {MAX_WORD_LETTERS} "
                    r"\(MAX_WORD_LETTERS\)")):
                commutator(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_commutator_at_the_cap(self):
        a = Word(classical(3), (sigma(1),)) ** (MAX_WORD_LETTERS // 2 - 1)
        b = Word(classical(3), (sigma(2),))
        assert len(commutator(a, b)) == MAX_WORD_LETTERS

    def test_word_capped_before_its_letters_are_checked(self, monkeypatch):
        def checked(self, letter):
            raise AssertionError("a letter was checked before the size")

        letters = (sigma(1),) * (MAX_WORD_LETTERS + 1)
        monkeypatch.setattr(words.Flavor, "check", checked)
        tracemalloc.start()
        try:
            with pytest.raises(WordError, match=(
                    f"word expands to {MAX_WORD_LETTERS + 1} letters, over "
                    rf"the cap of {MAX_WORD_LETTERS} \(MAX_WORD_LETTERS\)")):
                Word(classical(3), letters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_word_at_the_cap(self):
        letters = (sigma(1),) * MAX_WORD_LETTERS
        assert len(Word(classical(3), letters)) == MAX_WORD_LETTERS

    def test_power_at_the_cap(self):
        w = Word(classical(3), (sigma(1), sigma(2)))
        assert len(w ** (MAX_WORD_LETTERS // 2)) == MAX_WORD_LETTERS
        e = MAX_WORD_LETTERS // 2 + 1
        with pytest.raises(WordError, match=f"power expands to {2 * e} "):
            w ** -e


class TestPermutation:
    def test_single_crossing(self):
        assert parse_word("s1", classical(3)).permutation().images == (2, 1, 3)

    def test_squared_crossing_is_pure(self):
        w = parse_word("s1 s1", classical(3))
        assert w.permutation().is_identity()
        assert w.is_pure()
        assert not parse_word("s1", classical(3)).is_pure()

    def test_purity_with_cyclic_shifts(self):
        assert parse_word("z^3", cylindrical(3)).is_pure()
        assert not parse_word("z s1 z^-1", cylindrical(3)).is_pure()
        # every strand moved by a crossing and one shift: pure at n = 2
        assert parse_word("z s1", cylindrical(2)).is_pure()
        assert not parse_word("z s1 s1", cylindrical(2)).is_pure()
        assert parse_word("z s1 s2 z^-1 s2 s1", vcb(3)).is_pure()

    @given(words_st(max_n=4, max_len=16))
    def test_is_pure_agrees_with_permutation(self, w):
        assert w.is_pure() == w.permutation().is_identity()
        assert (w * w.inverse()).is_pure()

    def test_strand_cap(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 3)
        assert parse_word("s1", classical(3)).permutation().images == (2, 1, 3)
        with pytest.raises(WordError, match="4 strands is over the cap of 3"):
            parse_word("s1", classical(4)).permutation()

    def test_cyclic_shift(self):
        assert parse_word("z", cylindrical(3)).permutation().images == (3, 1, 2)
        assert parse_word("z^-1", cylindrical(3)).permutation().images == (2, 3, 1)
        assert parse_word("z^3", cylindrical(3)).permutation().is_identity()

    def test_tau_is_transposition(self):
        assert parse_word("t2^-1", vcb(4)).permutation().images == (1, 3, 2, 4)

    def test_matrix_column_convention(self):
        p = parse_word("z", cylindrical(3)).permutation()
        # column j carries a 1 in row p(j)
        assert p.matrix() == ((0, 1, 0), (0, 0, 1), (1, 0, 0))

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    @given(word_pairs_st(max_len=20))
    def test_concat_multiplies(self, pair):
        a, b = pair
        assert (a * b).permutation() == a.permutation() * b.permutation()

    @given(words_st(max_len=20))
    def test_inverse_word_inverts_permutation(self, w):
        assert w.inverse().permutation() == w.permutation().inverse()


class TestValidation:
    def test_letter_sign(self):
        with pytest.raises(WordError):
            Letter("s", 1, 0)

    def test_letter_index(self):
        with pytest.raises(WordError):
            Letter("s", 0, 1)
        with pytest.raises(WordError):
            Letter("z", 2, 1)

    def test_word_checks_letters(self):
        with pytest.raises(WordError):
            Word(classical(3), (tau(1),))
        with pytest.raises(WordError):
            Word(classical(3), (sigma(3),))

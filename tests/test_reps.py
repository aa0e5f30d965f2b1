import math
import random
import sys
import timeit
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    GROUP_KINDS,
    cancelling_word,
    conjugate_product,
    far_pair,
    random_letter,
    random_word,
    reference_artin,
    reference_handle_reduce,
    reference_reduce_far,
    reference_rho_word,
    relation_identities,
    relation_rewritten_trivial,
)
from strategies import word_pairs_st, words_st
from mnmap import kernel, laurent, reps
from mnmap.kernel import bigelow_alpha, lift_witness
from mnmap.laurent import (
    MAX_DIMENSION,
    LaurentPoly,
    ONE,
    PolyMatrix,
    S,
    S_INV,
    T,
    T_INV,
)
from mnmap.reps import (
    ARTIN_MAX_STRANDS,
    ArtinBudgetError,
    FreeAut,
    ReductionCapError,
    artin_apply,
    burau,
    handle_reduce,
    is_trivial_braid,
    rho_columns_mod,
    rho_letter,
    rho_word,
)
from mnmap.words import (
    CLASSICAL,
    SIGMA,
    TAU,
    ZETA,
    Letter,
    Word,
    WordError,
    classical,
    cylindrical,
    parse_word,
    sigma,
    tau,
    vcb,
    zeta,
)


class TestRhoLetter:
    def test_sigma(self):
        assert rho_letter(sigma(1), 2) == PolyMatrix([[ONE - T, T], [1, 0]])

    def test_sigma_inverse(self):
        assert rho_letter(sigma(1, -1), 2) == PolyMatrix(
            [[0, 1], [T_INV, ONE - T_INV]])

    def test_tau(self):
        expected = PolyMatrix([[0, S], [S_INV, 0]])
        assert rho_letter(tau(1), 2) == expected
        assert rho_letter(tau(1, -1), 2) == expected

    def test_zeta(self):
        assert rho_letter(zeta(), 3) == PolyMatrix(
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert rho_letter(zeta(-1), 3) == PolyMatrix(
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_block_placement(self):
        m = rho_letter(sigma(2), 4)
        assert m[0, 0] == ONE and m[3, 3] == ONE
        assert m[1, 1] == ONE - T and m[1, 2] == T
        assert m[2, 1] == ONE and m[2, 2] == LaurentPoly()

    def test_index_out_of_range(self):
        with pytest.raises(WordError):
            rho_letter(sigma(2), 2)

    def test_dimension_bounded(self):
        with pytest.raises(ValueError, match=f"cap of {MAX_DIMENSION}"):
            rho_letter(sigma(1), MAX_DIMENSION + 1)

    def test_every_generator_times_inverse_is_identity(self):
        for n in range(2, 7):
            for i in range(1, n):
                for make in (sigma, tau):
                    prod = rho_letter(make(i), n) * rho_letter(make(i, -1), n)
                    assert prod.is_identity()
            assert (rho_letter(zeta(), n) * rho_letter(zeta(-1), n)).is_identity()


    def test_entries_are_laurent_polys(self):
        # int == LaurentPoly falls back to LaurentPoly.__eq__, so the
        # equality tests above would not notice a raw int in a matrix
        def entries(matrix):
            return [entry for row in matrix.rows for entry in row]

        for n in range(2, 6):
            letters = [zeta(), zeta(-1)] + [
                make(i, sign) for i in range(1, n) for make in (sigma, tau)
                for sign in (1, -1)]
            for matrix in [PolyMatrix.identity(n)] + [
                    rho_letter(letter, n) for letter in letters]:
                for m in (matrix, matrix.transpose()):
                    assert all(type(e) is LaurentPoly for e in entries(m))


class TestRhoWord:
    def test_empty(self):
        assert rho_word(Word(cylindrical(4))) == PolyMatrix.identity(4)

    def test_zeta_cubed(self):
        assert rho_word(parse_word("z^3", cylindrical(3))).is_identity()

    def test_braid_relation(self):
        a = rho_word(parse_word("s1 s2 s1", classical(3)))
        b = rho_word(parse_word("s2 s1 s2", classical(3)))
        assert a == b

    def test_relation_suite(self):
        for n in range(3, 7):
            for name, left, right in relation_identities(n):
                assert rho_word(left) == rho_word(right), name

    @given(word_pairs_st(max_len=8))
    def test_multiplicative(self, pair):
        a, b = pair
        assert rho_word(a * b) == rho_word(a) * rho_word(b)

    @given(words_st(max_len=10))
    def test_matches_generic_letter_product(self, w):
        product = PolyMatrix.identity(w.n)
        for letter in w:
            product = product * rho_letter(letter, w.n)
        assert rho_word(w) == product

    def test_matches_generic_letter_product_long_word(self):
        # long, dense entries: cancellation in the crossings' a + b - b'
        w = random_word(random.Random(2026), vcb(5), 120)
        assert {(letter.kind, letter.sign) for letter in w} == {
            (kind, sign) for kind in "stz" for sign in (1, -1)}
        product = PolyMatrix.identity(w.n)
        for letter in w:
            product = product * rho_letter(letter, w.n)
        assert rho_word(w) == product

    @given(words_st(max_len=12))
    def test_parallel_grouping_is_bit_identical(self, w):
        # any associative grouping of the letter product gives the same
        # canonical-form matrix as sequential evaluation
        def balanced(letters):
            if not letters:
                return PolyMatrix.identity(w.n)
            if len(letters) == 1:
                return rho_letter(letters[0], w.n)
            mid = len(letters) // 2
            return balanced(letters[:mid]) * balanced(letters[mid:])

        assert balanced(w.letters) == rho_word(w)

    def test_generator_matrix_associativity(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(2, 5)
            a, b, c = (rho_word(random_word(rng, vcb(n), rng.randint(1, 3)))
                       for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_det_multiplicative_on_generator_matrices(self):
        rng = random.Random(43)
        for _ in range(20):
            n = rng.randint(2, 5)
            a = rho_word(random_word(rng, vcb(n), rng.randint(1, 4)))
            b = rho_word(random_word(rng, vcb(n), rng.randint(1, 4)))
            assert (a * b).det() == a.det() * b.det()

    @given(words_st(max_len=10))
    def test_free_reduction_invariance(self, w):
        assert rho_word(w.free_reduce()) == rho_word(w)

    @given(words_st(max_len=14))
    def test_specializes_to_permutation_matrix(self, w):
        assert rho_word(w).specialize(1, 1) == w.permutation().matrix()

    def test_dimension_bounded(self):
        with pytest.raises(ValueError, match=f"cap of {MAX_DIMENSION}"):
            rho_word(Word(vcb(MAX_DIMENSION + 1), (sigma(1),)))
        assert rho_word(Word(vcb(MAX_DIMENSION))).is_identity()


def walk_words() -> list[Word]:
    """200 seeded vcb words of up to 150 letters on 2..6 strands, a third
    of them p u u^-1 q, where whole s-slices and entries cancel."""
    rng = random.Random(2027)
    words = []
    for i in range(200):
        flavor = vcb(rng.randint(2, 6))
        length = rng.randint(0, 150)
        words.append(cancelling_word(rng, flavor, length) if i % 3 == 0
                     else random_word(rng, flavor, length))
    return words


class TestRhoWordWalk:
    """rho_word's packed t-rows against the sparse column walk and against
    the generic product of the letter matrices."""

    WORDS = walk_words()

    def test_words_use_every_letter_kind(self):
        assert {(letter.kind, letter.sign) for w in self.WORDS
                for letter in w} == {(kind, sign) for kind in "stz"
                                     for sign in (1, -1)}
        assert max(len(w) for w in self.WORDS) > 140

    def test_matches_reference_walk_and_letter_product(self):
        for w in self.WORDS:
            product = PolyMatrix.identity(w.n)
            for letter in w:
                product = product * rho_letter(letter, w.n)
            image = rho_word(w)
            assert image == reference_rho_word(w) == product, str(w)

    def test_entries_canonical(self):
        for w in self.WORDS:
            for row in rho_word(w).rows:
                for entry in row:
                    assert type(entry) is LaurentPoly
                    assert all(c != 0 for _, _, c in entry.terms()), str(w)

    def test_word_times_inverse_is_identity(self):
        for w in self.WORDS:
            image = rho_word(w * w.inverse())
            assert image == PolyMatrix.identity(w.n), str(w)

    def test_matches_reference_walk_from_8_bit_slots(self, monkeypatch):
        # 8-bit slots overflow their bounds within a few crossings, so the
        # walk renormalises columns and widens its slots again and again
        repacks = []

        def spy(col, width, new_width):
            repacks.append((width, new_width))
            return repack(col, width, new_width)

        repack = reps._repack
        monkeypatch.setattr(reps, "_START_WIDTH", 8)
        monkeypatch.setattr(reps, "_repack", spy)
        for w in self.WORDS:
            assert rho_word(w) == reference_rho_word(w), str(w)
            image = rho_word(w * w.inverse())
            assert image == PolyMatrix.identity(w.n), str(w)
        assert any(old == new for old, new in repacks)
        assert any(old < new for old, new in repacks)


class TestResumableWalk:
    """rho_word and the search's kernel._is_hit decide the identity alike,
    also on words whose image has every off-diagonal entry empty."""

    @pytest.mark.parametrize("text, n, identity", [
        ("t1 z", 2, False),  # diag(s, s^-1): empty off the diagonal
        ("t1 z t1 z", 2, False),
        ("t1 t1", 2, True),
        ("z z z", 3, True),
        ("s1 t1 t1 s1^-1", 3, True),
        ("s1 t1 z s1^-1", 2, False)])
    def test_identity_decided_on_the_diagonal(self, text, n, identity):
        w = parse_word(text, vcb(n))
        assert rho_word(w).is_identity() is identity
        assert kernel._is_hit(w.letters, n) is identity


def planted_word(rng: random.Random, flavor, length: int) -> Word:
    """A word of about length letters with cancelling pairs planted between
    random letters: g g^-1 for sigma, tau and zeta (as the flavor admits),
    nested u u^-1, and the cascades delta_c delta_c^-1 and, in vcb,
    delta_v delta_v^-1, which free reduction removes from the middle out."""
    n, kinds = flavor.n, GROUP_KINDS[flavor.group]
    letters: list[Letter] = []
    while len(letters) < length:
        r = rng.random()
        if r < 0.3:
            letters.append(random_letter(rng, flavor))
            continue
        if r < 0.55:
            u = [random_letter(rng, flavor)]
        elif r < 0.7:
            u = list(random_word(rng, flavor, rng.randint(2, 5)))
        elif r < 0.85 or TAU not in kinds:
            u = [sigma(i) for i in range(1, n)]  # delta_c
        else:
            u = [tau(i) for i in range(1, n)]  # delta_v
        if rng.random() < 0.5:
            u = [letter.inverse() for letter in reversed(u)]
        letters += u + [letter.inverse() for letter in reversed(u)]
    return Word(flavor, tuple(letters))


class TestReducedWalk:
    """rho_word walks w reduced modulo far commutation, never longer than
    w.free_reduce(): each generator image times its inverse's is exactly
    the identity, so the cancelled pairs change no matrix, and rho_walk is
    handed only the letters that are left."""

    @staticmethod
    def words() -> list[Word]:
        rng = random.Random(4404)
        return [planted_word(rng, flavor(rng.randint(2, 6)), 120)
                for flavor in (classical, cylindrical, vcb) * 8]

    def test_planted_pairs_use_every_kind_and_cancel(self):
        words = self.words()
        planted = {letter.kind for w in words for letter, after in
                   zip(w, w.letters[1:]) if after == letter.inverse()}
        assert planted == {SIGMA, TAU, ZETA}
        for w in words:
            assert len(w.free_reduce()) < len(w) // 2, str(w)

    @pytest.mark.parametrize("start_width", [64, 8])
    def test_matches_reference_walk(self, monkeypatch, start_width):
        monkeypatch.setattr(reps, "_START_WIDTH", start_width)
        for w in self.words():
            image = rho_word(w)
            assert image == reference_rho_word(w), str(w)
            assert image == reference_rho_word(w.free_reduce()), str(w)

    def test_delta_cascade_is_the_identity(self):
        for n in range(2, 7):
            delta = Word(vcb(n), tuple(sigma(i) for i in range(1, n)))
            virtual = Word(vcb(n), tuple(tau(i) for i in range(1, n)))
            for w in (delta * delta.inverse(), delta.inverse() * delta,
                      virtual * delta * delta.inverse() * virtual.inverse()):
                assert w.free_reduce().letters == ()
                assert rho_word(w) == reference_rho_word(w) \
                    == PolyMatrix.identity(n)

    def test_walk_receives_the_reduced_letters(self, monkeypatch):
        walked = []
        walk = reps.rho_walk

        def spy(n, letters):
            walked.append(tuple(letters))
            return walk(n, walked[-1])

        monkeypatch.setattr(reps, "rho_walk", spy)
        for w in self.words():
            rho_word(w)
            letters = walked.pop()
            assert not walked
            assert letters == reps._reduce_far(w.letters, w.n), str(w)
            assert len(letters) == len(reference_reduce_far(w.letters))
            assert far_pair(letters) is None, str(w)
            assert len(letters) <= len(w.free_reduce()), str(w)


def far_words() -> list[Word]:
    """Seeded words of all three flavors on 2..8 strands: random, p u u^-1
    q, and products of conjugates u sigma_i^+-2 u^-1."""
    rng = random.Random(2610)
    words = []
    for flavor in (classical, cylindrical, vcb) * 12:
        f = flavor(rng.randint(2, 8))
        words += [random_word(rng, f, rng.randint(0, 60)),
                  cancelling_word(rng, f, rng.randint(0, 80)),
                  conjugate_product(rng, f, rng.randint(1, 8), 3)]
    return words


class TestFarReduction:
    """rho_word reduces its word modulo far commutation before the walk
    (reps._reduce_far): a sigma or tau letter cancels the latest earlier
    inverse at its index across letters at indices two or more away, and
    zeta^e cancels the latest zeta^-e when no sigma or tau is left between
    them."""

    WORDS = far_words()

    @pytest.mark.parametrize("text, n, reduced", [
        ("s1 s3 s1^-1", 5, "s3"),
        ("t1 s3^-1 t4 t1^-1", 6, "s3^-1 t4"),
        ("s4 s2 s4^-1 s2^-1", 6, ""),
        ("s1 s1 s3 s1^-1", 5, "s1 s3"),
        ("s1 s3 s1 s1^-1 s3^-1 s1^-1", 5, ""),
        ("s1 s2 s1^-1", 5, "s1 s2 s1^-1"),  # a neighbour blocks
        ("s2 t2 s2^-1", 5, "s2 t2 s2^-1"),  # so does the other kind
        ("s2 s2", 5, "s2 s2"),
        ("s1 z s1^-1", 5, "s1 z s1^-1"),  # zeta blocks
        ("s1^-1 s4 t2^-1 s4^-1 s1", 6, "s1^-1 t2^-1 s1"),
        ("z s2 z^-1", 4, "z s2 z^-1"),  # a crossing blocks zeta
        ("z t3 t1 t3^-1 z^-1", 5, "z t1 z^-1"),
        ("z^-1 s1 s1^-1 z", 3, ""),
        ("z s1 z z^-1 s1^-1 z^-1", 3, ""),
        ("z z s1 z^-1", 3, "z z s1 z^-1")])
    def test_rule(self, text, n, reduced):
        w = parse_word(text, vcb(n))
        assert reps._reduce_far(w.letters, n) == \
            parse_word(reduced, vcb(n)).letters
        assert rho_word(w) == reference_rho_word(w) == letter_product(w)

    def test_words_reduce_past_free_reduction(self):
        kinds = {(letter.kind, letter.sign) for w in self.WORDS for letter in w}
        assert kinds == {(kind, sign) for kind in "stz" for sign in (1, -1)}
        shorter = sum(len(reps._reduce_far(w.letters, w.n))
                      < len(w.free_reduce()) for w in self.WORDS)
        assert shorter > len(self.WORDS) // 4

    @pytest.mark.parametrize("start_width", [64, 8])
    def test_matches_reference_walk(self, monkeypatch, start_width):
        monkeypatch.setattr(reps, "_START_WIDTH", start_width)
        for w in self.WORDS:
            assert rho_word(w) == reference_rho_word(w), str(w)

    def test_reduced_modulo_far_commutation(self):
        # no pair is left, the length is that of a full reduction in the
        # free partially commutative group, and nothing is longer than the
        # free reduction; reducing again changes nothing
        for w in self.WORDS:
            r = reps._reduce_far(w.letters, w.n)
            assert far_pair(r) is None, str(w)
            assert len(r) == len(reference_reduce_far(w.letters)), str(w)
            assert len(r) <= len(w.free_reduce()), str(w)
            assert reps._reduce_far(r, w.n) == r, str(w)

    def test_classical_word_is_its_reduction(self):
        for w in self.WORDS:
            if w.flavor.group == CLASSICAL:
                r = Word(w.flavor, reps._reduce_far(w.letters, w.n))
                assert is_trivial_braid(w * r.inverse()), str(w)

    def test_long_word_of_far_letters_in_one_pass(self):
        # 100,000 letters at indices 1, 3, 5, 7 (sigma at 1 and 5, tau at 3
        # and 7), then their inverses in another order: every letter meets
        # its inverse across far letters only, so the whole word cancels.
        # The letters are read once, from an iterator, and the pass takes
        # about as long as the free reduction, which leaves most of them
        # (a quadratic pass would take hours here)
        rng = random.Random(200_000)
        kinds = {1: SIGMA, 3: TAU, 5: SIGMA, 7: TAU}
        half = [Letter(kinds[i], i, 1) for i in rng.choices(list(kinds),
                                                             k=100_000)]
        back = [letter.inverse() for letter in half]
        rng.shuffle(back)
        w = Word(vcb(9), tuple(half + back))
        reads = []

        def letters():
            for letter in w.letters:
                reads.append(1)
                yield letter

        assert reps._reduce_far(letters(), 9) == ()
        assert len(reads) == len(w) == 200_000
        assert len(w.free_reduce()) > 100_000
        timings = {}
        for name, call in (("far", lambda: reps._reduce_far(w.letters, 9)),
                           ("free", w.free_reduce)):
            timings[name] = min(timeit.repeat(call, number=1, repeat=3))
        assert timings["far"] < 10 * timings["free"], timings
        assert rho_word(w).is_identity()


def letter_product(w: Word) -> PolyMatrix:
    """The generic product of w's rho_letter images."""
    product = PolyMatrix.identity(w.n)
    for letter in w:
        product = product * rho_letter(letter, w.n)
    return product


def factor_heavy_word(rng: random.Random, n: int, length: int) -> Word:
    """A vcb word on n >= 3 strands, mostly tau and zeta: a random prefix,
    then blocks t1 z^-1 and s1 z^-1 between random sigma_i, tau_i with
    i >= 2.  Each block moves the column at position 0 to position 1 and
    back, multiplying it by s or t on the way (s1 leaves the crossing's sum
    behind), and the letters between touch positions 1.. only, so the
    factors of the columns grow with the number of blocks."""
    letters = list(random_word(rng, vcb(n), length // 5).letters)
    while len(letters) < length:
        r = rng.random()
        if r < 0.4:
            letters += [tau(1, rng.choice((1, -1))), zeta(-1)]
        elif r < 0.65:
            letters += [sigma(1), zeta(-1)]
        else:
            letters.append(Letter(rng.choice((SIGMA, TAU)),
                                  rng.randint(2, n - 1), rng.choice((1, -1))))
    return Word(vcb(n), tuple(letters))


class TestColumnFactor:
    """rho_word keeps each column as entries times a monomial t^a s^b, which
    only crossings' copies, tau and zeta move, and applies it at decode."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("text", ["t1", "t1 t1", "t1 z", "s1 t1 s1^-1"])
    def test_monomial_columns_match_letter_product(self, text, n):
        w = parse_word(text, vcb(n))
        image = rho_word(w)
        assert image == letter_product(w) == reference_rho_word(w)
        # the shared entry is never changed
        assert ONE == LaurentPoly({(0, 0): 1})

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_factor_heavy_word_matches_reference(self, monkeypatch, seed):
        factors = []
        decode = reps._from_rows

        def spy(entry, width, t_exp=0, s_exp=0):
            factors.append((t_exp, s_exp))
            return decode(entry, width, t_exp, s_exp)

        monkeypatch.setattr(reps, "_from_rows", spy)
        rng = random.Random(seed)
        w = factor_heavy_word(rng, rng.randint(4, 5), 320)
        assert len(w) >= 300
        assert sum(l.kind in (TAU, ZETA) for l in w) > len(w) // 2
        assert rho_word(w) == reference_rho_word(w) == letter_product(w)
        assert max(abs(a) for a, _ in factors) >= 20
        assert max(abs(b) for _, b in factors) >= 20

    def test_repacked_columns_carry_factors(self, monkeypatch):
        # the 8-bit walk of TestRhoWordWalk repacks columns whose factor is
        # not 1; the spy reads the column's record from rho_walk's frame
        factors = []

        def spy(col, width, new_width):
            walk = sys._getframe(1).f_locals
            record = walk["records"][walk["j"]]
            assert record[0] is col
            factors.append(record[2:])
            return repack(col, width, new_width)

        repack = reps._repack
        monkeypatch.setattr(reps, "_START_WIDTH", 8)
        monkeypatch.setattr(reps, "_repack", spy)
        for w in TestRhoWordWalk.WORDS:
            assert rho_word(w) == reference_rho_word(w), str(w)
        assert any(a for a, _ in factors) and any(b for _, b in factors)


def wound_word(rng: random.Random, n: int, length: int, wind: bool = True
               ) -> Word:
    """A vcb word on n strands of blocks: zeta wound at d = 3, that is
    zeta (tau_1 .. tau_{n-1} zeta)^2, or its inverse; runs of one tau_i;
    single sigma_i^+-1.  Without wind there is no zeta and every index is
    below n - 1, so the last column is never touched."""
    top = n - 1 if wind else n - 2
    wound = [zeta()] + ([tau(i) for i in range(1, n)] + [zeta()]) * 2
    letters: list[Letter] = []
    while len(letters) < length:
        r = rng.random()
        if wind and r < 0.3:
            letters += (wound if rng.random() < 0.6 else
                        [letter.inverse() for letter in reversed(wound)])
        elif r < 0.6:
            letters += ([tau(rng.randint(1, top), rng.choice((1, -1)))]
                        * rng.randint(1, 3))
        else:
            letters.append(sigma(rng.randint(1, top), rng.choice((1, -1))))
    return Word(vcb(n), tuple(letters[:length]))


class TestColumnKeys:
    """Each walk column is one dict keyed by s n + row.  Wound zeta and runs
    of tau spread a column's powers of s past -n and n, where a key of one
    row and power would alias another's under a narrower encoding."""

    @staticmethod
    def words() -> list[Word]:
        rng = random.Random(3)
        return [wound_word(rng, n, 160) for n in (2, 3, 4, 5)
                for _ in range(3)]

    @staticmethod
    def s_powers(state) -> list[int]:
        records = state[1]
        return [key // len(records) for col, *_ in records for key in col]

    @pytest.mark.parametrize("start_width", [64, 8])
    def test_matches_reference_and_letter_product(self, monkeypatch,
                                                  start_width):
        monkeypatch.setattr(reps, "_START_WIDTH", start_width)
        spread = 0
        for w in self.words():
            powers = self.s_powers(reps.rho_walk(w.n, w))
            spread += min(powers) < -w.n and max(powers) > w.n
            assert rho_word(w) == reference_rho_word(w) == letter_product(w)
        assert spread > len(self.words()) // 2

    def test_untouched_diagonal_entry_is_the_shared_one(self):
        for seed in range(3):
            w = wound_word(random.Random(seed), 5, 300, wind=False)
            powers = self.s_powers(reps.rho_walk(5, w))
            assert min(powers) < -5 and max(powers) > 5
            image = rho_word(w)
            assert image == reference_rho_word(w)
            assert image[4, 4] is ONE


class TestPackedRows:
    """rho_word's packed slots on words of 1,000 letters, whose
    coefficients outgrow a machine word."""

    @pytest.mark.parametrize("flavor, seed", [(classical(5), 3),
                                              (cylindrical(6), 4)],
                             ids=["classical", "cylindrical"])
    def test_long_word_matches_reference_walk(self, flavor, seed):
        w = random_word(random.Random(seed), flavor, 1000)
        image = rho_word(w)
        assert image == reference_rho_word(w)
        assert max(abs(c).bit_length() for row in image.rows
                   for entry in row for _, _, c in entry.terms()) > 64

    def test_long_word_times_inverse_is_identity(self):
        # on the way back slices cancel to 0 and rows' low ends drift down
        w = random_word(random.Random(5), vcb(5), 1000)
        assert rho_word(w * w.inverse()) == PolyMatrix.identity(5)

    @pytest.mark.parametrize("width, native", [(8, True), (16, True),
                                               (64, True), (64, False)])
    def test_unpack_inverts_pack(self, monkeypatch, width, native):
        monkeypatch.setattr(laurent, "_LITTLE_ENDIAN",
                            laurent._LITTLE_ENDIAN and native)
        top = (1 << (width - 1)) - 1  # largest magnitude a slot holds
        rng = random.Random(width)
        for coeffs in ([1], [-1], [top], [-top], [0, 0, -1], [top, -top] * 3,
                       [-top] * 5 + [1], [rng.randint(-top, top)
                                          for _ in range(50)] + [-1]):
            assert laurent._unpack(laurent._pack(coeffs, width),
                                   width) == coeffs


def byte_half_masks(width: int, slots: int) -> tuple[int, int]:
    """The range test's masks built slot by slot from bytes: B, 2^(W/2) in
    each slot, and H, bits W/2+1 .. W-1 of each slot."""
    size, half = width >> 3, 1 << (width >> 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * slots, "little")
    high = int.from_bytes(((1 << width) - (half << 1)).to_bytes(
        size, "little") * slots, "little")
    return bias, high


class TestCachedBias:
    """The codec keeps one bias, 2^(W-1) in each slot, per width, sized to
    the most slots asked for so far; fewer slots are a right shift of it,
    and the range test's masks are shifted from it."""

    # slot counts below, at and past the cached bias, in turn
    SLOTS = (3, 1, 3, 7, 2, 7, 12, 5, 1)

    @pytest.mark.parametrize("width", range(8, 257, 8))
    def test_round_trip_as_the_cache_grows_and_shifts(self, monkeypatch,
                                                      width):
        monkeypatch.setattr(laurent, "_BIASES", {})
        top = (1 << (width - 1)) - 1
        most = 0
        for slots in self.SLOTS:
            for last in (top, -top):
                coeffs = [(top, 0, -top)[i % 3] for i in range(slots - 1)]
                coeffs.append(last)
                v = laurent._pack(coeffs, width)
                assert laurent._unpack(v, width) == coeffs
            most = max(most, slots)
            assert laurent._BIASES[width].bit_length() == most * width
            assert laurent._bias(width, slots) == int.from_bytes(
                (bytes((width >> 3) - 1) + b"\x80") * slots, "little")
        assert laurent._pack([0] * 4, width) == 0
        assert laurent._bias(width, 0) == 0

    @pytest.mark.parametrize("width", range(8, 257, 8))
    def test_masks_match_byte_built(self, monkeypatch, width):
        monkeypatch.setattr(laurent, "_BIASES", {})
        for slots in self.SLOTS:
            assert reps._half_masks(width, slots) == \
                byte_half_masks(width, slots)


def range_rows(width: int) -> list[list[int]]:
    """Coefficient rows for the range test at W-bit slots, h = 2^(W/2):
    single slots and a slot at each edge of [-h, h) at the bottom, in the
    middle (above zero slots) and on top, negative tops, and rows of 300+
    slots, in range throughout or with one slot just out of it."""
    h, top = 1 << (width >> 1), (1 << (width - 1)) - 1
    rng = random.Random(width)
    edges = [-h, h - 1, h, -h - 1]
    rows = [[c] for c in edges + [1, -1, h - 2, -h + 1, top, -top]]
    rows += [[c, 5, -(h >> 1)] for c in edges]
    rows += [[0, 0, c, 3] for c in edges]
    rows += [[h - 1, -h, 0, c] for c in edges + [-1, -top]]
    body = [rng.randint(-h, h - 1) for _ in range(320)]
    rows += [body + [-1], [0] * 40 + body]
    for c in edges:
        row = list(body)
        row[rng.randrange(len(row))] = c
        rows.append(row)
    return rows


def walk_matrix(state) -> PolyMatrix:
    """The matrix of a walk state (reps.RhoState), each entry summed from
    its unpacked slots as LaurentPoly monomials times its column's factor."""
    width, records = state
    n = len(records)
    columns = []
    for col, _, a, b in records:
        entries = [LaurentPoly() for _ in range(n)]
        for key, (lo, v) in col.items():
            s, i = divmod(key, n)
            entries[i] = entries[i] + LaurentPoly({
                (lo + a + j, s + b): c
                for j, c in enumerate(laurent._unpack(v, width))})
        columns.append(entries)
    return PolyMatrix(list(zip(*columns)))


class TestRangeTest:
    """The walk's re-bound: a packed slice passes the range test exactly
    when _unpack's slots all lie in [-2^(W/2), 2^(W/2)), and only slices
    that fail it are decoded."""

    @pytest.mark.parametrize("width", [8, 16, 64, 72, 128])
    def test_matches_unpacked_maxima(self, width):
        h = 1 << (width >> 1)
        outcomes = set()
        for coeffs in range_rows(width):
            v = laurent._pack(coeffs, width)
            slots = laurent._unpack(v, width)
            assert slots == coeffs
            fits = all(-h <= c < h for c in slots)
            assert reps._fits_half(v, width) is fits, coeffs
            outcomes.add(fits)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("width", [8, 16, 64, 72, 128])
    def test_column_masks_match_per_slice_masks(self, width):
        # _repack builds one pair of masks per column, sized to its longest
        # slice; on slices of mixed length and sign they answer as masks
        # sized to each slice do
        slices = [laurent._pack(coeffs, width) for coeffs in range_rows(width)]
        assert {v < 0 for v in slices} == {True, False}
        assert len({v.bit_length() // width for v in slices}) > 3
        longest = max(v.bit_length() for v in slices) // width + 1
        per_slice = [reps._fits_half(v, width) for v in slices]
        assert set(per_slice) == {True, False}
        for extra in (0, 1, 7):
            masks = reps._half_masks(width, longest + extra)
            assert [reps._fits_half(v, width, masks)
                    for v in slices] == per_slice

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([8, 16, 64]), st.data())
    def test_column_masks_property(self, width, data):
        h, top = 1 << (width >> 1), (1 << (width - 1)) - 1
        slot = st.one_of(st.sampled_from([0, 1, -1, h - 1, -h, h, -h - 1,
                                          top, -top]),
                         st.integers(-top, top))
        rows = data.draw(st.lists(st.lists(slot, min_size=1, max_size=12),
                                  min_size=1, max_size=6))
        slices = [laurent._pack(coeffs, width) for coeffs in rows]
        longest = max(v.bit_length() for v in slices) // width + 1
        masks = reps._half_masks(width, longest)
        for coeffs, v in zip(rows, slices):
            fits = all(-h <= c < h for c in coeffs)
            assert reps._fits_half(v, width, masks) is fits, coeffs
            assert reps._fits_half(v, width) is fits, coeffs

    @pytest.mark.parametrize("width", [8, 16, 64, 72, 128])
    def test_rebound_trims_and_bounds(self, width):
        # a passing slice is trimmed at its lowest set bit and bounded by
        # 2^(W/2); once any slice fails, the bound is the true maximum
        h = 1 << (width >> 1)
        rows = range_rows(width)
        for coeffs in rows:
            for zeros in (0, 3):
                full = [0] * zeros + coeffs
                col = {7: (-2, laurent._pack(full, width))}
                out, bound = reps._repack(col, width, width)
                z = next(i for i, c in enumerate(full) if c)
                ((key, (lo, v)),) = out.items()
                assert (key, lo) == (7, z - 2)
                assert laurent._unpack(v, width) == full[z:]
                fits = all(-h <= c < h for c in coeffs)
                assert bound == (h if fits else max(map(abs, coeffs)))
        fitting = laurent._pack(rows[0], width)
        for coeffs in rows:
            col = {0: (0, fitting), 3: (1, laurent._pack(coeffs, width))}
            _, bound = reps._repack(col, width, width)
            assert bound == max(h, *map(abs, coeffs))

    def test_rebound_decodes_only_slices_that_fail(self, monkeypatch):
        # the walk of a 400-letter Burau word on 8 strands, freely reduced,
        # re-bounds 30 columns at W = 64 and never widens; each re-bound
        # builds one pair of masks, sized to its column's longest slice,
        # and tests every slice with it; every slice decoded on the way has
        # a slot out of [-2^(W/2), 2^(W/2))
        rebounds, built, tested, decoded, widening = [], [], [], [], []
        repack, unpack = reps._repack, reps._unpack
        half_masks, fits = reps._half_masks, reps._fits_half

        def spy_repack(col, width, new_width):
            widening.append(new_width != width)
            rebounds.append((width, max(v.bit_length() for _, v in
                                        col.values()) // width + 1))
            try:
                return repack(col, width, new_width)
            finally:
                widening.pop()

        def spy_half_masks(width, slots):
            built.append((width, slots))
            return half_masks(width, slots)

        def spy_unpack(v, width):
            slots = unpack(v, width)
            if not any(widening):
                decoded.append((width, slots))
            return slots

        def spy_fits(v, width, masks):
            assert masks == half_masks(*built[-1])
            tested.append(fits(v, width, masks))
            return tested[-1]

        monkeypatch.setattr(reps, "_repack", spy_repack)
        monkeypatch.setattr(reps, "_half_masks", spy_half_masks)
        monkeypatch.setattr(reps, "_unpack", spy_unpack)
        monkeypatch.setattr(reps, "_fits_half", spy_fits)
        w = random_word(random.Random(8400), classical(8), 400)
        state = reps.rho_walk(8, w.free_reduce())
        assert walk_matrix(state) == reference_rho_word(w)
        assert len(rebounds) == 30 and {W for W, _ in rebounds} == {64}
        assert built == rebounds
        assert sum(tested) > len(decoded) > 0
        for width, slots in decoded:
            h = 1 << (width >> 1)
            assert not all(-h <= c < h for c in slots), slots

    def test_widens_only_on_decoded_maxima(self, monkeypatch):
        # from 8-bit slots the walk widens often, and only once the
        # crossing's two columns are re-bounded at the same width and their
        # bounds still reach 2^(W-1).  Each of those bounds is the column's
        # decoded maximum, or 2^(W/2) where the range test passed every
        # slice.  The spy reads the crossing's records from rho_walk's
        # frame at the first column a widening repacks
        widenings = []

        def spy_repack(col, width, new_width):
            walk = sys._getframe(1).f_locals
            if new_width != width and walk["j"] == 0:
                records, x, y = (walk[name] for name in ("records", "x", "y"))
                for j in (x, y):
                    column, bound = records[j][:2]
                    largest = max(abs(c) for _, v in column.values()
                                  for c in laurent._unpack(v, width))
                    assert bound in (largest, 1 << (width >> 1))
                    assert largest <= bound
                assert records[x][1] + 2 * records[y][1] >= 1 << (width - 1)
                widenings.append(width)
            return repack(col, width, new_width)

        repack = reps._repack
        monkeypatch.setattr(reps, "_START_WIDTH", 8)
        monkeypatch.setattr(reps, "_repack", spy_repack)
        for w in TestRhoWordWalk.WORDS:
            assert rho_word(w) == reference_rho_word(w), str(w)
        assert len(widenings) > 10


# The largest magnitude a 64-bit slot holds, and slots that reach it, are 0
# (runs of zero slots) or take any value in between.
TOP_64 = (1 << 63) - 1
SLOT_64 = st.one_of(st.sampled_from([0, 1, -1, TOP_64, -TOP_64]),
                    st.integers(-TOP_64, TOP_64))


def unsigned_unpack_64(v: int) -> list[int]:
    """The 64-bit decode as it read before the signed C-level pass: the
    biased slots as unsigned words, each less the bias."""
    half = 1 << 63
    if -half < v < half:
        return [v]
    slots = v.bit_length() // 64 + 1
    bias = int.from_bytes((bytes(7) + b"\x80") * slots, "little")
    raw = (v + bias).to_bytes(slots * 8, "little")
    return [u - half for u in memoryview(raw).cast("Q")]


@pytest.mark.skipif(not laurent._LITTLE_ENDIAN,
                    reason="the signed pass reads native little-endian words")
@given(st.lists(SLOT_64, max_size=40),
       st.one_of(st.sampled_from([1, -1, TOP_64, -TOP_64]),
                 st.integers(-TOP_64, TOP_64).filter(bool)))
@example([0] * 7, -TOP_64)
@example([TOP_64, 0, 0, -TOP_64, 0], -1)
@example([-TOP_64] * 3, TOP_64)
def test_signed_unpack_matches_unsigned_read(body, top):
    coeffs = body + [top]
    v = laurent._pack(coeffs, 64)
    assert laurent._unpack(v, 64) == unsigned_unpack_64(v) == coeffs


def evaluate_mod(poly: LaurentPoly, t0: int, s0: int, p: int) -> int:
    return sum(c * pow(t0, a, p) * pow(s0, b, p)
               for a, b, c in poly.terms()) % p


class TestScreen:
    def test_modular_state_is_the_exact_image_at_the_point(self):
        p, (t0, s0) = reps.SCREEN_PRIME, reps.SCREEN_POINT
        units = reps.screen_units()
        rng = random.Random(61)
        kinds = set()
        for _ in range(40):
            n = rng.randint(2, 6)
            w = random_word(rng, vcb(n), rng.randint(0, 40))
            kinds |= {(letter.kind, letter.sign) for letter in w}
            exact = rho_word(w)
            expected = [[evaluate_mod(exact[i, j], t0, s0, p)
                         for i in range(n)] for j in range(n)]
            identity = [[int(i == j) for i in range(n)] for j in range(n)]
            assert rho_columns_mod(identity, w.letters, units) == expected
            # carried state: a prefix's columns extended by the rest
            cut = rng.randint(0, len(w))
            prefix = rho_columns_mod(identity, w.letters[:cut], units)
            assert rho_columns_mod(prefix, w.letters[cut:], units) == expected
            assert identity == [[int(i == j) for i in range(n)]
                                for j in range(n)]
        assert kinds == {(kind, sign) for kind in "stz" for sign in (1, -1)}


class TestBurau:
    def test_rejects_non_classical(self):
        with pytest.raises(WordError):
            burau(parse_word("z", cylindrical(3)))

    def test_cancellation(self):
        assert burau(parse_word("s1 s1^-1", classical(5))).is_identity()

    def test_block_structure_at_n5(self):
        m = burau(parse_word("s1", classical(5)))
        assert m[0, 0] == ONE - T and m[0, 1] == T
        assert m[1, 0] == ONE and m[1, 1] == LaurentPoly()
        for i in range(2, 5):
            assert m[i, i] == ONE

    def test_entries_are_s_free(self):
        rng = random.Random(7)
        for _ in range(20):
            w = random_word(rng, classical(rng.randint(2, 5)),
                            rng.randint(0, 12))
            for row in burau(w).rows:
                for entry in row:
                    assert all(b == 0 for _, b, _ in entry.terms())

    def test_determinant_law(self):
        rng = random.Random(11)
        small = [random_word(rng, classical(rng.randint(2, 5)),
                             rng.randint(0, 10)) for _ in range(15)]
        # dense 8x8 determinants, out of reach of cofactor expansion
        dense = [random_word(rng, classical(8), rng.randint(55, 65))
                 for _ in range(4)]
        for w in small + dense:
            e = sum(l.sign for l in w)
            expected = LaurentPoly.monomial(-1 if e % 2 else 1, e, 0)
            assert burau(w).det() == expected

    def test_determinant_law_of_a_long_word(self):
        # 8x8 entries of a 400-letter word: hundreds of terms per entry
        w = random_word(random.Random(12), classical(8), 400)
        e = sum(l.sign for l in w)
        assert burau(w).det() == LaurentPoly.monomial((-1) ** e, e, 0)

    def test_generator_determinants_up_to_det_cap(self):
        minus_t = LaurentPoly.monomial(-1, 1, 0)
        for n in range(2, 9):
            for k in range(1, n):
                assert rho_letter(sigma(k), n).det() == minus_t
                assert rho_letter(tau(k), n).det() == -1

    def test_identity_image_implies_pure(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(200):
            w = random_word(rng, classical(3), rng.randint(0, 8))
            if burau(w).is_identity():
                checked += 1
                assert w.is_pure()
        assert checked > 0


def assert_artin_matches_reference(w, kwargs):
    """artin_apply walks w reduced modulo far commutation: it gives
    reference_artin's images of the walked word, or its exact overrun, with
    w's own length named when the walk is shorter.  Whenever the walk
    finishes, its images are also reference_artin's of w itself at an
    unbounded budget."""
    walked = Word(w.flavor, reps._reduce_far(w.letters, w.n))
    try:
        expected = reference_artin(walked, **kwargs)
    except ArtinBudgetError as err:
        with pytest.raises(ArtinBudgetError) as raised:
            artin_apply(w, **kwargs)
        message = str(err)
        if len(walked) < len(w):
            message += (f" (w's {len(w)} letters reduced modulo far "
                        f"commutation)")
        assert str(raised.value) == message, w
    else:
        images = artin_apply(w, **kwargs).image_strings()
        assert images == expected.image_strings(), w
        assert images == reference_artin(w, budget=math.inf).image_strings(), w


class TestArtin:
    def test_defining_images(self):
        aut = artin_apply(parse_word("s1", classical(2)))
        assert aut.image_strings() == ["x1x2X1", "x1"]

    def test_inverse_images(self):
        aut = artin_apply(parse_word("s1^-1", classical(2)))
        assert aut.image_strings() == ["x2", "X2x1x2"]

    def test_cancellation(self):
        assert artin_apply(parse_word("s1 s1^-1", classical(2))).is_identity()

    def test_far_commutator(self):
        w = parse_word("s1 s3 s1^-1 s3^-1", classical(5))
        assert artin_apply(w).is_identity()

    def test_braid_relation(self):
        a = artin_apply(parse_word("s1 s2 s1", classical(3)))
        b = artin_apply(parse_word("s2 s1 s2", classical(3)))
        assert a == b

    def test_is_homomorphism_into_aut(self):
        # image of a word = composition of letter images, checked on x_i
        w = parse_word("s1 s2^-1 s1", classical(3))
        aut = artin_apply(w)
        assert not aut.is_identity()
        assert artin_apply(w * w.inverse()).is_identity()

    def test_budget(self):
        with pytest.raises(ArtinBudgetError):
            artin_apply(parse_word("s1", classical(2)), budget=2)

    def test_overrun_names_length_and_letter(self):
        # after s1 s2, x1 -> x1x2X1 and x2 -> x1x3X1; the second s1 makes
        # x1 -> x1x2X1 . x1x3X1 . x1X2X1 = x1x2x3X2X1, 5 letters
        w = parse_word("s1 s2 s1 s2", classical(3))
        with pytest.raises(ArtinBudgetError) as raised:
            artin_apply(w, budget=4)
        assert str(raised.value) == (
            "image length 5 exceeded budget of 4 letters at letter 3 of 4")

    def test_overrun_counts_the_walked_letters(self):
        # s4 and s4^-1 cancel across s2, so the walk is s1 s2 s1 s2, which
        # overruns a budget of 4 at its third letter as above
        w = parse_word("s1 s4 s2 s4^-1 s1 s2", classical(5))
        assert reps._reduce_far(w.letters, w.n) == \
            parse_word("s1 s2 s1 s2", classical(5)).letters
        with pytest.raises(ArtinBudgetError) as raised:
            artin_apply(w, budget=4)
        assert str(raised.value) == (
            "image length 5 exceeded budget of 4 letters at letter 3 of 4 "
            "(w's 6 letters reduced modulo far commutation)")

    def test_word_the_whole_walk_overran_now_finishes(self):
        # u s4 s4 u^-1 s3 with u = (s1 s2^-1)^12: far reduction cancels u
        # against u^-1 across s4 s4, so the walk is s4 s4 s3.  Walking every
        # letter, as reference_artin does, grows an image past the default
        # budget inside u.
        u = parse_word("s1 s2^-1", classical(5)) ** 12
        w = u * parse_word("s4 s4", classical(5)) * u.inverse() * \
            parse_word("s3", classical(5))
        with pytest.raises(ArtinBudgetError) as raised:
            reference_artin(w)
        assert str(raised.value) == ("image length 92737 exceeded budget of "
                                     "65536 letters at letter 23 of 51")
        assert reps._reduce_far(w.letters, w.n) == \
            parse_word("s4 s4 s3", classical(5)).letters
        images = artin_apply(w).image_strings()
        assert images == reference_artin(w, budget=math.inf).image_strings()
        assert images == ["x1", "x2", "x3x4x5x4X5X4X3", "x3", "x4x5X4"]

    # Sizes keep every image inside the default budget: words_st's 10
    # letters at most triple an image each, and over 20,000 seeded draws
    # of the other two the whole-word walk peaked at 375 letters for the
    # cancelling words and 6,037 for the conjugate products.
    @settings(max_examples=80)
    @given(st.one_of(
        words_st(groups=(CLASSICAL,), max_len=10),
        st.builds(lambda seed, n, length: cancelling_word(
            random.Random(seed), classical(n), length),
            st.integers(0, 2 ** 32), st.integers(2, 7), st.integers(0, 24)),
        st.builds(lambda seed, n, count: conjugate_product(
            random.Random(seed), classical(n), count, 3),
            st.integers(0, 2 ** 32), st.integers(2, 7), st.integers(1, 3))))
    def test_word_and_its_far_reduction_act_alike(self, w):
        walked = Word(w.flavor, reps._reduce_far(w.letters, w.n))
        images = artin_apply(w).image_strings()
        assert images == artin_apply(walked).image_strings()
        assert images == reference_artin(w, budget=math.inf).image_strings()

    @given(st.integers(0, 255), st.binary(max_size=12), st.binary(max_size=12))
    @example(7, b"", b"")
    @example(7, b"\x01\x02", b"\x01\x02")
    @example(7, b"\x00" * 9, b"\x00" * 9 + b"\x01")
    def test_cancelled_is_the_common_prefix(self, first, u_tail, v_tail):
        u_inv, v = bytes((first,)) + u_tail, bytes((first,)) + v_tail
        common = 0
        while (common < min(len(u_inv), len(v))
               and u_inv[common] == v[common]):
            common += 1
        assert reps._cancelled(u_inv, v) == common

    @pytest.mark.parametrize("budget", [None, 1, 2, 5, 50])
    def test_matches_whole_word_reduction(self, budget):
        rng = random.Random(23)
        kwargs = {} if budget is None else {"budget": budget}
        for trial in range(300):
            flavor = classical(rng.randint(2, 7))
            if trial % 3:
                w = random_word(rng, flavor, rng.randint(0, 40))
            else:  # u s_i^e s_i^-e v blocks, v mostly u^-1: junctions
                w = Word(flavor)  # swallow whole factors
                while len(w) < 34:
                    u = random_word(rng, flavor, rng.randint(0, 3))
                    i = rng.randint(1, flavor.n - 1)
                    e = rng.choice((1, -1))
                    pair = Word(flavor, (sigma(i, e), sigma(i, -e)))
                    v = (u.inverse() if rng.random() < 0.7
                         else random_word(rng, flavor, 2))
                    w = w * u * pair * v
            assert_artin_matches_reference(w, kwargs)

    # The most strands a byte per letter holds.  Letters at the top indices
    # draw on the largest generators, x_127 and x_127^-1 taking the top
    # bytes 254 and 255; every other word is trivial, u r u^-1 blocks with
    # r a braid relator at two adjacent top indices, so whole images cancel
    # and far reduction, which knows no braid relation, leaves the blocks.
    @pytest.mark.parametrize("budget", [None, 1, 2, 5, 50])
    @pytest.mark.parametrize("n", [ARTIN_MAX_STRANDS])
    def test_wide_slots_match_whole_word_reduction(self, n, budget):
        rng = random.Random(n)
        kwargs = {} if budget is None else {"budget": budget}
        indices = [1, n - 4, n - 3, n - 2, n - 1]
        for trial in range(6):
            letters = []
            while len(letters) < 16:
                u = [sigma(rng.choice(indices), rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 4))]
                if trial % 2:
                    i = rng.choice(indices[1:-1])
                    relator = parse_word(f"s{i} s{i + 1}^-1 s{i}^-1 "
                                         f"s{i + 1}^-1 s{i} s{i + 1}",
                                         classical(n))
                    if rng.random() < 0.5:
                        relator = relator.inverse()
                    letters += u + list(relator) + [
                        letter.inverse() for letter in reversed(u)]
                else:
                    letters += u + [sigma(rng.choice(indices),
                                          rng.choice((1, -1)))]
            w = Word(classical(n), letters)
            assert len(reps._reduce_far(w.letters, n)) >= 12, str(w)
            assert_artin_matches_reference(w, kwargs)
            if trial % 2:
                assert artin_apply(w).is_identity()

    def test_top_generators_match_reference(self):
        # sigma_125 and sigma_126 move x_125 .. x_127, the highest
        # generators a byte holds.  u r u^-1, r a rotation of the braid
        # relator s125 s126 s125 s126^-1 s125^-1 s126^-1, is trivial, but
        # far reduction leaves all 22 letters; the images grow to 245
        # letters and cancel back to the generators, so every budget below
        # 245 overruns and 245 does not.
        u = parse_word("s125 s126^-1", classical(ARTIN_MAX_STRANDS)) ** 4
        relator = parse_word("s125 s126^-1 s125^-1 s126^-1 s125 s126",
                             classical(ARTIN_MAX_STRANDS))
        w = u * relator * u.inverse()
        assert reps._reduce_far(w.letters, w.n) == w.letters
        for budget in [None, *range(1, 246)]:
            kwargs = {} if budget is None else {"budget": budget}
            assert_artin_matches_reference(w, kwargs)
        with pytest.raises(ArtinBudgetError, match="^image length 245 "):
            artin_apply(w, budget=244)
        assert artin_apply(w, budget=245).is_identity()

    def test_strand_count_capped_before_layout(self):
        w = Word(classical(ARTIN_MAX_STRANDS + 1))
        tracemalloc.start()
        try:
            with pytest.raises(WordError,
                               match=f"cap of {ARTIN_MAX_STRANDS}$"):
                artin_apply(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # max_len 10: an image at most triples per letter, so 3^10 stays inside
    # the default budget and w w^-1 never overruns.
    @settings(max_examples=60)
    @given(words_st(groups=("classical",), max_len=10))
    def test_images_reduced_and_inverse_cancels(self, w):
        for img in artin_apply(w).images:
            assert all(b != (a[0], -a[1]) for a, b in zip(img, img[1:]))
        assert artin_apply(w * w.inverse()).is_identity()

    def test_rejects_non_classical(self):
        with pytest.raises(WordError):
            artin_apply(parse_word("z", cylindrical(3)))

    def test_identity_aut(self):
        assert FreeAut.identity(3).is_identity()
        assert artin_apply(Word(classical(4))).is_identity()


class TestHandleReduction:
    def test_trivial_pair(self):
        assert is_trivial_braid(parse_word("s1 s1^-1", classical(3)))

    def test_single_crossing(self):
        assert not is_trivial_braid(parse_word("s1", classical(3)))

    def test_far_commutator(self):
        w = parse_word("s1 s3 s1^-1 s3^-1", classical(4))
        assert is_trivial_braid(w)

    def test_braid_relation_word(self):
        left = parse_word("s1 s2 s1", classical(3))
        right = parse_word("s2 s1 s2", classical(3))
        assert is_trivial_braid(left * right.inverse())

    def test_reduced_word_has_no_handles(self):
        w = parse_word("s1 s2 s1^-1", classical(3))
        reduced = handle_reduce(w)
        assert len(reduced) == 3  # conjugate of a crossing, already terminal

    def test_rejects_non_classical(self):
        with pytest.raises(WordError):
            handle_reduce(parse_word("z", cylindrical(3)))

    def test_step_cap(self):
        w = parse_word("s1 s2 s1^-1 s2^-1", classical(3))
        with pytest.raises(ReductionCapError):
            handle_reduce(w, max_steps=0)
        # handle-free words never hit the cap
        assert handle_reduce(parse_word("s1 s2", classical(3)),
                             max_steps=0) == parse_word("s1 s2", classical(3))

    def test_high_indices(self):
        # the scan state holds only the indices that occur, so a word on
        # 10^12 strands costs what its three letters cost
        n = 10 ** 12
        w = parse_word(f"s{n - 2} s{n - 1} s{n - 2}^-1", classical(n))
        assert handle_reduce(w) == parse_word(
            f"s{n - 1}^-1 s{n - 2} s{n - 1}", classical(n))

    @settings(max_examples=30)
    @given(words_st(groups=("classical",), max_n=4, max_len=8))
    def test_word_times_inverse_is_trivial(self, w):
        assert is_trivial_braid(w * w.inverse())

    @settings(max_examples=60)
    @given(words_st(groups=("classical",), max_n=5, max_len=12), st.data())
    def test_starts_from_the_free_reduction(self, w, data):
        # pairs sigma_i^e sigma_i^-e inserted anywhere are gone before the
        # first handle is sought, so the word and its free reduction reduce
        # alike, to the reference's terminal word
        letters = list(w.letters)
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(1, w.n - 1))
            e = data.draw(st.sampled_from((1, -1)))
            at = data.draw(st.integers(0, len(letters)))
            letters[at:at] = sigma(i, e), sigma(i, -e)
        u = Word(w.flavor, tuple(letters))
        assert len(u.free_reduce()) < len(u)
        reduced = handle_reduce(u)
        assert reduced == handle_reduce(u.free_reduce())
        assert reduced.letters == reference_handle_reduce(u)[0]

    def test_cap_error_names_cap_and_lengths(self):
        # step 1 reduces the handle s1 s2^-1 s1^-1 to s2^-1 s1^-1 s2, and
        # the word cancels down to s1 s2^-1 s1^-1, itself a handle
        w = parse_word("s1 s1 s2^-1 s1^-1 s2^-1", classical(3))
        with pytest.raises(ReductionCapError) as err:
            handle_reduce(w, max_steps=1)
        assert str(err.value) == (
            "no terminal word within the step cap of 1: the word has 3 "
            "letters at the cap, 5 at its longest")

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="at least 0"):
            handle_reduce(parse_word("s1", classical(3)), max_steps=-1)

    def test_arguments_checked_before_exponent_sum(self):
        # both words have a nonzero exponent sum
        with pytest.raises(WordError):
            is_trivial_braid(parse_word("s1 z", cylindrical(3)))
        with pytest.raises(ValueError, match="at least 0"):
            is_trivial_braid(parse_word("s1", classical(3)), max_steps=-1)

    def test_nonzero_sum_decided_without_reduction(self):
        # exponent sum 2, and s1 s2 s1^-1 is a handle
        w = parse_word("s1 s2 s1^-1 s2^-1 s1^2", classical(3))
        assert is_trivial_braid(w, max_steps=0) is False
        with pytest.raises(ReductionCapError):
            handle_reduce(w, max_steps=0)

    @settings(max_examples=80)
    @given(words_st(groups=("classical",), max_n=5, max_len=12), st.data())
    def test_agrees_with_handle_reduction(self, w, data):
        # w has a nonzero exponent sum whenever its length is odd; w times
        # the inverse of a shuffle of its letters always has sum 0
        shuffled = Word(w.flavor, tuple(data.draw(st.permutations(w.letters))))
        for u in w, w * shuffled.inverse():
            assert is_trivial_braid(u) == (len(handle_reduce(u)) == 0)


def assert_matches_reference(w: Word) -> int:
    """handle_reduce gives the reference's terminal word, and overruns the
    step cap exactly when the cap is below the reference's step count."""
    letters, steps = reference_handle_reduce(w)
    assert handle_reduce(w, max_steps=steps).letters == letters
    if steps:
        with pytest.raises(ReductionCapError):
            handle_reduce(w, max_steps=steps - 1)
    return steps


class TestHandleReductionReference:
    def test_seeded_corpus_and_conjugates(self):
        # w w^-1 is freely trivial, so it checks the initial reduction;
        # the conjugate w sigma_i w^-1 needs handle steps all along w
        rng = random.Random(13)
        total = 0
        for _ in range(300):
            flavor = classical(rng.randint(2, 12))
            w = random_word(rng, flavor, rng.randint(0, 70))
            total += assert_matches_reference(w)
            assert assert_matches_reference(w * w.inverse()) == 0
            middle = Word(flavor, (random_letter(rng, flavor),))
            total += assert_matches_reference(w * middle * w.inverse())
        assert total > 1000

    @settings(max_examples=80)
    @given(words_st(groups=("classical",), max_n=12, max_len=40))
    def test_classical_words(self, w):
        assert_matches_reference(w)

    @pytest.mark.parametrize("seed", range(6))
    def test_relation_rewritten_trivial_words(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            w = relation_rewritten_trivial(rng, rng.randint(3, 8),
                                           rng.randint(5, 20),
                                           rng.randint(5, 40))
            assert assert_matches_reference(w) > 0
            assert len(handle_reduce(w)) == 0

    def test_lifted_witness(self):
        w = lift_witness(bigelow_alpha())
        assert len(w) == 118
        assert assert_matches_reference(w) == 455
        assert len(handle_reduce(w)) == 154


class TestOracleAgreement:
    def test_exhaustive_short_words(self):
        flavor = classical(3)
        alphabet = [sigma(1), sigma(1, -1), sigma(2), sigma(2, -1)]
        for length in range(0, 5):
            for combo in product(alphabet, repeat=length):
                w = Word(flavor, combo)
                identity = artin_apply(w).is_identity()
                assert is_trivial_braid(w) == identity
                assert (len(handle_reduce(w)) == 0) == identity

    def test_random_longer_words(self):
        rng = random.Random(17)
        for _ in range(300):
            w = random_word(rng, classical(3), rng.randint(7, 10))
            identity = artin_apply(w).is_identity()
            assert is_trivial_braid(w) == identity
            assert (len(handle_reduce(w)) == 0) == identity

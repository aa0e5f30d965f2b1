import json
import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from helpers import random_word, reference_det
from mnmap import kernel, laurent, maps
from mnmap.laurent import (
    DET_DIMENSION_CAP,
    DET_SLICE_BITS_CAP,
    MAX_DIMENSION,
    LaurentPoly,
    ONE,
    PolyMatrix,
    S,
    S_INV,
    T,
    T_INV,
    ZERO,
)
from mnmap.reps import rho_word
from mnmap.words import sigma, vcb


def polys_st(max_exp=3, max_coeff=9, max_terms=4):
    term = st.tuples(st.integers(-max_exp, max_exp),
                     st.integers(-max_exp, max_exp))
    return st.dictionaries(term, st.integers(-max_coeff, max_coeff),
                           max_size=max_terms).map(LaurentPoly)


def leibniz_det(matrix: PolyMatrix) -> LaurentPoly:
    """Independent determinant: the full signed permutation sum."""
    total = ZERO
    for perm in permutations(range(matrix.n)):
        inversions = sum(1 for i in range(matrix.n) for j in range(i + 1, matrix.n)
                         if perm[i] > perm[j])
        prod = ONE
        for i, j in enumerate(perm):
            prod = prod * matrix[i, j]
        total = total + (prod if inversions % 2 == 0 else -prod)
    return total


def naive_product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Independent matrix product: the plain triple loop over every term."""
    n = a.n
    return PolyMatrix([[sum((a[i, k] * b[k, j] for k in range(n)), ZERO)
                        for j in range(n)] for i in range(n)])


def assert_no_zero_coefficients(matrix: PolyMatrix) -> None:
    assert all(c for row in matrix.rows for e in row
               for c in e._terms.values())


class TestPoly:
    def test_product(self):
        assert (ONE - T) * T == T - T * T

    def test_inverse_pair(self):
        assert T_INV * T == ONE
        assert S * S_INV == 1

    def test_additive_cancellation(self):
        assert T + (-T) == ZERO
        assert not (T - T)
        assert (T - T).terms() == ()

    def test_canonical_no_zero_coefficients(self):
        p = LaurentPoly({(0, 0): 3, (1, 0): 0})
        assert p.terms() == ((0, 0, 3),)

    def test_int_coercion(self):
        assert ONE + 1 == LaurentPoly.monomial(2)
        assert 2 * T == T + T
        assert 1 - T == ONE - T

    @given(polys_st(), polys_st(), polys_st())
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == ZERO

    @given(polys_st(), polys_st())
    def test_shift_and_sub(self, p, q):
        assert p - q == p + (-q)
        assert p - p == ZERO

    @given(polys_st(), polys_st())
    def test_no_zero_coefficients_after_ops(self, p, q):
        for result in (p + q, p - q, p * q, -p):
            assert all(c != 0 for _, _, c in result.terms())

    def test_specialize(self):
        p = ONE - T  # 0 at t=1, 2 at t=-1
        assert p.specialize(1, 1) == 0
        assert p.specialize(-1, 1) == 2
        assert S_INV.specialize(1, -1) == -1

    def test_specialize_rejects_non_units(self):
        with pytest.raises(ValueError):
            T.specialize(2, 1)
        with pytest.raises(ValueError):
            T.specialize(1, 0)

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(ONE - T) == "1-t"
        assert str(S_INV) == "s^-1"
        assert str(2 * T * S - 3) == "-3+2*t*s"
        assert str(-T_INV + 1) == "-t^-1+1"

    def test_json_round_trip(self):
        p = 2 * T * T * S_INV - 3 * ONE + T_INV
        obj = p.to_json_obj()
        assert obj == [[-1, 0, "1"], [0, 0, "-3"], [2, -1, "2"]]
        assert LaurentPoly.from_json_obj(obj) == p
        assert LaurentPoly.from_json_obj(json.loads(json.dumps(obj))) == p


class TestMatrix:
    def test_identity_multiplication(self):
        a = PolyMatrix([[ONE - T, T], [1, 0]])
        assert PolyMatrix.identity(2) * a == a
        assert a * PolyMatrix.identity(2) == a

    def test_explicit_inverse_blocks(self):
        crossing = PolyMatrix([[ONE - T, T], [1, 0]])
        inverse = PolyMatrix([[0, 1], [T_INV, ONE - T_INV]])
        assert crossing * inverse == PolyMatrix.identity(2)
        virtual = PolyMatrix([[0, S], [S_INV, 0]])
        assert virtual * virtual == PolyMatrix.identity(2)

    def test_is_identity(self):
        assert PolyMatrix.identity(5).is_identity()
        assert PolyMatrix([[1, 0], [0, 1]]).is_identity()
        assert not PolyMatrix([[ONE - T, T], [1, 0]]).is_identity()
        assert not PolyMatrix([[1, 0], [0, 2]]).is_identity()
        assert not PolyMatrix([[T, 0], [0, 1]]).is_identity()
        assert not PolyMatrix([[1, 1], [0, 1]]).is_identity()
        assert not PolyMatrix([[1, 0, 0], [0, 1, 0], [0, 1, 1]]).is_identity()

    def test_eq(self):
        a = PolyMatrix([[ONE, ZERO], [ZERO, ONE]])
        assert a == PolyMatrix.identity(2)
        assert a != PolyMatrix.identity(3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PolyMatrix([[ONE, ZERO]])
        with pytest.raises(ValueError):
            PolyMatrix([])

    def test_identity_dimension_bounded(self):
        with pytest.raises(ValueError, match=f"cap of {MAX_DIMENSION}"):
            PolyMatrix.identity(MAX_DIMENSION + 1)
        assert PolyMatrix.identity(MAX_DIMENSION).n == MAX_DIMENSION

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix.identity(2) * PolyMatrix.identity(3)

    @given(st.integers(1, 6), st.data())
    def test_mul_matches_naive_triple_loop(self, n, data):
        entry = st.one_of(st.just(ZERO), st.just(ONE),
                          polys_st(max_exp=2, max_coeff=4, max_terms=3))
        a, b = (PolyMatrix([[data.draw(entry) for _ in range(n)]
                            for _ in range(n)]) for _ in range(2))
        product = a * b
        assert product == naive_product(a, b)
        assert product.n == n
        assert all(isinstance(e, LaurentPoly)
                   for row in product.rows for e in row)
        assert_no_zero_coefficients(product)

    @given(st.integers(2, 6), st.data())
    def test_mul_drops_cancelled_terms(self, n, data):
        # rows i, i+1 of a hold only the crossing block and columns i, i+1
        # of b only its inverse, so that block of a * b is the identity and
        # its entry (i, i+1) is (1 - t) + t (1 - t^-1): every term cancels
        i = data.draw(st.integers(0, n - 2))
        block = (i, i + 1)
        entry = st.one_of(st.just(ZERO),
                          polys_st(max_exp=2, max_coeff=4, max_terms=3))
        crossing = [[ONE - T, T], [ONE, ZERO]]
        inverse = [[ZERO, ONE], [T_INV, ONE - T_INV]]
        a = PolyMatrix([[crossing[r - i][c - i] if r in block and c in block
                         else ZERO if r in block else data.draw(entry)
                         for c in range(n)] for r in range(n)])
        b = PolyMatrix([[inverse[r - i][c - i] if r in block and c in block
                         else ZERO if c in block else data.draw(entry)
                         for c in range(n)] for r in range(n)])
        product = a * b
        assert product == naive_product(a, b)
        assert_no_zero_coefficients(product)
        assert not product[i, i + 1]
        assert product[i, i + 1]._terms == {}
        assert not product[i + 1, i]
        assert product[i, i] == ONE and product[i + 1, i + 1] == ONE

    @pytest.mark.parametrize("seed", range(12))
    def test_mul_of_search_prefixes_matches_naive(self, seed):
        # the search's re-verification products at n = 4, d = 2: a prefix
        # product of letter image matrices times one more, with entries in
        # both t and s
        n, k, d = 4, 3, 2
        letters = [letter for i in range(1, n + 1)
                   if maps.pk_supports(i, k, n)
                   for letter in (sigma(i), sigma(i, -1))]
        matrices = [kernel._image_matrix(kernel._letter_image(l, k, n, d), n)
                    for l in letters]
        assert any(s_exp for m in matrices for row in m.rows
                   for e in row for _, s_exp in e._terms)
        rng = random.Random(seed)
        prefix = rng.choice(matrices)
        for _ in range(rng.randint(1, 6)):
            right = rng.choice(matrices)
            product = prefix * right
            assert product == naive_product(prefix, right)
            assert_no_zero_coefficients(product)
            prefix = product

    def test_det_identity(self):
        assert PolyMatrix.identity(4).det() == ONE

    def test_det_cap(self):
        with pytest.raises(ValueError):
            PolyMatrix.identity(DET_DIMENSION_CAP + 1).det()
        assert PolyMatrix.identity(DET_DIMENSION_CAP).det() == ONE

    @given(st.integers(1, 5), st.data())
    def test_det_matches_leibniz(self, n, data):
        entry = polys_st(max_exp=5, max_coeff=2 ** 70, max_terms=2)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        matrix = PolyMatrix(rows)
        assert matrix.det() == leibniz_det(matrix)
        i = data.draw(st.integers(0, n - 1))
        zero_row = rows[:i] + [[ZERO] * n] + rows[i + 1:]
        assert PolyMatrix(zero_row).det() == ZERO
        if n > 1:
            j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
            equal_rows = rows[:j] + [rows[i]] + rows[j + 1:]
            assert PolyMatrix(equal_rows).det() == ZERO

    def test_det_packed_size_capped_before_packing(self):
        # a dense t-row from 1 to t^(10^12) would be terabytes of slots
        matrix = PolyMatrix([[ONE + LaurentPoly.monomial(1, 10 ** 12), ONE],
                             [ONE, ONE]])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=f"cap of {DET_SLICE_BITS_CAP}"):
                matrix.det()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_det_packed_size_is_span_times_width(self, monkeypatch):
        # B = 2 gives 8-bit slots; t-span 7 gives 8 slots: 64 bits
        matrix = PolyMatrix([[ONE + LaurentPoly.monomial(1, 7)]])
        monkeypatch.setattr(laurent, "DET_SLICE_BITS_CAP", 64)
        assert matrix.det() == matrix[0, 0]
        monkeypatch.setattr(laurent, "DET_SLICE_BITS_CAP", 63)
        with pytest.raises(ValueError, match="64 bits"):
            matrix.det()

    def test_specialize(self):
        m = PolyMatrix([[ONE - T, T], [1, 0]])
        assert m.specialize(1, 1) == ((0, 1), (1, 0))
        zeta3 = PolyMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert zeta3.specialize(1, 1) == ((0, 1, 0), (0, 0, 1), (1, 0, 0))

    def test_json_round_trip(self):
        m = PolyMatrix([[ONE - T, T], [S_INV, 0]])
        obj = m.to_json_obj()
        assert obj["n"] == 2
        assert obj["entries"][0][0] == [[0, 0, "1"], [1, 0, "-1"]]
        assert obj["entries"][1][1] == []
        assert PolyMatrix.from_json_obj(obj) == m
        assert PolyMatrix.from_json_obj(json.loads(json.dumps(obj))) == m

    def test_json_dimension_check(self):
        obj = PolyMatrix.identity(2).to_json_obj()
        obj["n"] = 3
        with pytest.raises(ValueError):
            PolyMatrix.from_json_obj(obj)

    def test_str(self):
        m = PolyMatrix([[ONE - T, T], [1, 0]])
        assert str(m) == "[1-t, t]\n[1, 0]"


def random_poly(rng: random.Random, bits: int, terms: int = 3,
                max_exp: int = 3) -> LaurentPoly:
    """Up to `terms` terms with both exponents in -max_exp..max_exp and
    coefficients of `bits` bits, either sign."""
    return LaurentPoly({
        (rng.randint(-max_exp, max_exp), rng.randint(-max_exp, max_exp)):
            rng.choice((1, -1)) * rng.randint(1 << (bits - 1), (1 << bits) - 1)
        for _ in range(rng.randint(0, terms))})


def random_matrix(rng: random.Random, n: int, bits: int) -> list[list]:
    return [[random_poly(rng, bits) if rng.random() < 0.8 else ZERO
             for _ in range(n)] for _ in range(n)]


def two_term_matrix(rng: random.Random, n: int, bits: int) -> list[list]:
    """Entries +-2^bits t^a s^c (1 +- t), each two slots of one s-slice."""
    def entry() -> LaurentPoly:
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        return LaurentPoly({(a, c): rng.choice((1, -1)) << bits,
                            (a + 1, c): rng.choice((1, -1)) << bits})

    return [[entry() for _ in range(n)] for _ in range(n)]


class TestDetReference:
    """PolyMatrix.det on packed rows against the same recurrence on
    LaurentPoly arithmetic (helpers.reference_det)."""

    @pytest.fixture
    def widths(self, monkeypatch):
        """The slot widths of the determinants decoded with more than one
        slot in some power of s."""
        seen = set()

        def spy(entry, width):
            if any(v.bit_length() >= width for _, v in entry.values()):
                seen.add(width)
            return from_rows(entry, width)

        from_rows = laurent._from_rows
        monkeypatch.setattr(laurent, "_from_rows", spy)
        return seen

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference(self, n, widths):
        rng = random.Random(1000 + n)
        # entries +-2^b t^a s^c (1 +- t): the rows' l1 norms n 2^(b+1) give
        # B = n^n 2^(n(b+1)), with b the largest that keeps W at 64 bits
        b = max(b for b in range(62)
                if (n ** n << n * (b + 1)).bit_length() + 2 <= 64)
        for bits in (b, 130):
            matrix = PolyMatrix(two_term_matrix(rng, n, bits))
            assert matrix.det() == reference_det(matrix)
        assert 64 in widths and any(w > 64 for w in widths)
        # 61-65 and 130-bit coefficients: wider slots, cut byte by byte
        for bits in (61, 62, 63, 64, 65, 130):
            for _ in range(3):
                matrix = PolyMatrix(random_matrix(rng, n, bits))
                assert matrix.det() == reference_det(matrix)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_singular_matrices(self, n):
        rng = random.Random(2000 + n)
        for bits in (8, 64, 130):
            rows = random_matrix(rng, n, bits)
            i = rng.randrange(n)
            zero_row = PolyMatrix(rows[:i] + [[ZERO] * n] + rows[i + 1:])
            assert zero_row.det() == ZERO == reference_det(zero_row)
            if n < 3:
                continue
            a, b, c = rng.sample(range(n), 3)
            p, q = random_poly(rng, 8), random_poly(rng, 8)
            rows[c] = [p * x + q * y for x, y in zip(rows[a], rows[b])]
            combined = PolyMatrix(rows)
            assert combined.det() == ZERO == reference_det(combined)

    def test_slot_width_boundaries(self):
        # coefficient bit lengths at and around multiples of 8, where W's
        # spare bits decide whether a slot holds its coefficient
        for k in (61, 62, 63, 64, 65, 127, 128):
            top = (1 << k) - 1
            for rows in ([[top * T - top + top * T * T]],
                         [[top * T, -top], [top * S, top * T_INV]],
                         [[top, top * T], [-top * T, top * S]]):
                matrix = PolyMatrix(rows)
                assert matrix.det() == reference_det(matrix) == \
                    leibniz_det(matrix)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_rho_word_images(self, n):
        # words with tau and zeta: both variables, negative exponents
        rng = random.Random(3000 + n)
        for _ in range(3):
            w = random_word(rng, vcb(n), 40)
            matrix = rho_word(w)
            assert matrix.det() == reference_det(matrix), str(w)

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from helpers import known_kernel_word, random_pure_word, random_word
from mnmap import maps, words
from mnmap.kernel import bigelow_alpha, lift_witness, search_kernel
from mnmap.laurent import MAX_DIMENSION, ONE, PolyMatrix, T_INV
from mnmap.maps import (
    PurityError,
    UnsupportedLetterError,
    cancellation_defect,
    mn_map,
    pk_letter_image,
    pk_supports,
    project_pk,
    stabilize_fd,
)
from mnmap.reps import is_trivial_braid, rho_word
from mnmap.words import (
    MAX_WORD_LETTERS,
    Word,
    WordError,
    classical,
    cylindrical,
    parse_word,
    sigma,
    vcb,
    zeta,
)


class TestProject:
    def test_regular_letters_at_k6(self):
        # sigma_i -> sigma_{5-i} inside pure words on 6 strands
        w = parse_word("s4 s4", classical(6))
        assert project_pk(w, 6) == parse_word("s1 s1", cylindrical(5))
        w = parse_word("s3 s3^-1", classical(6))
        assert project_pk(w, 6) == parse_word("s2 s2^-1", cylindrical(5))

    def test_distinguished_letters_at_k6(self):
        # sigma_5 -> zeta^-1 and sigma_5^-1 -> delta_c, read off a pure pair
        w = parse_word("s5 s5^-1", classical(6))
        assert project_pk(w, 6) == parse_word("z^-1 s1 s2 s3 s4",
                                              cylindrical(5))

    def test_sigma_k_inverse_goes_to_zeta(self):
        w = parse_word("s1^-2", classical(3))
        assert project_pk(w, 1) == parse_word("z^2", cylindrical(2))

    def test_sigma_k_goes_to_delta_inverse(self):
        w = parse_word("s1^2", classical(3))
        assert project_pk(w, 1) == parse_word("s1^-2", cylindrical(2))

    def test_purity_required(self):
        with pytest.raises(PurityError):
            project_pk(parse_word("s4", classical(6)), 6)

    def test_unsupported_index(self):
        w = parse_word("s2 s2", classical(3))  # i=2 > k=1: target index < 1
        with pytest.raises(UnsupportedLetterError) as exc:
            project_pk(w, 1)
        assert exc.value.position == 0

    def test_unsupported_before_purity(self):
        # s2 alone is neither pure nor supported at k = 1
        with pytest.raises(UnsupportedLetterError):
            project_pk(parse_word("s2", classical(3)), 1)

    def test_unsupported_letter_found_before_building(self, monkeypatch):
        def built(*args):
            raise AssertionError("project_pk built an image before checking "
                                 "support")

        monkeypatch.setattr(maps, "pk_letter_image", built)
        w = parse_word("s1 s1 s2 s2", classical(3))  # s2 unsupported at k=1
        with pytest.raises(UnsupportedLetterError) as exc:
            project_pk(w, 1)
        assert exc.value.position == 2 and exc.value.letter == sigma(2)
        assert "position 2" in str(exc.value)

    def test_first_position_of_a_repeated_unsupported_letter(self):
        # support is checked once per distinct letter; the error still names
        # the first position of the first unsupported letter in the word
        w = parse_word("s1 s1 s3^-1 s2 s2 s3^-1 s3 s3 s2", classical(4))
        with pytest.raises(UnsupportedLetterError) as exc:
            project_pk(w, 1)
        assert exc.value.position == 2 and exc.value.letter == sigma(3, -1)
        assert "position 2" in str(exc.value)
        w = parse_word("s1 s1 s2 s3^-1 s3 s2", classical(4))
        with pytest.raises(UnsupportedLetterError) as exc:
            project_pk(w, 1)
        assert exc.value.position == 2 and exc.value.letter == sigma(2)

    def test_images_built_once_per_distinct_letter(self, monkeypatch):
        built = []
        image = maps.pk_letter_image

        def spy(index, sign, k, n):
            built.append((index, sign))
            return image(index, sign, k, n)

        monkeypatch.setattr(maps, "pk_letter_image", spy)
        w = parse_word("s3^-1 s3 s1^-1 s1 s3^-1 s3 s1^-1 s1", classical(4))
        assert project_pk(w, 4) == parse_word(
            "s1 s2 z^-1 s2^-1 s2 s1 s2 z^-1 s2^-1 s2", cylindrical(3))
        assert sorted(built) == [(1, -1), (1, 1), (3, -1), (3, 1)]

    def test_size_cap_checked_before_building(self, monkeypatch):
        # at n = 3, k = 4: sigma_3^-1 -> delta_c (2 letters), sigma_3 ->
        # zeta^-1, sigma_1^{+-1} -> sigma_2^{+-1}: 5 letters in all
        w = parse_word("s3^-1 s3 s1^-1 s1", classical(4))
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 5)
        assert project_pk(w, 4) == parse_word("s1 s2 z^-1 s2^-1 s2",
                                              cylindrical(3))

        def built(*args):
            raise AssertionError("project_pk built an image before the "
                                 "size check")

        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 4)
        monkeypatch.setattr(maps, "pk_letter_image", built)
        with pytest.raises(WordError, match=r"5 letters, over the cap of 4 "
                           r"\(MAX_WORD_LETTERS\)$"):
            project_pk(w, 4)

    def test_size_cap_checked_before_purity(self, monkeypatch):
        def checked(self):
            raise AssertionError("project_pk checked purity before the size "
                                 "check")

        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 4)
        monkeypatch.setattr(Word, "is_pure", checked)
        monkeypatch.setattr(Word, "permutation", checked)
        w = parse_word("s3^-1 s3 s1^-1 s1", classical(4))
        with pytest.raises(WordError, match=r"5 letters, over the cap of 4 "
                           r"\(MAX_WORD_LETTERS\)$"):
            project_pk(w, 4)

    def test_purity_check_does_not_scale_with_strands(self):
        # 2-letter words on 2,000,001 strands: only the strands a letter
        # moves are tracked, so no 2,000,000-entry list is built
        n = 2_000_000
        tracemalloc.start()
        try:
            image = project_pk(Word(classical(n + 1), (sigma(1),) * 2), 3)
            with pytest.raises(PurityError):
                project_pk(Word(classical(n + 1), (sigma(1), sigma(2))), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert image == Word(cylindrical(n), (sigma(1),) * 2)
        assert peak < 100_000

    def test_supports_matches_case_table(self):
        for n in range(1, 6):
            for k in range(1, n + 2):
                for i in range(1, n + 1):
                    try:
                        pk_letter_image(i, 1, k, n)
                        imaged = True
                    except UnsupportedLetterError:
                        imaged = False
                    assert pk_supports(i, k, n) == imaged

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            project_pk(parse_word("s1 s1", classical(3)), 4)

    def test_rejects_non_classical(self):
        with pytest.raises(WordError):
            project_pk(parse_word("z", cylindrical(3)), 1)

    def test_relabeling_at_top_strand(self):
        # for words over sigma_1..sigma_{n-1}, k = n+1 is a pure relabeling
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(2, 6)
            u = random_word(rng, classical(n), rng.randint(0, 6))
            w = Word(classical(n + 1), (u * u.inverse()).letters)
            image = project_pk(w, n + 1)
            assert image.flavor == cylindrical(n)
            assert image.letters == tuple(
                sigma(n - l.index, l.sign) for l in w)

    def test_monoid_homomorphism(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(2, 5)
            k = rng.randint(1, n + 1)
            a = random_pure_word(rng, classical(n + 1), rng.randint(0, 3))
            b = random_pure_word(rng, classical(n + 1), rng.randint(0, 3))
            try:
                image_a, image_b = project_pk(a, k), project_pk(b, k)
            except UnsupportedLetterError:
                continue
            assert project_pk(a * b, k) == image_a * image_b


class TestStabilize:
    def test_d1_fixes_zeta(self, monkeypatch):
        def built(n):
            raise AssertionError("the virtual period was built at d = 1")

        monkeypatch.setattr(maps, "_delta_v_letters", built)
        w = parse_word("z z^-1 s1", cylindrical(3))
        assert stabilize_fd(w, 1) == parse_word("z z^-1 s1", vcb(3))

    def test_d2_weaves_virtual_crossings(self):
        w = parse_word("z", cylindrical(3))
        assert stabilize_fd(w, 2) == parse_word("z t1 t2 z", vcb(3))

    def test_sigma_fixed(self):
        w = parse_word("s2^-1", cylindrical(4))
        for d in (1, 2, 5):
            assert stabilize_fd(w, d) == parse_word("s2^-1", vcb(4))

    def test_zeta_inverse_is_formal_inverse(self):
        w = parse_word("z^-1", cylindrical(3))
        assert stabilize_fd(w, 2) == parse_word("z^-1 t2^-1 t1^-1 z^-1",
                                                vcb(3))
        image = stabilize_fd(parse_word("z z^-1", cylindrical(4)), 3)
        assert image.free_reduce().letters == ()

    def test_d_must_be_positive(self):
        with pytest.raises(ValueError):
            stabilize_fd(parse_word("z", cylindrical(3)), 0)

    def test_rejects_wrong_flavor(self):
        with pytest.raises(WordError):
            stabilize_fd(parse_word("s1", classical(3)), 1)

    def test_size_cap_checked_before_building(self):
        n = 3
        d = MAX_WORD_LETTERS // n + 2  # one zeta image: (d-1)n+1 > cap
        with pytest.raises(WordError, match=rf"over the cap of "
                           rf"{MAX_WORD_LETTERS} \(MAX_WORD_LETTERS\)$"):
            stabilize_fd(parse_word("s1 z", cylindrical(n)), d)
        w = parse_word("s1 s2^-1", cylindrical(n))
        assert stabilize_fd(w, d) == Word(vcb(n), w.letters)

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 4))
    def test_monoid_homomorphism(self, n, d, seed):
        rng = random.Random(seed)
        a = random_word(rng, cylindrical(n), rng.randint(0, 6))
        b = random_word(rng, cylindrical(n), rng.randint(0, 6))
        assert stabilize_fd(a * b, d) == stabilize_fd(a, d) * stabilize_fd(b, d)

    def test_sigma_only_triviality_preserved(self):
        w = parse_word("s1 s2 s2^-1 s1^-1", cylindrical(3))
        assert stabilize_fd(w, 3).free_reduce().letters == ()


class TestMnMap:
    def test_empty_word(self):
        for k, d in ((1, 1), (3, 2)):
            assert mn_map(Word(classical(3)), k, d) == PolyMatrix.identity(2)

    def test_theorem2_seed_case(self):
        w = parse_word("s1^-2", classical(3))
        assert mn_map(w, 1, 1).is_identity()

    def test_image_times_inverse_image_away_from_distinguished(self):
        # letters with i not in {k-1, k} map to exact formal inverses
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 5)
            k = n + 1
            u = random_word(rng, classical(n), rng.randint(1, 5))
            w = Word(classical(n + 1), (u * u.inverse()).letters)
            assert (mn_map(w, k, 1) * mn_map(w.inverse(), k, 1)).is_identity()

    def test_dimension_bounded_before_projecting(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("projected before the dimension check")

        monkeypatch.setattr(maps, "project_pk", built)
        w = parse_word("s2^2", classical(MAX_DIMENSION + 2))
        with pytest.raises(ValueError, match=f"cap of {MAX_DIMENSION}"):
            mn_map(w, 1, 1)

    def test_projection_commutes_with_free_reduce_on_regular_letters(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.randint(2, 5)
            u = random_word(rng, classical(n), rng.randint(1, 5))
            w = Word(classical(n + 1), (u * u.inverse()).letters)
            assert (project_pk(w.free_reduce(), n + 1)
                    == project_pk(w, n + 1).free_reduce())


class TestShortKernel:
    """The kernel the case table and zeta's finite order give at every k:
    rho(f_d(zeta)) has order exactly n, sigma_{k-1} maps to zeta^-1 and
    sigma_k^-1 to zeta, so sigma_{k-1}^{2n} and sigma_k^{-2n} map to the
    identity although their nonzero exponent sums make them nontrivial
    braids.  Neither fact is checked against the paper's definition of
    p_k."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zeta_image_has_order_exactly_n(self, n, d):
        image = rho_word(stabilize_fd(parse_word("z", cylindrical(n)), d))
        power = PolyMatrix.identity(n)
        for _ in range(n - 1):
            power = power * image
            assert not power.is_identity()
        assert (power * image).is_identity()

    def test_distinguished_powers_are_nontrivial_kernel_elements(self):
        cases = []
        for n in range(2, 6):
            for k in range(1, n + 2):
                for index, exponent in ((k - 1, 2 * n), (k, -2 * n)):
                    if 1 <= index <= n:
                        w = parse_word(f"s{index}^{exponent}",
                                       classical(n + 1))
                        cases += [(w, k, d) for d in (1, 2, 3)]
        assert len(cases) == 84
        assert [(str(w), k, d) for w, k, d in cases
                if not mn_map(w, k, d).is_identity()
                or is_trivial_braid(w)] == []


class TestKnownKernelWords:
    """Long words whose composite image is the identity by construction,
    u h u^-1 with h in the kernel, checked for exactly I; the twin with one
    letter of u^-1 flipped must not be I.  About 4,000 letters at d = 1 and
    1,000 at d = 2 and 3."""

    @staticmethod
    def kernel_elements(d):
        """(n, k, h) for the three sources of h."""
        hits = search_kernel(4, 4, d, 6)
        return [(7, 8, parse_word("s7^14", classical(8))),
                (4, 4, hits[-1].word),
                (5, 6, lift_witness(bigelow_alpha()))]

    @pytest.mark.parametrize("d, length", [(1, 2000), (2, 500), (3, 500)])
    def test_image_is_identity_and_twin_is_not(self, d, length):
        rng = random.Random(700 + d)
        for n, k, h in self.kernel_elements(d):
            assert mn_map(h, k, d).is_identity()
            w, twin = known_kernel_word(n, k, h, length, rng)
            assert len(w) == len(twin) == 2 * length + len(h)
            assert mn_map(w, k, d).is_identity(), (n, k, d)
            assert not mn_map(twin, k, d).is_identity(), (n, k, d)


class TestCancellationDefect:
    def test_identity_away_from_distinguished(self):
        for n in (2, 3, 4, 5):
            for k in range(1, n + 2):
                for i in range(1, n + 1):
                    if i in (k - 1, k) or not 1 <= k - i - 1 <= n - 1:
                        continue
                    for d in (1, 2):
                        assert cancellation_defect(i, k, n, d).is_identity()

    def test_defect_at_distinguished_strand(self):
        # rho(delta_c^-1 zeta) at n=2: [[1, 0], [1-t^-1, t^-1]]
        defect = cancellation_defect(1, 1, 2, 1)
        assert defect == PolyMatrix([[1, 0], [ONE - T_INV, T_INV]])
        assert not defect.is_identity()

    def test_defect_below_distinguished_strand(self):
        defect = cancellation_defect(5, 6, 5, 1)
        assert not defect.is_identity()
        # zeta^-1 delta_c evaluated directly
        expected = rho_word(
            stabilize_fd(parse_word("z^-1 s1 s2 s3 s4", cylindrical(5)), 1))
        assert defect == expected

    def test_index_validation(self):
        with pytest.raises(ValueError):
            cancellation_defect(0, 1, 2, 1)
        with pytest.raises(UnsupportedLetterError):
            cancellation_defect(2, 1, 2, 1)

    def test_dimension_bounded(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("built before the dimension check")

        monkeypatch.setattr(maps, "pk_letter_image", built)
        with pytest.raises(ValueError, match=f"cap of {MAX_DIMENSION}"):
            cancellation_defect(1, 1, MAX_DIMENSION + 1, 1)

    def test_k_validation(self):
        for k in (0, 5, 50):
            with pytest.raises(ValueError, match=r"k must be in 1\.\.4"):
                cancellation_defect(1, k, 3, 1)

    def test_pk_letter_image_cases(self):
        assert pk_letter_image(5, 1, 6, 5) == (zeta(-1),)
        assert pk_letter_image(6, -1, 6, 5) == (zeta(),)
        assert pk_letter_image(6, 1, 6, 5) == tuple(
            sigma(i, -1) for i in (4, 3, 2, 1))
        assert pk_letter_image(2, -1, 6, 5) == (sigma(3, -1),)

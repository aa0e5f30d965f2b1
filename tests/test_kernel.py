import functools
import hashlib
import itertools
import json
import operator
import random
import tracemalloc

import pytest

from helpers import random_pure_word, reference_artin, reference_search
from mnmap import kernel, maps, reps
from mnmap.kernel import (
    SearchResult,
    bigelow_alpha,
    lift_witness,
    search_kernel,
    verify_theorem1,
    verify_theorem2,
)
from mnmap.laurent import MAX_DIMENSION, PolyMatrix
from mnmap.maps import mn_map, project_pk
from mnmap.reps import (
    ArtinBudgetError,
    artin_apply,
    burau,
    is_trivial_braid,
    rho_letter,
    rho_word,
)
from mnmap.words import (
    CLASSICAL,
    Word,
    WordError,
    classical,
    cylindrical,
    parse_word,
    sigma,
)


class TestWitness:
    def test_in_burau_kernel(self):
        assert burau(bigelow_alpha()).is_identity()

    def test_nontrivial(self):
        assert not is_trivial_braid(bigelow_alpha())

    def test_pure(self):
        assert bigelow_alpha().is_pure()

    def test_reduced_five_strand_word(self):
        alpha = bigelow_alpha()
        assert alpha.flavor == classical(5)
        assert alpha.free_reduce() == alpha
        assert {l.index for l in alpha} <= {1, 2, 3, 4}

    def test_artin_cross_check_needs_budget_fallback(self):
        # the witness's free-group images outgrow the default budget, which
        # is why handle reduction is the certifying oracle here; the overrun
        # stops at whole-word free reduction's letter and length
        for w, message in [
            (bigelow_alpha(), "image length 67449 exceeded budget of 65536 "
                              "letters at letter 53 of 118"),
            (lift_witness(bigelow_alpha()), "image length 93193 exceeded "
             "budget of 65536 letters at letter 61 of 118"),
        ]:
            with pytest.raises(ArtinBudgetError) as expected:
                reference_artin(w)
            with pytest.raises(ArtinBudgetError) as raised:
                artin_apply(w)
            assert str(raised.value) == str(expected.value) == message


class TestLift:
    def test_relabels(self):
        w = parse_word("s4 s3", classical(5))
        assert lift_witness(w) == parse_word("s1 s2", classical(6))

    def test_round_trip(self):
        alpha = bigelow_alpha()
        lifted = lift_witness(alpha)
        assert project_pk(lifted, 6) == Word(cylindrical(5), alpha.letters)

    def test_empty(self):
        assert lift_witness(Word(classical(5))) == Word(classical(6))

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(WordError):
            lift_witness(parse_word("s5", classical(6)))


class TestTheorem1:
    def test_passes(self):
        report = verify_theorem1(1)
        assert report.passed
        assert report.image_is_identity
        assert report.witness_nontrivial
        assert report.image.n == 5
        assert report.params == {"k": 6, "d": 1}

    def test_image_independent_of_d(self):
        first = verify_theorem1(1)
        second = verify_theorem1(2)
        assert second.passed
        assert second.image == first.image

    def test_d_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_theorem1(0)

    def test_huge_d_builds_no_zeta_image(self):
        # the lifted witness projects to a word without cyclic shifts
        assert verify_theorem1(10 ** 9).passed

    def test_json_shape(self):
        obj = verify_theorem1(1).to_json_obj()
        assert set(obj) == {"witness", "params", "image_is_identity",
                            "witness_nontrivial", "passed"}
        json.dumps(obj)  # serializable


class TestTheorem2:
    def test_m1_k1(self):
        report = verify_theorem2(1, 1)
        assert report.passed
        assert report.witness == parse_word("s1^-2", classical(3))
        assert report.image.n == 2

    def test_m2_k3(self):
        assert verify_theorem2(2, 3).passed

    def test_intermediate_projection(self):
        for m in (1, 2, 3):
            for k in range(1, 2 * m + 1):
                witness = Word(classical(2 * m + 1), (sigma(k, -1),) * (2 * m))
                assert project_pk(witness, k) == parse_word(
                    f"z^{2 * m}", cylindrical(2 * m))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            verify_theorem2(1, 0)
        with pytest.raises(ValueError):
            verify_theorem2(1, 3)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_theorem2(0, 1)

    def test_dimension_bounded_before_the_witness_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the witness was built before the "
                                 "dimension check")

        monkeypatch.setattr(kernel, "sigma", built)
        monkeypatch.setattr(kernel, "mn_map", built)
        m = MAX_DIMENSION // 2 + 1
        with pytest.raises(ValueError, match=f"cap of {MAX_DIMENSION}"):
            verify_theorem2(m, 1)


@pytest.fixture
def exact_evaluations(monkeypatch):
    """The matrices reps.rho_word returns to the search, one per candidate
    it decides exactly."""
    evaluated = []
    evaluate = reps.rho_word

    def counting(w):
        evaluated.append(evaluate(w))
        return evaluated[-1]

    monkeypatch.setattr(reps, "rho_word", counting)
    return evaluated


@pytest.fixture
def decisions(monkeypatch):
    """The search's decisions at kernel._is_hit, one per candidate: the
    free reduction of its concatenated stabilized images and the verdict."""
    decided = []
    is_hit = kernel._is_hit

    def recording(image, n):
        verdict = is_hit(image, n)
        decided.append((image, verdict))
        return verdict

    monkeypatch.setattr(kernel, "_is_hit", recording)
    return decided


def reduced_image(word, k, n, d):
    """The free reduction of a classical word's concatenated stabilized
    letter images, by a stack that builds each letter's inverse."""
    stack = []
    for letter in word:
        for l in kernel._letter_image(letter, k, n, d):
            if stack and stack[-1] == l.inverse():
                stack.pop()
            else:
                stack.append(l)
    return tuple(stack)


class TestSearch:
    def test_finds_theorem2_witness(self):
        results = search_kernel(n=2, k=1, d=1, max_len=2)
        assert parse_word("s1^-2", classical(3)) in [r.word for r in results]

    def test_no_pure_words_of_length_one(self):
        assert search_kernel(n=2, k=1, d=1, max_len=1) == []

    def test_results_verified_and_reduced(self):
        for result in search_kernel(n=2, k=1, d=1, max_len=4):
            assert isinstance(result, SearchResult)
            assert result.verified
            assert not result.freely_trivial
            assert result.word.free_reduce() == result.word

    def test_deterministic_and_parallel_agree(self):
        sequential = search_kernel(n=2, k=1, d=1, max_len=4)
        again = search_kernel(n=2, k=1, d=1, max_len=4)
        threaded = search_kernel(n=2, k=1, d=1, max_len=4, workers=4)
        assert sequential == again == threaded

    def test_ordering(self):
        words = [r.word for r in search_kernel(n=2, k=1, d=1, max_len=4)]
        assert words == sorted(words, key=lambda w: len(w))

    def test_length_cap(self):
        with pytest.raises(ValueError):
            search_kernel(n=2, k=1, d=1, max_len=13)

    def test_alphabet_cap(self):
        with pytest.raises(ValueError):
            search_kernel(n=7, k=8, d=1, max_len=2)

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_max_len_must_be_positive(self, max_len):
        with pytest.raises(ValueError, match="max_len must be in 1..12"):
            search_kernel(n=2, k=1, d=1, max_len=max_len)

    def test_n_bounded_before_anything_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the search built something before the n "
                                 "check")

        monkeypatch.setattr(maps, "pk_supports", built)
        monkeypatch.setattr(kernel, "sigma", built)
        monkeypatch.setattr(kernel, "cylindrical", built)
        for n in (kernel.SEARCH_MAX_N + 1, 100_000, 10 ** 100):
            with pytest.raises(ValueError, match="n must be in 1..32"):
                search_kernel(n=n, k=1, d=1, max_len=2)

    def test_largest_n_runs(self):
        results = search_kernel(n=kernel.SEARCH_MAX_N, k=1, d=1, max_len=4)
        assert all(r.verified for r in results)

    @pytest.mark.parametrize("n,k,d", [(3, 0, 1), (3, 5, 1), (3, 50, 1),
                                       (2, 1, 0), (2, 1, -1), (0, 1, 1)])
    def test_parameters_validated_before_enumerating(self, n, k, d):
        with pytest.raises(ValueError):
            search_kernel(n=n, k=k, d=d, max_len=1)

    # at n = 1 one letter's stabilized image is empty
    @pytest.mark.parametrize("n,max_len", [(2, 5), (3, 5), (4, 4), (2, 7),
                                           (1, 6)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force_reference(self, n, max_len, d):
        for k in range(1, n + 2):
            results = search_kernel(n, k, d, max_len)
            found = [r.word for r in results]
            assert found == reference_search(n, k, d, max_len), (n, k, d)
            assert all(r.verified for r in results), (n, k, d)

    def test_exact_decision_where_the_screen_passes_pure_words(
            self, monkeypatch, exact_evaluations):
        # at t = s = 1 a word's image evaluates to the permutation matrix
        # of its stabilized image, so many pure non-hits pass the screen
        # and only the exact decision on the rho walk tells them apart
        monkeypatch.setattr(reps, "SCREEN_POINT", (1, 1))
        hits = 0
        for n, max_len in [(2, 5), (3, 5), (4, 4)]:
            for k in range(1, n + 2):
                found = [r.word for r in search_kernel(n, k, 1, max_len)]
                assert found == reference_search(n, k, 1, max_len), (n, k)
                hits += len(found)
        assert len(exact_evaluations) > 2 * hits

    def test_screen_lets_no_non_hit_through(self, decisions,
                                            exact_evaluations):
        # each candidate is decided once: by an empty reduced image, or by
        # a reps.rho_word matrix
        results = search_kernel(n=3, k=2, d=1, max_len=6)
        empty = sum(not image for image, _ in decisions)
        assert empty + len(exact_evaluations) == len(decisions) \
            == len(results) == 50
        assert (empty, len(exact_evaluations)) == (48, 2)
        assert all(verdict for _, verdict in decisions)
        assert all(image.is_identity() for image in exact_evaluations)

    def test_walks_only_the_reduced_images_of_candidates(self, monkeypatch):
        # in candidate order (rank sequences sorted), each walk is at
        # dimension n and gets the candidate's reduced image
        n, k, d = 3, 2, 1
        walked = []
        walk = reps.rho_walk

        def spy(dimension, letters):
            walked.append((dimension, tuple(letters)))
            return walk(dimension, walked[-1][1])

        monkeypatch.setattr(reps, "rho_walk", spy)
        results = search_kernel(n, k, d, 10)
        alphabet = [l for i in range(1, n + 1) if maps.pk_supports(i, k, n)
                    for l in (sigma(i), sigma(i, -1))]
        ordered = sorted((r.word for r in results),
                         key=lambda w: [alphabet.index(l) for l in w])
        expected = [image for image in (reduced_image(w, k, n, d)
                                        for w in ordered) if image]
        assert [letters for _, letters in walked] == expected
        assert all(dimension == n for dimension, _ in walked)
        assert (len(walked), sum(len(letters) for _, letters in walked)) \
            == (92, 584)

    # (count, hits_digest) of the ordered hit list: the first three
    # recorded from the depth-first walk that the meet in the middle
    # replaced; (3,3,1,8), the pinned cell with the most walked hits, from
    # the search that walked every candidate's images unreduced
    @pytest.mark.parametrize("n,k,d,max_len,pin", [
        (3, 2, 1, 10, (1612, "b031b339144e167a")),
        (4, 3, 2, 8, (480, "2beefec29b7d564d")),
        (4, 3, 2, 10, (4770, "2158eda5a3d8894e")),
        (3, 3, 1, 8, (497, "19d1c6690f6dbad7"))])
    def test_longer_searches_keep_their_hits_and_order(self, n, k, d,
                                                       max_len, pin):
        results = search_kernel(n, k, d, max_len)
        text = "\n".join(f"{r.word}|{r.verified}|{r.freely_trivial}"
                         for r in results)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (len(results), digest) == pin
        assert all(r.verified for r in results)

    def test_classical_words_built_only_for_hits(self, monkeypatch):
        built = []
        original, trusted = Word.__init__, Word._trusted

        def counting(self, flavor, letters=()):
            if flavor.group == CLASSICAL:
                built.append(self)
            original(self, flavor, letters)

        def counting_trusted(flavor, letters):
            w = trusted(flavor, letters)
            if flavor.group == CLASSICAL:
                built.append(w)
            return w

        monkeypatch.setattr(Word, "__init__", counting)
        monkeypatch.setattr(Word, "_trusted", counting_trusted)
        results = search_kernel(n=3, k=2, d=1, max_len=6)
        assert len(results) == 50
        assert built == [r.word for r in results]


def half_tree_size(n, k, max_len):
    """Nodes of the search's two half trees: twice the freely reduced words
    of length 1..max_len // 2 over the supported letters."""
    supported = [i for i in range(1, n + 1)
                 if i in (k - 1, k) or 1 <= k - i - 1 <= n - 1]
    alphabet = [l for i in supported for l in (sigma(i), sigma(i, -1))]
    size = 0
    for length in range(1, max_len // 2 + 1):
        for letters in itertools.product(alphabet, repeat=length):
            if not any(letters[j + 1] == letters[j].inverse()
                       for j in range(length - 1)):
                size += 1
    return 2 * size


def search_halves(n, k, d, max_len, inverse):
    """The search's alphabet images and the (ranks, key) nodes of its
    prefix tree, or of its suffix tree if inverse."""
    alphabet = [l for i in range(1, n + 1) if maps.pk_supports(i, k, n)
                for l in (sigma(i), sigma(i, -1))]
    images = [kernel._letter_image(l, k, n, d) for l in alphabet]
    steps = [kernel._inverse_image(i) for i in images] if inverse else images
    nodes = list(kernel._halves(steps, [l.index - 1 for l in alphabet],
                                max_len // 2, n, reps.screen_units()))
    return alphabet, images, nodes


HALF_CELLS = [(3, 2, 1, 8), (4, 3, 2, 6), (4, 5, 1, 5), (2, 1, 3, 4),
              (4, 4, 3, 6)]


class TestPruning:
    @pytest.mark.parametrize("n,k,d,max_len,screened", [
        (3, 2, 1, 6, 104), (4, 3, 2, 5, 72), (2, 2, 1, 7, 104)])
    def test_one_screen_step_per_half_tree_node(self, monkeypatch, n, k, d,
                                                max_len, screened):
        calls = []
        original = reps.rho_columns_mod

        def counting(cols, letters, units):
            calls.append(letters)
            return original(cols, letters, units)

        monkeypatch.setattr(reps, "rho_columns_mod", counting)
        search_kernel(n, k, d, max_len)
        assert len(calls) == half_tree_size(n, k, max_len) == screened


class TestHalves:
    @pytest.mark.parametrize("n,k,d,max_len", HALF_CELLS)
    def test_prefix_key_is_its_image_and_permutation(self, n, k, d,
                                                     max_len):
        alphabet, images, nodes = search_halves(n, k, d, max_len, False)
        identity = [[int(i == j) for i in range(n)] for j in range(n)]
        for u, (length, state, perm) in random.Random(n * k).sample(
                nodes, min(len(nodes), 40)):
            word = Word(classical(n + 1), tuple(alphabet[r] for r in u))
            assert length == len(u)
            assert perm == word.permutation().images
            assert state == tuple(map(tuple, reps.rho_columns_mod(
                identity, itertools.chain.from_iterable(images[r] for r in u),
                reps.screen_units())))

    @pytest.mark.parametrize("n,k,d,max_len", HALF_CELLS)
    def test_suffix_state_times_its_image_is_the_identity(self, n, k, d,
                                                          max_len):
        # a suffix node's ranks are v's letters in the order prepended
        alphabet, images, nodes = search_halves(n, k, d, max_len, True)
        identity = [[int(i == j) for i in range(n)] for j in range(n)]
        for back, (length, state, perm) in random.Random(n + k).sample(
                nodes, min(len(nodes), 40)):
            v = back[::-1]
            word = Word(classical(n + 1), tuple(alphabet[r] for r in v))
            assert length == len(v)
            assert reps.rho_columns_mod(
                [list(col) for col in state],
                itertools.chain.from_iterable(images[r] for r in v),
                reps.screen_units()) == identity
            assert perm == word.inverse().permutation().images

    def test_half_cap_raises_before_anything_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the search built something before the "
                                 "half-table check")

        monkeypatch.setattr(kernel, "_letter_image", built)
        monkeypatch.setattr(reps, "rho_columns_mod", built)
        tracemalloc.start()
        try:
            # 12 symbols: 2,125,872 halves of length up to 6, 6x6 states
            with pytest.raises(ValueError, match=(
                    "2125872 halves of length up to 6 with 6x6 states hold "
                    "76531392 residues, over the cap of 1048576")):
                search_kernel(n=6, k=7, d=1, max_len=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_half_cap_counts_halves_times_residues(self, monkeypatch):
        # (3,2,1,6): 4 + 12 + 36 halves, 3x3 residues each
        monkeypatch.setattr(kernel, "SEARCH_MAX_HALF_RESIDUES", 52 * 9)
        assert len(search_kernel(3, 2, 1, 6)) == 50
        monkeypatch.setattr(kernel, "SEARCH_MAX_HALF_RESIDUES", 52 * 9 - 1)
        with pytest.raises(ValueError, match="468 residues"):
            search_kernel(3, 2, 1, 6)

    def test_length_twelve_at_four_strands_passes_the_cap(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(kernel, "_halves", reached)
        with pytest.raises(Reached):
            search_kernel(n=4, k=3, d=2, max_len=12)


def reverified(w, k, d):
    """The search's second evaluation of w = uv with |u| = |v|: the
    generic product of u's letter image matrices against that of v's
    inverse image matrices in reverse order, each matrix built the way
    search_kernel builds them for its alphabet."""
    n = w.n - 1
    images = [kernel._letter_image(letter, k, n, d) for letter in w]
    h = len(images) // 2
    forward = functools.reduce(operator.mul, (
        kernel._image_matrix(image, n) for image in images[:h]),
        PolyMatrix.identity(n))
    backward = functools.reduce(operator.mul, (
        kernel._image_matrix(kernel._inverse_image(image), n)
        for image in reversed(images[h:])), PolyMatrix.identity(n))
    return kernel._halves_agree(forward, backward)


class TestReverification:
    def test_independent_product_agrees_with_mn_map(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 4)
            k = rng.randint(1, n + 1)
            d = rng.randint(1, 3)
            w = random_pure_word(rng, classical(n + 1), rng.randint(1, 3))
            try:
                expected = mn_map(w, k, d).is_identity()
            except ValueError:  # a letter outside the case table
                continue
            assert reverified(w, k, d) == expected

    def test_rejects_a_pure_word_outside_the_kernel(self):
        w = parse_word("s1^2", classical(3))
        assert not reverified(w, 1, 1)
        assert reverified(parse_word("s1^-2", classical(3)), 1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_image_matrix_times_inverse_image_matrix_is_the_identity(self, n):
        # the second evaluation compares M(u) with M(v^-1) built from the
        # inverse images, which is M(uv) = I exactly when this holds; at the
        # distinguished letters the image of sigma^-1 is not the inverse
        # image of sigma's, so every image is checked on its own
        for k in range(1, n + 2):
            for d in (1, 2, 3):
                for i in range(1, n + 1):
                    if not maps.pk_supports(i, k, n):
                        continue
                    for letter in (sigma(i), sigma(i, -1)):
                        image = kernel._letter_image(letter, k, n, d)
                        product = kernel._image_matrix(image, n) * \
                            kernel._image_matrix(
                                kernel._inverse_image(image), n)
                        assert product.is_identity(), (n, k, d, letter)

    @pytest.mark.parametrize("n,k,d,max_len", [(3, 2, 1, 6), (3, 2, 1, 1),
                                               (4, 3, 2, 4), (2, 1, 3, 5)])
    def test_one_rho_letter_call_per_stabilized_image_letter(
            self, monkeypatch, n, k, d, max_len):
        # each alphabet image is multiplied out once, and its inverse image
        # (the same letters reversed, signs flipped) once
        alphabet = [l for i in range(1, n + 1) if maps.pk_supports(i, k, n)
                    for l in (sigma(i), sigma(i, -1))]
        expected = 2 * sum(len(maps.stabilize_fd(Word(cylindrical(n),
                           maps.pk_letter_image(l.index, l.sign, k, n)), d))
                           for l in alphabet)
        calls = []

        def counting(letter, dim):
            calls.append(letter)
            return rho_letter(letter, dim)

        monkeypatch.setattr(reps, "rho_letter", counting)
        results = search_kernel(n, k, d, max_len)
        assert len(calls) == expected
        assert all(r.verified for r in results)

    @pytest.mark.parametrize("n,k,d,max_len", [(3, 2, 1, 6), (4, 3, 2, 5),
                                               (2, 2, 1, 7)])
    def test_each_hit_prefix_multiplied_once(self, monkeypatch, n, k, d,
                                             max_len):
        # setup: one product per letter after the first of each alphabet
        # image and of its inverse image.  Then each hit w = uv compares
        # M(u) with M(v^-1): one product per distinct prefix of two or more
        # letters of the hits' u, and, among the hits with the same first
        # letter, one per distinct suffix of two or more letters of their
        # v, since a one-letter half's product is that letter's matrix
        alphabet = [l for i in range(1, n + 1) if maps.pk_supports(i, k, n)
                    for l in (sigma(i), sigma(i, -1))]
        setup = 2 * sum(max(len(kernel._letter_image(l, k, n, d)) - 1, 0)
                        for l in alphabet)
        calls = []
        multiply = PolyMatrix.__mul__

        def counting(left, right):
            calls.append(None)
            return multiply(left, right)

        monkeypatch.setattr(PolyMatrix, "__mul__", counting)
        results = search_kernel(n, k, d, max_len)
        prefixes, suffixes = set(), set()
        for r in results:
            h = len(r.word) // 2
            v = r.word.letters[h:]
            prefixes.update(r.word.letters[:i] for i in range(2, h + 1))
            suffixes.update((r.word.letters[0], v[i:])
                            for i in range(len(v) - 1))
        assert all(r.verified for r in results)
        assert len(prefixes) + len(suffixes) < sum(len(r.word) - 2
                                                   for r in results)
        assert len(calls) == setup + len(prefixes) + len(suffixes)

    def test_a_corrupted_letter_matrix_fails_the_hits_that_use_it(
            self, monkeypatch):
        # sigma_1^-1 at dimension 3 gets sigma_1's block; the rho walk and
        # the screen never call rho_letter, so the hits stay the same.  A
        # hit w = uv fails re-verification exactly when, with every
        # sigma_1^-1 read as sigma_1, the stabilized image of u and the
        # inverse of that of v have different images under the rho walk
        def corrupted(letter, dim):
            if letter == sigma(1, -1):
                letter = sigma(1)
            return rho_letter(letter, dim)

        def misread(letters):
            return Word(cylindrical(n), tuple(
                sigma(1) if l == sigma(1, -1) else l for l in letters))

        n, k, d = 3, 2, 1
        honest = search_kernel(n, k, d, 6)
        monkeypatch.setattr(reps, "rho_letter", corrupted)
        results = search_kernel(n, k, d, 6)
        assert [r.word for r in results] == [r.word for r in honest]
        failed = []
        for r in results:
            h = len(r.word) // 2
            u, v = (tuple(itertools.chain.from_iterable(
                kernel._letter_image(letter, k, n, d) for letter in half))
                for half in (r.word.letters[:h], r.word.letters[h:]))
            failed.append(rho_word(misread(u)) != rho_word(misread(
                kernel._inverse_image(v))))
        assert 0 < sum(failed) < len(results)
        assert [r.verified for r in results] == [not f for f in failed]

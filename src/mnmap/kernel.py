"""Kernel witnesses and end-to-end verification of the two unfaithfulness
results, plus an exhaustive search for short kernel elements of the
composite map.

The Burau-kernel witness in B_5 is the known commutator of two conjugates

    alpha = [psi1^-1 sigma_4 psi1, psi2^-1 (sigma_4 sigma_3 sigma_2
             sigma_1^2 sigma_2 sigma_3 sigma_4) psi2]

with conjugators

    psi1 = sigma_3^-1 sigma_2 sigma_1^2 sigma_2 sigma_4^3 sigma_3 sigma_2
    psi2 = sigma_4^-1 sigma_3 sigma_2 sigma_1^-2 sigma_2 sigma_1^2
           sigma_2^2 sigma_1 sigma_4^5

The constants are transcribed, not trusted: bigelow_alpha() recomputes the
exact 5x5 Burau matrix and the strand permutation on first use and refuses
to return a word that fails either check.  Nontriviality is certified
separately by handle reduction (never assumed).
"""
from __future__ import annotations

import functools
from collections import namedtuple

from . import maps, reps
from .laurent import PolyMatrix, check_dimension
from .maps import mn_map
from .reps import burau, is_trivial_braid
from .words import (
    Letter,
    SIGMA,
    Word,
    WordError,
    classical,
    commutator,
    cylindrical,
    parse_word,
    reduce_onto,
    sigma,
    vcb,
)

SEARCH_MAX_LEN = 12
SEARCH_MAX_ALPHABET = 12
# The search carries n x n matrices; checked before anything is built.
SEARCH_MAX_N = 32
# Residues mod p in the search's stored half: its words times n^2.
SEARCH_MAX_HALF_RESIDUES = 2 ** 20


class WitnessError(RuntimeError):
    """The embedded witness failed an oracle check; the transcription is
    wrong and must not be used."""


_PSI1 = "s3^-1 s2 s1^2 s2 s4^3 s3 s2"
_PSI2 = "s4^-1 s3 s2 s1^-2 s2 s1^2 s2^2 s1 s4^5"
_MIDDLE = "s4 s3 s2 s1^2 s2 s3 s4"


def _conjugate(conj: Word, core: Word) -> Word:
    return conj.inverse() * core * conj


@functools.cache
def bigelow_alpha() -> Word:
    """The reduced Burau-kernel witness in B_5, gated by the Burau oracle."""
    flavor = classical(5)
    psi1 = parse_word(_PSI1, flavor)
    psi2 = parse_word(_PSI2, flavor)
    left = _conjugate(psi1, parse_word("s4", flavor))
    right = _conjugate(psi2, parse_word(_MIDDLE, flavor))
    alpha = commutator(left, right).free_reduce()
    if not alpha.is_pure():
        raise WitnessError("witness is not a pure braid")
    if not burau(alpha).is_identity():
        raise WitnessError("witness is not in the Burau kernel")
    return alpha


def lift_witness(alpha: Word) -> Word:
    """Preimage of a B_5 word under the projection with distinguished
    strand 6: relabel sigma_i -> sigma_{5-i} inside B_6."""
    letters = []
    for letter in alpha:
        if letter.kind != SIGMA or not 1 <= letter.index <= 4:
            raise WordError(f"cannot lift letter {letter}; need sigma_1..sigma_4")
        letters.append(sigma(5 - letter.index, letter.sign))
    return Word(classical(6), tuple(letters))


class VerificationReport(namedtuple(
        "VerificationReport",
        "witness params image image_is_identity witness_nontrivial")):
    """Outcome of one unfaithfulness check: a witness word, the composite
    map's parameters, its image matrix, and the two oracle verdicts."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.witness_nontrivial and self.image_is_identity

    def to_json_obj(self) -> dict:
        return {
            "witness": str(self.witness),
            "params": dict(self.params),
            "image_is_identity": self.image_is_identity,
            "witness_nontrivial": self.witness_nontrivial,
            "passed": self.passed,
        }


def _report(witness: Word, params: dict) -> VerificationReport:
    """Push the witness through the composite map at params' k and d and
    decide its word problem with is_trivial_braid: a nonzero exponent sum
    (Theorem 2's sigma_k^-2m) is nontrivial at once, and handle reduction
    decides a sum of 0 (Theorem 1's pure witness)."""
    image = mn_map(witness, k=params["k"], d=params["d"])
    return VerificationReport(
        witness=witness,
        params=params,
        image=image,
        image_is_identity=image.is_identity(),
        witness_nontrivial=not is_trivial_braid(witness),
    )


def verify_theorem1(d: int) -> VerificationReport:
    """Push the lifted Burau-kernel witness through the composite map with
    distinguished strand 6: the image must be the 5x5 identity while the
    witness is a nontrivial braid.  The projection image contains no cyclic
    shift, so the matrix is the same for every d >= 1."""
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    return _report(lift_witness(bigelow_alpha()), {"k": 6, "d": d})


def verify_theorem2(m: int, k: int) -> VerificationReport:
    """For n = 2m, the pure braid sigma_k^-2m on n+1 strands projects to the
    2m-th power of the cyclic shift, whose matrix has order n: the composite
    with d = 1 kills it.  The projection table is letter-wise and not
    multiplicative at sigma_{k-1}, sigma_k, so the witness is in the kernel
    of the word map, not of a homomorphism on PB_{n+1}."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not 1 <= k <= 2 * m:
        raise ValueError(f"k must be in 1..{2 * m}, got {k}")
    n = 2 * m
    check_dimension(n)
    witness = Word(classical(n + 1), (sigma(k, -1),) * (2 * m))
    return _report(witness, {"m": m, "k": k, "d": 1})


class SearchResult(namedtuple("SearchResult", "word verified freely_trivial")):
    """A freely reduced word whose composite image is the identity matrix,
    as search_kernel reports it.  freely_trivial is always False: the
    search enumerates freely reduced words only.  That image was decided
    on the free reduction of the word's concatenated stabilized letter
    images: empty, or sent to the identity by rho_word.

    verified records a second evaluation of that image by an independent
    matrix computation instead of that reduction and rho_word: for the
    word split as uv with |u| = |v|, whether M(u) equals M(v^-1).  M(u) is
    the generic product of u's letters' image matrices, each built once
    per search as the generic product of the rho_letter matrices of that
    letter's stabilized image; M(v^-1) is the generic product, over v
    reversed, of the matrices built the same way from each letter's
    inverse image (_inverse_image).  Since each generator's image times
    its inverse image is exactly the identity, M(u) = M(v^-1) exactly when
    the generic product of the whole word's letter matrices is the
    identity.  Both evaluations start from the same letter-wise
    substitution (pk_letter_image and stabilize_fd), so an error in that
    table would pass both."""

    __slots__ = ()


def _letter_image(letter: Letter, k: int, n: int, d: int
                  ) -> tuple[Letter, ...]:
    """The stabilized image of a classical letter on n+1 strands: its
    letter sequence under project_pk and stabilize_fd at dimension n."""
    return maps.stabilize_fd(Word(cylindrical(n), maps.pk_letter_image(
        letter.index, letter.sign, k, n)), d).letters


def _image_matrix(image: tuple[Letter, ...], n: int) -> PolyMatrix:
    """The generic product of the rho_letter matrices of a letter sequence
    at dimension n: one product per letter after the first."""
    if not image:
        return PolyMatrix.identity(n)
    product = reps.rho_letter(image[0], n)
    for letter in image[1:]:
        product = product * reps.rho_letter(letter, n)
    return product


def _halves_agree(forward: PolyMatrix, backward: PolyMatrix) -> bool:
    """Whether a hit's second evaluation holds: forward, the generic
    product of its first half's letter image matrices, equals backward,
    that of its second half's inverse image matrices (see SearchResult)."""
    return forward == backward


def _inverse_image(image: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The letters whose image matrix is the inverse of image's: reversed,
    every sign flipped.  Exact, since each generator image times its
    inverse image is the identity."""
    return tuple(letter.inverse() for letter in reversed(image))


def _is_hit(image: tuple[Letter, ...], n: int) -> bool:
    """Whether a candidate is a hit, decided on image, the free reduction
    of its concatenated stabilized letter images: an empty image is a hit
    without a walk, since each generator image times its inverse image is
    exactly the identity; any other is decided by reps.rho_word at
    dimension n, the exact evaluator every caller uses, which reduces the
    image further modulo far commutation before its walk."""
    return not image or reps.rho_word(
        Word._trusted(vcb(n), image)).is_identity()


def _halves(steps: list[tuple[Letter, ...]], swap_at: list[int], depth: int,
            n: int, units: tuple[int, int, int, int]):
    """Every freely reduced rank sequence of length 1..depth over the ranks
    of steps (the inverse of rank r is r ^ 1), depth first with ranks
    rising, as (ranks, key).  key is (length, state, images): state is the
    n x n identity right-multiplied by steps[r] for each r of ranks in
    turn, evaluated by reps.rho_columns_mod, as a tuple of column tuples;
    images are the strand images 1..n+1 after a swap at swap_at[r] for
    each r in turn.  Each sequence costs one rho_columns_mod call."""
    ranks: list[int] = []
    perm = list(range(1, n + 2))

    def walk(state: list[list[int]], last: int):
        for r in range(len(steps)):
            if r == last ^ 1:
                continue
            a = swap_at[r]
            ranks.append(r)
            perm[a], perm[a + 1] = perm[a + 1], perm[a]
            image = reps.rho_columns_mod(state, steps[r], units)
            yield tuple(ranks), (len(ranks), tuple(map(tuple, image)),
                                 tuple(perm))
            if len(ranks) < depth:
                yield from walk(image, r)
            perm[a], perm[a + 1] = perm[a + 1], perm[a]
            ranks.pop()

    if not depth:
        return iter(())
    # -1 ^ 1 is no rank: the empty sequence bans none
    return walk([[int(i == j) for i in range(n)] for j in range(n)], -1)


def _backward(v: tuple[int, ...], products: dict[tuple[int, ...],
                                                 PolyMatrix],
              inverses: list[PolyMatrix]) -> PolyMatrix:
    """M(v^-1), the generic product of the inverse image matrices of v's
    ranks in reverse order, as M(v[1:]^-1) inverses[v[0]]: products holds
    it for v and for each suffix of v it was built from."""
    product = products.get(v)
    if product is None:
        product = inverses[v[0]] if len(v) == 1 else \
            _backward(v[1:], products, inverses) * inverses[v[0]]
        products[v] = product
    return product


def search_kernel(n: int, k: int, d: int, max_len: int,
                  workers: int = 0) -> list[SearchResult]:
    """Enumerate freely reduced pure words up to max_len over the supported
    classical generators on n+1 strands and return those the composite map
    sends to the identity, ordered by (length, lexicographic letter order).
    A candidate's image is rho of the concatenated stabilized letter
    images, which is mn_map applied letter-wise.  The projection table is
    letter-wise and not multiplicative at sigma_{k-1}, sigma_k, so a hit is
    in the kernel of the word map, not of a homomorphism on PB_{n+1}.

    Words are rank sequences into the alphabet, which alternates sigma_i,
    sigma_i^-1 (so the inverse of rank r is r ^ 1).  Every letter is a
    transposition of strands, so a pure word has even length: each hit
    splits as w = uv with |u| = |v| = h for some h <= max_len // 2.  The
    search meets in the middle over these halves (Schroeppel-Shamir).

    Screen states are images evaluated at reps.SCREEN_POINT modulo
    reps.SCREEN_PRIME, as columns.  The prefixes u form one tree, built
    from the identity by one letter image's column operations per node
    (reps.rho_columns_mod), and are stored in one dict keyed by (h, M(u)
    mod p, the strand images of Word.permutation).  The suffixes v are
    streamed from a second tree, built by prepending letters: v's state is
    M(v)^-1 mod p, the state of v without its first letter r
    right-multiplied by r's inverse image (its image reversed, every sign
    flipped, which is exact).  Its key images are v's swaps applied in
    reverse order, which are u's images exactly when uv is pure.  Each u
    under v's key whose last rank is not the inverse of v's first is a
    candidate: M(v) is invertible mod p, its determinant being a
    monomial, so the candidates are exactly the freely reduced pure words
    whose screen state is the identity.  A word whose exact image is the
    identity always has that state, so the screen never drops a hit.

    The stored prefixes are freed once the candidates are collected.  The
    candidates are sorted by rank sequence, which puts a prefix before its
    extensions: the depth-first, lexicographic order.  The exact result
    alone decides a hit, on the free reduction of the candidate's
    concatenated stabilized letter images, which has the same image under
    rho.  reduced holds that free reduction for each of the last
    candidate's prefixes, cut back to the common prefix of consecutive
    candidates, so each candidate reduces (words.reduce_onto) only its
    letters' images past that prefix.  A candidate whose reduction is
    empty is a hit without a walk; any other is decided by reps.rho_word
    (_is_hit).  Each hit w = uv is re-verified (see SearchResult) with the
    products of its halves shared: exact holds M of the last candidate's
    prefixes, cut back the same way and extended only as far as a hit's
    u, and backward holds M(v^-1) for each v and its suffixes, cleared
    whenever the first rank changes.  So each distinct prefix of u, and
    per first rank each distinct suffix of v, of two or more letters is
    multiplied once.  A stable sort by length then gives the result
    order, and classical words are built for the hits only.

    The stored half holds the freely reduced words of length 1..max_len
    // 2, A (A-1)^(h-1) of length h over an alphabet of A symbols, each
    with n^2 residues.  More than SEARCH_MAX_HALF_RESIDUES residues in
    all is refused before anything is built.

    workers is accepted and ignored: the search runs in the calling
    thread and its result never depended on it.
    """
    if not 1 <= max_len <= SEARCH_MAX_LEN:
        raise ValueError(f"max_len must be in 1..{SEARCH_MAX_LEN}, "
                         f"got {max_len}")
    if not 1 <= n <= SEARCH_MAX_N:
        raise ValueError(f"n must be in 1..{SEARCH_MAX_N}, got {n}")
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    alphabet = [l for i in range(1, n + 1) if maps.pk_supports(i, k, n)
                for l in (sigma(i), sigma(i, -1))]
    size, half = len(alphabet), max_len // 2
    if size > SEARCH_MAX_ALPHABET:
        raise ValueError(
            f"alphabet of {size} symbols exceeds the cap of "
            f"{SEARCH_MAX_ALPHABET}")
    halves = sum(size * (size - 1) ** (h - 1) for h in range(1, half + 1))
    if halves * n * n > SEARCH_MAX_HALF_RESIDUES:
        raise ValueError(
            f"{halves} halves of length up to {half} with {n}x{n} states "
            f"hold {halves * n * n} residues, over the cap of "
            f"{SEARCH_MAX_HALF_RESIDUES} (SEARCH_MAX_HALF_RESIDUES)")
    domain = classical(n + 1)
    images = [_letter_image(letter, k, n, d) for letter in alphabet]
    backs = [_inverse_image(image) for image in images]
    matrices = [_image_matrix(image, n) for image in images]
    inverses = [_image_matrix(back, n) for back in backs]
    swap_at = [letter.index - 1 for letter in alphabet]
    units = reps.screen_units()

    table: dict[tuple, list[tuple[int, ...]]] = {}
    for u, key in _halves(images, swap_at, half, n, units):
        table.setdefault(key, []).append(u)
    candidates = []
    for back, key in _halves(backs, swap_at, half, n, units):
        first = back[-1]  # back lists v's ranks in the order prepended
        for u in table.get(key, ()):
            if u[-1] != first ^ 1:
                candidates.append(u + back[::-1])
    del table
    candidates.sort()

    # reduced[i]: the free reduction of last[:i]'s concatenated images;
    # exact[i]: the generic product for last[:i+1], only ever as far as a
    # hit's first half
    reduced, exact = [()], []
    last: tuple[int, ...] = ()
    backward: dict[tuple[int, ...], PolyMatrix] = {}  # v -> M(v^-1)
    group = -1  # the first rank of the words whose v are in backward
    hits: list[tuple[tuple[int, ...], bool]] = []
    for word in candidates:
        # sorted and distinct, so a word is never a prefix of the last one
        common = 0
        while common < len(last) and word[common] == last[common]:
            common += 1
        del reduced[common + 1:], exact[common:]
        for q in word[common:]:
            reduced.append(reduce_onto(reduced[-1], images[q]))
        last = word
        if not _is_hit(reduced[-1], n):
            continue
        h = len(word) // 2
        for q in word[len(exact):h]:
            exact.append(exact[-1] * matrices[q] if exact else matrices[q])
        if word[0] != group:
            backward.clear()
            group = word[0]
        hits.append((word, _halves_agree(exact[h - 1], _backward(
            word[h:], backward, inverses))))
    # a stable sort keeps each length in lexicographic order
    hits.sort(key=lambda hit: len(hit[0]))
    return [SearchResult(
                word=Word._trusted(domain, tuple(alphabet[r] for r in word)),
                verified=verified, freely_trivial=False)
            for word, verified in hits]

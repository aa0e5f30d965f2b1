"""The two word-level stages of the composite map and their assembly.

project_pk sends a pure classical braid word on n+1 strands to a cylindrical
word on n strands by letter-wise substitution:

    sigma_i^e    -> sigma_{k-i-1}^e      (i not in {k-1, k})
    sigma_{k-1}  -> zeta^-1
    sigma_{k-1}^-1 -> delta_c = sigma_1 ... sigma_{n-1}
    sigma_k      -> delta_c^-1
    sigma_k^-1   -> zeta

stabilize_fd fixes classical crossings and sends the cyclic shift to
zeta (delta_v zeta)^{d-1}, delta_v = tau_1 ... tau_{n-1}; the image of
zeta^-1 is the formal inverse word of the zeta image.

The substitution is letter-wise only: at positions k-1 and k the images of a
letter and its inverse are not mutually inverse under the matrix map, so the
composed map is multiplicative only away from those letters.
cancellation_defect exhibits the discrepancy for inspection.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain

from .laurent import PolyMatrix, check_dimension
from .reps import rho_word
from .words import (
    CLASSICAL,
    CYLINDRICAL,
    Letter,
    SIGMA,
    ZETA,
    Word,
    WordError,
    _check_size,
    classical,
    cylindrical,
    sigma,
    tau,
    vcb,
    zeta,
)


class PurityError(ValueError):
    """The map is defined on pure braids only."""


class UnsupportedLetterError(ValueError):
    """A letter whose substitution target falls outside the generator range;
    no wrap-around rule exists."""

    def __init__(self, message: str, position: int, letter: Letter):
        super().__init__(message)
        self.position = position
        self.letter = letter


def _delta_c_letters(n: int, sign: int = 1) -> tuple[Letter, ...]:
    if sign == 1:
        return tuple(sigma(i) for i in range(1, n))
    return tuple(sigma(i, -1) for i in range(n - 1, 0, -1))


def _delta_v_letters(n: int) -> tuple[Letter, ...]:
    return tuple(tau(i) for i in range(1, n))


def pk_supports(i: int, k: int, n: int) -> bool:
    """Whether the case table gives sigma_i an image: i is distinguished
    (k-1 or k), or its target k-i-1 lies in 1..n-1."""
    return i in (k - 1, k) or 1 <= k - i - 1 <= n - 1


def pk_letter_image(index: int, sign: int, k: int, n: int
                    ) -> tuple[Letter, ...]:
    """Image of sigma_index^sign in the cylindrical group on n strands."""
    if not pk_supports(index, k, n):
        raise UnsupportedLetterError(
            f"sigma_{index} maps to index {k - index - 1}, outside 1..{n - 1}",
            position=-1, letter=sigma(index, sign))
    if index == k - 1:
        return (zeta(-1),) if sign == 1 else _delta_c_letters(n)
    if index == k:
        return _delta_c_letters(n, -1) if sign == 1 else (zeta(),)
    return (sigma(k - index - 1, sign),)


def project_pk(w: Word, k: int) -> Word:
    """Letter-wise projection of a pure classical word on n+1 strands to a
    cylindrical word on n strands, distinguished strand k.  Support (the
    first unsupported position) and the result's size are checked first,
    the size by words._check_size (a WordError over MAX_WORD_LETTERS), then
    purity, all before anything is built.  The work is per distinct
    letter: one support check and one image each, and the result is the
    images' concatenation in word order."""
    if w.flavor.group != CLASSICAL:
        raise WordError(f"project_pk expects a classical word, got {w.flavor!r}")
    if w.n < 2:
        raise WordError("the domain needs at least 2 strands")
    n = w.n - 1
    if not 1 <= k <= w.n:
        raise ValueError(f"k must be in 1..{w.n}, got {k}")
    counts = Counter(w.letters)
    unsupported = [letter for letter in counts
                   if not pk_supports(letter.index, k, n)]
    if unsupported:
        position = min(map(w.letters.index, unsupported))
        letter = w.letters[position]
        i = letter.index
        raise UnsupportedLetterError(
            f"letter {letter} at position {position}: sigma_{i} maps to "
            f"index {k - i - 1}, outside 1..{n - 1}",
            position=position, letter=letter)
    # sigma_{k-1}^-1 and sigma_k become delta_c^{+-1}, n-1 letters each
    size = sum(count * (n - 1 if (letter.index, letter.sign) in
                        ((k - 1, -1), (k, 1)) else 1)
               for letter, count in counts.items())
    _check_size("projected word", size)
    if not w.is_pure():
        raise PurityError("project_pk is defined on pure braids only")
    images = {letter: pk_letter_image(letter.index, letter.sign, k, n)
              for letter in counts}
    return Word._trusted(cylindrical(n), tuple(
        chain.from_iterable(map(images.__getitem__, w.letters))))


def _zeta_image_letters(n: int, d: int) -> tuple[Letter, ...]:
    if d == 1:
        return (zeta(),)
    period = _delta_v_letters(n) + (zeta(),)
    return (zeta(),) + period * (d - 1)


def stabilize_fd(w: Word, d: int) -> Word:
    """Stabilization of a cylindrical word into the virtual cylindrical
    group: classical crossings verbatim, the cyclic shift wound d times
    through virtual crossings.  The result's size is checked before it is
    built, by words._check_size (a WordError over MAX_WORD_LETTERS)."""
    if w.flavor.group != CYLINDRICAL:
        raise WordError(f"stabilize_fd expects a cylindrical word, got {w.flavor!r}")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    n = w.n
    zetas = sum(letter.kind == ZETA for letter in w)
    size = len(w) + zetas * (d - 1) * n  # each zeta becomes (d-1)n+1 letters
    _check_size("stabilized word", size)
    zimg = _zeta_image_letters(n, d) if zetas else ()
    zimg_inv = tuple(l.inverse() for l in reversed(zimg))
    letters: list[Letter] = []
    for letter in w:
        if letter.kind == SIGMA:
            letters.append(letter)
        else:
            letters.extend(zimg if letter.sign == 1 else zimg_inv)
    return Word._trusted(vcb(n), tuple(letters))


def mn_map(w: Word, k: int, d: int) -> PolyMatrix:
    """The composite matrix map on a pure classical word on n+1 strands;
    the result has dimension n."""
    check_dimension(w.n - 1)
    return rho_word(stabilize_fd(project_pk(w, k), d))


def cancellation_defect(i: int, k: int, n: int, d: int) -> PolyMatrix:
    """Matrix of the letter-wise image of the canceling pair
    sigma_i sigma_i^-1 (domain on n+1 strands, codomain dimension n):
    mn_map of the pair.  The identity signals multiplicative consistency at
    letter i; at i in {k-1, k} the images are not mutually inverse and the
    defect matrix records by how much.
    """
    return mn_map(Word(classical(n + 1), (sigma(i), sigma(i, -1))), k, d)

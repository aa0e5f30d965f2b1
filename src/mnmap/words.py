"""Braid words over three groups: classical braids, cylindrical braids
(classical crossings plus a cyclic strand shift), and virtual cylindrical
braids (additionally, virtual crossings).

Words are flat, immutable letter sequences; nothing is reduced unless you
ask for it.  Strand indices are 1-based.
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable

# Letter kinds, named by their token in the word grammar.
SIGMA = "s"  # classical crossing
TAU = "t"    # virtual crossing
ZETA = "z"   # cyclic strand shift (no index)

# Flavor tags.
CLASSICAL = "classical"
CYLINDRICAL = "cylindrical"
VCB = "vcb"

_ADMITTED = {
    CLASSICAL: frozenset({SIGMA}),
    CYLINDRICAL: frozenset({SIGMA, ZETA}),
    VCB: frozenset({SIGMA, TAU, ZETA}),
}


class WordError(ValueError):
    """Malformed word: bad token, flavor violation, or index out of range."""


class Letter(namedtuple("Letter", "kind index sign")):
    """One generator symbol: kind in {SIGMA, TAU, ZETA}, 1-based index
    (0 for the index-less cyclic shift), and sign +1 or -1."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int, sign: int) -> Letter:
        if kind not in (SIGMA, TAU, ZETA):
            raise WordError(f"unknown letter kind {kind!r}")
        if sign not in (1, -1):
            raise WordError(f"letter sign must be +1 or -1, got {sign}")
        if kind == ZETA:
            if index != 0:
                raise WordError("the cyclic shift carries no index")
        elif index < 1:
            raise WordError(f"strand index must be >= 1, got {index}")
        return tuple.__new__(cls, (kind, index, sign))

    def inverse(self) -> Letter:
        return Letter(self.kind, self.index, -self.sign)

    def __str__(self) -> str:
        base = ZETA if self.kind == ZETA else f"{self.kind}{self.index}"
        return base if self.sign == 1 else base + "^-1"

    def __repr__(self) -> str:
        return f"Letter({str(self)!r})"


def sigma(i: int, sign: int = 1) -> Letter:
    return Letter(SIGMA, i, sign)


def tau(i: int, sign: int = 1) -> Letter:
    return Letter(TAU, i, sign)


def zeta(sign: int = 1) -> Letter:
    return Letter(ZETA, 0, sign)


class Flavor(namedtuple("Flavor", "group n")):
    """Group flavor: which letter kinds a word admits, and the strand count n.
    Generators sigma_i / tau_i require 1 <= i <= n-1."""

    __slots__ = ()

    def __new__(cls, group: str, n: int) -> Flavor:
        if group not in _ADMITTED:
            raise WordError(f"unknown flavor {group!r}")
        if n < 1:
            raise WordError(f"strand count must be >= 1, got {n}")
        return tuple.__new__(cls, (group, n))

    def check(self, letter: Letter) -> None:
        if letter.kind not in _ADMITTED[self.group]:
            raise WordError(
                f"letter {letter} not admitted in {self.group}({self.n})")
        if letter.kind != ZETA and letter.index > self.n - 1:
            raise WordError(
                f"index of {letter} out of range for {self.n} strands")

    def __repr__(self) -> str:
        return f"{self.group}({self.n})"


def classical(n: int) -> Flavor:
    return Flavor(CLASSICAL, n)


def cylindrical(n: int) -> Flavor:
    return Flavor(CYLINDRICAL, n)


def vcb(n: int) -> Flavor:
    return Flavor(VCB, n)


class Permutation(namedtuple("Permutation", "images")):
    """Bijection of {1..n}; images[i-1] is the destination of strand i.

    The product convention matches matrix multiplication of permutation
    matrices in the column convention (matrix()[images[j-1]-1][j-1] == 1):
    (p * q).images[x-1] == p.images[q.images[x-1]-1].
    """

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]) -> Permutation:
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        return tuple.__new__(cls, (images,))

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: Permutation) -> Permutation:
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> Permutation:
        images = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            images[j - 1] = i
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        rows = [[0] * self.n for _ in range(self.n)]
        for j, i in enumerate(self.images, start=1):
            rows[i - 1][j - 1] = 1
        return tuple(tuple(r) for r in rows)

    def __str__(self) -> str:
        return " ".join(f"{i}->{j}" for i, j in enumerate(self.images, 1))


class Word:
    """A finite letter sequence in a fixed flavor."""

    __slots__ = ("flavor", "letters")

    def __init__(self, flavor: Flavor, letters: tuple[Letter, ...] = ()):
        _check_size("word", len(letters))
        for letter in letters:
            flavor.check(letter)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _trusted(cls, flavor: Flavor, letters: tuple[Letter, ...]) -> Word:
        """The word with these letters, taken as they are: the caller
        guarantees that every letter fits flavor, so nothing is checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "flavor", flavor)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Word, (self.flavor, self.letters)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.flavor, self.letters) == (other.flavor, other.letters)

    def __hash__(self) -> int:
        return hash((self.flavor, self.letters))

    @property
    def n(self) -> int:
        return self.flavor.n

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: Word) -> Word:
        """Concatenation; no reduction is performed.  A result over
        MAX_WORD_LETTERS letters is refused before it is built."""
        if self.flavor != other.flavor:
            raise WordError(
                f"flavor mismatch: {self.flavor!r} vs {other.flavor!r}")
        _check_size("product", len(self.letters) + len(other.letters))
        return Word._trusted(self.flavor, self.letters + other.letters)

    def __pow__(self, e: int) -> Word:
        """Repetition, of the inverse for e < 0; a result over
        MAX_WORD_LETTERS letters is refused before it is built."""
        _check_size("power", len(self.letters) * abs(e))
        if e < 0:
            return self.inverse() ** (-e)
        return Word._trusted(self.flavor, self.letters * e)

    def inverse(self) -> Word:
        """Letters reversed, every sign flipped (TAU included: the word level
        keeps formal signs even though tau^2 = e holds in the group)."""
        return Word._trusted(
            self.flavor, tuple(l.inverse() for l in reversed(self.letters)))

    def free_reduce(self) -> Word:
        """Delete adjacent pairs g g^-1 (same kind and index, opposite sign)
        until none remain.  The result is independent of deletion order.
        It is reduce_onto((), self.letters): one pass over a stack."""
        return Word._trusted(self.flavor, reduce_onto((), self.letters))

    def permutation(self) -> Permutation:
        """Product of the letters' strand permutations in word order,
        under (p * q)(x) = p(q(x)), walked in place: a crossing at i swaps
        images i and i+1; zeta (1 -> n, j -> j-1, the cyclic-shift matrix
        at t = s = 1) rotates the images right, zeta^-1 left.  It lays out
        all n images, so n is capped at MAX_WORD_LETTERS first."""
        if self.n > MAX_WORD_LETTERS:
            raise WordError(f"permutation of {self.n} strands is over the "
                            f"cap of {MAX_WORD_LETTERS}")
        images = list(range(1, self.n + 1))
        for letter in self.letters:
            if letter.kind != ZETA:
                i = letter.index
                images[i - 1], images[i] = images[i], images[i - 1]
            elif letter.sign == 1:
                images.insert(0, images.pop())
            else:
                images.append(images.pop(0))
        return Permutation(tuple(images))

    def is_pure(self) -> bool:
        """Whether permutation() is the identity, in O(len(w)) for any n:
        only the slots a crossing touches are kept.  After zeta^r position
        p shows slot p - r (mod n), and an untouched slot q holds q + 1."""
        n, r, moved = self.n, 0, {}
        for letter in self.letters:
            if letter.kind == ZETA:
                r += letter.sign
            else:
                p, q = (letter.index - 1 - r) % n, (letter.index - r) % n
                moved[p], moved[q] = moved.get(q, q + 1), moved.get(p, p + 1)
        return (r % n == 0 or len(moved) == n) and all(
            strand == (slot + r) % n + 1 for slot, strand in moved.items())

    def __str__(self) -> str:
        return " ".join(str(letter) for letter in self.letters)

    def __repr__(self) -> str:
        return f"Word({self.flavor!r}, {str(self)!r})"


def reduce_onto(reduced: tuple[Letter, ...], letters: Iterable[Letter]
                ) -> tuple[Letter, ...]:
    """The free reduction of reduced followed by letters, where reduced is
    already freely reduced: one pass over a stack started from reduced,
    comparing the top's (kind, index, sign) fields with each letter's and
    popping the top when they differ only in sign.  The only free
    reduction of the library: Word.free_reduce is reduce_onto((), letters),
    and the kernel search extends a candidate's reduced prefix with it."""
    stack = list(reduced)
    push, pop = stack.append, stack.pop
    for letter in letters:
        if stack:
            kind, index, sign = stack[-1]
            if (sign != letter[2] and index == letter[1]
                    and kind == letter[0]):
                pop()
                continue
        push(letter)
    return tuple(stack)


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a b a^-1 b^-1 (no reduction).  A result over
    MAX_WORD_LETTERS letters is refused before any part of it is built."""
    _check_size("commutator", 2 * (len(a) + len(b)))
    return a * b * a.inverse() * b.inverse()


# Longest word that Word, its products, powers and commutators,
# parse_word, maps.project_pk and maps.stabilize_fd will build (each refuses
# through _check_size), and the most strands Word.permutation will lay out.
MAX_WORD_LETTERS = 10 ** 6


def _check_size(what: str, size: int) -> None:
    """Refuse a word of size letters over MAX_WORD_LETTERS."""
    if size > MAX_WORD_LETTERS:
        raise WordError(f"{what} expands to {size} letters, over the cap of "
                        f"{MAX_WORD_LETTERS} (MAX_WORD_LETTERS)")

# Longest number, leading zeros aside, that a token may carry: far above any
# usable exponent or strand index, and far below the digit count at which
# int() refuses a string.
_MAX_DIGITS = 100

_TOKEN = re.compile(r"([st])([0-9]+)(?:\^(-?[0-9]+))?$|z(?:\^(-?[0-9]+))?$")
_COMPACT = re.compile(r"-?[0-9]+$")


def _number(digits: str, token: str) -> int:
    """int(digits), refusing oversized numbers before converting them."""
    magnitude = digits.lstrip("-").lstrip("0")
    if len(magnitude) > _MAX_DIGITS:
        shown = token if len(token) <= 20 else token[:20] + "..."
        raise WordError(f"number too large in token {shown!r} "
                        f"({len(token)} characters)")
    value = int(magnitude or "0")
    return -value if digits.startswith("-") else value


def _parse_token(token: str) -> tuple[Letter, int]:
    m = _TOKEN.match(token)
    if m is None:
        raise WordError(f"bad token {token!r}")
    if m.group(1) is not None:
        kind, index = m.group(1), _number(m.group(2), token)
        if index < 1:
            raise WordError(f"bad index in token {token!r}")
        exponent = 1 if m.group(3) is None else _number(m.group(3), token)
    else:
        kind, index = ZETA, 0
        exponent = 1 if m.group(4) is None else _number(m.group(4), token)
    if exponent == 0:
        raise WordError(f"zero exponent in token {token!r}")
    sign = 1 if exponent > 0 else -1
    return Letter(kind, index, sign), abs(exponent)


def parse_word(text: str, flavor: Flavor) -> Word:
    """Parse whitespace-separated tokens: s3, t2^-1, z^4, ...  A compact
    classical form is also accepted: signed integers, "1 -2 1" meaning
    sigma_1 sigma_2^-1 sigma_1.  Exponents expand into repeated letters,
    at most MAX_WORD_LETTERS in all."""
    tokens = text.split()
    runs: list[tuple[Letter, int]] = []
    if tokens and all(_COMPACT.match(tok) for tok in tokens):
        for tok in tokens:
            v = _number(tok, tok)
            if v == 0:
                raise WordError("0 is not a generator in the compact form")
            runs.append((sigma(abs(v), 1 if v > 0 else -1), 1))
    else:
        runs = [_parse_token(tok) for tok in tokens]
    _check_size("word", sum(count for _, count in runs))
    letters: list[Letter] = []
    for letter, count in runs:
        letters += [letter] * count
    return Word(flavor, tuple(letters))


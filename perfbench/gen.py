"""Seeded input generators for the benchmark workloads.

Everything here is plain data: a letter is an ``(index, sign)`` pair for a
classical crossing, or a ``(kind, index, sign)`` triple where cylindrical and
virtual letters can appear.  Words reach the program as text in its token
grammar (``s3^-1 t2 z``), so the same seed gives byte-identical inputs
whatever the program does with them.  This module imports nothing from the
package under test.
"""
from __future__ import annotations

import random

Pair = tuple[int, int]


def render(pairs: list[Pair]) -> str:
    """Classical letters in the token grammar, one token per letter."""
    return " ".join(f"s{i}" if e == 1 else f"s{i}^-1" for i, e in pairs)


def parse(text: str) -> list[Pair]:
    """Inverse of render."""
    return [(int(tok[1:].split("^")[0]), -1 if tok.endswith("^-1") else 1)
            for tok in text.split()]


def render_mixed(letters: list[tuple[str, int, int]]) -> str:
    """Letters of any kind ("s", "t" or "z") in the token grammar."""
    out = []
    for kind, i, e in letters:
        base = "z" if kind == "z" else f"{kind}{i}"
        out.append(base if e == 1 else base + "^-1")
    return " ".join(out)


def inverse(pairs: list[Pair]) -> list[Pair]:
    return [(i, -e) for i, e in reversed(pairs)]


def shift(pairs: list[Pair], s: int) -> list[Pair]:
    """sigma_i -> sigma_{i+s}."""
    return [(i + s, e) for i, e in pairs]


def free_reduce(pairs: list[Pair]) -> list[Pair]:
    stack: list[Pair] = []
    for i, e in pairs:
        if stack and stack[-1] == (i, -e):
            stack.pop()
        else:
            stack.append((i, e))
    return stack


def permutation(letters: list[tuple[str, int, int]], n: int) -> list[int]:
    """Strand permutation p of a word, images[j-1] = p(j), composed in word
    order as (p*q)(x) = p(q(x)); the cyclic shift sends 1 -> n, j -> j-1."""
    images = list(range(1, n + 1))
    for kind, i, e in letters:
        if kind == "z":
            step = [n] + list(range(1, n)) if e == 1 else \
                list(range(2, n + 1)) + [1]
        else:
            step = list(range(1, n + 1))
            step[i - 1], step[i] = step[i], step[i - 1]
        images = [images[q - 1] for q in step]
    return images


def _bag(rng: random.Random, gens: int, size: int) -> list[Pair]:
    """`size` letters cycling through sigma_1..sigma_gens and both signs,
    in seeded order: every seed draws the same letter counts."""
    letters = [(1 + j % gens, 1 if j // gens % 2 == 0 else -1)
               for j in range(size)]
    rng.shuffle(letters)
    return letters


def pure_conjugates(rng: random.Random, gens: int, length: int,
                    conj_len: int) -> list[Pair]:
    """A pure word over sigma_1..sigma_gens: a product of length /
    (2 conj_len + 2) conjugates u sigma_i^{+-2} u^-1 with |u| = conj_len.
    Conjugator letters and cores come from balanced bags, so the letter
    counts (which set the image sizes) are the same for every seed."""
    count, rest = divmod(length, 2 * conj_len + 2)
    if rest:
        raise ValueError(f"length {length} is not a multiple of "
                         f"{2 * conj_len + 2}")
    letters = _bag(rng, gens, count * conj_len)
    cores = _bag(rng, gens, count)
    word: list[Pair] = []
    for j, core in enumerate(cores):
        u = letters[j * conj_len:(j + 1) * conj_len]
        word += u + [core, core] + inverse(u)
    return word


def _relator(rng: random.Random, n: int) -> list[Pair]:
    """A braid relator on n >= 3 strands: sigma_i sigma_j sigma_i
    sigma_j^-1 sigma_i^-1 sigma_j^-1 for |i-j| = 1, or the commutator of
    sigma_i and sigma_j for |i-j| >= 2."""
    i = rng.randint(1, n - 1)
    far = [j for j in range(1, n) if abs(i - j) >= 2]
    if far and rng.random() < 0.5:
        j = rng.choice(far)
        rel = [(i, 1), (j, 1), (i, -1), (j, -1)]
    else:
        j = i + 1 if i < n - 1 else i - 1
        rel = [(i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1)]
    return rel if rng.random() < 0.5 else inverse(rel)


def _braid_move(rng: random.Random, word: list[Pair], n: int) -> None:
    """Rewrite the word in place by one braid relation at a random position:
    swap commuting neighbours, apply sigma_i sigma_j sigma_i = sigma_j
    sigma_i sigma_j (same signs, |i-j| = 1), or insert a relator."""
    p = rng.randrange(len(word) - 1)
    (i, e), (j, f) = word[p], word[p + 1]
    if abs(i - j) >= 2:
        word[p], word[p + 1] = word[p + 1], word[p]
    elif (abs(i - j) == 1 and e == f and p + 2 < len(word)
          and word[p + 2] == (i, e)):
        word[p:p + 3] = [(j, e), (i, e), (j, e)]
    else:
        word[p + 1:p + 1] = _relator(rng, n)


def trivial_word(rng: random.Random, n: int, half: int, moves: int
                 ) -> list[Pair]:
    """A word on n >= 3 strands equal to the identity braid that free
    reduction alone cannot cancel: u u^-1 rewritten by `moves` braid
    relations."""
    u = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(half)]
    word = u + inverse(u)
    for _ in range(moves):
        _braid_move(rng, word, n)
    while not free_reduce(word):
        word[len(word) // 2:len(word) // 2] = _relator(rng, n)
    return word


def nontrivial_word(rng: random.Random, n: int, length: int) -> list[Pair]:
    """A random word with nonzero exponent sum, which certifies that it is
    not the identity braid (the exponent sum is a homomorphism to Z)."""
    word = [(rng.randint(1, n - 1), rng.choice((1, -1)))
            for _ in range(length)]
    if sum(e for _, e in word) == 0:
        i, e = word[-1]
        word[-1] = (i, -e)
    return word


def mixed_word(rng: random.Random, n: int, length: int, kinds: str
               ) -> list[tuple[str, int, int]]:
    """Random letters drawn from `kinds` (a subset of "stz")."""
    out = []
    for _ in range(length):
        kind = rng.choice(kinds)
        out.append((kind, 0 if kind == "z" else rng.randint(1, n - 1),
                    rng.choice((1, -1))))
    return out

"""Word generators and reference implementations for the test suite.

Importable without Hypothesis: its strategies live in strategies.py."""
from __future__ import annotations

import random
from itertools import product

from mnmap.laurent import ONE, ZERO, LaurentPoly, PolyMatrix
from mnmap.maps import mn_map
from mnmap.reps import (
    DEFAULT_ARTIN_BUDGET,
    ArtinBudgetError,
    FreeAut,
    FreeWord,
)
from mnmap.words import (
    CLASSICAL,
    CYLINDRICAL,
    VCB,
    Flavor,
    Letter,
    SIGMA,
    TAU,
    Word,
    ZETA,
    classical,
    sigma,
    tau,
    zeta,
)

GROUP_KINDS = {
    CLASSICAL: (SIGMA,),
    CYLINDRICAL: (SIGMA, ZETA),
    VCB: (SIGMA, TAU, ZETA),
}


def random_letter(rng: random.Random, flavor: Flavor) -> Letter:
    kind = rng.choice(GROUP_KINDS[flavor.group])
    sign = rng.choice((1, -1))
    if kind == ZETA:
        return zeta(sign)
    return Letter(kind, rng.randint(1, flavor.n - 1), sign)


def random_word(rng: random.Random, flavor: Flavor, length: int) -> Word:
    return Word(flavor,
                tuple(random_letter(rng, flavor) for _ in range(length)))


def random_pure_word(rng: random.Random, flavor: Flavor, blocks: int) -> Word:
    """Concatenation of pure building blocks: squared generators and
    formally canceling pairs u u^-1."""
    word = Word(flavor)
    for _ in range(blocks):
        if rng.random() < 0.5:
            i = rng.randint(1, flavor.n - 1)
            word = word * Word(flavor, (sigma(i, rng.choice((1, -1))),) * 2)
        else:
            u = random_word(rng, flavor, rng.randint(1, 3))
            word = word * u * u.inverse()
    return word


def known_kernel_word(n: int, k: int, h: Word, length: int,
                      rng: random.Random) -> tuple[Word, Word]:
    """A long word w = u h u^-1 that the composite map sends to exactly I,
    and its twin: w with one letter of u^-1 flipped, whose image is not I.

    h is a pure word on n+1 strands in the kernel at (k, d).  u has
    `length` random letters sigma_i with i not in {k-1, k} and
    1 <= k-i-1 <= n-1, each projected to sigma_{k-i-1}^{+-1}, so
    p_k(u^-1) = p_k(u)^-1 letter for letter and mn_map(w) = I at every d.
    The twin is pure too, since a flip keeps the permutation."""
    indices = [i for i in range(1, n + 1)
               if i not in (k - 1, k) and 1 <= k - i - 1 <= n - 1]
    u = Word(h.flavor, tuple(sigma(rng.choice(indices), rng.choice((1, -1)))
                             for _ in range(length)))
    tail = list(u.inverse().letters)
    at = rng.randrange(length)
    tail[at] = tail[at].inverse()
    twin = Word(h.flavor, u.letters + h.letters + tuple(tail))
    return u * h * u.inverse(), twin


def cancelling_word(rng: random.Random, flavor: Flavor, length: int) -> Word:
    """p u u^-1 q of the given length, u u^-1 about half of it: through u
    the entries grow, and u^-1 cancels them back to the image of p, so
    whole s-slices and whole entries go to zero along the way."""
    half = length // 4
    p = random_word(rng, flavor, rng.randint(0, half))
    u = random_word(rng, flavor, half)
    q = random_word(rng, flavor, max(length - len(p) - 2 * half, 0))
    return p * u * u.inverse() * q


def conjugate_product(rng: random.Random, flavor: Flavor, count: int,
                      conj_len: int) -> Word:
    """A product of count conjugates u sigma_i^+-2 u^-1, |u| <= conj_len,
    u over the flavor's letters: a pure word, whose letters often meet
    their inverses across letters far from them."""
    word = Word(flavor)
    for _ in range(count):
        u = random_word(rng, flavor, rng.randint(0, conj_len))
        core = (sigma(rng.randint(1, flavor.n - 1), rng.choice((1, -1))),) * 2
        word = word * u * Word(flavor, core) * u.inverse()
    return word


def far_pair(letters: tuple[Letter, ...]) -> tuple[int, int] | None:
    """The first (p, q) by opening position p, then q, such that letter q
    is the inverse of letter p and every letter between commutes with it
    as a generator of the free partially commutative group: sigma and tau
    at indices two or more apart, nothing with zeta."""
    for p, x in enumerate(letters):
        for q in range(p + 1, len(letters)):
            y = letters[q]
            if y == x.inverse():
                return p, q
            if ZETA in (x.kind, y.kind) or abs(x.index - y.index) < 2:
                break
    return None


def reference_reduce_far(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """letters with far_pair's pair deleted until none is left: reduction
    in the free partially commutative group, opening pairs left to right,
    whose result is unique up to commuting far letters (Wrathall 1988), so
    its length is that of any full reduction."""
    letters = tuple(letters)
    while (pair := far_pair(letters)) is not None:
        p, q = pair
        letters = letters[:p] + letters[p + 1:q] + letters[q + 1:]
    return letters


def relation_identities(n: int) -> list[tuple[str, Word, Word]]:
    """All defining relations of the virtual cylindrical group on n strands,
    as pairs of words whose matrices must agree exactly."""
    f = Flavor(VCB, n)

    def w(*letters) -> Word:
        return Word(f, tuple(letters))

    identities: list[tuple[str, Word, Word]] = []
    for i in range(1, n - 1):
        identities.append((f"braid sigma {i} n={n}",
                           w(sigma(i), sigma(i + 1), sigma(i)),
                           w(sigma(i + 1), sigma(i), sigma(i + 1))))
        identities.append((f"braid tau {i} n={n}",
                           w(tau(i), tau(i + 1), tau(i)),
                           w(tau(i + 1), tau(i), tau(i + 1))))
        identities.append((f"mixed tau-sigma {i} n={n}",
                           w(tau(i), tau(i + 1), sigma(i), tau(i + 1), tau(i)),
                           w(sigma(i + 1))))
    for i in range(1, n):
        for j in range(i + 2, n):
            identities.append((f"far sigma {i},{j} n={n}",
                               w(sigma(i), sigma(j)), w(sigma(j), sigma(i))))
            identities.append((f"far tau {i},{j} n={n}",
                               w(tau(i), tau(j)), w(tau(j), tau(i))))
        for j in range(1, n):
            if abs(i - j) < 2:
                continue
            for a, b in product((1, -1), repeat=2):
                identities.append((
                    f"far sigma^{a} tau^{b} {i},{j} n={n}",
                    w(sigma(i, a), tau(j, b)), w(tau(j, b), sigma(i, a))))
        identities.append((f"tau^2 {i} n={n}", w(tau(i), tau(i)), w()))
    for i in range(2, n):
        identities.append((f"zeta shift sigma {i} n={n}",
                           w(zeta(), sigma(i), zeta(-1)), w(sigma(i - 1))))
        identities.append((f"zeta shift tau {i} n={n}",
                           w(zeta(), tau(i), zeta(-1)), w(tau(i - 1))))
    identities.append((f"zeta^{n} n={n}", w(*([zeta()] * n)), w()))
    return identities


def reference_search(n: int, k: int, d: int, max_len: int) -> list[Word]:
    """Brute-force kernel search: every string over the supported letters,
    filtered for free reduction, purity and an identity image, in (length,
    lexicographic alphabet rank) order."""
    supported = [i for i in range(1, n + 1)
                 if i in (k - 1, k) or 1 <= k - i - 1 <= n - 1]
    alphabet = [l for i in supported for l in (sigma(i), sigma(i, -1))]
    hits = []
    for length in range(1, max_len + 1):
        for letters in product(alphabet, repeat=length):
            if any(letters[j + 1] == letters[j].inverse()
                   for j in range(length - 1)):
                continue
            word = Word(classical(n + 1), letters)
            if word.is_pure() and mn_map(word, k, d).is_identity():
                hits.append(word)
    return hits


def reference_artin(w: Word, budget: int = DEFAULT_ARTIN_BUDGET) -> FreeAut:
    """The Artin action by whole-word free reduction: each letter rebuilds
    the changed image as the concatenation of three images, with the inverse
    recomputed, reduced in one stack pass.  Raises ArtinBudgetError with the
    same message as reps.artin_apply."""
    def reduce(*parts: FreeWord) -> FreeWord:
        stack: list[tuple[int, int]] = []
        for part in parts:
            for gen, sign in part:
                if stack and stack[-1] == (gen, -sign):
                    stack.pop()
                else:
                    stack.append((gen, sign))
        return tuple(stack)

    def inv(x: FreeWord) -> FreeWord:
        return tuple((gen, -sign) for gen, sign in reversed(x))

    images: list[FreeWord] = [((i, 1),) for i in range(1, w.n + 1)]
    for position, letter in enumerate(w, start=1):
        i = letter.index - 1
        xi, xj = images[i], images[i + 1]
        if letter.sign == 1:
            images[i] = reduce(xi, xj, inv(xi))
            images[i + 1] = xi
        else:
            images[i] = xj
            images[i + 1] = reduce(inv(xj), xi, xj)
        reached = max(len(images[i]), len(images[i + 1]))
        if reached > budget:
            raise ArtinBudgetError(
                f"image length {reached} exceeded budget of {budget} "
                f"letters at letter {position} of {len(w)}")
    return FreeAut(w.n, tuple(images))


def reference_handle_reduce(w: Word) -> tuple[tuple[Letter, ...], int]:
    """Handle reduction by whole-word passes: each step scans the word from
    its start for the handle with the smallest closing position, rebuilds
    the word around the replacement, and freely reduces all of it in one
    stack pass.  Returns the terminal letters and the number of steps."""
    def free_reduce(items: list[tuple[int, int]]) -> list[tuple[int, int]]:
        stack: list[tuple[int, int]] = []
        for i, e in items:
            if stack and stack[-1] == (i, -e):
                stack.pop()
            else:
                stack.append((i, e))
        return stack

    def first_handle(letters: list[tuple[int, int]]
                     ) -> tuple[int, int] | None:
        last: dict[int, tuple[int, int]] = {}  # index -> (position, sign)
        for q, (i, e) in enumerate(letters):
            seen = last.get(i)
            if seen is not None and seen[1] == -e:
                below = last.get(i - 1)
                if below is None or below[0] < seen[0]:
                    return seen[0], q
            last[i] = (q, e)
        return None

    letters = free_reduce([(l.index, l.sign) for l in w])
    steps = 0
    while (found := first_handle(letters)) is not None:
        p, q = found
        i, e = letters[p]
        replacement: list[tuple[int, int]] = []
        for j, d in letters[p + 1:q]:
            if j == i + 1:
                replacement += [(i + 1, -e), (i, d), (i + 1, e)]
            else:
                replacement.append((j, d))
        letters = free_reduce(letters[:p] + replacement + letters[q + 1:])
        steps += 1
    return tuple(sigma(i, e) for i, e in letters), steps


def relation_rewritten_trivial(rng: random.Random, n: int, half: int,
                               moves: int) -> Word:
    """u u^-1 on n >= 3 strands, |u| = half, rewritten by `moves` braid
    relations at random positions: swap far-apart neighbours, turn
    sigma_i sigma_j sigma_i into sigma_j sigma_i sigma_j (|i-j| = 1, same
    sign), or insert a relator.  Still the identity braid, but free
    reduction alone does not show it."""
    def relator() -> list[tuple[int, int]]:
        i = rng.randint(1, n - 1)
        far = [j for j in range(1, n) if abs(i - j) >= 2]
        if far and rng.random() < 0.5:
            j = rng.choice(far)
            rel = [(i, 1), (j, 1), (i, -1), (j, -1)]
        else:
            j = i + 1 if i < n - 1 else i - 1
            rel = [(i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1)]
        return rel if rng.random() < 0.5 else [(a, -e) for a, e in rel[::-1]]

    u = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(half)]
    word = u + [(i, -e) for i, e in reversed(u)]
    for _ in range(moves):
        if len(word) < 2:
            word[0:0] = relator()
            continue
        p = rng.randrange(len(word) - 1)
        (i, e), (j, f) = word[p], word[p + 1]
        if abs(i - j) >= 2:
            word[p], word[p + 1] = word[p + 1], word[p]
        elif (abs(i - j) == 1 and e == f and p + 2 < len(word)
              and word[p + 2] == (i, e)):
            word[p:p + 3] = [(j, e), (i, e), (j, e)]
        else:
            word[p + 1:p + 1] = relator()
    return Word(classical(n), tuple(sigma(i, e) for i, e in word))


def reference_rho_word(w: Word) -> PolyMatrix:
    """rho_word as a walk over sparse LaurentPoly columns: each crossing
    multiplies by t^+-1 or s^+-1 by moving every exponent pair, then forms
    a + b - b' with LaurentPoly addition and subtraction."""
    def shift(p: LaurentPoly, dt: int, ds: int) -> LaurentPoly:
        return LaurentPoly({(a + dt, b + ds): c for a, b, c in p.terms()})

    n = w.n
    cols = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    for letter in w:
        if letter.kind == ZETA:
            if letter.sign == 1:
                cols = [cols[-1]] + cols[:-1]
            else:
                cols = cols[1:] + [cols[0]]
            continue
        a, b = letter.index - 1, letter.index
        col_a, col_b = cols[a], cols[b]
        if letter.kind == TAU:
            cols[a] = [shift(p, 0, -1) for p in col_b]
            cols[b] = [shift(p, 0, 1) for p in col_a]
        elif letter.sign == 1:  # b' = t a, a' = a + b - b'
            cols[b] = [shift(p, 1, 0) for p in col_a]
            cols[a] = [p + q - r for p, q, r in zip(col_a, col_b, cols[b])]
        else:  # a' = t^-1 b, b' = a + b - a'
            cols[a] = [shift(p, -1, 0) for p in col_b]
            cols[b] = [p + q - r for p, q, r in zip(col_a, col_b, cols[a])]
    return PolyMatrix(list(zip(*cols)))


def reference_det(matrix: PolyMatrix) -> LaurentPoly:
    """The determinant by the same minor recurrence as PolyMatrix.det, with
    LaurentPoly arithmetic instead of packed rows: expand row by row from
    the bottom; minors[mask] is the determinant of the rows processed so far
    restricted to the columns in mask, and prepending a row expands along
    it, with sign (-1)^(columns of mask left of j)."""
    minors = {0: ONE}
    for row in reversed(matrix.rows):
        extended: dict[int, LaurentPoly] = {}
        for mask, minor in minors.items():
            negative = False
            for j, entry in enumerate(row):
                bit = 1 << j
                if mask & bit:
                    negative = not negative
                elif entry:
                    term = entry * minor
                    extended[mask | bit] = extended.get(mask | bit, ZERO) + (
                        -term if negative else term)
        minors = {mask: minor for mask, minor in extended.items() if minor}
    return minors.get((1 << matrix.n) - 1, ZERO)

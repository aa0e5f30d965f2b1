"""The matrix representation of virtual cylindrical braids, the unreduced
Burau representation it restricts to on classical words, and two independent
word-problem oracles for classical braids: the Artin action on a free group
and Dehornoy handle reduction.

Generator images (dimension n; blocks sit in rows/columns k, k+1):

    sigma_k      -> [[1-t, t], [1, 0]]
    sigma_k^-1   -> [[0, 1], [t^-1, 1-t^-1]]
    tau_k        -> [[0, s], [s^-1, 0]]       (an involution)
    zeta         -> I_{n-1} in the top-right block, 1 in the bottom-left
    zeta^-1      -> transpose of the zeta matrix

Inverse images are explicit, not computed: each generator image times its
inverse image is exactly the identity, which makes invariance of the word
map under free reduction a property of the construction.
"""
from __future__ import annotations

import operator
from collections import namedtuple
from typing import Iterable

from .laurent import (
    ONE,
    S,
    S_INV,
    T,
    T_INV,
    ZERO,
    PolyMatrix,
    Rows,
    _bias,
    _from_rows,
    _pack,
    _unpack,
    check_dimension,
)
from .words import (
    CLASSICAL,
    SIGMA,
    TAU,
    ZETA,
    Letter,
    Word,
    WordError,
    reduce_onto,
)

DEFAULT_ARTIN_BUDGET = 2 ** 16
DEFAULT_STEP_CAP = 1_000_000


def rho_letter(letter: Letter, n: int) -> PolyMatrix:
    """Image of a single generator at dimension n."""
    check_dimension(n)
    if letter.kind == ZETA:  # row i has its 1 in column i + sign (mod n)
        return PolyMatrix.from_polys(tuple(
            tuple(ONE if j == (i + letter.sign) % n else ZERO
                  for j in range(n))
            for i in range(n)))
    k = letter.index
    if not 1 <= k <= n - 1:
        raise WordError(f"letter {letter} has no image at dimension {n}")
    a, b = k - 1, k  # 0-based block position
    if letter.kind == TAU:
        block = ((ZERO, S), (S_INV, ZERO))
    elif letter.sign == 1:
        block = ((ONE - T, T), (ONE, ZERO))
    else:
        block = ((ZERO, ONE), (T_INV, ONE - T_INV))
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    rows[a][a], rows[a][b] = block[0]
    rows[b][a], rows[b][b] = block[1]
    return PolyMatrix.from_polys(tuple(map(tuple, rows)))


# rho_word's first slot width W in bits (a multiple of 8).
_START_WIDTH = 64

# A column of rho_word's walk: one dict from s n + i, for a power s of s and
# a row i, to that s-slice of entry i packed as in Rows, (t_lo, v).  Zero
# slices are absent, so an entry that is 0 has no key.
Column = dict[int, tuple[int, int]]


def _half_masks(width: int, slots: int) -> tuple[int, int]:
    """The range test's masks for slices of up to slots W-bit slots: B,
    2^(W/2) in each slot, and H, bits W/2+1 .. W-1 of each slot, both
    shifted from laurent's bias of 2^(W-1) in each slot: H is 2 (bias - B),
    2^W - 2^(W/2+1) in each slot."""
    bias = _bias(width, slots)
    half = bias >> ((width >> 1) - 1)
    return half, (bias - half) << 1


def _fits_half(v: int, width: int, masks: tuple[int, int] | None = None
               ) -> bool:
    """The range test: whether every signed width-bit slot of v lies in
    [-2^(W/2), 2^(W/2)), read off v without decoding it.  Adding B puts an
    in-range slot in [0, 2^(W/2+1)) without a carry, so the test is
    (v + B) & H == 0 (see _half_masks).  The slots below the lowest one out
    of range carry nothing into it, so it sets a bit of H: a high bit of
    its own if too large, bit W-1 by the borrow if too small.  Slots above
    v's top are 0 and stay in range, so masks of any slot count from v's
    own (as _unpack sizes its bias) upward give the same answer; without
    masks they are sized to v.  v must decode (every slot below 2^(W-1) in
    magnitude)."""
    bias, high = masks or _half_masks(width, v.bit_length() // width + 1)
    return not (v + bias) & high


def _repack(col: Column, width: int, new_width: int
            ) -> tuple[Column, int]:
    """col's slices at new_width with their zero low slots trimmed, and a
    bound on its coefficients.  A wider repack decodes every slice, so its
    bound is the column's largest coefficient magnitude.  At the same width
    a slice that passes the range test (_fits_half, with one pair of masks
    sized to the column's longest slice) is trimmed at v's lowest set bit,
    not decoded, and bounded by 2^(W/2); a slice fails only when a slot
    reaches 2^(W/2) in magnitude, so once any slice is decoded the bound is
    again the column's largest coefficient magnitude.  Only a column whose
    slices all pass keeps 2^(W/2), which may lie above its maximum."""
    same, half = new_width == width, 1 << (width >> 1)
    if same:
        longest = max((v.bit_length() for _, v in col.values()), default=0)
        masks = _half_masks(width, longest // width + 1)
    bound, out = 0, {}
    for key, (lo, v) in col.items():
        if same and _fits_half(v, width, masks):
            z = ((v & -v).bit_length() - 1) // width
            bound = max(bound, half)
            out[key] = (lo + z, v >> width * z)
            continue
        coeffs = _unpack(v, width)
        z = next(i for i, c in enumerate(coeffs) if c)
        bound = max(bound, max(coeffs), -min(coeffs))
        out[key] = (lo + z, v >> width * z if same
                    else _pack(coeffs[z:], new_width))
    return out, bound


def _cross(x: Column, y: Column, e: int, dt: int, shift: int, width: int
           ) -> Column:
    """x + (1 - t^e) t^dt s^ds y for e = +-1 on whole columns, one slice at
    a time, with shift = ds n: t^dt s^ds moves y's t_lo by dt and its keys
    by shift.  (t - 1) y is (vy << width) - vy at y's t_lo, and (1 - t^e) y
    is its negation for e = 1 and itself one lower for e = -1, so the sign
    picks the operator that adds it to x once per column."""
    out = dict(x)
    combine = operator.sub if e == 1 else operator.add
    if e == -1:
        dt -= 1
    for key, (lo, vy) in y.items():
        key += shift
        lo += dt
        vz = (vy << width) - vy
        old = out.get(key)
        if old is None:
            out[key] = (lo, combine(0, vz))
            continue
        lo_x, vx = old
        if lo_x <= lo:
            v, lo = combine(vx, vz << width * (lo - lo_x)), lo_x
        else:
            v = combine(vx << width * (lo_x - lo), vz)
        if v:
            out[key] = (lo, v)
        else:
            del out[key]
    return out


# rho_word's walk state: (W, records), one record (col, bound, a, b) per
# column: col is a Column of slices at slot width W, the column is col times
# the monomial factor t^a s^b, and bound bounds its coefficients.
RhoState = tuple[int, list[tuple[Column, int, int, int]]]

# The packed rows of the constant 1.
_ONE_ROWS: Rows = {0: (0, 1)}


def rho_walk(n: int, letters: Iterable[Letter]) -> RhoState:
    """The walk state (W, records), one (col, bound, a, b) record per
    column (RhoState), of the n x n identity right-multiplied by the
    letters' images, exactly the letters given (see rho_word)."""
    check_dimension(n)
    width, limit = _START_WIDTH, 1 << (_START_WIDTH - 1)
    records = [({j: (0, 1)}, 1, 0, 0) for j in range(n)]
    for letter in letters:
        e = letter.sign
        if letter.kind == ZETA:  # rotate right for zeta, left for zeta^-1
            records = records[-e:] + records[:-e]
            continue
        k = letter.index
        if not 1 <= k <= n - 1:
            raise WordError(f"letter {letter} has no image at dimension {n}")
        if letter.kind == TAU:  # columns k-1' = s^-1 k and k' = s (k-1)
            (col, bound, a, b), (col_k, bound_k, a_k, b_k) = \
                records[k - 1], records[k]
            records[k - 1] = col_k, bound_k, a_k, b_k - 1
            records[k] = col, bound, a, b + 1
            continue
        # columns sigma_k: k' = t (k-1), k-1' = k + (1-t) (k-1); sigma_k^-1:
        # k-1' = t^-1 k, k' = (k-1) + (1-t^-1) k.  So x' = t^e y and
        # y' = x + (1-t^e) y.
        x, y = (k, k - 1) if e == 1 else (k - 1, k)
        bound = records[x][1] + 2 * records[y][1]
        if bound >= limit:
            for j in (x, y):
                col, _, a, b = records[j]
                records[j] = (*_repack(col, width, width), a, b)
            bound = records[x][1] + 2 * records[y][1]
            if bound >= limit:
                wider = -(-(bound.bit_length() + 1) // 4) * 8
                for j, (col, _, a, b) in enumerate(records):
                    records[j] = (*_repack(col, width, wider), a, b)
                width, limit = wider, 1 << (wider - 1)
        (col_x, _, a, b), (col_y, bound_y, a_y, b_y) = records[x], records[y]
        records[x] = col_y, bound_y, a_y + e, b_y
        records[y] = (_cross(col_x, col_y, e, a_y - a, (b_y - b) * n, width),
                      bound, a, b)
    return width, records


def _reduce_far(letters: Iterable[Letter], n: int) -> tuple[Letter, ...]:
    """The letters reduced modulo far commutation, in one pass: a sigma or
    tau letter x at index i cancels the latest surviving earlier letter at
    index i if that is x^-1 and no letter at index i-1 or i+1 and no zeta
    survives between them; zeta^e cancels the latest surviving zeta^-e if
    no sigma or tau survives between them.  Images of letters whose indices
    differ by two or more commute exactly (their 2 x 2 blocks share no row
    or column), and each image times its inverse image is exactly the
    identity, so rho of the result is rho of the letters.  Adjacent pairs
    are the case with nothing between, so the result is never longer than
    the free reduction.  rho_word walks the result; so does artin_apply,
    since generators two or more indices apart also commute in B_n and
    the Artin action is a homomorphism.

    O(1) work per letter: out holds the letters passed so far, None where
    cancelled; survivors[i] is the stack of positions of the survivors at
    index i above a -1 (slots 0 and n stand beside the indices 1 .. n-1),
    since only the latest survivor at an index can cancel.  top is the
    latest surviving zeta's position and crossings the number of sigma and
    tau survivors after it; zetas holds the (top, crossings) that each
    surviving zeta replaced."""
    out: list[Letter | None] = []
    survivors = [[-1] for _ in range(n + 1)]
    zetas: list[tuple[int, int]] = []
    top, crossings = -1, 0
    for letter in letters:
        kind, i, e = letter
        if kind == ZETA:
            if top >= 0 and not crossings and out[top][2] != e:
                out[top] = None
                top, crossings = zetas.pop()
                continue
            zetas.append((top, crossings))
            top, crossings = len(out), 0
        else:
            here = survivors[i]
            p = here[-1]
            if p > top:
                other = out[p]
                if (other[2] != e and other[0] == kind
                        and survivors[i - 1][-1] < p
                        and survivors[i + 1][-1] < p):
                    out[p] = None
                    here.pop()
                    crossings -= 1
                    continue
            here.append(len(out))
            crossings += 1
        out.append(letter)
    return tuple(filter(None, out))


def rho_word(w: Word) -> PolyMatrix:
    """Left-to-right product of the letter images; dimension = strand count.
    It walks w reduced modulo far commutation (_reduce_far, then rho_walk)
    and decodes the walk's state: images of letters two or more indices
    apart commute, and each letter's image times its inverse's is exactly
    the identity, so cancelling a pair with only far letters between
    leaves the product unchanged and saves its crossings (a projected
    sigma_{k-1}^-1 sigma_k is delta_c delta_c^-1, 2(n-1) crossings that
    cancel, and in a product of conjugates u sigma_i^2 u^-1 a letter often
    meets its inverse across far letters).  The kernel search decides its
    candidates with it, on free reductions built by words.reduce_onto.

    Computed by column operations: right-multiplying by a generator image
    touches two columns (crossings) or rotates the columns (cyclic shift),
    which is exact and agrees entry-for-entry with the generic matrix
    product.  The walk keeps one record (col, bound, a, b) per column: the
    column is the dict col (Column) times the monomial factor t^a s^b.  The
    dict holds every nonzero s-slice of every entry of the column as packed
    t-rows, keyed by s n + row, all with one slot width W.

    Only the sum of a crossing does work on slices.  A crossing's copy
    x' = t^+-1 y is y's record with 1 added to or taken from a; tau swaps
    two records and moves their b by -+1; zeta rotates the records.  The
    sum y' = x + (1 - t^+-1) y takes x's factor and is one _cross: a copy
    of x's dict, plus each of y's slices moved by the factors' difference
    (its key by ds n), a shift and two additions each.

    Each record carries a bound on its coefficients, M_x + 2 M_y after a
    crossing; a monomial factor changes no coefficient, so the bounds
    ignore it.  Before a bound would reach 2^(W-1), the crossing's two
    columns are re-bounded at the same width (_repack): a slice whose slots
    all lie in [-2^(W/2), 2^(W/2)) by the range test (_fits_half) is only
    trimmed and bounded by 2^(W/2), and the others are decoded to their
    true maxima.  If the new bounds still reach 2^(W-1), every slice is
    repacked at about twice the bits they need.  Widening is exact, so a
    loose bound costs width, never a wrong coefficient.

    At the end each column's slices are grouped by row into Rows, the form
    that laurent._from_rows decodes, and each entry becomes a LaurentPoly
    once, times its column's factor.
    """
    check_dimension(w.n)  # before _reduce_far lays out n + 1 stacks
    width, records = rho_walk(w.n, _reduce_far(w.letters, w.n))
    n = len(records)
    polys = []
    for col, _, a, b in records:
        entries: list[Rows] = [{} for _ in range(n)]
        for key, slice_ in col.items():
            s, i = divmod(key, n)
            entries[i][s] = slice_
        # an entry 1 in a column with factor 1 comes back as the shared ONE,
        # an empty entry as the shared ZERO
        polys.append([ONE if entry == _ONE_ROWS and not (a or b) else
                      _from_rows(entry, width, a, b) if entry else ZERO
                      for entry in entries])
    return PolyMatrix.from_polys(tuple(zip(*polys)))


# Evaluation at a point is a ring homomorphism Z[t^+-1, s^+-1] -> Z/p, so a
# word whose image there is not the identity cannot have the identity as its
# exact image.  Kernel search screens its candidates this way.
SCREEN_PRIME = 2 ** 61 - 1
SCREEN_POINT = (1_234_567_891_011, 987_654_321_123)


def screen_units() -> tuple[int, int, int, int]:
    """(t0, t0^-1, s0, s0^-1) modulo SCREEN_PRIME at SCREEN_POINT."""
    p = SCREEN_PRIME
    t0, s0 = SCREEN_POINT
    return t0 % p, pow(t0, -1, p), s0 % p, pow(s0, -1, p)


def rho_columns_mod(cols: list[list[int]], letters: Iterable[Letter],
                    units: tuple[int, int, int, int]) -> list[list[int]]:
    """rho_word's column operations over Z/SCREEN_PRIME: the matrix whose
    columns are cols, right-multiplied by the letters' images evaluated at
    units = screen_units().  Letters must fit the dimension len(cols).
    Changed columns are new lists and cols itself is not touched, so a
    caller can keep it as the state to return to."""
    p = SCREEN_PRIME
    t, t_inv, s, s_inv = units
    cols = list(cols)
    for letter in letters:
        if letter.kind == ZETA:  # rotate right for zeta, left for zeta^-1
            e = letter.sign
            cols = cols[-e:] + cols[:-e]
            continue
        a = letter.index - 1
        b = a + 1
        col_a, col_b = cols[a], cols[b]
        if letter.kind == TAU:
            cols[a] = [x * s_inv % p for x in col_b]
            cols[b] = [x * s % p for x in col_a]
        elif letter.sign == 1:  # b' = t a, a' = a + b - b'
            cols[b] = new = [x * t % p for x in col_a]
            cols[a] = [(x + y - z) % p for x, y, z in zip(col_a, col_b, new)]
        else:  # a' = t^-1 b, b' = a + b - a'
            cols[a] = new = [x * t_inv % p for x in col_b]
            cols[b] = [(x + y - z) % p for x, y, z in zip(col_a, col_b, new)]
    return cols


def burau(w: Word) -> PolyMatrix:
    """Unreduced Burau matrix of a classical word (the restriction of the
    word map to classical braids); entries lie in Z[t^{+-1}]."""
    if w.flavor.group != CLASSICAL:
        raise WordError(f"burau expects a classical word, got {w.flavor!r}")
    return rho_word(w)


# ---------------------------------------------------------------------------
# Artin action: the faithful action of the braid group on a free group.
# sigma_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i, fixing the rest.
#
# The action is a homomorphism B_n -> Aut(F_n), and in B_n generators two or
# more indices apart commute, so it walks the word reduced modulo far
# commutation (_reduce_far) and gives the same images.  The budget bounds
# the images built on that walk, and an overrun counts its letters.
#
# During the walk each image is one bytes object, one byte per letter: 2g
# for x_g and 2g + 1 for x_g^-1.  Reversing an image's bytes reverses its
# letters and flipping every bit 0 inverts them, so the inverse of an image
# is image[::-1].translate(_FLIP).  One byte holds g <= ARTIN_MAX_STRANDS.

FreeWord = tuple[tuple[int, int], ...]  # (generator index 1..n, sign +-1)

ARTIN_MAX_STRANDS = 127

_FLIP = bytes(b ^ 1 for b in range(256))
# The (generator, sign) letter of each byte, shared by every image.
_LETTERS = tuple((b >> 1, -1 if b & 1 else 1) for b in range(256))


class ArtinBudgetError(RuntimeError):
    """An image outgrew the configured length budget; fall back to handle
    reduction."""


def _cancelled(u_inv: bytes, v: bytes) -> int:
    """The letters that cancel from each side of the product u v of reduced
    images, given u^-1: the common prefix of u^-1 and v, where the two
    differ in the highest set bit of their XOR.  The caller has checked
    that u_inv[0] == v[0], so at least one letter cancels."""
    size = min(len(u_inv), len(v))
    diff = int.from_bytes(u_inv[:size], "big") ^ \
        int.from_bytes(v[:size], "big")
    return size - (diff.bit_length() + 7 >> 3)


class FreeAut(namedtuple("FreeAut", "n images")):
    """Endomorphism of the free group of rank n, given by freely reduced
    images (tuple[FreeWord, ...]) of the generators x_1..x_n."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int) -> FreeAut:
        return cls(n, tuple(((i, 1),) for i in range(1, n + 1)))

    def is_identity(self) -> bool:
        return all(img == ((i, 1),)
                   for i, img in enumerate(self.images, start=1))

    def image_strings(self) -> list[str]:
        """Images in the x1/X1 convention (capital = inverse)."""
        return ["".join(("x" if sign == 1 else "X") + str(gen)
                        for gen, sign in img) for img in self.images]


def artin_apply(w: Word, budget: int = DEFAULT_ARTIN_BUDGET) -> FreeAut:
    """Compose the letter automorphisms of a classical word.  Faithfulness:
    the result is the identity automorphism iff the braid is trivial.

    It walks w reduced modulo far commutation (_reduce_far): generators two
    or more indices apart commute in B_n, and a letter times its inverse is
    the identity, so the images are those of w itself, built in fewer
    steps.

    Each image is one bytes object, a byte per letter, kept freely reduced
    with its inverse beside it.  A letter conjugates one image by another,
    a b a^-1, in two products of reduced words; each cancels only at its
    junction.  When the left factor's inverse and the right factor start
    with the same byte, as many letters cancel as the two share as a
    prefix, found from the XOR of the two prefixes read as ints; otherwise
    the factors are joined whole.  The new image's inverse is its bytes
    reversed with every sign flipped.  Image lengths can grow exponentially
    with word length; exceeding the per-image budget on the walk raises
    ArtinBudgetError, naming the length and the walked letter reached, of
    how many, and w's own length when far reduction shortened it.  A byte
    holds generators up to ARTIN_MAX_STRANDS, so n is capped there before
    any image is built.
    """
    if w.flavor.group != CLASSICAL:
        raise WordError(f"the Artin action needs a classical word, got {w.flavor!r}")
    n = w.n
    if n > ARTIN_MAX_STRANDS:  # before _reduce_far lays out n + 1 stacks
        raise WordError(f"Artin action on {n} strands is over the cap of "
                        f"{ARTIN_MAX_STRANDS}")
    letters = _reduce_far(w.letters, n)
    images = [bytes((g,)) for g in range(2, 2 * n + 2, 2)]
    inverses = [bytes((g,)) for g in range(3, 2 * n + 3, 2)]
    for position, (_, index, sign) in enumerate(letters, start=1):
        i, j = index - 1, index  # 0-based
        if sign == 1:  # x_i -> a b a^-1 with a = x_i, b = x_j; x_j -> x_i
            a, a_inv, b, b_inv = images[i], inverses[i], images[j], inverses[j]
        else:  # x_j -> a b a^-1 with a = x_j^-1, b = x_i; x_i -> x_j
            a, a_inv, b, b_inv = inverses[j], images[j], images[i], inverses[i]
        if b_inv[0] == a_inv[0]:
            m = _cancelled(b_inv, a_inv)
            c = b[:len(b) - m] + a_inv[m:]
        else:
            c = b + a_inv
        if a_inv[0] == c[0]:
            m = _cancelled(a_inv, c)
            new = a[:len(a) - m] + c[m:]
        else:
            new = a + c
        if len(new) > budget:  # a, moved whole, is one letter or was checked
            shortened = (f" (w's {len(w)} letters reduced modulo far "
                         f"commutation)" if len(letters) < len(w) else "")
            raise ArtinBudgetError(
                f"image length {len(new)} exceeded budget of {budget} "
                f"letters at letter {position} of {len(letters)}{shortened}")
        new_inv = new[::-1].translate(_FLIP)
        if sign == 1:
            images[i], inverses[i], images[j], inverses[j] = \
                new, new_inv, a, a_inv
        else:
            images[i], inverses[i], images[j], inverses[j] = \
                a_inv, a, new, new_inv
    # through a list: tuple(map(...)) grows its tuple by reallocation,
    # slower on long images and with a higher peak RSS on the verify
    # benchmark
    return FreeAut(n, tuple(tuple([_LETTERS[b] for b in image])
                            for image in images))


# ---------------------------------------------------------------------------
# Dehornoy handle reduction.
#
# A handle is a subword sigma_i^e u sigma_i^-e where u contains no
# sigma_i^{+-1} and no sigma_{i-1}^{+-1}.  Reducing it deletes the bracketing
# pair and conjugates each enclosed sigma_{i+1}^d into
# sigma_{i+1}^-e sigma_i^d sigma_{i+1}^e; all other enclosed letters commute
# with sigma_i and pass through unchanged.  Every reduction sequence
# terminates, and the final word is empty iff the braid is trivial.
#
# handle_reduce always reduces the handle with the smallest closing position
# (leftmost-innermost), on the word as a list of signed ints (sigma_i^e is
# e*i), and each step does local work only, by two invariants:
#
# - Cancellation only at the junctions.  The word is kept freely reduced, so
#   the letters before the handle and after it are reduced, and the
#   replacement is built reduced: u has no sigma_i^{+-1}, so only a run
#   sigma_{i+1}^d ... sigma_{i+1}^d could cancel inside it, and it becomes one
#   sigma_{i+1}^-e sigma_i^d ... sigma_i^d sigma_{i+1}^e.  A reduced word
#   appended to a reduced stack cancels letter pairs at the junction until one
#   stays, and the rest goes on in one piece: the replacement onto the
#   prefix, then the suffix onto that.
# - The resume point.  Whether a handle closes at position q depends only on
#   the letters up to q.  The old word had no handle closing before the
#   reduced one, and the new word equals it below the lowest height the
#   cancellation reached (at most the handle's opening position).  The scan
#   keeps its state for the prefix it has passed as a stack, one entry per
#   position, and the step pops the entries of the positions it removes, so
#   the next scan resumes where the unchanged prefix ends: each step visits
#   the letters it removes and those up to the next handle, never the prefix.


class ReductionCapError(RuntimeError):
    """Step cap exceeded before the reduction terminated (inconclusive)."""


def _check_reducible(w: Word, max_steps: int) -> None:
    if w.flavor.group != CLASSICAL:
        raise WordError(f"handle reduction needs a classical word, got {w.flavor!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")


def handle_reduce(w: Word, max_steps: int = DEFAULT_STEP_CAP) -> Word:
    """Reduce handles (leftmost-innermost first) until none remain; the
    fixed selection strategy makes runs reproducible.  It starts from
    w's free reduction, reduce_onto((), w.letters), as signed ints.  More
    than max_steps reductions raise ReductionCapError, naming the word
    length at the cap and the peak length on the way."""
    _check_reducible(w, max_steps)
    letters = [sign * index for _, index, sign in reduce_onto((), w.letters)]
    # The scan state of the prefix letters[:len(prev)]: last[i] is the
    # latest position of sigma_i^{+-1} there, prev[r] the one before r of
    # the index at r (-1 if none).
    last: dict[int, int] = {}
    prev: list[int] = []
    steps, peak = 0, len(letters)
    while True:
        for q in range(len(prev), len(letters)):
            x = letters[q]
            i = x if x > 0 else -x
            p = last.get(i, -1)
            if p >= 0 and letters[p] == -x and last.get(i - 1, -1) < p:
                break  # sigma_i^-e at p closes here: a handle
            prev.append(p)
            last[i] = q
        else:
            return Word._trusted(w.flavor, tuple(
                Letter(SIGMA, abs(x), 1 if x > 0 else -1) for x in letters))
        if steps >= max_steps:
            raise ReductionCapError(
                f"no terminal word within the step cap of {max_steps}: the "
                f"word has {len(letters)} letters at the cap, {peak} at its "
                f"longest")
        for r in range(q - 1, p - 1, -1):  # drop positions p.. from the scan
            last[abs(letters[r])] = prev[r]
        del prev[p:]
        up = i + 1 if x < 0 else -i - 1  # sigma_{i+1}^e, e the sign at p
        middle, suffix = letters[p + 1:q], letters[q + 1:]
        del letters[p:]
        replacement: list[int] = []
        for y in middle:
            if y != up and y != -up:
                replacement.append(y)
            elif replacement and replacement[-1] == up:  # inside a run
                replacement[-1] = i if y > 0 else -i
                replacement.append(up)
            else:
                replacement += (-up, i if y > 0 else -i, up)
        for piece in replacement, suffix:  # each one freely reduced
            k = 0
            while k < len(piece) and letters and letters[-1] == -piece[k]:
                letters.pop()
                if len(prev) > len(letters):  # a scanned letter went
                    y = piece[k]
                    last[y if y > 0 else -y] = prev.pop()
                k += 1
            letters += piece[k:]
        peak = max(peak, len(letters))
        steps += 1


def is_trivial_braid(w: Word, max_steps: int = DEFAULT_STEP_CAP) -> bool:
    """True iff the classical word represents the identity braid.  The
    exponent sum is a homomorphism B_n -> Z, so a word whose sum is nonzero
    is nontrivial, decided without reduction; handle reduction decides the
    words whose sum is 0 and may overrun max_steps on them.  The arguments
    are checked first, as handle_reduce checks them."""
    _check_reducible(w, max_steps)
    if sum([sign for _, _, sign in w.letters]):
        return False
    return len(handle_reduce(w, max_steps=max_steps)) == 0

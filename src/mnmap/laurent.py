"""Exact arithmetic for the ring Z[t^{+-1}, s^{+-1}] and square matrices
over it.

Polynomials are sparse term maps {(t_exp, s_exp): coeff} with Python's
arbitrary-precision integer coefficients (coefficients of long matrix words
grow exponentially and overflow machine words).  Zero coefficients are never
stored, so equality of term maps is equality of polynomials.
"""
from __future__ import annotations

import sys
from typing import Iterable, Mapping, Union

Scalar = Union[int, "LaurentPoly"]


class LaurentPoly:
    """A two-variable Laurent polynomial in canonical sparse form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        self._terms: dict[tuple[int, int], int] = {
            key: coeff for key, coeff in (terms or {}).items() if coeff != 0}

    @classmethod
    def from_nonzero(cls, terms: dict[tuple[int, int], int]) -> LaurentPoly:
        """The polynomial with this term map, taken as it is: the caller
        guarantees that no coefficient is zero, so nothing is filtered."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def monomial(cls, coeff: int, t_exp: int = 0, s_exp: int = 0) -> LaurentPoly:
        return cls({(t_exp, s_exp): coeff})

    @staticmethod
    def _coerce(value: Scalar) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly({(0, 0): value})
        return NotImplemented

    @staticmethod
    def coerce(value: Scalar) -> LaurentPoly:
        result = LaurentPoly._coerce(value)
        if result is NotImplemented:
            raise TypeError(f"cannot treat {type(value).__name__} as a "
                            "Laurent polynomial")
        return result

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """Monomials (t_exp, s_exp, coeff) sorted lexicographically by
        exponent pair; the serialization order."""
        return tuple((a, b, self._terms[(a, b)])
                     for a, b in sorted(self._terms))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly._coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable dict inside; compare by value only

    def __add__(self, other: Scalar) -> LaurentPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            total = terms.get(key, 0) + coeff
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = terms
        return result

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = {k: -c for k, c in self._terms.items()}
        return result

    def __sub__(self, other: Scalar) -> LaurentPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: Scalar) -> LaurentPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                total = terms.get(key, 0) + c1 * c2
                if total:
                    terms[key] = total
                else:
                    terms.pop(key, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = terms
        return result

    __rmul__ = __mul__

    def specialize(self, t0: int, s0: int) -> int:
        """Evaluate at unit points t0, s0 in {-1, 1} (the only integer points
        where t^-1, s^-1 evaluate exactly)."""
        if t0 not in (-1, 1) or s0 not in (-1, 1):
            raise ValueError(f"evaluation point must be units, got ({t0}, {s0})")
        total = 0
        for (a, b), coeff in self._terms.items():
            total += coeff * (t0 ** (a & 1)) * (s0 ** (b & 1))
        return total

    def to_json_obj(self) -> list[list]:
        return [[a, b, str(c)] for a, b, c in self.terms()]

    @classmethod
    def from_json_obj(cls, obj: Iterable) -> LaurentPoly:
        return cls({(int(a), int(b)): int(c) for a, b, c in obj})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for a, b, coeff in self.terms():
            mono = "*".join(
                var if e == 1 else f"{var}^{e}"
                for var, e in (("t", a), ("s", b)) if e != 0)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({(0, 0): 1})
T = LaurentPoly.monomial(1, 1, 0)
S = LaurentPoly.monomial(1, 0, 1)
T_INV = LaurentPoly.monomial(1, -1, 0)
S_INV = LaurentPoly.monomial(1, 0, -1)

# Packed rows (Kronecker substitution, one slot width W in bits, a multiple
# of 8): for each power of s, (t_lo, v), where v is that s-slice's t-row
# c_0 + c_1 t + ... (c_i the coefficient of t^(t_lo+i)) evaluated at
# t = 2^W, one int whose W-bit slots are the signed c_i.  It decodes back
# while every |c_i| < 2^(W-1) (_unpack).  A slice whose v is 0 is dropped;
# ints and dicts are shared and never changed in place once built.
# rho_word walks and PolyMatrix.det expands on this form.
Rows = dict[int, tuple[int, int]]

# Whether 64-bit slots can be read as native unsigned words.
_LITTLE_ENDIAN = sys.byteorder == "little"


# _bias's cache: for each slot width W, 2^(W-1) in each of the most slots
# asked for so far.  Fewer slots are a right shift of it.
_BIASES: dict[int, int] = {}


def _bias(width: int, slots: int) -> int:
    """2^(width-1) in each of slots width-bit slots: the cached int for
    width shifted down, or built from bytes once when slots exceeds it."""
    bias = _BIASES.get(width, 0)
    extra = bias.bit_length() - width * slots
    if extra >= 0:
        return bias >> extra
    bias = _BIASES[width] = int.from_bytes(
        (bytes((width >> 3) - 1) + b"\x80") * slots, "little")
    return bias


def _unpack(v: int, width: int) -> list[int]:
    """The signed width-bit slots of v, lowest first, up to the highest
    nonzero one, exact while each is below 2^(width-1) in magnitude: adding
    2^(width-1) to every slot (_bias) makes them nonnegative bytes to cut
    apart.  At W = 64 on a little-endian machine, flipping each slot's top
    bit back leaves every slot in two's complement, read in one C-level
    pass."""
    half = 1 << (width - 1)
    if -half < v < half:
        return [v]
    size, slots = width >> 3, v.bit_length() // width + 1
    bias = _bias(width, slots)
    if width == 64 and _LITTLE_ENDIAN:
        return memoryview(((v + bias) ^ bias).to_bytes(
            slots * size, "little")).cast("q").tolist()
    raw = (v + bias).to_bytes(slots * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, slots * size, size)]


def _pack(coeffs: list[int], width: int) -> int:
    """The int whose signed width-bit slots are coeffs, lowest first."""
    size, half = width >> 3, 1 << (width - 1)
    biased = int.from_bytes(b"".join((c + half).to_bytes(size, "little")
                                     for c in coeffs), "little")
    return biased - _bias(width, len(coeffs))


def _to_rows(p: LaurentPoly, width: int) -> Rows:
    """p's packed rows, each from its lowest power of t to its highest."""
    slices: dict[int, dict[int, int]] = {}
    for (a, b), c in p._terms.items():
        slices.setdefault(b, {})[a] = c
    return {s: (min(row), _pack([row.get(a, 0) for a in range(
        min(row), max(row) + 1)], width)) for s, row in slices.items()}


def _from_rows(entry: Rows, width: int, t_exp: int = 0, s_exp: int = 0
               ) -> LaurentPoly:
    """The polynomial of packed rows, times t^t_exp s^s_exp: s_exp is
    added once per slice, t_exp once per slice by enumerate's start."""
    return LaurentPoly.from_nonzero({
        (a, b): c for s, (lo, v) in entry.items() for b in [s + s_exp]
        for a, c in enumerate(_unpack(v, width), lo + t_exp) if c})

# Matrices are dense, n^2 entries: the dimension is checked against this
# bound before anything of that size is built.
MAX_DIMENSION = 256


def check_dimension(n: int) -> None:
    """Raise ValueError if n is over MAX_DIMENSION."""
    if n > MAX_DIMENSION:
        raise ValueError(f"matrix dimension {n} is over the cap of "
                         f"{MAX_DIMENSION}")


# The determinant computes every minor of the bottom rows once: n * 2^(n-1)
# products of packed rows, still exponential, so inputs stay small.
DET_DIMENSION_CAP = 8

# The determinant's packed minors span at most (sum of the rows' t-spans + 1)
# slots of W bits per power of s; that size is checked against this cap
# before anything is packed.  The 8x8 Burau determinant of a 4,000-letter
# word on 8 strands needs about 21 Mbit.
DET_SLICE_BITS_CAP = 1 << 25


class PolyMatrix:
    """Square matrix over Z[t^{+-1}, s^{+-1}], row-major."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        self.rows: tuple[tuple[LaurentPoly, ...], ...] = tuple(
            tuple(LaurentPoly.coerce(entry) for entry in row) for row in rows)
        self.n = len(self.rows)
        if self.n < 1 or any(len(row) != self.n for row in self.rows):
            raise ValueError("matrix must be square with dimension >= 1")

    @classmethod
    def from_polys(cls, rows: tuple[tuple[LaurentPoly, ...], ...]
                   ) -> PolyMatrix:
        """The matrix with these rows, taken as they are: the caller
        guarantees a square tuple of tuples of LaurentPoly entries, so
        nothing is coerced or checked."""
        matrix = cls.__new__(cls)
        matrix.rows = rows
        matrix.n = len(rows)
        return matrix

    @classmethod
    def identity(cls, n: int) -> PolyMatrix:
        if n < 1:
            raise ValueError("matrix must be square with dimension >= 1")
        check_dimension(n)
        return cls.from_polys(tuple(
            tuple(ONE if i == j else ZERO for j in range(n))
            for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    __hash__ = None

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        """The product, fused over term maps: each column of other is
        listed once as its nonzero (row index, term map) pairs, and each
        output entry accumulates every term product c1*c2 of its row and
        column into one dict keyed by exponent pair.  Zero coefficients are
        dropped once, at the end, and only if one occurs; an empty entry is
        the shared ZERO.  No intermediate polynomial is built."""
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        columns = [[(k, entry._terms.items()) for k, entry in enumerate(column)
                    if entry._terms] for column in zip(*other.rows)]
        rows = []
        for row in self.rows:
            out = []
            for column in columns:
                acc: dict[tuple[int, int], int] = {}
                for k, right in column:
                    for (a1, b1), c1 in row[k]._terms.items():
                        for (a2, b2), c2 in right:
                            key = (a1 + a2, b1 + b2)
                            if key in acc:
                                acc[key] += c1 * c2
                            else:
                                acc[key] = c1 * c2
                if acc and 0 in acc.values():
                    acc = {key: c for key, c in acc.items() if c}
                out.append(LaurentPoly.from_nonzero(acc) if acc else ZERO)
            rows.append(tuple(out))
        return PolyMatrix.from_polys(tuple(rows))

    def is_identity(self) -> bool:
        """Whether every diagonal term map is ONE's and every other one is
        empty, compared directly."""
        one = ONE._terms
        return all(entry._terms == one if i == j else not entry._terms
                   for i, row in enumerate(self.rows)
                   for j, entry in enumerate(row))

    def transpose(self) -> PolyMatrix:
        return PolyMatrix.from_polys(tuple(zip(*self.rows)))

    def det(self) -> LaurentPoly:
        """Exact determinant by Laplace expansion with each minor computed
        once (dimension capped), on packed rows (Rows) of one slot width W.

        B, the product of the rows' l1 norms, bounds every coefficient of
        every minor and of every partial sum of the expansion (triangle
        inequality), so W = bit length of B + 2, rounded up to whole bytes,
        never overflows a slot and a packed int is 0 exactly when its
        polynomial is.  A product of an entry and a minor multiplies their
        s-slices as ints; only the full minor is decoded.  The packed size
        is checked against DET_SLICE_BITS_CAP before anything is packed.
        """
        if self.n > DET_DIMENSION_CAP:
            raise ValueError(
                f"determinant capped at dimension {DET_DIMENSION_CAP}")
        bound, span = 1, 0
        for row in self.rows:
            bound *= sum(abs(c) for entry in row
                         for c in entry._terms.values())
            if not bound:  # a zero row
                return ZERO
            exps = [a for entry in row for a, _ in entry._terms]
            span += max(exps) - min(exps)
        width = -(-(bound.bit_length() + 2) // 8) * 8
        bits = (span + 1) * width
        if bits > DET_SLICE_BITS_CAP:
            raise ValueError(
                f"determinant needs packed minors of {bits} bits per power "
                f"of s, over the cap of {DET_SLICE_BITS_CAP}")
        return _from_rows(_det(self.rows, width), width)

    def specialize(self, t0: int, s0: int) -> tuple[tuple[int, ...], ...]:
        """Entry-wise exact evaluation at unit points."""
        return tuple(tuple(entry.specialize(t0, s0) for entry in row)
                     for row in self.rows)

    def to_json_obj(self) -> dict:
        return {"n": self.n,
                "entries": [[entry.to_json_obj() for entry in row]
                            for row in self.rows]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> PolyMatrix:
        rows = [[LaurentPoly.from_json_obj(entry) for entry in row]
                for row in obj["entries"]]
        matrix = cls(rows)
        if matrix.n != obj["n"]:
            raise ValueError("dimension field disagrees with entries")
        return matrix

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(entry) for entry in row) + "]"
            for row in self.rows)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.n}x{self.n})"


def _det(rows: tuple[tuple[LaurentPoly, ...], ...], width: int) -> Rows:
    """Expand row by row from the bottom.  minors[mask] is the determinant of
    the rows processed so far restricted to the columns in mask; prepending
    a row expands along it, with sign (-1)^(columns of mask left of j).
    Sums align the t-offsets of a slice by shifting the higher one up."""
    minors: dict[int, Rows] = {0: {0: (0, 1)}}
    for row in reversed(rows):
        packed = [_to_rows(entry, width) for entry in row]
        extended: dict[int, Rows] = {}
        for mask, minor in minors.items():
            negative = False
            for j, entry in enumerate(packed):
                bit = 1 << j
                if mask & bit:
                    negative = not negative
                    continue
                if not entry:
                    continue
                acc = extended.setdefault(mask | bit, {})
                for s1, (lo1, v1) in entry.items():
                    if negative:
                        v1 = -v1
                    for s2, (lo2, v2) in minor.items():
                        s, lo, v = s1 + s2, lo1 + lo2, v1 * v2
                        old = acc.get(s)
                        if old is not None:
                            lo_x, vx = old
                            if lo_x <= lo:
                                v, lo = vx + (v << width * (lo - lo_x)), lo_x
                            else:
                                v = (vx << width * (lo_x - lo)) + v
                            if not v:
                                del acc[s]
                                continue
                        acc[s] = (lo, v)
        minors = {mask: minor for mask, minor in extended.items() if minor}
    return minors.get((1 << len(rows)) - 1, {})

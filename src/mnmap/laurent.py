"""Exact arithmetic for the ring Z[t^{+-1}, s^{+-1}] and square matrices
over it.

Polynomials are sparse term maps {(t_exp, s_exp): coeff} with Python's
arbitrary-precision integer coefficients (coefficients of long matrix words
grow exponentially and overflow machine words).  Zero coefficients are never
stored, so equality of term maps is equality of polynomials.
"""
from __future__ import annotations

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
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({(0, 0): 1})

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

    def __pow__(self, e: int) -> LaurentPoly:
        if e < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        for _ in range(e):
            result = result * self
        return result

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


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
T = LaurentPoly.monomial(1, 1, 0)
S = LaurentPoly.monomial(1, 0, 1)
T_INV = LaurentPoly.monomial(1, -1, 0)
S_INV = LaurentPoly.monomial(1, 0, -1)

# Matrices are dense, n^2 entries: the dimension is checked against this
# bound before anything of that size is built.
MAX_DIMENSION = 256


def check_dimension(n: int) -> None:
    """Raise ValueError if n is over MAX_DIMENSION."""
    if n > MAX_DIMENSION:
        raise ValueError(f"matrix dimension {n} is over the cap of "
                         f"{MAX_DIMENSION}")


# The determinant computes every minor of the bottom rows once: n * 2^(n-1)
# polynomial products, still exponential, so inputs stay small.
DET_DIMENSION_CAP = 8


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
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        columns = tuple(zip(*other.rows))
        return PolyMatrix.from_polys(tuple(
            tuple(_dot(row, column) for column in columns)
            for row in self.rows))

    def is_identity(self) -> bool:
        return all((entry == ONE) if i == j else not entry
                   for i, row in enumerate(self.rows)
                   for j, entry in enumerate(row))

    def transpose(self) -> PolyMatrix:
        return PolyMatrix.from_polys(tuple(zip(*self.rows)))

    def det(self) -> LaurentPoly:
        """Exact determinant by Laplace expansion with each minor computed
        once (dimension capped)."""
        if self.n > DET_DIMENSION_CAP:
            raise ValueError(
                f"determinant capped at dimension {DET_DIMENSION_CAP}")
        return _det(self.rows)

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


def _dot(row: tuple[LaurentPoly, ...],
         column: tuple[LaurentPoly, ...]) -> LaurentPoly:
    """Sum of the entry products, skipping those with a zero factor."""
    acc = ZERO
    for left, right in zip(row, column):
        if left and right:
            acc = acc + left * right
    return acc


def _det(rows: tuple[tuple[LaurentPoly, ...], ...]) -> LaurentPoly:
    """Expand row by row from the bottom.  minors[mask] is the determinant of
    the rows processed so far restricted to the columns in mask; prepending
    a row expands along it, with sign (-1)^(columns of mask left of j)."""
    minors = {0: ONE}
    for row in reversed(rows):
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
    return minors.get((1 << len(rows)) - 1, ZERO)

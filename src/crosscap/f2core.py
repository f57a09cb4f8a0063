"""Bit-packed exact linear algebra over F2 for surface homology classes.

A rank-g mod-2 homology class is an integer bit mask over the standard basis
x1..xg of one-sided circles (x1 is bit 0).  The intersection pairing is the
identity Gram matrix in this basis: the basis circles are disjoint and each
is one-sided, so distinct circles pair to 0 and every circle pairs to 1 with
itself.  Matrices are tuples of column masks and are validated to be
invertible at construction.  All values are immutable and every operation is
pure, so they can be shared freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

MAX_GENUS = 64


class GenusMismatchError(ValueError):
    """Two operands were built over different genera."""


class SingularMatrixError(ValueError):
    """A construction would produce a non-invertible matrix over F2."""


class BudgetExceededError(RuntimeError):
    """An operation was asked to exceed its documented search budget."""


class FalsificationError(RuntimeError):
    """A machine check contradicted a classification claim."""


def _require_genus_budget(what: str, g: int, cap: int) -> None:
    """Refuse an exponential search above its genus budget, before any work."""
    if g > cap:
        raise BudgetExceededError(f"{what} is budgeted for genus <= {cap}, got {g}")


class InternalCheckError(AssertionError):
    """An internal invariant or certificate replay failed.

    This signals a defect in the package, never a verdict about the input.
    Raised explicitly, so the check also runs under `python -O`.
    """


def _check(ok: bool, what: str) -> None:
    """An internal invariant; unlike `assert`, it survives `python -O`."""
    if not ok:
        raise InternalCheckError(what)


@dataclass(frozen=True, order=True)
class Genus:
    """Crosscap count of the surface; fixes the rank of mod-2 homology."""

    g: int

    def __post_init__(self) -> None:
        if not isinstance(self.g, int) or isinstance(self.g, bool):
            raise TypeError(f"genus must be an int, got {type(self.g).__name__}")
        if not 1 <= self.g <= MAX_GENUS:
            raise ValueError(f"genus must be in 1..{MAX_GENUS}, got {self.g}")


def _require_same_genus(a, b) -> None:
    if a.genus != b.genus:
        raise GenusMismatchError(f"mixed genera: {a.genus.g} and {b.genus.g}")


_VECTOR_TEXT = re.compile(r"x[0-9]+(?:\+x[0-9]+)*")


@dataclass(frozen=True)
class H1Vector:
    """A mod-2 homology class, stored as a bit mask over x1..xg."""

    genus: Genus
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << self.genus.g:
            raise ValueError(
                f"bit mask {self.bits:#x} out of range for genus {self.genus.g}"
            )

    @classmethod
    def zero(cls, genus: Genus) -> "H1Vector":
        return cls(genus, 0)

    @classmethod
    def basis(cls, genus: Genus, index: int) -> "H1Vector":
        """The basis class x_index (1-based)."""
        if not 1 <= index <= genus.g:
            raise ValueError(f"basis index {index} out of range 1..{genus.g}")
        return cls(genus, 1 << (index - 1))

    @classmethod
    def from_indices(cls, genus: Genus, indices) -> "H1Vector":
        bits = 0
        for i in indices:
            if not 1 <= i <= genus.g:
                raise ValueError(f"index {i} out of range 1..{genus.g}")
            bits |= 1 << (i - 1)
        return cls(genus, bits)

    @classmethod
    def parse(cls, genus: Genus, text: str) -> "H1Vector":
        """Parse either "x1+x3+x4" notation or a bit string "10110" (x1 leftmost)."""
        s = text.strip().replace(" ", "")
        if s == "0":
            return cls.zero(genus)
        if re.fullmatch(r"[01]+", s):
            if len(s) != genus.g:
                raise ValueError(
                    f"bit string length {len(s)} does not match genus {genus.g}"
                )
            bits = 0
            for pos, ch in enumerate(s):
                if ch == "1":
                    bits |= 1 << pos
            return cls(genus, bits)
        if not _VECTOR_TEXT.fullmatch(s):
            raise ValueError(f"cannot parse vector notation {text!r}")
        indices = [int(tok[1:]) for tok in s.split("+")]
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated index in vector notation {text!r}")
        return cls.from_indices(genus, indices)

    @property
    def support(self) -> tuple[int, ...]:
        """1-based indices with coefficient 1, ascending."""
        return tuple(i + 1 for i in range(self.genus.g) if (self.bits >> i) & 1)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "H1Vector") -> "H1Vector":
        _require_same_genus(self, other)
        return H1Vector(self.genus, self.bits ^ other.bits)

    def to_text(self) -> str:
        if self.bits == 0:
            return "0"
        return "+".join(f"x{i}" for i in self.support)

    def __str__(self) -> str:
        return self.to_text()


# bits 0, 2, 4, ... of a 64-bit word
_ALTERNATE_BITS = 0x5555_5555_5555_5555


def _odd_mask(g: int) -> int:
    # odd 1-based indices live on even bit positions
    return _ALTERNATE_BITS & ((1 << g) - 1)


def intersection(v: H1Vector, w: H1Vector) -> int:
    """Mod-2 intersection number of two classes (identity Gram matrix)."""
    _require_same_genus(v, w)
    return (v.bits & w.bits).bit_count() & 1


def _column_rank(masks, g: int) -> int:
    basis: dict[int, int] = {}
    rank = 0
    for m in masks:
        cur = m
        while cur:
            lead = cur.bit_length() - 1
            if lead in basis:
                cur ^= basis[lead]
            else:
                basis[lead] = cur
                rank += 1
                break
    return rank


def apply_mask(cols: tuple[int, ...], bits: int) -> int:
    """Matrix-vector product over F2 with the matrix given as column masks."""
    out = 0
    v = bits
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out


@dataclass(frozen=True)
class H1Matrix:
    """An invertible F2 matrix; column j is the image of basis class x_{j+1}."""

    genus: Genus
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        g = self.genus.g
        if len(self.cols) != g:
            raise ValueError(f"expected {g} columns, got {len(self.cols)}")
        for c in self.cols:
            if not 0 <= c < 1 << g:
                raise ValueError(f"column mask {c:#x} out of range for genus {g}")
        if _column_rank(self.cols, g) != g:
            raise SingularMatrixError("matrix is singular over F2")

    @classmethod
    def identity(cls, genus: Genus) -> "H1Matrix":
        return cls(genus, tuple(1 << j for j in range(genus.g)))

    def apply(self, v: H1Vector) -> H1Vector:
        _require_same_genus(self, v)
        return H1Vector(self.genus, apply_mask(self.cols, v.bits))

    @property
    def is_identity(self) -> bool:
        return all(self.cols[j] == 1 << j for j in range(self.genus.g))

    def inverse(self) -> "H1Matrix":
        g = self.genus.g
        # rows of [M | I]; Gauss-Jordan to [I | M^-1]
        rows = []
        for i in range(g):
            row = 1 << (g + i)
            for j in range(g):
                if (self.cols[j] >> i) & 1:
                    row |= 1 << j
            rows.append(row)
        for col in range(g):
            piv = next(r for r in range(col, g) if (rows[r] >> col) & 1)
            rows[col], rows[piv] = rows[piv], rows[col]
            for r in range(g):
                if r != col and (rows[r] >> col) & 1:
                    rows[r] ^= rows[col]
        inv_cols = [0] * g
        for i in range(g):
            hi = rows[i] >> g
            for j in range(g):
                if (hi >> j) & 1:
                    inv_cols[j] |= 1 << i
        return H1Matrix(self.genus, tuple(inv_cols))

    def to_col_bitstrings(self) -> list[str]:
        g = self.genus.g
        return [
            "".join("1" if (c >> i) & 1 else "0" for i in range(g)) for c in self.cols
        ]

    def __str__(self) -> str:
        g = self.genus.g
        lines = []
        for i in range(g):
            lines.append(" ".join("1" if (self.cols[j] >> i) & 1 else "0" for j in range(g)))
        return "\n".join(lines)


def compose(m: H1Matrix, n: H1Matrix) -> H1Matrix:
    """The matrix of m after n (n acts first), matching word composition order."""
    _require_same_genus(m, n)
    return H1Matrix(m.genus, tuple(apply_mask(m.cols, c) for c in n.cols))


def transvection(axis: H1Vector) -> H1Matrix:
    """Matrix of x -> x + (x . axis) axis, an involution for even-weight axes.

    Rejects the zero axis and odd-weight axes: an odd-weight axis pairs to 1
    with itself, so it would map to 0 and the result would be singular.
    """
    if axis.bits == 0:
        raise SingularMatrixError("transvection about the zero class is not defined")
    if axis.weight & 1:
        raise SingularMatrixError(
            f"transvection about {axis.to_text()} would be singular: the axis has "
            "odd weight, so it pairs to 1 with itself and maps to 0"
        )
    g = axis.genus.g
    cols = tuple(
        (1 << j) ^ (axis.bits if (axis.bits >> j) & 1 else 0) for j in range(g)
    )
    return H1Matrix(axis.genus, cols)


def preserves_intersection_form(m: H1Matrix) -> bool:
    """Whether columns are orthonormal for the identity Gram matrix."""
    g = m.genus.g
    for i in range(g):
        for j in range(i, g):
            want = 1 if i == j else 0
            if (m.cols[i] & m.cols[j]).bit_count() & 1 != want:
                return False
    return True

"""Sparse matrices over the Gaussian rationals.

The assembled forms are mostly exact zeros, so a matrix keeps one dict
{column: entry} per row holding its nonzero entries only, and every
operation visits those alone.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ._kernel import GR_ZERO as _ZERO, GaussianRational


class ExactMatrix:
    """Immutable-by-convention matrix with GaussianRational entries.

    ``entries[i]`` maps each column j of a nonzero entry (i, j) to it; no
    stored entry is zero, and every other entry is.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data: Iterable[Iterable[GaussianRational]]):
        """From dense rows; zeros are dropped."""
        dense = [list(row) for row in data]
        cols = len(dense[0]) if dense else 0
        for row in dense:
            if len(row) != cols:
                raise ValueError("ragged rows")
        self.rows = len(dense)
        self.cols = cols
        self.entries = [
            {j: c for j, c in enumerate(row) if not c.is_zero} for row in dense
        ]

    @classmethod
    def sparse(cls, rows: int, cols: int, entries: list[dict]) -> "ExactMatrix":
        """The matrix with these row dicts, taken as they are: their keys lie
        in range(cols) and none of their values is zero."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.entries = entries
        return self

    @classmethod
    def build(cls, rows: int, cols: int, entry: Callable[[int, int], GaussianRational]) -> "ExactMatrix":
        return cls([[entry(i, j) for j in range(cols)] for i in range(rows)])

    @property
    def data(self) -> list[list[GaussianRational]]:
        """A dense copy of the rows, built on each access."""
        cols = range(self.cols)
        return [[row.get(j, _ZERO) for j in cols] for row in self.entries]

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return self.entries[i].get(j, _ZERO)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (
            other.rows,
            other.cols,
            other.entries,
        )

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def first_nonzero(self) -> tuple[int, int] | None:
        """The first nonzero entry in row-major order."""
        for i, row in enumerate(self.entries):
            if row:
                return (i, min(row))
        return None

    def transpose(self) -> "ExactMatrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, c in row.items():
                out[j][i] = c
        return ExactMatrix.sparse(self.cols, self.rows, out)

    def permute_rows(self, perm: list[int]) -> "ExactMatrix":
        """Row i of the result is row perm[i] of the input."""
        if sorted(perm) != list(range(self.rows)):
            raise ValueError("not a permutation of the row indices")
        return ExactMatrix.sparse(
            self.rows, self.cols, [self.entries[p] for p in perm]
        )

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        entries = self.entries
        for i, row in enumerate(entries):
            for j, upper in row.items():
                lower = entries[j].get(i)
                if lower is None:
                    return False
                # one object on both sides (the diagonal, real mirror
                # entries) is its own conjugate exactly when real
                if upper is lower:
                    if not upper.is_real:
                        return False
                elif upper != lower.conjugate():
                    return False
        return True

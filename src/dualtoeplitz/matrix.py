"""Dense matrices over the Gaussian rationals."""

from __future__ import annotations

from typing import Callable, Iterable

from ._kernel import GR_ZERO as _ZERO, GaussianRational


class ExactMatrix:
    """Immutable-by-convention dense matrix with GaussianRational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[GaussianRational]]):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def build(cls, rows: int, cols: int, entry: Callable[[int, int], GaussianRational]) -> "ExactMatrix":
        return cls([[entry(i, j) for j in range(cols)] for i in range(rows)])

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.data == other.data

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for row in self.data for c in row)

    def first_nonzero(self) -> tuple[int, int] | None:
        for i, row in enumerate(self.data):
            for j, c in enumerate(row):
                if not c.is_zero:
                    return (i, j)
        return None

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def conjugate_transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [
                [self.data[i][j].conjugate() for i in range(self.rows)]
                for j in range(self.cols)
            ]
        )

    def permute_rows(self, perm: list[int]) -> "ExactMatrix":
        """Row i of the result is row perm[i] of the input."""
        if sorted(perm) != list(range(self.rows)):
            raise ValueError("not a permutation of the row indices")
        return ExactMatrix([self.data[p] for p in perm])

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        data = self.data
        for i, row in enumerate(data):
            for j in range(i, self.rows):
                upper, lower = row[j], data[j][i]
                # one object on both sides (the diagonal, shared zeros, real
                # mirror entries) is its own conjugate exactly when real
                if upper is lower:
                    if not upper.is_real:
                        return False
                elif upper != lower.conjugate():
                    return False
        return True

    def copy_data(self) -> list[list[GaussianRational]]:
        return [list(row) for row in self.data]

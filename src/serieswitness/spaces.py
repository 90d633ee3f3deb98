"""Normed-space arithmetic on sparse, finitely supported vectors.

Three concrete space models are supported: the real line, R^d under an
lp norm, and lp / sup-norm sequence spaces restricted to finite supports
(the sup-norm sequence model stands in for c0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

# Margin used whenever a certified strict inequality is checked against
# floating point data.  All constructions in this package cross their
# bounds with real slack, so 1e-9 separates rounding noise from failure.
DELTA = 1e-9

REAL_LINE = "real-line"
EUCLIDEAN = "euclidean"
SEQUENCE = "sequence"


class DimensionMismatch(ValueError):
    """A vector's support does not fit inside the target space."""


@dataclass(frozen=True)
class SpaceSpec:
    """Ambient normed space descriptor.

    kind is one of "real-line", "euclidean" (requires a dimension) or
    "sequence".  exponent is the lp exponent, with math.inf meaning the
    sup norm.
    """

    kind: str
    dimension: int | None = None
    exponent: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in (REAL_LINE, EUCLIDEAN, SEQUENCE):
            raise ValueError(f"unknown space kind: {self.kind!r}")
        if self.kind == EUCLIDEAN:
            if self.dimension is None or self.dimension < 1:
                raise ValueError("euclidean space requires dimension >= 1")
        elif self.dimension is not None:
            raise ValueError(f"{self.kind} space takes no dimension")
        if not (self.exponent == math.inf or self.exponent >= 1.0):
            raise ValueError("norm exponent must be >= 1 or infinity")

    @property
    def is_scalar(self) -> bool:
        return self.kind == REAL_LINE

    def index_bound(self) -> int | None:
        """Largest coordinate index the space admits, or None if unbounded."""
        if self.kind == REAL_LINE:
            return 1
        if self.kind == EUCLIDEAN:
            return self.dimension
        return None

    def describe(self) -> str:
        p = "sup" if self.exponent == math.inf else f"l{self.exponent:g}"
        if self.kind == REAL_LINE:
            return "real line"
        if self.kind == EUCLIDEAN:
            return f"R^{self.dimension} ({p} norm)"
        return f"sequence space ({p} norm)"


def real_line() -> SpaceSpec:
    return SpaceSpec(REAL_LINE)


def euclidean(dimension: int, exponent: float = 2.0) -> SpaceSpec:
    return SpaceSpec(EUCLIDEAN, dimension=dimension, exponent=exponent)


def sequence_space(exponent: float = math.inf) -> SpaceSpec:
    return SpaceSpec(SEQUENCE, exponent=exponent)


@dataclass(frozen=True)
class FiniteSupportVector:
    """Sparse vector: sorted (index, coefficient) pairs, 1-based indices.

    Zero coefficients are never stored, so the empty tuple is the zero
    vector and equality is structural.
    """

    entries: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        last = 0
        for index, coeff in self.entries:
            if index < 1:
                raise ValueError("coordinate indices are 1-based")
            if index <= last:
                raise ValueError("entries must be sorted by index")
            if coeff == 0.0:
                raise ValueError("zero coefficients must not be stored")
            last = index

    @classmethod
    def from_mapping(cls, data: Mapping[int, float]) -> "FiniteSupportVector":
        items = tuple(sorted((int(i), float(c)) for i, c in data.items() if c != 0.0))
        return cls(items)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def coefficient(self, index: int) -> float:
        for i, c in self.entries:
            if i == index:
                return c
            if i > index:
                break
        return 0.0

    def __bool__(self) -> bool:
        return bool(self.entries)


ZERO_VECTOR = FiniteSupportVector()


def fsv(data: Mapping[int, float]) -> FiniteSupportVector:
    """Shorthand constructor from an index -> coefficient mapping."""
    return FiniteSupportVector.from_mapping(data)


def basis(index: int, coefficient: float = 1.0) -> FiniteSupportVector:
    """The vector coefficient * e_index."""
    return fsv({index: coefficient})


def scalar(value: float) -> FiniteSupportVector:
    """A real number embedded as a vector supported on coordinate 1."""
    return fsv({1: value})


def _check_support(space: SpaceSpec, v: FiniteSupportVector) -> None:
    bound = space.index_bound()
    if bound is not None and v.entries and v.entries[-1][0] > bound:
        raise DimensionMismatch(
            f"support reaches coordinate {v.entries[-1][0]} "
            f"but the space only has {bound}"
        )


def norm(space: SpaceSpec, v: FiniteSupportVector) -> float:
    """lp or sup norm of v in the given space.  norm(0) is 0."""
    _check_support(space, v)
    if not v.entries:
        return 0.0
    if space.kind == REAL_LINE:
        return abs(v.entries[0][1])
    if space.exponent == math.inf:
        return max(abs(c) for _, c in v.entries)
    p = space.exponent
    return math.fsum(abs(c) ** p for _, c in v.entries) ** (1.0 / p)


def axpy(a: float, v: FiniteSupportVector, w: FiniteSupportVector) -> FiniteSupportVector:
    """a*v + w with exact-zero cancellations dropped from storage."""
    acc = dict(w.entries)
    for index, coeff in v.entries:
        new = acc.get(index, 0.0) + a * coeff
        if new == 0.0:
            acc.pop(index, None)
        else:
            acc[index] = new
    return FiniteSupportVector.from_mapping(acc)


def negate(v: FiniteSupportVector) -> FiniteSupportVector:
    return FiniteSupportVector(tuple((i, -c) for i, c in v.entries))

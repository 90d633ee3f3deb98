"""Normed spaces and sparse, finitely supported vectors.

Two concrete space models are supported: the real line and the sup-norm
sequence space restricted to finite supports (it stands in for c0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

# Margin used whenever a certified strict inequality is checked against
# floating point data.  All constructions in this package cross their
# bounds with real slack, so 1e-9 separates rounding noise from failure.
DELTA = 1e-9

REAL_LINE = "real-line"
SEQUENCE = "sequence"


@dataclass(frozen=True)
class SpaceSpec:
    """Ambient normed space descriptor: "real-line" (absolute value) or
    "sequence" (sup norm)."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (REAL_LINE, SEQUENCE):
            raise ValueError(f"unknown space kind: {self.kind!r}")

    @property
    def is_scalar(self) -> bool:
        return self.kind == REAL_LINE

    def describe(self) -> str:
        return "real line" if self.kind == REAL_LINE else "sequence space (sup norm)"


def real_line() -> SpaceSpec:
    return SpaceSpec(REAL_LINE)


def sequence_space() -> SpaceSpec:
    return SpaceSpec(SEQUENCE)


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

    def __bool__(self) -> bool:
        return bool(self.entries)


def fsv(data: Mapping[int, float]) -> FiniteSupportVector:
    """Shorthand constructor from an index -> coefficient mapping."""
    return FiniteSupportVector.from_mapping(data)


def basis(index: int, coefficient: float = 1.0) -> FiniteSupportVector:
    """The vector coefficient * e_index."""
    return fsv({index: coefficient})

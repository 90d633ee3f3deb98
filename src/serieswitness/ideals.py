"""Ideals on the positive integers as finite-evidence verdict oracles.

Membership of an infinite set in the density ideal is undecidable from
finite data, so nothing here ever claims set membership.  Instead a
partial-sum trace is reduced to an exceedance report: which positions
break a bound, and how many whole intervals of a fixed interval sequence
sit inside the breakage.  Interval containment is the refutation
mechanism; enough contained intervals is evidence of ideal-unboundedness,
an empty exceedance set is evidence of plain boundedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .series import HorizonExceedsStem, PartialSumTrace, SeriesOracle, partial_sums
from .spaces import DELTA
from .stems import IndexerStem

__all__ = [
    "TalagrandSequence",
    "ExceedanceReport",
    "BoundednessVerdict",
    "geometric_talagrand",
    "linear_talagrand",
    "explicit_talagrand",
    "interval",
    "density_at",
    "exceedance_report",
    "verdict_status",
    "i_bounded_verdict",
    "DEFAULT_EVIDENCE_THRESHOLD",
]

DEFAULT_EVIDENCE_THRESHOLD = 3


@dataclass(frozen=True)
class TalagrandSequence:
    """Increasing positions n_1 < n_2 < ... cutting the line into intervals
    [n_k, n_{k+1}).  label "linear" means n_k = k, "geometric" means
    n_k = 2^k, "explicit" carries its own prefix of values."""

    label: str
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.label not in ("linear", "geometric", "explicit"):
            raise ValueError(f"unknown interval sequence {self.label!r}")
        if self.label == "explicit":
            if len(self.values) < 2:
                raise ValueError("explicit sequences need at least two entries")
            if self.values[0] < 1 or any(
                b <= a for a, b in zip(self.values, self.values[1:])
            ):
                raise ValueError("interval sequences must strictly increase from >= 1")
        elif self.values:
            raise ValueError(f"{self.label} sequences carry no explicit values")

    def n(self, k: int) -> int:
        if k < 1:
            raise ValueError("interval sequences are indexed from 1")
        if self.label == "linear":
            return k
        if self.label == "geometric":
            return 2**k
        if k > len(self.values):
            raise IndexError(f"explicit sequence has only {len(self.values)} entries")
        return self.values[k - 1]

    def max_k(self) -> int | None:
        """Last usable interval index, None when unbounded."""
        return len(self.values) - 1 if self.label == "explicit" else None

    def values_through(self, limit: int) -> np.ndarray:
        """n_1, n_2, ... up to and including the first value above limit
        (or the last explicit value)."""
        if self.label == "linear":
            return np.arange(1, limit + 2, dtype=np.int64)
        if self.label == "geometric":
            return 2 ** np.arange(1, limit.bit_length() + 1, dtype=np.int64)
        values = np.array(self.values, dtype=np.int64)
        return values[: np.searchsorted(values, limit, side="right") + 1]


def geometric_talagrand() -> TalagrandSequence:
    return TalagrandSequence("geometric")


def linear_talagrand() -> TalagrandSequence:
    return TalagrandSequence("linear")


def explicit_talagrand(values: Iterable[int]) -> TalagrandSequence:
    return TalagrandSequence("explicit", tuple(int(v) for v in values))


def interval(seq: TalagrandSequence, k: int) -> range:
    """The half-open integer interval [n_k, n_{k+1})."""
    if k < 1:
        raise ValueError("interval index must be >= 1")
    return range(seq.n(k), seq.n(k + 1))


def density_at(members: Iterable[int], n: int) -> float:
    """card(A intersect {1..n}) / n."""
    if n < 1:
        raise ValueError("density is evaluated at n >= 1")
    count = sum(1 for value in set(members) if 1 <= value <= n)
    return count / n


@dataclass(frozen=True, eq=False)
class ExceedanceReport:
    """Positions whose partial-sum norm breaks the bound, with the fully
    contained intervals of the chosen sequence listed as evidence.  Both
    are sorted, read-only int64 arrays."""

    bound: float
    horizon: int
    exceed_positions: np.ndarray
    contained_intervals: np.ndarray
    talagrand: TalagrandSequence

    @property
    def interval_count(self) -> int:
        return int(self.contained_intervals.size)


def exceedance_report(
    trace: PartialSumTrace, bound: float, seq: TalagrandSequence
) -> ExceedanceReport:
    """Evidence extraction from a trace of positions 1..horizon.

    A position exceeds when its norm is > bound + DELTA; interval k is
    listed only if every position of [n_k, n_{k+1}) lies inside both the
    exceedance set and the traced range.
    """
    if not math.isfinite(bound):
        raise ValueError("the bound must be finite; pick one above every norm")
    horizon = trace.horizon
    mask = trace.norms > bound + DELTA
    exceeding = np.concatenate(([0], np.cumsum(mask)))
    cuts = seq.values_through(horizon)
    starts, stops = cuts[:-1], cuts[1:]
    ends = np.minimum(stops - 1, horizon)
    full = exceeding[ends] - exceeding[starts - 1] == stops - starts
    positions = np.flatnonzero(mask) + 1
    contained = np.flatnonzero(full) + 1
    positions.flags.writeable = contained.flags.writeable = False
    return ExceedanceReport(
        bound=float(bound),
        horizon=horizon,
        exceed_positions=positions,
        contained_intervals=contained,
        talagrand=seq,
    )


BOUNDED_EVIDENCE = "bounded-evidence"
I_UNBOUNDED_EVIDENCE = "i-unbounded-evidence"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class BoundednessVerdict:
    """Finite evidence about ideal boundedness, never a proof.

    bounded-evidence: no exceedance up to the horizon.
    i-unbounded-evidence: at least `threshold` whole intervals exceed,
    which is the desk-scale reading of "infinitely many intervals".
    undecided: some exceedance but too few whole intervals.
    """

    status: str
    bound: float
    horizon: int
    interval_count: int
    report: ExceedanceReport


def verdict_status(report: ExceedanceReport, threshold: int) -> str:
    """The status a BoundednessVerdict with this report and threshold has."""
    if not report.exceed_positions.size:
        return BOUNDED_EVIDENCE
    if report.interval_count >= threshold:
        return I_UNBOUNDED_EVIDENCE
    return UNDECIDED


def i_bounded_verdict(
    series: SeriesOracle,
    indexer: IndexerStem,
    seq: TalagrandSequence,
    bound: float,
    horizon: int,
    threshold: int = DEFAULT_EVIDENCE_THRESHOLD,
) -> BoundednessVerdict:
    """Evidence-backed verdict on ideal boundedness of a coded partial-sum
    sequence, judged at the given bound and horizon.  The ideal enters only
    through its interval sequence `seq`."""
    if len(indexer) < horizon:
        raise HorizonExceedsStem(
            f"verdict horizon {horizon} exceeds stem length {len(indexer)}"
        )
    trace = partial_sums(series, indexer, horizon)
    report = exceedance_report(trace, bound, seq)
    return BoundednessVerdict(
        status=verdict_status(report, threshold),
        bound=float(bound),
        horizon=horizon,
        interval_count=report.interval_count,
        report=report,
    )

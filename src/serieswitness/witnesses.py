"""Witness constructions with re-verifiable certificates.

Every constructor either returns a WitnessCertificate, whose checkpoints
can be recomputed independently from the stem and the catalog, or raises
ScanExhausted.  Exhaustion is an informative verdict, not a failure: on a
series whose selections and rearrangements share one bound it is the
expected outcome, and the error records how far the scan looked.

All "smallest index" choices are first-match linear scans, so identical
inputs always produce identical certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .ideals import TalagrandSequence, interval
from .series import _BLOCK, Scan, SeriesOracle, catalog_series, crossing_scan, norms_at
from .spaces import DELTA
from .stems import (
    IndexerStem,
    RearrStem,
    SelectionStem,
    SubseqStem,
    _resplit,
    extend_to_prefix_bijection,
)

__all__ = [
    "ScanExhausted",
    "PreconditionViolation",
    "InconsistentGrowthWitness",
    "PatternTooLarge",
    "Checkpoint",
    "CheckpointColumns",
    "WitnessCertificate",
    "default_scan_horizon",
    "uniform_bound_bruteforce",
    "grow_unbounded_subseries",
    "subseries_to_rearrangement",
    "nowhere_dense_witness_subseq",
    "nowhere_dense_witness_rearr",
    "small_norm_block",
    "dense_open_witness_Bm",
    "dense_open_witness_Cm",
    "dense_open_witness_Am",
    "limsup_subseries",
    "verify_certificate",
    "relation_holds",
]

DEFAULT_SCALAR_HORIZON = 10**6
DEFAULT_SEQUENCE_HORIZON = 10**4

_MAX_INTERVAL_ATTEMPTS = 8
_MAX_PATTERN_WIDTH = 14


class ScanExhausted(Exception):
    """A bounded search ended without reaching its target.

    This is the finite stand-in for "the series may be uniformly
    bounded": the scan looked as far as `horizon` and reports the best
    norm it saw.
    """

    def __init__(
        self,
        construction: str,
        reason: str,
        horizon: int,
        best: float | None = None,
    ) -> None:
        detail = f"{construction}: {reason} within horizon {horizon}"
        if best is not None:
            detail += f" (best norm reached: {best:.6g})"
        super().__init__(detail)
        self.construction = construction
        self.reason = reason
        self.horizon = horizon
        self.best = best


class PreconditionViolation(ValueError):
    """An input violates the construction's stated requirements."""


class InconsistentGrowthWitness(ValueError):
    """Supplied checkpoints (p_prime_checkpoints) do not recompute from the
    stem."""


class PatternTooLarge(ValueError):
    """Pattern oracle refused; word length exceeds the bound."""


def relation_holds(value, bound, relation):
    """Certified comparisons: strict ones demand clearance above DELTA,
    non-strict ones tolerate DELTA of slack.  Works elementwise on arrays
    and raises for the first unknown relation."""
    relation = np.asarray(relation, dtype=object)
    strict = relation == ">"
    unknown = np.flatnonzero(~strict & (relation != ">="))
    if unknown.size:
        raise ValueError(f"unknown relation {relation.flat[unknown[0]]!r}")
    with np.errstate(invalid="ignore"):
        return np.where(strict, value > bound + DELTA, value >= bound - DELTA)


class Checkpoint(NamedTuple):
    """One checked inequality: the norm at a stem position versus a bound."""

    position: int
    value: float
    bound: float
    relation: str
    kind: str = "partial-sum"  # or "term-norm"

    def holds(self) -> bool:
        return bool(relation_holds(self.value, self.bound, self.relation))


def _strings(column: str | Sequence[str] | np.ndarray, size: int) -> np.ndarray:
    """An object array of `size` strings; one string is repeated."""
    if isinstance(column, str):
        return np.full(size, column, dtype=object)
    return np.array(column, dtype=object).reshape(-1)


class CheckpointColumns:
    """The checkpoints of a certificate as five parallel read-only columns:
    position (int64, or an object array of ints when one lies outside
    int64), value and bound (float64), relation and kind (object arrays of
    str).  The program reads the columns; iterating yields Checkpoint rows,
    and indexing one position gives its row."""

    __slots__ = Checkpoint._fields

    def __init__(self, position, value, bound, relation, kind="partial-sum") -> None:
        try:
            pos = np.array(position, dtype=np.int64).reshape(-1)
        except OverflowError:
            pos = np.array(list(position), dtype=object)
        columns = (
            pos,
            np.array(value, dtype=np.float64).reshape(-1),
            np.array(bound, dtype=np.float64).reshape(-1),
            _strings(relation, pos.size),
            _strings(kind, pos.size),
        )
        if any(column.size != pos.size for column in columns):
            raise ValueError("checkpoint columns differ in length")
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, rows: Iterable[Checkpoint]) -> "CheckpointColumns":
        """The columns of Checkpoint rows."""
        return cls(*(tuple(zip(*rows)) or ((),) * 5))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("checkpoint columns are immutable")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return self.position.size

    def __iter__(self) -> Iterator[Checkpoint]:
        return map(Checkpoint._make, zip(*(c.tolist() for c in self._columns())))

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return CheckpointColumns(*(c[index] for c in self._columns()))
        return Checkpoint._make(
            v.item() if isinstance(v, np.generic) else v
            for v in (c[index] for c in self._columns())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckpointColumns):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        head = ", ".join(map(repr, self[:3]))
        more = f", ... {len(self)} checkpoints" if len(self) > 3 else ""
        return f"CheckpointColumns({head}{more})"


@dataclass(frozen=True)
class WitnessCertificate:
    """A stem plus the inequalities it was built to achieve.

    base is the open-set stem the witness must extend; interval, when
    present, is the half-open block of positions every one of which is
    covered by a checkpoint; stage_boundaries are the prefix lengths at
    which a rearrangement stem is a permutation of an initial segment.
    """

    construction: str
    series_name: str
    stem: IndexerStem
    checkpoints: CheckpointColumns
    base: IndexerStem | None = None
    interval_index: int | None = None
    interval: tuple[int, int] | None = None
    talagrand: TalagrandSequence | None = None
    stage_boundaries: tuple[int, ...] = ()
    details: tuple[tuple[str, float | int | str], ...] = ()

    def __post_init__(self) -> None:
        # Checkpoint rows (a tuple, say) are taken as their columns
        if not isinstance(self.checkpoints, CheckpointColumns):
            object.__setattr__(self, "checkpoints", CheckpointColumns.of(self.checkpoints))

    def detail(self, name: str):
        for key, value in self.details:
            if key == name:
                return value
        return None

    def final_norm(self) -> float | None:
        cps = self.checkpoints
        sums = cps.value[cps.kind == "partial-sum"]
        return float(sums[-1]) if sums.size else None


def default_scan_horizon(series: SeriesOracle) -> int:
    return DEFAULT_SCALAR_HORIZON if series.is_scalar else DEFAULT_SEQUENCE_HORIZON


def _horizon(series: SeriesOracle, horizon: int | None) -> int:
    """The horizon a constructor searches: the series' default for None;
    one below 1 would search nothing and is refused."""
    if horizon is None:
        return default_scan_horizon(series)
    if horizon < 1:
        raise PreconditionViolation(f"horizon must be >= 1, got {horizon}")
    return horizon


# ---------------------------------------------------------------------------
# shared scanning helpers


def _first_index(
    series: SeriesOracle, after: int, horizon: int, hit: Callable[[np.ndarray], np.ndarray]
) -> int | None:
    """First index in (after, horizon] whose term norm passes `hit`, read
    in contiguous spans that start at 2^10 indices and grow x8 up to the
    engine's _BLOCK, so a long search holds one block of norms at a time."""
    lo = after + 1
    span = 1 << 10
    while lo <= horizon:
        hi = min(horizon, lo + span - 1)
        idx = np.arange(lo, hi + 1, dtype=np.int64)
        mask = hit(series.term_norms(idx))
        if mask.any():
            return int(idx[int(np.argmax(mask))])
        lo = hi + 1
        span = min(span * 8, _BLOCK)
    return None


def _canonical_checkpoints(
    series: SeriesOracle,
    stem: IndexerStem,
    positions: Sequence[int] | np.ndarray,
    bounds: Sequence[float] | np.ndarray,
    relations: str | Sequence[str],
) -> CheckpointColumns:
    """Recompute checkpoint values through the canonical engine so that
    construction and verification agree bit for bit."""
    values = norms_at(series, stem, positions)
    return _checked_checkpoints(positions, bounds, relations, values)


def _checked_checkpoints(
    positions: Sequence[int] | np.ndarray,
    bounds: Sequence[float] | np.ndarray,
    relations: str | Sequence[str],
    values: Sequence[float] | np.ndarray,
) -> CheckpointColumns:
    """Partial-sum checkpoints from their position, bound and relation
    columns (one relation may stand for all) and the norm at each position;
    a norm that misses its relation raises ScanExhausted.

    The constructions pass the norms their crossing scans read, and these
    are the values norms_at gives on the final stem.  That stem is the
    scanned candidate's prefix through the crossing, perhaps closed into a
    bijection and extended by later stages, which only append runs.  Runs
    are never merged, and the engine's arithmetic at a position depends
    only on the runs up to it, so the scan and a recompute agree bit for
    bit."""
    cps = CheckpointColumns(positions, values, bounds, relations)
    missed = np.flatnonzero(~relation_holds(cps.value, cps.bound, cps.relation))
    if missed.size:
        at = int(missed[0])
        position, value = int(cps.position[at]), cps.value[at]
        raise ScanExhausted(
            "checkpoint-recompute",
            f"norm {value!r} at position {position} misses "
            f"{cps.relation[at]} {float(cps.bound[at])}",
            position,
            best=float(value),
        )
    return cps


def _validate_prior_checkpoints(
    series: SeriesOracle,
    stem: IndexerStem,
    checkpoints: Sequence[tuple[int, float]],
) -> None:
    if not checkpoints:
        return
    positions = [int(p) for p, _ in checkpoints]
    if any(p < 1 or p > len(stem) for p in positions):
        raise InconsistentGrowthWitness(
            "unboundedness witness: checkpoint position outside the stem"
        )
    values = norms_at(series, stem, positions)
    for (position, bound), value in zip(checkpoints, values):
        if value < bound - DELTA:
            raise InconsistentGrowthWitness(
                f"unboundedness witness: norm at position {position} recomputes "
                f"to {value!r}, below the certified bound {bound!r}"
            )


def _escape(
    series: SeriesOracle, construction: str, base: IndexerStem, stream: IndexerStem,
    tail_start: int, scan_end: int, level: float, *,
    strict: bool = True, start_pos: int = 1, reason: str | None = None,
    resume: Scan | None = None,
) -> tuple[IndexerStem, Scan]:
    """Continue the base stem with the stream's positions tail_start..scan_end
    and find the first position from start_pos whose partial-sum norm
    passes level (> level + DELTA if strict, else >= level).

    Returns the candidate and the scan (its one crossing is that position).
    `resume`, an earlier such scan whose crossing ends a run of the base
    stem, starts the scan there (see crossing_scan).  A scan that comes up
    short raises ScanExhausted at scan_end with the largest norm from
    position 1, the peak it resumed from included."""
    candidate = base.concat_runs(stream.slice_runs(tail_start, scan_end))
    scan = crossing_scan(
        series, candidate, [float(level)], strict=strict, start_pos=start_pos, peak_from=1,
        resume=resume,
    )
    if not scan.positions:
        reason = reason or f"no partial sum above {level:g}"
        raise ScanExhausted(construction, reason, scan_end, best=scan.peak)
    return candidate, scan


# ---------------------------------------------------------------------------
# pattern oracle


def uniform_bound_bruteforce(
    series: SeriesOracle, n: int, alphabet: Iterable[int]
) -> float:
    """Max of || sum t(i) x_i || over every word t in alphabet^n.

    The alphabet is {0,1} (selections) or {-1,0,1} (sign patterns).  The
    norm is a sup over coordinates, and a coordinate of the sum depends
    only on the letters of the terms that touch it, so the max over words
    is the largest, over coordinates, of that coordinate's own max: over
    {0,1} the word takes every term of one sign, over {-1,0,1} it flips
    every term to one sign.  This form has no limit on n; n stays capped at
    14 only because the benchmark's pattern jobs, and its count of vectors
    built through series.term, still measure the oracle as a sweep.
    """
    alpha = tuple(sorted(set(int(a) for a in alphabet)))
    if alpha not in ((0, 1), (-1, 0, 1)):
        raise ValueError("alphabet must be {0,1} or {-1,0,1}")
    if n < 1:
        raise ValueError("word length must be >= 1")
    if n > _MAX_PATTERN_WIDTH:
        raise PatternTooLarge(
            f"word length {n} exceeds the pattern bound {_MAX_PATTERN_WIDTH}"
        )
    columns: dict[int, list[float]] = {}
    for i in range(1, n + 1):
        for index, coeff in series.term(i).entries:
            columns.setdefault(index, []).append(coeff)
    best = 0.0
    for coeffs in columns.values():
        pos = math.fsum(c for c in coeffs if c > 0)
        neg = -math.fsum(c for c in coeffs if c < 0)
        best = max(best, pos + neg if alpha[0] == -1 else max(pos, neg))
    return best


# ---------------------------------------------------------------------------
# growing an unbounded subseries


def _threshold_chain(b: float, target: float) -> list[float]:
    """b, 2b, 4b, ... capped so the last threshold is exactly the target."""
    chain: list[float] = []
    t = b
    while t < target:
        t = t * 2 if t * 2 < target else target
        chain.append(t)
    if not chain:
        chain.append(target)
    return chain


def grow_unbounded_subseries(
    series: SeriesOracle,
    target: float = 1.0,
    search_horizon: int | None = None,
) -> WitnessCertificate:
    """Strictly increasing stem whose partial-sum norms climb past the
    target, with a doubling chain of certified thresholds along the way.

    The candidates are the series' candidate stream: the positive terms,
    all of them on the real line ("greedy-positive"), those on coordinate 1
    in sequence space ("per-coordinate").  Starting from the first
    candidate, with norm b, checkpoints are recorded as the running norm
    first reaches b, 2b, 4b, ... with the final threshold capped at the
    target (strict crossing).
    Exhaustion of the candidates before the target signals that the series
    may admit one bound for all selections.
    """
    if target <= 0:
        raise PreconditionViolation("target must be positive")
    horizon = _horizon(series, search_horizon)
    # Every candidate feeds one coordinate with one sign, so the running
    # norm along them is |running sum| and climbs monotonically.  The sum is
    # taken window by window, over the candidates among _BLOCK consecutive
    # series indices.
    stream = provision_candidate_stream(series, horizon)
    raw: list[tuple[int, float, str]] = []  # (position, bound, relation)
    running = 0.0
    count = 0
    pending: list[float] | None = None
    while count < len(stream):
        lo = (stream.value_at(count + 1) - 1) // _BLOCK * _BLOCK
        end = stream.first_position_above(lo + _BLOCK) or len(stream) + 1
        terms = np.concatenate([series.run_coefficients(*run)
                                for run in stream.slice_runs(count + 1, end - 1).tolist()])
        csum = np.cumsum(terms, out=terms)
        values = np.abs(running + csum)
        if pending is None:
            b = float(values[0])
            if b <= DELTA:
                raise ScanExhausted(
                    "grow-subseries", "no term with positive norm", horizon
                )
            raw.append((count + 1, b, ">="))
            pending = _threshold_chain(b, target)
        done_at = None
        while pending:
            t = pending[0]
            final = t == pending[-1] and t >= target
            if final:
                i = int(np.searchsorted(values, target + DELTA, side="right"))
            else:
                i = int(np.searchsorted(values, t, side="left"))
            if i >= values.size:
                break
            raw.append((count + i + 1, t, ">" if final else ">="))
            pending.pop(0)
            if not pending:
                done_at = i
        if done_at is not None:
            stem = SubseqStem._trusted(_resplit(stream.slice_runs(1, count + done_at + 1)))
            if series.is_scalar:
                strategy = (("strategy", "greedy-positive"),)
            else:
                strategy = (("strategy", "per-coordinate"), ("coordinate", 1))
            return WitnessCertificate(
                construction="grow-subseries",
                series_name=series.name,
                stem=stem,
                checkpoints=_canonical_checkpoints(series, stem, *zip(*raw)),
                details=(("target", float(target)),) + strategy,
            )
        running = float(running + csum[-1])
        count += csum.size
    raise ScanExhausted(
        "grow-subseries",
        f"target {target:g} not reached",
        horizon,
        best=abs(running),
    )


# ---------------------------------------------------------------------------
# rearrangement construction


def subseries_to_rearrangement(
    series: SeriesOracle,
    stem: SubseqStem,
    depth: int,
    scan_horizon: int | None = None,
) -> WitnessCertificate:
    """Turn an unbounded subseries into a rearrangement whose partial sums
    pass 1, 2, ..., depth.

    One scan first finds where the stem's own partial-sum norms reach
    1..depth, each level's search starting after the last one's; a stem
    that falls short within the horizon raises ScanExhausted
    ("depth-checkpoints").  Stage j then appends a block of the input stem
    (starting past everything already placed) until the running sum of the
    current permutation prefix crosses j, and closes the prefix into a
    bijection of an initial segment.  The certificate records one crossing
    per stage and the bijection boundaries.

    On a scalar series stage j + 1 resumes its scan at stage j's crossing,
    a run end of its candidate, so each position is read once, bit for bit.
    A sequence-space stage, which exhausts within two terms, scans whole.
    """
    if depth < 0:
        raise PreconditionViolation("depth must be >= 0")
    horizon = _horizon(series, scan_horizon)
    if depth == 0:
        return WitnessCertificate(
            construction="rearrangement",
            series_name=series.name,
            stem=RearrStem(()),
            checkpoints=(),
            details=(("depth", 0),),
        )
    scan_end = min(len(stem), horizon)
    levels = [float(level) for level in range(1, depth + 1)]
    reached = crossing_scan(series, stem, levels, end_pos=scan_end).positions
    if len(reached) < depth:
        raise ScanExhausted(
            "depth-checkpoints",
            f"stem never reaches partial-sum norm {len(reached) + 1}",
            scan_end,
        )
    q = RearrStem(())
    positions: list[int] = []
    values: list[float] = []
    boundaries: list[int] = []
    for level in range(1, depth + 1):
        k_prev = len(q)
        tail_start = stem.first_position_above(k_prev)
        if tail_start is None:
            raise ScanExhausted(
                "rearrangement", f"input stem exhausted before stage {level}", scan_end
            )
        if tail_start > scan_end:
            raise ScanExhausted(
                "rearrangement",
                f"stage {level} tail starts past the scan horizon",
                scan_end,
            )
        candidate, scan = _escape(
            series, "rearrangement", q, stem, tail_start, scan_end, level,
            strict=False, start_pos=k_prev + 1,
            reason=f"stage {level} never crossed {level}",
            resume=scan if level > 1 and series.is_scalar else None,
        )
        positions += scan.positions
        values += scan.values
        q = extend_to_prefix_bijection(candidate.prefix(scan.positions[0]))
        boundaries.append(len(q))
    return WitnessCertificate(
        construction="rearrangement",
        series_name=series.name,
        stem=q,
        checkpoints=_checked_checkpoints(positions, range(1, depth + 1), ">=", values),
        stage_boundaries=tuple(boundaries),
        details=(("depth", depth),),
    )


# ---------------------------------------------------------------------------
# nowhere-dense escapes


def nowhere_dense_witness_subseq(
    series: SeriesOracle,
    s_prime: SubseqStem,
    m: float,
    base: SubseqStem,
    scan_horizon: int | None = None,
) -> WitnessCertificate:
    """Escape witness: extend the open set's stem with the tail of an
    unbounded subseries until one partial sum passes m.

    The continuation starts at the first s' position whose value clears
    the base stem's last entry, so the result is again increasing."""
    if m < 0:
        raise PreconditionViolation("m must be >= 0")
    horizon = _horizon(series, scan_horizon)
    k = len(base)
    last = base.value_at(k) if k else 0
    tail_start = s_prime.first_position_above(last)
    if tail_start is None:
        raise ScanExhausted(
            "nowhere-dense-subseq",
            "the unbounded stem never passes the base stem",
            len(s_prime),
        )
    scan_end = min(len(s_prime), tail_start + horizon - 1)
    candidate, scan = _escape(
        series, "nowhere-dense-subseq", base, s_prime, tail_start, scan_end, m
    )
    return WitnessCertificate(
        construction="nowhere-dense-subseq",
        series_name=series.name,
        stem=candidate.prefix(max(scan.positions[0], k + 1)),
        checkpoints=_checked_checkpoints(scan.positions, [m], ">", scan.values),
        base=base,
        details=(("m", float(m)), ("tail-start", tail_start)),
    )


def nowhere_dense_witness_rearr(
    series: SeriesOracle,
    p_prime: RearrStem,
    m: float,
    base: RearrStem,
    scan_horizon: int | None = None,
    p_prime_checkpoints: Sequence[tuple[int, float]] = (),
) -> WitnessCertificate:
    """Escape witness for rearrangements: continue the base stem with a
    tail of an unbounded rearrangement, then close into a bijection.

    The tail starts at the first position after which p' has already
    emitted every value of the base stem, which keeps the result
    injective."""
    if m < 0:
        raise PreconditionViolation("m must be >= 0")
    horizon = _horizon(series, scan_horizon)
    _validate_prior_checkpoints(series, p_prime, p_prime_checkpoints)
    cover = p_prime.cover_position(base.to_numpy())
    if cover is None:
        raise ScanExhausted(
            "nowhere-dense-rearr",
            "p' never covers the base stem's values",
            len(p_prime),
        )
    tail_start = cover + 1
    if tail_start > len(p_prime):
        raise ScanExhausted(
            "nowhere-dense-rearr", "p' ends at the covering point", len(p_prime)
        )
    scan_end = min(len(p_prime), tail_start + horizon - 1)
    candidate, scan = _escape(
        series, "nowhere-dense-rearr", base, p_prime, tail_start, scan_end, m
    )
    witness = extend_to_prefix_bijection(candidate.prefix(max(scan.positions[0], len(base) + 1)))
    return WitnessCertificate(
        construction="nowhere-dense-rearr",
        series_name=series.name,
        stem=witness,
        checkpoints=_checked_checkpoints(scan.positions, [m], ">", scan.values),
        base=base,
        stage_boundaries=(len(witness),),
        details=(("m", float(m)), ("tail-start", tail_start)),
    )


# ---------------------------------------------------------------------------
# dense-open interval witnesses


def small_norm_block(
    series: SeriesOracle,
    after_index: int,
    length: int,
    budget: float,
    scan_horizon: int | None = None,
) -> SubseqStem:
    """Strictly increasing indices past after_index whose term norms sum
    below the budget, of exactly the requested length.

    Each slot scans for the first term cheaper than half the remaining
    budget spread over the remaining slots, which keeps the total under
    budget for every length.  Exhaustion refutes a declared norm decay
    up to the horizon, so the liminf claim is not gated up front."""
    if length < 1:
        raise PreconditionViolation("block length must be >= 1")
    if budget <= 0:
        raise PreconditionViolation("budget must be positive")
    horizon = _horizon(series, scan_horizon)

    picks: list[np.ndarray] = []
    taken = 0
    remaining = budget
    prev = after_index
    while taken < length:
        slots_left = length - taken
        # Commit the longest consecutive prefix whose slot thresholds all
        # pass; the per-slot scan below only handles the first refusal.
        if prev + slots_left <= horizon:
            idx = np.arange(prev + 1, prev + slots_left + 1, dtype=np.int64)
            norms = series.term_norms(idx)
            consumed = np.concatenate(([0.0], np.cumsum(norms)[:-1]))
            counts = np.arange(slots_left, 0, -1, dtype=np.float64)
            ok = norms < (remaining - consumed) / (2.0 * counts)
            good = int(np.argmin(ok)) if not ok.all() else slots_left
            if good:
                picks.append(idx[:good])
                taken += good
                remaining -= float(np.sum(norms[:good]))
                prev = int(idx[good - 1])
                if taken == length:
                    break
                continue
        threshold = remaining / (2.0 * (length - taken))
        found = _first_index(series, prev, horizon, lambda norms: norms < threshold)
        if found is None:
            claim = (
                "refutes the declared norm decay"
                if series.liminf_norm_zero
                else "the term norms never decay"
            )
            raise ScanExhausted(
                "small-norm-block",
                f"no term norm below {threshold:g} after index {prev}; {claim}",
                horizon,
            )
        picks.append(np.array([found], dtype=np.int64))
        taken += 1
        remaining -= float(series.term_norms(np.array([found]))[0])
        prev = found
    return SubseqStem.from_values(np.concatenate(picks))


def _interval_start(seq: TalagrandSequence, m: float, above: int) -> int:
    """Smallest interval index k with k > m and n_k > above."""
    k = max(1, int(math.floor(m)) + 1)
    while seq.n(k) <= above:
        k += 1
    return k


def _padding_block(
    series: SeriesOracle,
    seq: TalagrandSequence,
    construction: str,
    m: float,
    filled: int,
    after: int,
    horizon: int,
) -> tuple[int, SubseqStem]:
    """The first interval index k (of _MAX_INTERVAL_ATTEMPTS from the first
    one past m and filled) whose end a block of terms past index `after`,
    with norms totalling under 1, can pad a stem of length `filled` to;
    returns k and the block."""
    start = _interval_start(seq, m, filled)
    for k in range(start, start + _MAX_INTERVAL_ATTEMPTS):
        length = seq.n(k + 1) - 1 - filled
        try:
            return k, small_norm_block(series, after, length, 1.0, horizon)
        except ScanExhausted:
            continue
    raise ScanExhausted(
        construction, "no interval admits a small-norm padding block", horizon
    )


def _interval_witness(
    series: SeriesOracle, construction: str, stem: IndexerStem, base: IndexerStem,
    seq: TalagrandSequence, k: int, m: int, details: tuple[tuple[str, int], ...],
) -> WitnessCertificate:
    """The certificate of a dense-open witness: every position of the
    interval [n_k, n_{k+1}) checked > m on the stem."""
    window = interval(seq, k)
    return WitnessCertificate(
        construction=construction,
        series_name=series.name,
        stem=stem,
        checkpoints=_canonical_checkpoints(
            series, stem, np.arange(window.start, window.stop), np.full(len(window), m), ">"
        ),
        base=base,
        interval_index=k,
        interval=(window.start, window.stop),
        talagrand=seq,
        details=details,
    )


def dense_open_witness_Bm(
    series: SeriesOracle,
    seq: TalagrandSequence,
    u: SubseqStem,
    m: int,
    base: SubseqStem,
    scan_horizon: int | None = None,
) -> WitnessCertificate:
    """Dense-open containment witness for subseries.

    The base stem (length r > m) is continued along the unbounded stem u
    until the partial sum passes m+1, then padded with a block of terms
    whose norms total under 1, reaching exactly the end of an interval
    [n_k, n_{k+1}).  Every position of that interval is checked > m
    individually."""
    r = len(base)
    if r <= m:
        raise PreconditionViolation(
            f"base stem length {r} must exceed m = {m}"
        )
    horizon = _horizon(series, scan_horizon)
    if len(u) <= r:
        raise PreconditionViolation("u must continue past the base stem's length")
    if u.value_at(r + 1) <= base.value_at(r):
        raise PreconditionViolation(
            "u must pass the base stem: u(r+1) <= base's last entry"
        )
    candidate, scan = _escape(
        series, "dense-open-Bm", base, u, r + 1, min(len(u), horizon), m + 1,
        start_pos=r + 1, reason=f"no partial sum above {m + 1}",
    )
    l_r = scan.positions[0]
    after = candidate.value_at(l_r)
    k, block = _padding_block(series, seq, "dense-open-Bm", m, l_r, after, horizon)
    stem = candidate.prefix(l_r).concat_runs(block.runs)
    return _interval_witness(
        series, "dense-open-Bm", stem, base, seq, k, m, (("m", m), ("l_r", l_r))
    )


def dense_open_witness_Cm(
    series: SeriesOracle,
    seq: TalagrandSequence,
    t: RearrStem,
    m: int,
    base: RearrStem,
    scan_horizon: int | None = None,
) -> WitnessCertificate:
    """Dense-open containment witness for rearrangements.

    Bookkeeping follows the subseries case with two twists: the tail of
    the unbounded rearrangement t may only start once t has emitted every
    value of the base stem and everything up to z = max(r, max base), and
    the final stem is injective rather than increasing."""
    r = len(base)
    if r <= m:
        raise PreconditionViolation(f"base stem length {r} must exceed m = {m}")
    horizon = _horizon(series, scan_horizon)
    z = max(r, base.max_value)
    cover = t.cover_position(base.to_numpy())
    if cover is None:
        raise ScanExhausted(
            "dense-open-Cm", "t never covers the base stem's values", len(t)
        )
    tail_start = max(z + 1, cover + 1)
    if tail_start > len(t):
        raise ScanExhausted(
            "dense-open-Cm", "t ends before the tail may start", len(t)
        )
    candidate, scan = _escape(
        series, "dense-open-Cm", base, t, tail_start, min(len(t), horizon), m + 1,
        start_pos=r + 1, reason=f"no partial sum above {m + 1}",
    )
    pos_mr = scan.positions[0]
    m_r = tail_start + (pos_mr - r) - 1
    head = candidate.prefix(pos_mr)
    # the base's values are at most z, so past z the head's largest value is
    # its tail's
    after = max(z, m_r, head.max_value)
    k, block = _padding_block(series, seq, "dense-open-Cm", m, pos_mr, after, horizon)
    stem = head.concat_runs(block.runs)
    return _interval_witness(
        series, "dense-open-Cm", stem, base, seq, k, m,
        (("m", m), ("z", z), ("tail-start", tail_start), ("m_r", m_r)),
    )


def dense_open_witness_Am(
    series: SeriesOracle,
    seq: TalagrandSequence,
    u: SubseqStem,
    m: int,
    base: SelectionStem = SelectionStem(),
    scan_horizon: int | None = None,
) -> WitnessCertificate:
    """Dense-open containment witness for 0-1 selections.

    No decay assumption is needed: the word places 1s along u until the
    running sum passes m, then pads with 0s, which leave the sum frozen,
    through the end of an interval [n_k, n_{k+1})."""
    if m < 0:
        raise PreconditionViolation("m must be >= 0")
    horizon = _horizon(series, scan_horizon)
    # 0-padding freezes the running sum, so only the value after the whole
    # base word matters; interior crossings cannot be kept without
    # truncating the word the witness must extend.  At a 1 of the word the
    # running sum is the partial sum of the subseries of its 1s.
    ones = SubseqStem.from_values(np.flatnonzero(base.to_numpy()) + 1)
    tail_start = u.first_position_above(len(base))
    tail = ()
    if tail_start is not None:
        beyond = u.first_position_above(horizon)
        tail_end = len(u) if beyond is None else max(beyond - 1, tail_start - 1)
        tail = u.slice_runs(tail_start, tail_end)
    picks = ones.concat_runs(tail)
    first = max(len(ones), 1)
    scan = crossing_scan(
        series, picks, [float(m)], strict=True, start_pos=first, peak_from=first
    )
    position = scan.positions[0] if scan.positions else None
    if position is not None and position <= len(ones):
        cross_pos = len(base)
    elif tail_start is None:
        raise ScanExhausted("dense-open-Am", "u never passes the initial word", len(u))
    elif position is None:
        raise ScanExhausted(
            "dense-open-Am",
            f"no selection partial sum above {m:g}",
            horizon,
            best=scan.peak,
        )
    else:
        cross_pos = picks.value_at(position)
    k = _interval_start(seq, m, cross_pos)
    word = np.zeros(seq.n(k + 1) - 1, dtype=np.int64)
    word[: len(base)] = base.to_numpy()
    word[picks.to_numpy(position) - 1] = 1
    stem = SelectionStem(word)
    return _interval_witness(
        series, "dense-open-Am", stem, base, seq, k, m, (("m", m), ("crossing", cross_pos))
    )


# ---------------------------------------------------------------------------
# blowing-up term norms


def limsup_subseries(
    series: SeriesOracle,
    depth: int,
    scan_horizon: int | None = None,
) -> WitnessCertificate:
    """Subseries along which both the term norms and the partial-sum
    norms strictly climb, certified step by step.

    Each new index must beat the previous term norm and twice the current
    partial-sum norm, so the partial sums increase as well.  depth counts
    growth steps; the stem has depth + 1 entries.  Exhaustion refutes a
    declared norm blowup up to the horizon, so the limsup claim is not
    gated up front."""
    if depth < 0:
        raise PreconditionViolation("depth must be >= 0")
    if depth == 0:
        return WitnessCertificate(
            construction="limsup-subseries",
            series_name=series.name,
            stem=SubseqStem(()),
            checkpoints=(),
            details=(("depth", 0),),
        )
    horizon = _horizon(series, scan_horizon)
    picks = [1]
    term_norm = float(series.term_norms(np.array([1]))[0])
    sum_norms = norms_at(series, SubseqStem.from_values(picks), [1])
    sum_norm = float(sum_norms[0])
    checkpoints: list[Checkpoint] = []
    for step in range(1, depth + 1):
        needed = max(term_norm, 2.0 * sum_norm)
        found = _first_index(
            series, picks[-1], horizon, lambda norms: norms > needed + DELTA
        )
        if found is None:
            raise ScanExhausted(
                "limsup-subseries",
                f"no term norm above {needed:g} for step {step}",
                horizon,
                best=term_norm,
            )
        picks.append(found)
        stem = SubseqStem.from_values(picks)
        new_term = float(series.term_norms(np.array([found]))[0])
        new_sum = float(norms_at(series, stem, [len(picks)])[0])
        checkpoints.append(
            Checkpoint(len(picks), new_term, term_norm, ">", kind="term-norm")
        )
        checkpoints.append(
            Checkpoint(len(picks), new_term, 2.0 * sum_norm, ">", kind="term-norm")
        )
        checkpoints.append(
            Checkpoint(len(picks), new_sum, sum_norm, ">", kind="partial-sum")
        )
        term_norm = new_term
        sum_norm = new_sum
    stem = SubseqStem.from_values(picks)
    for cp in checkpoints:
        if not cp.holds():
            raise ScanExhausted(
                "limsup-subseries", "chain inequality failed on recompute", horizon
            )
    return WitnessCertificate(
        construction="limsup-subseries",
        series_name=series.name,
        stem=stem,
        checkpoints=tuple(checkpoints),
        details=(("depth", depth),),
    )


# ---------------------------------------------------------------------------
# pipeline helpers


def provision_candidate_stream(
    series: SeriesOracle, horizon: int | None = None
) -> SubseqStem:
    """All growth candidates up to the horizon (see grow_unbounded_subseries),
    as the increasing stem the catalog declares (SeriesOracle.candidates).
    This is the raw material handed to the constructions that consume an
    unbounded subseries."""
    return series.candidates(_horizon(series, horizon))


def rearrangement_pipeline(
    series: SeriesOracle,
    depth: int,
    scan_horizon: int | None = None,
    *,
    stream: SubseqStem | None = None,
) -> WitnessCertificate:
    """Provision an unbounded-subseries stream (unless the caller already
    holds it) and run the rearrangement construction on it."""
    horizon = _horizon(series, scan_horizon)
    if stream is None:
        stream = provision_candidate_stream(series, horizon)
    return subseries_to_rearrangement(series, stream, depth, horizon)


# ---------------------------------------------------------------------------
# certificate verification


def verify_certificate(cert: WitnessCertificate) -> list[str]:
    """Recompute every checkpoint and structural claim; returns the list
    of discrepancies (empty means the certificate is sound)."""
    issues: list[str] = []
    series = catalog_series(cert.series_name)
    stem = cert.stem

    if cert.base is not None and not stem.extends(cert.base):
        what = "word" if isinstance(stem, SelectionStem) else "stem"
        issues.append(f"stem does not extend its base {what}")

    for boundary in cert.stage_boundaries:
        if not isinstance(stem, RearrStem) or not stem.is_prefix_bijection(boundary):
            issues.append(
                f"prefix of length {boundary} is not a bijection of an initial segment"
            )

    cps = cert.checkpoints
    pos = cps.position
    if pos.dtype != np.int64:
        return issues + ["checkpoint position outside the 64-bit range"]
    partial = cps.kind == "partial-sum"

    if cert.interval is not None:
        lo, hi = cert.interval
        # the first five gaps lie among the first len(pos) + 5 positions
        span = max(min(hi - lo, pos.size + 5), 0)
        inside = pos[partial]
        covered = np.zeros(span, dtype=bool)
        covered[inside[(inside >= lo) & (inside < lo + span)] - lo] = True
        missing = np.flatnonzero(~covered)[:5] + lo
        if missing.size:
            issues.append(f"interval [{lo}, {hi}) misses checkpoints at {missing.tolist()}")
        if cert.talagrand is not None and cert.interval_index is not None:
            window = interval(cert.talagrand, cert.interval_index)
            if (window.start, window.stop) != (lo, hi):
                issues.append("recorded interval does not match its index")

    # partial-sum checkpoints are checked in position order
    order = np.flatnonzero(partial)[np.argsort(pos[partial], kind="stable")]
    if order.size:
        try:
            recomputed = norms_at(series, stem, pos[order])
        except Exception as exc:  # noqa: BLE001  - report, never crash
            issues.append(f"cannot recompute partial sums: {exc}")
        else:
            with np.errstate(invalid="ignore"):
                far = ~(np.abs(recomputed - cps.value[order]) <= DELTA)
            held = np.ones(order.size, dtype=bool)
            near = order[~far]
            held[~far] = relation_holds(recomputed[~far], cps.bound[near], cps.relation[near])
            for rank in np.flatnonzero(far | ~held):
                cp, value = cps[order[rank]], float(recomputed[rank])
                issues.append(f"checkpoint at position {cp.position}: " + (
                    f"recorded norm {cp.value!r} but recomputed {value!r}" if far[rank]
                    else f"norm {value!r} fails {cp.relation} {cp.bound!r}"
                ))

    for cp in map(cps.__getitem__, np.flatnonzero(cps.kind == "term-norm")):
        try:
            index = stem.value_at(cp.position)
        except (IndexError, AttributeError):
            issues.append(f"term checkpoint at position {cp.position} is off-stem")
            continue
        recomputed = float(series.term_norms(np.array([index]))[0])
        if not abs(recomputed - cp.value) <= DELTA:
            issues.append(
                f"term checkpoint at position {cp.position}: recorded "
                f"{cp.value!r} but recomputed {recomputed!r}"
            )
        elif not relation_holds(recomputed, cp.bound, cp.relation):
            issues.append(
                f"term checkpoint at position {cp.position}: {recomputed!r} "
                f"fails {cp.relation} {cp.bound!r}"
            )
    return issues

"""Series term oracles, the three index codings, and partial-sum evaluation.

A series is consumed through finite stems only: a 0-1 word selects terms,
an increasing stem picks a subseries, an injective stem is the prefix of
a rearrangement.  The catalog is the only source of series so that every
term rule stays deterministic and cheap to re-evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .spaces import DELTA, FiniteSupportVector, basis
from .stems import IndexerStem, SelectionStem, SubseqStem

__all__ = [
    "SeriesOracle",
    "PartialSumTrace",
    "UnknownSeries",
    "HorizonExceedsStem",
    "catalog_series",
    "catalog_names",
    "partial_sums",
    "prefix_norms",
    "norms_at",
    "Scan",
    "crossing_scan",
]

_CHUNK = 1 << 20
_BLOCK = 1 << 15
_EXACT = 1 << 53  # float64 holds every integer below this


class UnknownSeries(ValueError):
    """Requested catalog entry does not exist."""


class HorizonExceedsStem(ValueError):
    """A partial-sum horizon reaches past the end of the supplied stem."""


@dataclass(frozen=True)
class SeriesOracle:
    """Deterministic term declaration plus declared growth metadata.

    Every term is one coefficient on one coordinate (always coordinate 1 on
    the real line), and sequence-space series carry the sup norm.  The term
    at index n is declared once: `coordinate` maps int64 indices to their
    coordinates, `magnitude` turns a float64 array of indices into the term
    norms in place, and an `alternating` series negates the terms at odd
    indices, so its coefficient is (-1)^n times the magnitude.  `columns`
    evaluates the declaration at any indices; `run_coefficients` evaluates
    it along an arithmetic run without making the indices as integers.

    The metadata flags are claims made by the catalog entry, consumed as
    preconditions by the witness constructions: liminf_norm_zero says the
    term norms dip arbitrarily low, limsup_norm_infinite says they spike
    arbitrarily high.

    `candidates(horizon)` is the candidate stream the growth constructions
    read: the indices up to the horizon of the positive terms (all of them
    on the real line, those on coordinate 1 in sequence space), declared as
    an increasing stem of runs, so no term is evaluated to list them.
    """

    name: str
    is_scalar: bool  # the real line; else the sup-norm sequence space
    description: str
    liminf_norm_zero: bool
    limsup_norm_infinite: bool
    coordinate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    magnitude: Callable[[np.ndarray], object] = field(repr=False)
    alternating: bool
    candidates: Callable[[int], SubseqStem] = field(repr=False)

    def term(self, n: int) -> FiniteSupportVector:
        if n < 1:
            raise ValueError("series terms are indexed from 1")
        coords, coeffs = self.columns([n])
        return basis(int(coords[0]), float(coeffs[0]))

    def columns(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and coefficients of the terms at the given indices."""
        n = np.asarray(indices, dtype=np.int64)
        coeffs = self._magnitudes(n)
        if self.alternating:
            coeffs *= _signs(n)
        return self.coordinate(n), coeffs

    def term_norms(self, indices: np.ndarray) -> np.ndarray:
        return self._magnitudes(np.asarray(indices, dtype=np.int64))

    def _magnitudes(self, n: np.ndarray) -> np.ndarray:
        norms = n.astype(np.float64)
        self.magnitude(norms)
        return norms

    def run_coefficients(self, first: int, step: int, count: int) -> np.ndarray:
        """The coefficients `columns` gives at first, first + step, ...
        (count indices), bit for bit: one float64 arange, one in-place
        magnitude call, and the odd indices negated in place, which are all
        of the run or none when the step is even and every other entry when
        it is odd.  float64 holds every integer below 2^53 exactly, so the
        arange is the int64 -> float64 conversion only there; a run that
        reaches 2^53 takes the index form."""
        stop = first + count * step
        if max(abs(first), abs(stop)) >= _EXACT:
            return self.columns(_indices(first, step, count))[1]
        out = np.arange(first, stop, step, dtype=np.float64)
        self.magnitude(out)
        if self.alternating and (step % 2 or first % 2):
            odd = out[(first + 1) % 2::2] if step % 2 else out
            np.negative(odd, out=odd)
        return out


def _signs(n: np.ndarray) -> np.ndarray:
    """(-1)^n as float64, read off the parity bit of int64 indices."""
    return 1.0 - 2.0 * (n & 1)


def _on_line(n: np.ndarray) -> np.ndarray:
    """Coordinate 1 for every index, as a read-only view without storage."""
    return np.broadcast_to(np.int64(1), n.shape)


def _reciprocal(x: np.ndarray) -> None:
    np.divide(1.0, x, out=x)


def _reciprocal_half_up(x: np.ndarray) -> None:
    """1 / ceil(n / 2), exact for every index float64 holds exactly."""
    np.multiply(x, 0.5, out=x)
    np.ceil(x, out=x)
    np.divide(1.0, x, out=x)


_CATALOG: dict[str, SeriesOracle] = {
    "alt-harmonic": SeriesOracle(
        name="alt-harmonic",
        is_scalar=True,
        description="x_n = (-1)^n / n, the canonical conditionally convergent real series",
        liminf_norm_zero=True,
        limsup_norm_infinite=False,
        coordinate=_on_line,
        magnitude=_reciprocal,
        alternating=True,
        candidates=lambda h: SubseqStem.arithmetic(2, 2, h // 2),
    ),
    "unit-basis-c0": SeriesOracle(
        name="unit-basis-c0",
        is_scalar=False,
        description=(
            "x_n = e_n under the sup norm; the standard realization of a series "
            "whose subseries and rearrangement partial sums all share one bound"
        ),
        liminf_norm_zero=False,
        limsup_norm_infinite=False,
        coordinate=lambda n: n,
        magnitude=lambda x: x.fill(1.0),
        alternating=False,
        candidates=lambda h: SubseqStem.arithmetic(1, 1, min(h, 1)),
    ),
    "decaying-signed-c0": SeriesOracle(
        name="decaying-signed-c0",
        is_scalar=False,
        description="x_n = (-1)^n e_ceil(n/2) / ceil(n/2) under the sup norm",
        liminf_norm_zero=True,
        limsup_norm_infinite=False,
        coordinate=lambda n: (n + 1) // 2,
        magnitude=_reciprocal_half_up,
        alternating=True,
        candidates=lambda h: SubseqStem.arithmetic(2, 1, int(h >= 2)),
    ),
    "growing-real": SeriesOracle(
        name="growing-real",
        is_scalar=True,
        description="x_n = (-1)^n * n, term norms blow up",
        liminf_norm_zero=False,
        limsup_norm_infinite=True,
        coordinate=_on_line,
        magnitude=lambda x: x,
        alternating=True,
        candidates=lambda h: SubseqStem.arithmetic(2, 2, h // 2),
    ),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog_series(name: str) -> SeriesOracle:
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(_CATALOG)
        raise UnknownSeries(f"unknown series {name!r}; catalog has: {known}") from None


@dataclass(frozen=True)
class PartialSumTrace:
    """Norms of the running partial sums read off a stem: norms[i] is the
    norm at position i + 1, for every position 1..horizon."""

    norms: np.ndarray

    @property
    def horizon(self) -> int:
        return int(self.norms.size)


def _index_chunks(
    indexer: IndexerStem, horizon: int, after: int = 0
) -> Iterator[tuple[int, int, int, np.ndarray | None]]:
    """(first index, step, count, selection bits or None) of positions
    after + 1..horizon, chunk by chunk: each chunk is an arithmetic run of
    at most _CHUNK series indices, made into an array only where it is
    summed.  A run of the stem gives its own chunks; a selection stem
    weights term i by its i-th bit."""
    if isinstance(indexer, SelectionStem):
        bits = indexer.to_numpy()[:horizon]
        for lo in range(0, bits.size, _CHUNK):
            yield lo + 1, 1, min(_CHUNK, bits.size - lo), bits[lo:lo + _CHUNK]
        return
    end = min(max(horizon, 0), len(indexer))
    for first, step, count in indexer.slice_runs(after + 1, end).tolist():
        for lo in range(0, count, _CHUNK):
            yield first + lo * step, step, min(_CHUNK, count - lo), None


def _indices(first: int, step: int, count: int) -> np.ndarray:
    return np.arange(first, first + count * step, step, dtype=np.int64)


def _cover_max(
    starts: np.ndarray, stops: np.ndarray, values: np.ndarray, length: int
) -> np.ndarray:
    """out[t] = max of values[j] over the j with starts[j] <= t < stops[j]
    (0.0 where there is none).  A span in [2^k, 2^(k+1)) is the union of its
    first and last 2^k positions.  From the widest k down, out[t] is the max
    over the windows of 2^k positions from t, and each level is halved into
    the next: exact, in a few arrays of the chunk's length."""
    level = np.frexp(stops - starts)[1] - 1  # -1 for an empty interval
    out = np.zeros(length)
    for k in range(int(level.max(initial=0)), -1, -1):
        at = level == k
        np.maximum.at(out, np.r_[starts[at], stops[at] - (1 << k)], np.tile(values[at], 2))
        if k:
            half = 1 << (k - 1)
            np.maximum(out[half:], out[:-half], out=out[half:])
    return out


def _sup_chunk(
    coords: np.ndarray, coeffs: np.ndarray, keys: np.ndarray, held: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running sup norms over one chunk of single-coordinate terms.

    (keys, held) is the running sum so far, as sorted coordinates and their
    values; it is returned updated.  Each coordinate is summed term by term
    in stem order, so every value is the one a sequential sparse sum gives.
    The norm at a position is the largest absolute value live there: one
    running max takes the values that last to the chunk's end, _cover_max
    those a later update replaces, and one floor the carried-in rest.
    """
    length = coords.size
    order = np.argsort(coords, kind="stable")
    coord = coords[order]
    # sorted entries: heads open a coordinate, rest follow one of their own
    same = coord[1:] == coord[:-1]
    heads, rest = np.flatnonzero(np.r_[True, ~same]), np.flatnonzero(same) + 1
    touched = coord[heads]
    where = np.searchsorted(keys, touched)
    found = np.flatnonzero(where < keys.size)
    found = found[keys[where[found]] == touched[found]]
    prior = np.zeros(touched.size)
    prior[found] = held[where[found]]
    sums = coeffs[order]
    sums[heads] += prior
    rank = rest - heads[np.searchsorted(heads, rest) - 1]
    by_rank = rest[np.argsort(rank, kind="stable")]
    bounds = np.cumsum(np.bincount(rank))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        at = by_rank[lo:hi]
        sums[at] += sums[at - 1]
    # the entries rest - 1 are replaced by the entries rest
    values = np.abs(sums)
    lived = np.r_[values[rest - 1], np.abs(prior[found])]
    values[rest - 1] = 0.0
    norms = np.empty(length)
    norms[order] = values
    np.fmax.accumulate(norms, out=norms)
    if lived.size:
        starts = np.r_[order[rest - 1], np.zeros(found.size, dtype=np.int64)]
        covered = _cover_max(starts, order[np.r_[rest, heads[found]]], lived, length)
        np.maximum(norms, covered, out=norms)
    untouched = np.ones(keys.size, dtype=bool)
    untouched[where[found]] = False
    np.maximum(norms, np.abs(held[untouched]).max(initial=0.0), out=norms)
    kept = int(untouched.sum())
    keys = np.r_[keys[untouched], touched]
    held = np.r_[held[untouched], sums[np.r_[heads[1:], length] - 1]]
    if kept and keys[kept - 1] > touched[0]:  # else both parts are in order
        ordered = np.argsort(keys, kind="stable")
        keys, held = keys[ordered], held[ordered]
    return norms, keys, held


def _packed_sums(
    series: SeriesOracle, pieces: list[tuple[int, int, int]], running: float
) -> tuple[np.ndarray, float]:
    """Signed sums over consecutive chunks (first, step, count) of a run
    stem in one block, and the running sum after them: one `columns` call
    for all of them, with each chunk's arithmetic the same as on its own.
    The indices are made straight from the triples as one (chunks x
    longest) array, whose padding is never evaluated.  The in-chunk sums are
    one cumsum along its rows with the padding at zero, the chunk-start sums
    one cumsum over [running, chunk totals...], and each value is start +
    in-chunk sum."""
    firsts, steps, counts = np.array(pieces, dtype=np.int64).T
    offsets = np.arange(counts.max())
    inside = offsets < counts[:, None]
    terms = np.zeros(inside.shape)
    terms[inside] = series.columns((firsts[:, None] + steps[:, None] * offsets)[inside])[1]
    sums = np.cumsum(terms, axis=1)
    starts = np.cumsum(np.r_[running, sums[np.arange(counts.size), counts - 1]])
    sums += starts[:-1, None]
    return sums[inside], float(starts[-1])


def _norm_chunks(
    series: SeriesOracle, indexer: IndexerStem, horizon: int,
    after: int = 0, running: float = 0.0,
) -> Iterator[np.ndarray]:
    """The single partial-sum engine: the partial sums at positions
    after + 1..horizon, in consecutive pieces, ending early with the stem.
    A scalar piece holds signed sums, a sequence-space piece sup norms;
    readers take np.abs of the pieces, which are theirs.

    A scalar chunk is `running + np.cumsum(terms)`, so the chunking is part
    of the arithmetic that norms_at and crossing_scan share.  A long chunk is
    evaluated in blocks of _BLOCK terms, each block's terms made a run at a
    time (SeriesOracle.run_coefficients) and its cumsum starting from the
    in-chunk sum so far, which is added into its first term: the values stay
    the same bit for bit, the temporaries stay in cache, and a scan that
    stops inside a chunk has paid for no more than its blocks.  Short chunks
    of a run stem are packed into one block while (chunks x longest chunk)
    stays within _BLOCK (see _packed_sums), with the same values: chunk
    starts are sequential sums of chunk totals.  That running sum is the
    only state between chunks, and chunks are cut along runs, so a scan may
    start at a run end `after` from the signed sum there, `running`, bit for
    bit.  A sequence-space pass (see _sup_chunk) starts at position 1."""
    keys, held = np.empty(0, dtype=np.int64), np.empty(0)
    packed: list[tuple[int, int, int]] = []
    width = 0
    for first, step, count, bits in _index_chunks(indexer, horizon, after):
        if not series.is_scalar:
            coords, coeffs = series.columns(_indices(first, step, count))
            if bits is not None:
                coeffs *= bits
            norms, keys, held = _sup_chunk(coords, coeffs, keys, held)
            yield norms
            continue
        if packed and (len(packed) + 1) * max(width, count) > _BLOCK:
            sums, running = _packed_sums(series, packed, running)
            yield sums
            packed, width = [], 0
        if bits is None and count <= _BLOCK:
            packed.append((first, step, count))
            width = max(width, count)
            continue
        for lo in range(0, count, _BLOCK):
            n = min(_BLOCK, count - lo)
            terms = series.run_coefficients(first + lo * step, step, n)
            if bits is not None:
                terms *= bits[lo:lo + n]
            if lo:
                terms[0] += carry
            csum = np.cumsum(terms, out=terms)
            carry = csum[-1]
            csum += running
            yield csum
        running = float(running + carry)
    if packed:
        yield _packed_sums(series, packed, running)[0]


def norms_at(
    series: SeriesOracle,
    indexer: IndexerStem,
    positions: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Norms of the partial sums at the given 1-based stem positions.

    Constructions record values computed here and verification recomputes
    through the same engine, so certificates round-trip bit for bit.
    """
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size == 0:
        return np.empty(0, dtype=np.float64)
    if pos.min() < 1:
        raise ValueError("positions are 1-based")
    unique, inverse = np.unique(pos, return_inverse=True)
    out = np.empty(unique.size, dtype=np.float64)
    covered = 0
    for sums in _norm_chunks(series, indexer, int(unique[-1])):
        lo, hi = np.searchsorted(unique, [covered + 1, covered + sums.size + 1])
        out[lo:hi] = sums[unique[lo:hi] - 1 - covered]
        covered += sums.size
    if covered < unique[-1]:
        missing = int(unique[np.searchsorted(unique, covered + 1)])
        raise HorizonExceedsStem(
            f"stem of length {covered} cannot reach position {missing}"
        )
    return np.abs(out, out=out)[inverse]


class Scan(NamedTuple):
    """What one crossing scan found: the crossing positions; the peak, the
    largest norm from peak_from to the last position read (0.0 if none;
    always 0.0 without a peak_from); the norm at each crossing position;
    and the signed partial sum at the last crossing (its norm in sequence
    space, 0.0 without a crossing), from which a later scan may resume."""

    positions: list[int]
    peak: float
    values: list[float]
    signed: float


def crossing_scan(
    series: SeriesOracle, indexer: IndexerStem, thresholds: Sequence[float], *,
    strict: bool = False, start_pos: int = 1, end_pos: int | None = None,
    peak_from: int | None = None, resume: Scan | None = None,
) -> Scan:
    """The one reduction of the partial-sum engine.  In one scan of
    [start_pos, end_pos] it finds the first position whose norm passes
    thresholds[0] (> t + DELTA if strict, else >= t), then the first one
    after it passing thresholds[1], and so on; the positions end at the
    first threshold not passed.  It stops at the last crossing it needs,
    so a search that comes up short has read all of [start_pos, end_pos]
    and its peak is the maximum over [peak_from, end_pos]: a failed search
    reports its best norm without a second scan.  With no thresholds the
    whole range is read for its peak, and nothing without a peak_from.

    `resume`, an earlier scan of a scalar series whose last crossing p is a
    run end of this stem, agreeing with it through p, starts this scan at
    p + 1 from the signed sum and the peak there (the same peak_from and a
    start_pos past p): values and peak are a full scan's, bit for bit."""
    if not thresholds and peak_from is None:
        return Scan([], 0.0, [], 0.0)
    end_pos = len(indexer) if end_pos is None else min(end_pos, len(indexer))
    after, running, peak = 0, 0.0, None
    if resume is not None:
        after, running, peak = resume.positions[-1], resume.signed, resume.peak
        if not series.is_scalar or after not in getattr(indexer, "ends", ()):
            raise ValueError(f"a scan resumes only at a run end of a scalar stem, not {after}")
    found: list[int] = []
    values: list[float] = []
    signed, first = 0.0, after + 1
    for sums in _norm_chunks(series, indexer, end_pos, after, running):
        norms = np.abs(sums)
        at = max(start_pos - first, 0)
        while len(found) < len(thresholds):
            t = thresholds[len(found)]
            hits = norms[at:] > t + DELTA if strict else norms[at:] >= t
            if not hits.any():
                break
            at += int(np.argmax(hits)) + 1
            found.append(first + at - 1)
            values.append(float(norms[at - 1]))
            signed = float(sums[at - 1])
        done = bool(thresholds) and len(found) == len(thresholds)
        if peak_from is not None:
            seen = norms[max(peak_from - first, 0): at if done else None]
            if seen.size:
                high = float(seen.max())
                peak = high if peak is None else max(peak, high)
        if done:
            break
        first += sums.size
    return Scan(found, 0.0 if peak is None else peak, values, signed)


def prefix_norms(
    series: SeriesOracle, indexer: IndexerStem, horizon: int
) -> np.ndarray:
    """Norms at every position 1..horizon: the engine's pieces in order."""
    norms = np.concatenate([np.empty(0), *_norm_chunks(series, indexer, horizon)])
    if norms.size < horizon:
        raise HorizonExceedsStem(
            f"stem of length {norms.size} cannot reach position {norms.size + 1}"
        )
    return np.abs(norms, out=norms)


def partial_sums(
    series: SeriesOracle, indexer: IndexerStem, horizon: int
) -> PartialSumTrace:
    """Trace of running partial-sum norms along a stem, up to `horizon`.

    For a selection stem the i-th summand is bits(i) * x_i; for the other
    stems position i contributes x at the stem's i-th index.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > len(indexer):
        raise HorizonExceedsStem(
            f"horizon {horizon} exceeds stem length {len(indexer)}"
        )
    return PartialSumTrace(prefix_norms(series, indexer, horizon))

"""Finite index stems: 0-1 words, increasing index blocks, injective prefixes.

Subsequence and rearrangement stems produced by the witness constructions
are unions of long arithmetic progressions, so they are stored as runs
(start, step, count) instead of materialized tuples.  This keeps
multi-million-entry stems cheap to build, serialize and re-verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class IndexRun:
    """Arithmetic progression start, start+step, ... of `count` terms."""

    start: int
    step: int
    count: int

    @classmethod
    def _trusted(cls, start: int, step: int, count: int) -> "IndexRun":
        """A run whose fields are already known to pass __post_init__."""
        run = object.__new__(cls)
        object.__setattr__(run, "start", start)
        object.__setattr__(run, "step", step)
        object.__setattr__(run, "count", count)
        return run

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("run count must be >= 1")
        if self.step == 0:
            raise ValueError("run step must be nonzero")
        if self.min_value < 1:
            raise ValueError("index runs live on positive integers")

    @property
    def last(self) -> int:
        return self.start + (self.count - 1) * self.step

    @property
    def min_value(self) -> int:
        return min(self.start, self.last)

    @property
    def max_value(self) -> int:
        return max(self.start, self.last)

    def value_at(self, offset: int) -> int:
        return self.start + offset * self.step

    def to_numpy(self) -> np.ndarray:
        stop = self.start + self.count * self.step
        return np.arange(self.start, stop, self.step, dtype=np.int64)

    def head(self, count: int) -> "IndexRun":
        return IndexRun(self.start, self.step, count)


def compress_values(values: Sequence[int] | np.ndarray) -> tuple[IndexRun, ...]:
    """Split a sequence of indices into arithmetic runs.

    The split rule, which every run list of the package follows: read the
    consecutive differences as a run-length code; the first run takes the
    first value and every difference of the first code entry, and each
    later entry starts a run one value after the change of difference,
    holding as many values as the entry has differences.  A run of one
    value is stored with step 1.  The rule is deterministic and linear;
    repeated values surface as zero steps and are rejected by IndexRun.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return ()
    diffs = np.diff(arr)
    starts = _code_starts(diffs)
    lengths = np.diff(np.append(starts, diffs.size))
    split = _split(int(arr[0]), diffs[starts], lengths)
    return tuple(map(IndexRun, *(column.tolist() for column in split)))


def _code_starts(diffs: np.ndarray) -> np.ndarray:
    """Where each entry of the run-length code of `diffs` starts."""
    if diffs.size == 0:
        return diffs
    return np.flatnonzero(np.concatenate(([True], diffs[1:] != diffs[:-1])))


def _split(
    first: int, diffs: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, steps, counts) of the runs compress_values makes of the
    sequence that starts at `first` and whose differences are diffs[r]
    repeated lengths[r] times, with no two adjacent diffs equal."""
    if diffs.size == 0:
        return np.array([first]), np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    ends = first + np.cumsum(diffs * lengths)
    starts = np.concatenate(([first], ends[:-1] + diffs[1:]))
    counts = np.concatenate(([lengths[0] + 1], lengths[1:]))
    return starts, np.where(counts > 1, diffs, 1), counts


def _normalized(run: IndexRun) -> tuple[int, int, int]:
    """(first, positive step, count) describing the same value set."""
    if run.step > 0:
        return run.start, run.step, run.count
    return run.last, -run.step, run.count


def runs_intersect(a: IndexRun, b: IndexRun) -> bool:
    """Exact emptiness test for the intersection of two progressions."""
    a0, da, na = _normalized(a)
    b0, db, nb = _normalized(b)
    lo = max(a0, b0)
    hi = min(a0 + (na - 1) * da, b0 + (nb - 1) * db)
    if lo > hi:
        return False
    g = math.gcd(da, db)
    if (b0 - a0) % g:
        return False
    m = db // g
    t0 = ((b0 - a0) // g * pow(da // g, -1, m)) % m if m > 1 else 0
    x0 = a0 + da * t0
    period = da // g * db
    if x0 < lo:
        x0 += (lo - x0 + period - 1) // period * period
    return x0 <= hi


class _RunStem:
    """Shared run-backed storage for subsequence and rearrangement stems."""

    __slots__ = ("runs",)

    runs: tuple[IndexRun, ...]

    def __init__(self, runs: Iterable[IndexRun]) -> None:
        object.__setattr__(self, "runs", tuple(runs))
        self._validate()

    @classmethod
    def _trusted(cls, runs: tuple[IndexRun, ...]):
        """A stem over runs already known to pass `_validate`."""
        stem = object.__new__(cls)
        object.__setattr__(stem, "runs", runs)
        return stem

    def _validate(self, fresh: int = 0) -> None:
        """Raise ValueError unless the stem is valid, given that runs[:fresh] are."""
        raise NotImplementedError

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("stems are immutable")

    def __len__(self) -> int:
        return sum(r.count for r in self.runs)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.runs == other.runs:
            return True
        if len(self) != len(other):
            return False
        return bool(np.array_equal(self.to_numpy(), other.to_numpy()))

    def __hash__(self) -> int:
        # what equal stems share however their runs are split: __eq__ falls
        # back to the values, so the runs themselves cannot be hashed
        if not self.runs:
            return hash((type(self).__name__, 0))
        return hash((type(self).__name__, len(self), self.runs[0].start, self.runs[-1].last))

    def __repr__(self) -> str:
        if len(self) <= 12:
            return f"{type(self).__name__}{tuple(self.values())}"
        head = ", ".join(str(v) for v in self.to_numpy(8))
        return f"{type(self).__name__}({head}, ... len={len(self)})"

    @property
    def max_value(self) -> int:
        return max((r.max_value for r in self.runs), default=0)

    def values(self) -> Iterator[int]:
        for run in self.runs:
            value = run.start
            for _ in range(run.count):
                yield value
                value += run.step

    def value_at(self, position: int) -> int:
        """1-based lookup."""
        if position < 1:
            raise IndexError(position)
        offset = position - 1
        for run in self.runs:
            if offset < run.count:
                return run.value_at(offset)
            offset -= run.count
        raise IndexError(position)

    def to_numpy(self, limit: int | None = None) -> np.ndarray:
        limit = len(self) if limit is None else min(limit, len(self))
        parts: list[np.ndarray] = []
        taken = 0
        for run in self.runs:
            if taken >= limit:
                break
            take = min(run.count, limit - taken)
            parts.append((run if take == run.count else run.head(take)).to_numpy())
            taken += take
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def _prefix_runs(self, length: int) -> tuple[IndexRun, ...]:
        if length < 0 or length > len(self):
            raise IndexError(length)
        out: list[IndexRun] = []
        left = length
        for run in self.runs:
            if left == 0:
                break
            take = min(run.count, left)
            out.append(run if take == run.count else run.head(take))
            left -= take
        return tuple(out)

    def slice_runs(self, start: int, end: int) -> tuple[IndexRun, ...]:
        """Runs covering positions start..end inclusive (1-based)."""
        if start < 1 or end > len(self) or start > end + 1:
            raise IndexError((start, end))
        out: list[IndexRun] = []
        skip = start - 1
        left = end - start + 1
        for run in self.runs:
            if left == 0:
                break
            if skip >= run.count:
                skip -= run.count
                continue
            first = run.value_at(skip)
            take = min(run.count - skip, left)
            out.append(IndexRun(first, run.step, take))
            left -= take
            skip = 0
        return tuple(out)

    def extends(self, base: "_RunStem") -> bool:
        """True if `base` is an initial segment of this stem."""
        if len(base) > len(self):
            return False
        mine = self.to_numpy(len(base))
        return np.array_equal(mine, base.to_numpy())

    def prefix(self, length: int):
        # a prefix of a valid stem is valid
        return self._trusted(self._prefix_runs(length))

    def concat_runs(self, runs: Iterable[IndexRun]):
        stem = self._trusted(self.runs + tuple(runs))
        stem._validate(len(self.runs))
        return stem

    def cover_position(self, targets: np.ndarray | Sequence[int]) -> int | None:
        """Smallest 1-based position p with targets contained in the first
        p values, or None if the stem never covers them.

        Validated stems are injective, so p is the largest position of any
        target: one array test per run, O(runs x targets) at any length.
        """
        t = np.asarray(targets, dtype=np.int64)
        found = np.zeros(t.size, dtype=bool)
        cover = offset = 0
        for run in self.runs:
            hit = (t >= run.min_value) & (t <= run.max_value) & ((t - run.start) % run.step == 0)
            if hit.any():
                last = int(((t[hit] - run.start) // run.step).max())
                cover = max(cover, offset + last + 1)
                found |= hit
            offset += run.count
        return cover if found.all() else None


class SubseqStem(_RunStem):
    """Finite prefix of a strictly increasing index sequence."""

    def _validate(self, fresh: int = 0) -> None:
        previous = self.runs[fresh - 1].last if fresh else 0
        for run in self.runs[fresh:]:
            if run.step <= 0 or run.start <= previous:
                raise ValueError("subsequence stems must increase")
            previous = run.last

    @classmethod
    def from_values(cls, values: Sequence[int] | np.ndarray) -> "SubseqStem":
        return cls(compress_values(values))

    @classmethod
    def identity(cls, length: int) -> "SubseqStem":
        if length == 0:
            return cls(())
        return cls((IndexRun(1, 1, length),))

    @classmethod
    def arithmetic(cls, start: int, step: int, count: int) -> "SubseqStem":
        """start, start + step, ... (count values); a single value is stored
        with step 1, as compress_values stores it."""
        if count == 0:
            return cls(())
        return cls((IndexRun(start, step if count > 1 else 1, count),))

    def first_position_above(self, bound: int) -> int | None:
        """Smallest 1-based position whose value exceeds `bound`."""
        position = 1
        for run in self.runs:
            if run.last > bound:
                if run.start > bound:
                    return position
                skip = (bound - run.start) // run.step + 1
                return position + skip
            position += run.count
        return None


class RearrStem(_RunStem):
    """Finite injective index sequence (a rearrangement prefix)."""

    def _validate(self, fresh: int = 0) -> None:
        """Injectivity by a sweep over the runs in order of minimum value:
        `runs_intersect` is called only on pairs whose value ranges overlap
        and that involve a run at index >= `fresh`.  Stems whose runs keep
        to separate ranges cost O(n log n); many pairwise-disjoint runs
        sharing one range (residue classes, say) still cost a call per
        pair."""
        runs = self.runs
        live: list[tuple[int, int]] = []  # (max value, index) of open runs
        for lo, hi, index in sorted((r.min_value, r.max_value, i) for i, r in enumerate(runs)):
            live = [item for item in live if item[0] >= lo]
            for _, other in live:
                if max(index, other) >= fresh and runs_intersect(runs[other], runs[index]):
                    raise ValueError("rearrangement stems must be injective")
            live.append((hi, index))

    @classmethod
    def from_values(cls, values: Sequence[int] | np.ndarray) -> "RearrStem":
        return cls(compress_values(values))

    @classmethod
    def identity(cls, length: int) -> "RearrStem":
        if length == 0:
            return cls(())
        return cls((IndexRun(1, 1, length),))

    def is_prefix_bijection(self, length: int | None = None) -> bool:
        """True if the first `length` values are exactly {1, ..., length}.

        Validation makes the values distinct integers >= 1, so `length` of
        them are {1, ..., length} exactly when their maximum is `length`:
        O(runs), and nothing is allocated by length."""
        length = len(self) if length is None else length
        if not 0 <= length <= len(self):
            return False
        return max((r.max_value for r in self._prefix_runs(length)), default=0) == length


class SelectionStem:
    """Finite 0-1 word; position i selects (or drops) the i-th series term.

    `bits` is the word as one read-only int64 array, copied once from the
    sequence or array the stem is built from."""

    __slots__ = ("bits",)

    bits: np.ndarray

    def __init__(self, bits: Sequence[int] | np.ndarray = ()) -> None:
        word = np.asarray(bits)
        if word.ndim != 1 or not ((word == 0) | (word == 1)).all():
            raise ValueError("selection stems are words over {0, 1}")
        word = word.astype(np.int64)
        word.flags.writeable = False
        object.__setattr__(self, "bits", word)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("stems are immutable")

    @classmethod
    def from_word(cls, word: str) -> "SelectionStem":
        return cls([int(c) for c in word])

    @classmethod
    def ones(cls, length: int) -> "SelectionStem":
        return cls(np.ones(length, dtype=np.int64))

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other: object) -> bool:
        if type(other) is not SelectionStem:
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((len(self), np.packbits(self.bits).tobytes()))

    def __repr__(self) -> str:
        if len(self) <= 64:
            return f"SelectionStem(bits={tuple(self.bits.tolist())})"
        return f"SelectionStem(bits={self.word()[:32]}... len={len(self)})"

    def word(self) -> str:
        return "".join(map(str, self.bits.tolist()))

    def prefix(self, length: int) -> "SelectionStem":
        if length > len(self):
            raise IndexError(length)
        return SelectionStem(self.bits[:length])

    def extends(self, base: IndexerStem) -> bool:
        """True if `base` is a word this one starts with."""
        return (type(base) is SelectionStem and len(base) <= len(self)
                and bool(np.array_equal(self.bits[: len(base)], base.bits)))

    def ones_positions(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self.bits) + 1).tolist())

    def to_numpy(self) -> np.ndarray:
        return self.bits


IndexerStem = SelectionStem | SubseqStem | RearrStem


def missing_below(stem: _RunStem, bound: int) -> tuple[IndexRun, ...]:
    """Runs listing {1..bound} minus the stem's values, in increasing order,
    split as compress_values splits them.

    The runs' value ranges cut 1..bound into segments, each inside the same
    runs throughout, and each segment gives its missing values as pieces:
    all of it where no run is active, nothing under one run of step 1, the
    other parity under one run of step 2.  Only the segments where runs
    overlap or a single run has step 3 or more are made as a mask, one of
    their total length.  The pieces are then merged by the run-length code
    of their differences, so nothing is allocated in proportion to the
    bound."""
    starts, steps, counts = np.array(
        [(run.start, run.step, run.count) for run in stem.runs], dtype=np.int64
    ).reshape(-1, 3).T
    firsts = np.where(steps > 0, starts, starts + (counts - 1) * steps)
    steps = np.abs(steps)
    below = firsts <= bound
    firsts, steps = firsts[below], steps[below]
    ends = firsts + np.minimum(counts[below], (bound - firsts) // steps + 1) * steps - steps + 1
    cuts = np.sort(np.concatenate(([1, max(bound, 0) + 1], firsts, ends)))
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    lo, hi = cuts[:-1], cuts[1:]
    by_first, by_end = np.argsort(firsts, kind="stable"), np.argsort(ends, kind="stable")
    opened = np.searchsorted(firsts[by_first], lo, side="right")
    closed = np.searchsorted(ends[by_end], lo, side="right")
    active = opened - closed
    # the one active run of a segment is the sum of the open runs' indices
    who = (np.concatenate(([0], np.cumsum(by_first)))[opened]
           - np.concatenate(([0], np.cumsum(by_end)))[closed])
    alone = np.where(active == 1, who, -1)
    lone_step = np.append(steps, 0)[alone]  # 0 where not exactly one run is active
    free = active == 0
    other = lone_step == 2
    start = lo[other] + ((lo[other] - firsts[alone[other]]) % 2 == 0)
    pieces = [
        (lo[free], np.ones_like(lo[free]), hi[free] - lo[free]),
        (start, np.full_like(start, 2), (hi[other] - start + 1) // 2),
    ]
    dense = (active > 1) | (lone_step > 2)
    values = _unheld(lo[dense], hi[dense], firsts, steps, ends)
    pieces.append((values, np.ones_like(values), np.ones_like(values)))
    return _merged(*(np.concatenate(column) for column in zip(*pieces)))


def _ragged(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[i] - 1 for each i in turn, as one array."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _unheld(
    lo: np.ndarray, hi: np.ndarray, firsts: np.ndarray, steps: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """The values of the segments [lo[j], hi[j]) that no progression
    (firsts[i], steps[i] > 0, up to ends[i]) holds, through one mask over
    the segments laid end to end.  Every first and end is a segment
    boundary or outside the segments, so progression i meets exactly the
    segments that start in [firsts[i], ends[i])."""
    lengths = hi - lo
    offsets = np.cumsum(lengths) - lengths
    a, b = np.searchsorted(lo, firsts), np.searchsorted(lo, ends)
    run = np.repeat(np.arange(firsts.size), b - a)
    seg = a[run] + _ragged(b - a)
    step = steps[run]
    start = firsts[run] - (firsts[run] - lo[seg]) // step * step
    count = np.maximum(-(-(np.minimum(hi[seg], ends[run]) - start) // step), 0)
    pair = np.repeat(np.arange(run.size), count)
    mask = np.ones(lengths.sum(), dtype=bool)
    mask[start[pair] + _ragged(count) * step[pair] - lo[seg][pair] + offsets[seg][pair]] = False
    free = np.flatnonzero(mask)
    where = np.searchsorted(offsets, free, side="right") - 1
    return free - offsets[where] + lo[where]


def _merged(firsts: np.ndarray, steps: np.ndarray, counts: np.ndarray) -> tuple[IndexRun, ...]:
    """The runs compress_values makes of the concatenated values of the
    progressions (firsts[i], steps[i] > 0, counts[i]), taken in order of
    their first values, read off the run-length code of their differences:
    each piece's own step counts - 1 times, then the gap to the next piece.
    The values increase, so the runs are valid without a check."""
    keep = counts > 0
    order = np.argsort(firsts[keep], kind="stable")
    firsts, steps, counts = firsts[keep][order], steps[keep][order], counts[keep][order]
    if firsts.size == 0:
        return ()
    lasts = firsts + (counts - 1) * steps
    diffs = np.empty(2 * firsts.size - 1, dtype=np.int64)
    lengths = np.ones_like(diffs)
    diffs[0::2], lengths[0::2] = steps, counts - 1
    diffs[1::2] = firsts[1:] - lasts[:-1]
    diffs, lengths = diffs[lengths > 0], lengths[lengths > 0]
    starts = _code_starts(diffs)
    lengths = np.add.reduceat(lengths, starts) if starts.size else lengths
    split = _split(int(firsts[0]), diffs[starts], lengths)
    return tuple(map(IndexRun._trusted, *(column.tolist() for column in split)))


def extend_to_prefix_bijection(stem: RearrStem) -> RearrStem:
    """Shortest extension of an injective stem to a permutation of {1..k}.

    k is the larger of the stem's length and its maximum value; missing
    values are appended in increasing order and the input is kept as a
    prefix.
    """
    k = max(stem.max_value, len(stem))
    if len(stem) == k:
        return stem
    return stem.concat_runs(missing_below(stem, k))

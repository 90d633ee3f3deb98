"""Finite index stems: 0-1 words, increasing index blocks, injective prefixes.

Subsequence and rearrangement stems produced by the witness constructions
are unions of long arithmetic progressions, so they are stored as one run
table, a row (first, step, count) per run, instead of materialized values.
Length, lookups, prefixes and comparisons read the table's columns, which
keeps multi-million-entry stems cheap to build, serialize and re-verify.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

Runs = np.ndarray | Sequence[Sequence[int]]
_INT64_MAX = np.iinfo(np.int64).max


def _table(runs: Runs) -> np.ndarray:
    """The runs as a (k, 3) int64 table of rows (first, step, count)."""
    return np.array(runs, dtype=np.int64).reshape(-1, 3)


def _lasts(table: np.ndarray) -> np.ndarray:
    return table[:, 0] + (table[:, 2] - 1) * table[:, 1]


def _extremes(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each run's smallest and largest value."""
    firsts, lasts = table[:, 0], _lasts(table)
    return np.minimum(firsts, lasts), np.maximum(firsts, lasts)


def _checked_rows(table: np.ndarray) -> np.ndarray:
    """The table, once every row is a run of at least one positive integer
    inside int64 with a nonzero step; ValueError otherwise."""
    first, step, count = table.T
    if (count < 1).any():
        raise ValueError("run count must be >= 1")
    if (step == 0).any():
        raise ValueError("run step must be nonzero")
    # each count is bounded without forming the last value, which may wrap
    if (first < 1).any() or (
        count - 1 > np.where(step > 0, _INT64_MAX - first, 1 - first) // step
    ).any():
        raise ValueError("index runs live on positive integers inside int64")
    return table


def compress_values(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """Split a sequence of indices into arithmetic runs, as a run table.

    The split rule, which every run table of the package follows: read the
    consecutive differences as a run-length code; the first run takes the
    first value and every difference of the first code entry, and each
    later entry starts a run one value after the change of difference,
    holding as many values as the entry has differences.  A run of one
    value is stored with step 1.  The rule is deterministic and linear;
    repeated values surface as zero steps and are rejected."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return _table(())
    diffs = np.diff(arr)
    starts = _code_starts(diffs)
    lengths = np.diff(np.append(starts, diffs.size))
    return _checked_rows(_split(int(arr[0]), diffs[starts], lengths))


def _code_starts(diffs: np.ndarray) -> np.ndarray:
    """Where each entry of the run-length code of `diffs` starts."""
    if diffs.size == 0:
        return diffs
    return np.flatnonzero(np.concatenate(([True], diffs[1:] != diffs[:-1])))


def _split(first: int, diffs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The run table compress_values makes of the sequence that starts at
    `first` and whose differences are diffs[r] repeated lengths[r] times,
    with no two adjacent diffs equal."""
    if diffs.size == 0:
        return _table((first, 1, 1))
    ends = first + np.cumsum(diffs * lengths)
    starts = np.concatenate(([first], ends[:-1] + diffs[1:]))
    counts = np.concatenate(([lengths[0] + 1], lengths[1:]))
    return np.column_stack((starts, np.where(counts > 1, diffs, 1), counts))


def _resplit(table: np.ndarray) -> np.ndarray:
    """The table compress_values makes of the values of `table`'s runs in
    order, read off the run-length code of their differences: each run's
    own step count - 1 times, then the gap to the next run.  Two tables
    hold the same values exactly when their resplit tables are equal."""
    if table.shape[0] == 0:
        return table
    diffs = np.empty(2 * table.shape[0] - 1, dtype=np.int64)
    lengths = np.ones_like(diffs)
    diffs[0::2], lengths[0::2] = table[:, 1], table[:, 2] - 1
    diffs[1::2] = table[1:, 0] - _lasts(table)[:-1]
    diffs, lengths = diffs[lengths > 0], lengths[lengths > 0]
    starts = _code_starts(diffs)
    lengths = np.add.reduceat(lengths, starts) if starts.size else lengths
    return _split(int(table[0, 0]), diffs[starts], lengths)


def _normalized(first: int, step: int, count: int) -> tuple[int, int, int]:
    """(first, positive step, count) describing the same value set."""
    if step > 0:
        return first, step, count
    return first + (count - 1) * step, -step, count


def runs_intersect(a: Sequence[int], b: Sequence[int]) -> bool:
    """Exact emptiness test for the intersection of two runs, each a row
    (first, step, count) of Python ints."""
    a0, da, na = _normalized(*a)
    b0, db, nb = _normalized(*b)
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
    """Shared run-table storage for subsequence and rearrangement stems.

    `runs` is one read-only (k, 3) int64 table, a row (first, step, count)
    per run, and `ends` its read-only cumulative counts: run i holds the
    positions ends[i] - count + 1 .. ends[i]."""

    __slots__ = ("runs", "ends")

    runs: np.ndarray
    ends: np.ndarray

    def __init__(self, runs: Runs) -> None:
        self._hold(_checked_rows(_table(runs)))
        self._validate()

    @classmethod
    def _trusted(cls, runs: np.ndarray):
        """A stem over a fresh table already known to be valid."""
        stem = object.__new__(cls)
        stem._hold(runs)
        return stem

    def _hold(self, table: np.ndarray) -> None:
        ends = np.cumsum(table[:, 2])
        table.flags.writeable = ends.flags.writeable = False
        object.__setattr__(self, "runs", table)
        object.__setattr__(self, "ends", ends)

    def _validate(self, fresh: int = 0) -> None:
        """Raise ValueError unless the runs keep the stem's order, given
        that runs[:fresh] do."""
        raise NotImplementedError

    @classmethod
    def from_values(cls, values: Sequence[int] | np.ndarray):
        return cls(compress_values(values))

    @classmethod
    def identity(cls, length: int):
        return cls([(1, 1, length)] if length else ())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("stems are immutable")

    def __len__(self) -> int:
        return int(self.ends[-1]) if self.ends.size else 0

    def __bool__(self) -> bool:
        return self.ends.size > 0

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return len(self) == len(other) and bool(
            np.array_equal(_resplit(self.runs), _resplit(other.runs))
        )

    def __hash__(self) -> int:
        # what equal stems share however their runs are split
        if not self:
            return hash((type(self).__name__, 0))
        last = int(_lasts(self.runs[-1:])[0])
        return hash((type(self).__name__, len(self), int(self.runs[0, 0]), last))

    def __repr__(self) -> str:
        if len(self) <= 12:
            return f"{type(self).__name__}{tuple(self.values())}"
        head = ", ".join(str(v) for v in self.to_numpy(8))
        return f"{type(self).__name__}({head}, ... len={len(self)})"

    @property
    def max_value(self) -> int:
        return int(_extremes(self.runs)[1].max(initial=0))

    def values(self) -> Iterator[int]:
        firsts, steps, counts = self.runs.T.tolist()
        runs = map(itertools.islice, map(itertools.count, firsts, steps), counts)
        return itertools.chain.from_iterable(runs)

    def value_at(self, position: int) -> int:
        """1-based lookup."""
        if not 1 <= position <= len(self):
            raise IndexError(position)
        i = int(np.searchsorted(self.ends, position))
        first, step, count = self.runs[i].tolist()
        return first + (position - 1 - int(self.ends[i]) + count) * step

    def to_numpy(self, limit: int | None = None) -> np.ndarray:
        """The first `limit` values (all of them by default), made as the
        running sum of the steps, each run's first value entering as its
        gap from the value before."""
        table = self.slice_runs(1, len(self) if limit is None else min(limit, len(self)))
        firsts, steps, counts = table.T
        values = np.repeat(steps, counts)
        values[np.cumsum(counts) - counts] = firsts - np.concatenate(([0], _lasts(table)[:-1]))
        return np.cumsum(values, out=values)

    def slice_runs(self, start: int, end: int) -> np.ndarray:
        """Run table of positions start..end inclusive (1-based): the rows
        of the runs they meet, the first and last cut to them."""
        if start < 1 or end > len(self) or start > end + 1:
            raise IndexError((start, end))
        if start > end:
            return _table(())
        i, j = np.searchsorted(self.ends, (start, end)).tolist()
        table = self.runs[i:j + 1].copy()
        skip = start - 1 - int(self.ends[i] - self.runs[i, 2])
        table[-1, 2] = end - int(self.ends[j] - self.runs[j, 2])
        table[0, 0] += skip * table[0, 1]
        table[0, 2] -= skip
        return table

    def extends(self, base: IndexerStem) -> bool:
        """True if `base` is an initial segment of this stem: the runs of
        this stem's first len(base) positions hold the base's values, which
        their resplit tables decide without making a value."""
        return isinstance(base, _RunStem) and len(base) <= len(self) and bool(
            np.array_equal(_resplit(self.slice_runs(1, len(base))), _resplit(base.runs))
        )

    def prefix(self, length: int):
        # a prefix of a valid stem is valid
        return self._trusted(self.slice_runs(1, length))

    def concat_runs(self, runs: Runs):
        stem = self._trusted(np.concatenate((self.runs, _checked_rows(_table(runs)))))
        stem._validate(self.runs.shape[0])
        return stem

    def cover_position(self, targets: np.ndarray | Sequence[int]) -> int | None:
        """Smallest 1-based position p with targets contained in the first
        p values, or None if the stem never covers them.

        Validated stems are injective, so p is the largest position of any
        target, and each target is held by at most one run.  It is looked
        for only in the runs whose value ranges hold it: one array pass over
        those (run, target) pairs."""
        t = np.unique(np.asarray(targets, dtype=np.int64))
        lows, highs = _extremes(self.runs)
        a, b = np.searchsorted(t, lows), np.searchsorted(t, highs, side="right")
        run = np.repeat(np.arange(lows.size), b - a)
        offsets, misses = np.divmod(t[a[run] + _ragged(b - a)] - self.runs[run, 0],
                                    self.runs[run, 1])
        held = misses == 0
        if np.count_nonzero(held) < t.size:
            return None
        begins = self.ends[run] - self.runs[run, 2]
        return int((begins + offsets + 1)[held].max(initial=0))


class SubseqStem(_RunStem):
    """Finite prefix of a strictly increasing index sequence."""

    def _validate(self, fresh: int = 0) -> None:
        before = np.concatenate(([0], _lasts(self.runs)[:-1]))
        if (self.runs[:, 1] <= 0).any() or (self.runs[:, 0] <= before).any():
            raise ValueError("subsequence stems must increase")

    @classmethod
    def arithmetic(cls, start: int, step: int, count: int) -> "SubseqStem":
        """start, start + step, ... (count values); a single value is stored
        with step 1, as compress_values stores it."""
        return cls([(start, step if count > 1 else 1, count)] if count else ())

    def first_position_above(self, bound: int) -> int | None:
        """Smallest 1-based position whose value exceeds `bound`."""
        i = int(np.searchsorted(_lasts(self.runs), bound, side="right"))
        if i == self.ends.size:
            return None
        first, step, count = self.runs[i].tolist()
        skip = 0 if first > bound else (bound - first) // step + 1
        return int(self.ends[i]) - count + 1 + skip


class RearrStem(_RunStem):
    """Finite injective index sequence (a rearrangement prefix)."""

    def _validate(self, fresh: int = 0) -> None:
        """Injectivity by a sweep over the runs in order of minimum value:
        `runs_intersect` is called only on pairs whose value ranges overlap
        and that involve a run at index >= `fresh`.  Stems whose runs keep
        to separate ranges cost O(n log n); many pairwise-disjoint runs
        sharing one range (residue classes, say) still cost a call per
        pair."""
        rows = self.runs.tolist()
        lows, highs = (column.tolist() for column in _extremes(self.runs))
        live: list[tuple[int, int]] = []  # (max value, index) of open runs
        for lo, hi, index in sorted(zip(lows, highs, range(len(rows)))):
            live = [item for item in live if item[0] >= lo]
            for _, other in live:
                if max(index, other) >= fresh and runs_intersect(rows[other], rows[index]):
                    raise ValueError("rearrangement stems must be injective")
            live.append((hi, index))

    def is_prefix_bijection(self, length: int | None = None) -> bool:
        """True if the first `length` values are exactly {1, ..., length}.

        Validation makes the values distinct integers >= 1, so `length` of
        them are {1, ..., length} exactly when their maximum is `length`:
        O(runs), and nothing is allocated by length."""
        length = len(self) if length is None else length
        if not 0 <= length <= len(self):
            return False
        return int(_extremes(self.slice_runs(1, length))[1].max(initial=0)) == length


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

    def to_numpy(self) -> np.ndarray:
        return self.bits


IndexerStem = SelectionStem | SubseqStem | RearrStem


def missing_below(stem: _RunStem, bound: int) -> np.ndarray:
    """Run table listing {1..bound} minus the stem's values, in increasing
    order, split as compress_values splits them.

    The runs' value ranges cut 1..bound into segments, each inside the same
    runs throughout, and each segment gives its missing values as pieces:
    all of it where no run is active, nothing under one run of step 1, the
    other parity under one run of step 2.  Only the segments where runs
    overlap or a single run has step 3 or more are made as a mask, one of
    their total length.  The pieces are then merged by the run-length code
    of their differences, so nothing is allocated in proportion to the
    bound."""
    firsts = _extremes(stem.runs)[0]
    steps, counts = np.abs(stem.runs[:, 1]), stem.runs[:, 2]
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


def _merged(firsts: np.ndarray, steps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The run table compress_values makes of the concatenated values of
    the progressions (firsts[i], steps[i] > 0, counts[i]), taken in order of
    their first values.  The values increase, so the runs are valid
    without a check."""
    keep = counts > 0
    order = np.argsort(firsts[keep], kind="stable")
    return _resplit(np.column_stack((firsts, steps, counts))[keep][order])


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

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import serieswitness.stems as stems_module
from serieswitness.stems import (
    RearrStem,
    SelectionStem,
    SubseqStem,
    compress_values,
    extend_to_prefix_bijection,
    missing_below,
    runs_intersect,
)


def test_compress_roundtrip_small():
    for values in [(1, 2, 4, 6), (1, 3, 4, 5), (1, 2, 3, 5, 7), (9,), (), (5, 1, 2)]:
        runs = compress_values(values)
        assert runs.dtype == np.int64 and runs.shape == (len(runs), 3)
        assert tuple(materialise(runs)) == tuple(values)


@given(st.lists(st.integers(1, 60), min_size=0, max_size=25, unique=True))
@settings(max_examples=200)
def test_compress_roundtrip_random(values):
    assert materialise(compress_values(values)) == values


def test_duplicate_values_rejected():
    with pytest.raises(ValueError):
        compress_values((3, 3))
    with pytest.raises(ValueError):
        RearrStem.from_values((1, 5, 2, 5))


def test_runs_intersect_exact():
    evens = (2, 2, 50)
    odds = (1, 2, 50)
    assert not runs_intersect(evens, odds)
    assert runs_intersect(evens, (6, 3, 10))
    assert not runs_intersect((1, 4, 5), (3, 4, 5))
    assert runs_intersect((10, 1, 1), (2, 4, 5))


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("cls", [RearrStem, SubseqStem])
@pytest.mark.parametrize("run", [
    (1, 2**62, 5),             # last value 2**64 + 1 wraps to 1
    (INT64_MAX - 1, 1, 3),     # one past INT64_MAX
    (INT64_MAX, INT64_MAX, 2),
    (5, -2, 4),                # down to -1
    (5, -(2**63), 2),          # down past INT64_MIN
])
def test_a_run_whose_last_value_leaves_the_positive_int64s_is_refused(cls, run):
    with pytest.raises(ValueError, match="positive integers inside int64"):
        cls([run])


@pytest.mark.parametrize("cls, run", [
    (RearrStem, (INT64_MAX - 1, 1, 2)),
    (SubseqStem, (INT64_MAX - 1, 1, 2)),
    (RearrStem, (5, -2, 3)),
    (RearrStem, (INT64_MAX, -1, 3)),
])
def test_a_run_that_ends_on_an_int64_edge_is_kept(cls, run):
    first, step, count = run
    stem = cls([run])
    assert stem.max_value == max(first, first + (count - 1) * step)


def test_subseq_monotone_enforced():
    with pytest.raises(ValueError):
        SubseqStem.from_values((2, 2))
    with pytest.raises(ValueError):
        SubseqStem.from_values((3, 1))
    stem = SubseqStem.from_values((1, 4, 9, 16))
    assert len(stem) == 4
    assert stem.value_at(3) == 9


def test_first_position_above():
    evens = SubseqStem.arithmetic(2, 2, 100)
    assert evens.first_position_above(0) == 1
    assert evens.first_position_above(8) == 5
    assert evens.first_position_above(7) == 4
    assert evens.first_position_above(200) is None


def test_slice_and_prefix():
    stem = SubseqStem.from_values((1, 2, 3, 10, 20, 30, 31, 32))
    assert list(stem.prefix(4).values()) == [1, 2, 3, 10]
    assert materialise(stem.slice_runs(3, 6)) == [3, 10, 20, 30]


def test_extends_and_cover():
    base = RearrStem.from_values((2, 1))
    longer = RearrStem.from_values((2, 1, 4, 3))
    assert longer.extends(base)
    assert not base.extends(longer)
    assert longer.cover_position([1, 2]) == 2
    assert longer.cover_position([3]) == 4
    assert longer.cover_position([9]) is None


def test_extend_to_prefix_bijection_examples():
    assert list(extend_to_prefix_bijection(RearrStem.from_values((3, 1))).values()) == [3, 1, 2]
    assert list(
        extend_to_prefix_bijection(RearrStem.from_values((1, 2, 3))).values()
    ) == [1, 2, 3]
    assert list(
        extend_to_prefix_bijection(RearrStem.from_values((5, 1))).values()
    ) == [5, 1, 2, 3, 4]
    assert list(extend_to_prefix_bijection(RearrStem(())).values()) == []


def test_extend_shortest_completion_bruteforce():
    # No shorter extension of (5, 1) reaches a permutation of an initial
    # segment: check every permutation of {1..5} by brute force.
    stem = (5, 1)
    completions = [
        p
        for p in itertools.permutations(range(1, 6))
        if p[: len(stem)] == stem
    ]
    assert completions, "some completion exists"
    for k in range(len(stem), 5):
        assert not any(
            sorted(p[:k]) == list(range(1, k + 1)) for p in completions
        )
    extended = extend_to_prefix_bijection(RearrStem.from_values(stem))
    assert len(extended) == 5


def _injective_stems(universe, max_len):
    for length in range(0, max_len + 1):
        yield from itertools.permutations(universe, length)


def test_extend_is_permutation_exhaustive():
    # Every injective stem over {1..6}: the extension is a permutation of
    # {1..k} with the stem as a prefix.
    for stem in _injective_stems(range(1, 7), 3):
        extended = extend_to_prefix_bijection(RearrStem.from_values(stem))
        values = list(extended.values())
        k = max([*stem, len(stem)], default=0)
        assert values[: len(stem)] == list(stem)
        assert sorted(values) == list(range(1, k + 1))
        # idempotence: extending again changes nothing
        assert extend_to_prefix_bijection(extended) == extended


def test_prefix_bijection_check():
    stem = RearrStem.from_values((2, 1, 4, 3, 6, 5))
    assert stem.is_prefix_bijection(2)
    assert not stem.is_prefix_bijection(3)
    assert stem.is_prefix_bijection(6)


def test_selection_stem():
    word = SelectionStem([1, 0, 1, 1, 0])
    assert word.bits.tolist() == [1, 0, 1, 1, 0]
    assert word.word() == "10110"
    assert SelectionStem.ones(3).bits.tolist() == [1, 1, 1]
    with pytest.raises(ValueError):
        SelectionStem((1, 2))


def test_selection_stem_keeps_one_read_only_word():
    stem = SelectionStem([1, 0, 1, 1])
    word = stem.to_numpy()
    assert word is stem.to_numpy()
    assert word.dtype == np.int64 and word.tolist() == [1, 0, 1, 1]
    assert not word.flags.writeable
    same = SelectionStem((1, 0, 1, 1))
    assert stem == same and hash(stem) == hash(same)
    assert stem != SelectionStem((1, 0, 1))
    assert repr(stem) == "SelectionStem(bits=(1, 0, 1, 1))"
    for bad in [(1, 2), (0.5,), ("1",), (1, None)]:
        with pytest.raises(ValueError):
            SelectionStem(bad)


def test_a_selection_stem_from_an_array_equals_the_one_from_a_tuple():
    bits = (1, 0, 0, 1, 1, 0, 1)
    array = np.array(bits)
    from_array, from_tuple = SelectionStem(array), SelectionStem(bits)
    assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
    array[0] = 0  # the stem keeps a copy, not the caller's array
    assert from_array == from_tuple
    word = from_array.to_numpy()
    assert word.dtype == np.int64 and not word.flags.writeable
    with pytest.raises(ValueError):
        word[0] = 0
    with pytest.raises(AttributeError):
        from_array.bits = np.zeros(7, dtype=np.int64)
    for bad in [np.array([1, 2]), (1, 2), np.array([[0, 1]])]:
        with pytest.raises(ValueError, match=r"^selection stems are words over \{0, 1\}$"):
            SelectionStem(bad)
    ones = SelectionStem.ones(5)
    assert ones == SelectionStem((1,) * 5) and hash(ones) == hash(SelectionStem((1,) * 5))
    assert ones != SelectionStem.ones(4) and SelectionStem() == SelectionStem(np.empty(0))


def test_big_stem_stays_cheap():
    stem = SubseqStem.arithmetic(2, 2, 5_000_000)
    assert len(stem) == 5_000_000
    assert stem.value_at(5_000_000) == 10_000_000
    assert stem.max_value == 10_000_000
    assert len(stem.runs) == 1
    prefix = stem.prefix(2_500_000)
    assert prefix.value_at(2_500_000) == 5_000_000


def test_equality_by_values():
    a = SubseqStem.from_values((1, 2, 3, 4))
    b = SubseqStem(((1, 1, 2), (3, 1, 2)))
    assert a == b


@st.composite
def split_stems(draw):
    """A stem from its values and the same values with its runs cut into
    pieces; a one-value piece takes any step (negative in a rearrangement)."""
    kind = draw(st.sampled_from([SubseqStem, RearrStem]))
    values = draw(st.lists(st.integers(1, 60), unique=True, max_size=20))
    if kind is SubseqStem:
        values.sort()
    elif draw(st.booleans()):
        values.sort(reverse=True)
    stem = kind.from_values(values)
    steps = st.integers(1, 5) if kind is SubseqStem else st.integers(-5, 5).filter(bool)
    pieces = []
    for first, run_step, count in stem.runs.tolist():
        offset = 0
        while offset < count:
            take = draw(st.integers(1, count - offset))
            step = run_step if take > 1 else draw(steps)
            pieces.append((first + offset * run_step, step, take))
            offset += take
    return stem, kind(pieces)


@st.composite
def stems_and_bases(draw):
    """A stem drawn as split_stems draws it, and a base to test `extends`
    against: a prefix of its values, split anew; the same prefix with a
    last value changed, so the two diverge inside a run; or a one-value
    base whose run has a step other than 1."""
    stem, split = draw(split_stems())
    values = list(stem.values())
    cut = draw(st.integers(0, len(values)))
    kind = type(stem)
    how = draw(st.sampled_from(["prefix", "diverged", "one-value"]))
    if how == "prefix" or not values:
        base = kind([(v, 1, 1) for v in values[:cut]]) if draw(st.booleans()) \
            else kind.from_values(values[:cut])
    elif how == "diverged":
        head = values[:max(cut, 1)]
        head[-1] += draw(st.sampled_from([-1, 1, 61]))
        base = kind.from_values(head) if head[-1] > 0 and len(set(head)) == len(head) \
            and (kind is RearrStem or head == sorted(head)) else kind(())
    else:
        base = kind([(values[0], draw(st.integers(2, 9)), 1)])
    return split, base


def reference_extends(stem, base):
    return list(stem.values())[:len(base)] == list(base.values()) and len(base) <= len(stem)


@given(stems_and_bases(), st.integers(0, 25), st.integers(1, 25), st.integers(-1, 70))
@example((SubseqStem([(1, 1, 5)]), SubseqStem([(1, 1, 3)])), 3, 4, 2)  # extends the last run
@example((SubseqStem([(1, 1, 5)]), SubseqStem([(1, 1, 2), (4, 1, 1)])), 3, 4, 2)  # diverges
@example((RearrStem([(9, -2, 2), (5, 7, 1), (3, -4, 1)]), RearrStem([(9, -2, 3)])), 2, 3, 4)
@example((RearrStem([(9, -2, 2), (5, 7, 1)]), RearrStem([(9, 5, 1)])), 1, 3, 8)
@settings(max_examples=400)
def test_positional_operations_match_the_values(drawn, limit, start, bound):
    stem, base = drawn
    values = materialise(stem.runs)
    n = len(values)
    assert len(stem) == n and bool(stem) == bool(values)
    assert list(stem.values()) == values
    assert stem.max_value == max(values, default=0)
    for position in range(-1, n + 3):
        if 1 <= position <= n:
            assert stem.value_at(position) == values[position - 1]
        else:
            with pytest.raises(IndexError):
                stem.value_at(position)
    assert stem.to_numpy().tolist() == values
    assert stem.to_numpy(limit).tolist() == values[:limit]
    for length in range(n + 1):
        assert list(stem.prefix(length).values()) == values[:length]
        assert stem.extends(stem.prefix(length))
    start = min(start, n + 1)
    for end in range(start - 1, n + 1):
        assert materialise(stem.slice_runs(start, end)) == values[start - 1:end]
    with pytest.raises(IndexError):
        stem.prefix(n + 1)
    if isinstance(stem, SubseqStem):
        above = [i for i, v in enumerate(values, 1) if v > bound]
        assert stem.first_position_above(bound) == (above[0] if above else None)
    assert stem.extends(base) == reference_extends(stem, base)
    assert base.extends(stem) == reference_extends(base, stem)


@given(split_stems())
@example((SubseqStem(((2, 2, 1),)), SubseqStem(((2, 1, 1),))))
@example((RearrStem(((9, -2, 4),)),
          RearrStem(((9, -2, 2), (5, -2, 1), (3, 7, 1)))))
@settings(max_examples=300)
def test_equal_stems_hash_equal_however_their_runs_are_split(pair):
    stem, split = pair
    assert stem == split
    assert hash(stem) == hash(split)


# ---------------------------------------------------------------------------
# the run algebra against the value-by-value references it replaced


def materialise(runs):
    """The values of (first, step, count) rows, one by one."""
    return [first + i * step for first, step, count in np.asarray(runs).reshape(-1, 3).tolist()
            for i in range(count)]


def last(run):
    first, step, count = run
    return first + (count - 1) * step


def reference_cover_position(stem, targets):
    remaining = set(targets)
    if not remaining:
        return 0
    for position, value in enumerate(stem.values(), 1):
        remaining.discard(value)
        if not remaining:
            return position
    return None


def reference_is_prefix_bijection(stem, length):
    if length > len(stem):
        return False
    values = stem.to_numpy(length)
    if values.size == 0:
        return True
    if values.max(initial=0) != length:
        return False
    seen = np.zeros(length + 1, dtype=bool)
    seen[values] = True
    return bool(seen[1:].all())


@st.composite
def index_runs(draw):
    low = draw(st.integers(1, 30))
    step = draw(st.integers(1, 5))
    count = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return (low + (count - 1) * step, -step, count)
    return (low, step, count)


run_lists = st.lists(index_runs(), max_size=8)
injective_values = st.lists(st.integers(1, 40), unique=True, max_size=15)


def disjoint_runs(runs):
    """The runs, each dropped if it meets one kept before it."""
    kept, seen = [], set()
    for run in runs:
        values = set(materialise([run]))
        if not values & seen:
            kept.append(run)
            seen |= values
    return kept


@given(run_lists)
@example([(5, 1, 1), (5, 1, 1)])
@example([(4, 1, 3), (4, 1, 3)])
@example([(1, 3, 5), (2, 3, 5)])
@example([(1, 3, 5), (4, 3, 5)])
@example([(13, -3, 5), (2, 3, 5), (7, 3, 1)])
@example([(2, 2, 5), (1, 2, 6), (30, -7, 4)])
@settings(max_examples=400)
def test_rearr_stem_raises_exactly_on_repeats(runs):
    values = materialise(runs)
    if len(set(values)) == len(values):
        assert list(RearrStem(runs).values()) == values
    else:
        with pytest.raises(ValueError, match="injective"):
            RearrStem(runs)


@given(injective_values, run_lists)
@example([1, 2, 3], [(9, -3, 3)])
@example([4, 8], [(2, 2, 2), (10, -2, 2)])
@settings(max_examples=400)
def test_concat_runs_raises_exactly_on_repeats(head, tail):
    stem = RearrStem.from_values(head)
    values = head + materialise(tail)
    if len(set(values)) == len(values):
        assert list(stem.concat_runs(tail).values()) == values
    else:
        with pytest.raises(ValueError, match="injective"):
            stem.concat_runs(tail)


@given(st.lists(st.integers(1, 40), unique=True, max_size=15).map(sorted), run_lists)
@settings(max_examples=200)
def test_subseq_concat_agrees_with_full_validation(head, tail):
    stem = SubseqStem.from_values(head)
    try:
        whole = SubseqStem(stem.runs.tolist() + tail)
    except ValueError:
        with pytest.raises(ValueError):
            stem.concat_runs(tail)
    else:
        assert stem.concat_runs(tail) == whole


@given(run_lists, st.lists(st.integers(-2, 45), max_size=6))
@example([(13, -3, 5)], [7])
@example([(13, -3, 5)], [8])
@example([(13, -3, 5), (2, 3, 3)], [2, 13, 1])
@example([(3, 1, 4)], [])
@settings(max_examples=400)
def test_cover_position_matches_the_walk(runs, targets):
    stem = RearrStem(disjoint_runs(runs))
    expected = reference_cover_position(stem, targets)
    assert stem.cover_position(np.array(targets, dtype=np.int64)) == expected


def reference_missing_below(stem, bound):
    """The value-scatter mask that missing_below used to fill."""
    mask = np.ones(bound + 1, dtype=bool)
    mask[0] = False
    values = np.array(materialise(stem.runs), dtype=np.int64)
    mask[values[values <= bound]] = False
    return compress_values(np.flatnonzero(mask))


@given(run_lists, st.integers(0, 50))
@example([(13, -3, 5)], 7)
@example([(2, 5, 6), (30, -4, 3)], 24)
@example([(40, 1, 3)], 12)
@settings(max_examples=400)
def test_missing_below_matches_the_scatter(runs, bound):
    # runs of either direction, below, across and past the bound
    stem = RearrStem(disjoint_runs(runs))
    assert missing_below(stem, bound).tolist() == reference_missing_below(stem, bound).tolist()


def mask_missing_below(stem, bound):
    """missing_below as a mask of its bound, one strided slice per run."""
    mask = np.ones(bound + 1, dtype=bool)
    mask[0] = False
    for run in stem.runs.tolist():
        first, step, count = run if run[1] > 0 else (last(run), -run[1], run[2])
        top = min(first + (count - 1) * step, bound)
        mask[first:top + 1:step] = False
    return compress_values(np.flatnonzero(mask).astype(np.int64))


@st.composite
def overlapping_stems(draw):
    """Injective stems whose runs share value ranges: residue classes of one
    modulus over overlapping spans, runs of either direction and of one
    value, and a few runs anywhere."""
    runs = []
    modulus = draw(st.integers(2, 5))
    for residue in draw(st.lists(st.integers(0, modulus - 1), unique=True, max_size=modulus)):
        low = draw(st.integers(0, 6)) * modulus + residue + modulus
        count = draw(st.integers(1, 40))
        run = (low, modulus, count)
        runs.append((last(run), -modulus, count) if draw(st.booleans()) else run)
    runs += draw(st.lists(index_runs(), max_size=4))
    runs += [(v, 1, 1) for v in draw(st.lists(st.integers(1, 250), max_size=4))]
    stem = RearrStem(disjoint_runs(draw(st.permutations(runs))))
    top = stem.max_value
    bound = draw(st.sampled_from([0, 1, top // 2, top, top + 7]) | st.integers(0, top + 20))
    return stem, bound


@given(overlapping_stems())
@example((RearrStem(()), 0))
@example((RearrStem(()), 9))
@example((RearrStem(((6, 2, 1), (1, 2, 4))), 12))
@example((RearrStem(((20, -2, 8), (5, 2, 9))), 30))
@settings(max_examples=1_000, deadline=None)
def test_missing_below_matches_the_mask(drawn):
    stem, bound = drawn
    assert missing_below(stem, bound).tolist() == mask_missing_below(stem, bound).tolist()


@st.composite
def progressions(draw):
    """Progressions (first, step, count) whose values increase from one to
    the next, some of them empty, in a drawn order."""
    pieces, low = [], draw(st.integers(1, 5))
    for _ in range(draw(st.integers(0, 12))):
        step, count = draw(st.integers(1, 4)), draw(st.integers(0, 6))
        pieces.append((low, step, count))
        low += max(count - 1, 0) * step + draw(st.integers(1, 4))
    return draw(st.permutations(pieces))


@given(progressions())
@settings(max_examples=500)
def test_merged_pieces_split_as_compress_values(pieces):
    firsts, steps, counts = np.array(pieces, dtype=np.int64).reshape(-1, 3).T
    values = [f + i * s for f, s, c in sorted(pieces) for i in range(c)]
    merged = stems_module._merged(firsts, steps, counts)
    assert merged.tolist() == compress_values(values).tolist()


def test_closing_the_depth_3_prefix_allocates_no_mask():
    # p' of depth 3 on alt-harmonic up to its third crossing, at 1,414,491,
    # closed into a permutation of 1..2,827,230: the mask was 2.8 MB and its
    # list of missing values 11 MB
    from serieswitness import catalog_series, rearrangement_pipeline

    cert = rearrangement_pipeline(catalog_series("alt-harmonic"), 3, 3_000_000)
    prefix = cert.stem.prefix(1_414_491)
    assert len(prefix.runs) == 5
    tracemalloc.start()
    try:
        missing = missing_below(prefix, 2_827_230)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert missing.tolist() == [[1_753, 2, 1_412_739]]
    assert peak_bytes < 1 << 20


@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))),
       injective_values, st.integers(0, 30))
@settings(max_examples=400)
def test_is_prefix_bijection_matches_the_mask(perm, extra, length):
    values = list(perm) + [v + len(perm) for v in extra]
    stem = RearrStem.from_values(values)
    length = min(length, len(stem) + 1)
    assert stem.is_prefix_bijection(length) == reference_is_prefix_bijection(stem, length)


def test_validation_work_is_linear_in_the_run_count(monkeypatch):
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return runs_intersect(a, b)

    monkeypatch.setattr(stems_module, "runs_intersect", counting)
    values = np.random.default_rng(20_000).permutation(20_000) + 1
    stem = RearrStem.from_values(values)
    assert stem.is_prefix_bijection()
    assert len(stem.runs) > 10_000
    assert calls <= len(stem.runs)

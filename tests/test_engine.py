"""The single partial-sum engine against the per-term and per-interval
reference code it replaced; the references stay here."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serieswitness.series as series_module
from serieswitness import (
    PartialSumTrace,
    RearrStem,
    ScanExhausted,
    SelectionStem,
    SubseqStem,
    WitnessCertificate,
    catalog_series,
    exceedance_report,
    geometric_talagrand,
    grow_unbounded_subseries,
    limsup_subseries,
    linear_talagrand,
    norms_at,
    prefix_norms,
)
from serieswitness.ideals import explicit_talagrand, interval
from serieswitness.series import _signs, crossing_scan
from serieswitness.spaces import DELTA

from conftest import traced_peak


# ---------------------------------------------------------------------------
# references


def reference_exceedance(trace, bound, seq):
    """The per-interval loop that exceedance_report used to run."""
    horizon = trace.horizon
    mask = trace.norms > bound + DELTA
    exceed = frozenset(int(p) + 1 for p in np.flatnonzero(mask))
    contained = []
    k = 1
    while True:
        if seq.max_k() is not None and k > seq.max_k():
            break
        window = interval(seq, k)
        if window.start > horizon:
            break
        if window.stop - 1 <= horizon and all(bool(mask[l - 1]) for l in window):
            contained.append(k)
        k += 1
    return exceed, tuple(contained)


def reference_sup_norms(series, stem, horizon):
    """Running sup norms from one FiniteSupportVector per term, summed into
    a dict coordinate by coordinate."""
    if isinstance(stem, SelectionStem):
        steps = [i + 1 if bit else None for i, bit in enumerate(stem.bits[:horizon])]
    else:
        steps = [int(v) for v in stem.to_numpy(horizon)]
    coeffs: dict[int, float] = {}
    out = []
    for n in steps:
        if n is not None:
            for index, coeff in series.term(n).entries:
                coeffs[index] = coeffs.get(index, 0.0) + coeff
        out.append(max((abs(c) for c in coeffs.values()), default=0.0))
    return np.array(out)


# ---------------------------------------------------------------------------
# exceedance by prefix counts


SEQUENCES = st.one_of(
    st.just(linear_talagrand()),
    st.just(geometric_talagrand()),
    st.lists(st.integers(1, 80), min_size=2, max_size=12, unique=True).map(
        lambda values: explicit_talagrand(sorted(values))
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    above=st.lists(st.booleans(), min_size=0, max_size=70),
    seq=SEQUENCES,
    runs=st.integers(0, 3),
)
def test_exceedance_matches_per_interval_loop(above, seq, runs):
    # long stretches of exceedance make whole intervals likely; the trace
    # ends wherever the list does, so the last interval often straddles it
    above = above + [True] * (runs * 11)
    horizon = len(above)
    norms = np.where(np.array(above, dtype=bool), 2.0, 0.5)
    trace = PartialSumTrace(norms)
    report = exceedance_report(trace, 1.0, seq)
    exceed, contained = reference_exceedance(trace, 1.0, seq)
    assert report.exceed_positions.tolist() == sorted(exceed)
    assert tuple(report.contained_intervals.tolist()) == contained


# ---------------------------------------------------------------------------
# the columnar sup-norm path


def _random_stem(rng, kind, size):
    if kind == "selection":
        return SelectionStem(tuple(int(b) for b in rng.integers(0, 2, size)))
    values = rng.choice(np.arange(1, 3 * size + 1), size=size, replace=False)
    if kind == "subseq":
        return SubseqStem.from_values(np.sort(values))
    return RearrStem.from_values(values)


@pytest.mark.parametrize("name", ["unit-basis-c0", "decaying-signed-c0"])
@pytest.mark.parametrize("kind", ["subseq", "rearr", "selection"])
@pytest.mark.parametrize("chunk", [1 << 20, 7])
def test_sup_norms_match_per_term_vectors(monkeypatch, name, kind, chunk):
    # a chunk of 7 carries the running coordinates across many chunks
    monkeypatch.setattr(series_module, "_CHUNK", chunk)
    series = catalog_series(name)
    rng = np.random.default_rng(sum(map(ord, name + kind)))
    for size in (1, 2, 40, 300):
        stem = _random_stem(rng, kind, size)
        got = prefix_norms(series, stem, size)
        assert np.array_equal(got, reference_sup_norms(series, stem, size))


def test_sup_norms_of_paired_coordinates(monkeypatch):
    # decaying-signed-c0 puts indices 2m-1 and 2m on coordinate m, so the
    # identity stem and its reversal revisit coordinates
    monkeypatch.setattr(series_module, "_CHUNK", 5)
    series = catalog_series("decaying-signed-c0")
    for stem in (SubseqStem.identity(64), RearrStem.from_values(range(64, 0, -1))):
        assert np.array_equal(
            prefix_norms(series, stem, 64), reference_sup_norms(series, stem, 64)
        )


def reference_sup_chunk(coords, coeffs, keys, held):
    """The sup norm after each term of a chunk, and the sum after it as
    sorted coordinates and values, from a dict summed term by term."""
    sums = dict(zip(keys.tolist(), held.tolist()))
    norms = []
    for coord, coeff in zip(coords.tolist(), coeffs.tolist()):
        sums[coord] = sums.get(coord, 0.0) + coeff
        norms.append(max(map(abs, sums.values())))
    order = sorted(sums)
    return np.array(norms), np.array(order, dtype=np.int64), np.array([sums[k] for k in order])


def _synthetic_chunk(rng, length, width):
    """Single-coordinate terms on coordinates 1..width, so a coordinate
    comes back many times, with zero coefficients of both signs, and a
    carried-in sum on some of 1..width + 3."""
    coords = rng.integers(1, width + 1, length)
    pool = np.r_[rng.normal(size=8), rng.integers(-3, 4, 4), 0.0, -0.0, 1e-300, -2.5]
    coeffs = rng.choice(pool, length)
    keys = np.sort(rng.choice(np.arange(1, width + 4), rng.integers(0, width + 4), replace=False))
    held = rng.choice(pool, keys.size)
    return coords, coeffs, keys.astype(np.int64), held


@pytest.mark.parametrize("seed", range(8))
def test_sup_chunk_matches_a_dict_reference_on_synthetic_terms(seed):
    # three and more updates of a coordinate, values replaced after long
    # lives and carried-in values that get replaced, none of which the
    # catalog series reach
    rng = np.random.default_rng(seed)
    cases = [(int(rng.integers(1, 300)), int(rng.integers(1, 40))) for _ in range(60)]
    for length, width in cases + [(3_000, 2), (2_000, 600)]:
        coords, coeffs, keys, held = _synthetic_chunk(rng, length, width)
        expected = reference_sup_chunk(coords, coeffs, keys, held)
        got = series_module._sup_chunk(coords, coeffs.copy(), keys, held)
        for a, b in zip(got, expected):
            assert_bitwise_equal(a, b)


def test_a_sequence_space_pass_holds_a_few_chunk_arrays():
    # decaying-signed-c0 puts -1/k and then +1/k on coordinate k.  Along the
    # odd indices and then the even ones, the pass streams _CHUNK positions
    # as two chunks, one per run; the second replaces every value of the
    # first, carried in, after a life of up to 2^19 positions, so the
    # interval max covers spans of 1 to 2^19.  A table of every power-of-two
    # span would add 19 arrays of the chunk's length, about 9.5 of these.
    half = series_module._CHUNK // 2
    stem = RearrStem(((1, 2, half), (2, 2, half)))
    series = catalog_series("decaying-signed-c0")
    scan, peak_bytes = traced_peak(lambda: crossing_scan(series, stem, [], peak_from=1))
    assert scan.peak == 1.0
    assert peak_bytes < 16 * 8 * series_module._CHUNK


# ---------------------------------------------------------------------------
# reductions


def peak(series, stem, start, end):
    """The largest norm over positions start..end: a crossing scan with no
    thresholds reads the whole range."""
    return crossing_scan(
        series, stem, (), start_pos=start, end_pos=end, peak_from=start
    ).peak


@pytest.mark.parametrize("name", ["alt-harmonic", "growing-real", "decaying-signed-c0"])
@pytest.mark.parametrize("kind", ["subseq", "rearr", "selection"])
def test_reductions_match_a_scan_of_prefix_norms(name, kind):
    series = catalog_series(name)
    rng = np.random.default_rng(7)
    stem = _random_stem(rng, kind, 200)
    norms = prefix_norms(series, stem, 200)
    for start, end in ((1, 200), (17, 150), (120, 119), (1, 1)):
        window = norms[start - 1:end]
        assert peak(series, stem, start, end) == (
            float(window.max()) if window.size else 0.0
        )
        for level in np.quantile(norms, [0.1, 0.5, 0.9, 1.0]):
            for strict in (True, False):
                hits = window > level + DELTA if strict else window >= level
                expected = start + int(np.argmax(hits)) if hits.any() else None
                assert crossing_scan(
                    series, stem, [float(level)], strict=strict,
                    start_pos=start, end_pos=end,
                ).positions == ([] if expected is None else [expected])
                # a failed search reads the whole range, so its peak is the
                # maximum over [peak_from, end]; a passed one stops at the
                # crossing.  peak_from = 1 is the escape searches' range,
                # peak_from = start the selection search's.
                for peak_from in (1, start, min(start + 5, end)):
                    scan = crossing_scan(
                        series, stem, [float(level)], strict=strict,
                        start_pos=start, end_pos=end, peak_from=peak_from,
                    )
                    assert scan.positions == ([] if expected is None else [expected])
                    assert scan.values == [float(norms[p - 1]) for p in scan.positions]
                    stop = end if expected is None else expected
                    read = norms[peak_from - 1:stop]
                    assert scan.peak == (float(read.max()) if read.size else 0.0)


def test_norms_at_across_scalar_chunks(monkeypatch):
    # chunk boundaries are part of the scalar arithmetic: every reduction
    # and norms_at must agree on them
    monkeypatch.setattr(series_module, "_CHUNK", 16)
    series = catalog_series("alt-harmonic")
    stem = SubseqStem.identity(100)
    norms = prefix_norms(series, stem, 100)
    assert np.array_equal(norms_at(series, stem, [100, 33, 1]), norms[[99, 32, 0]])
    assert peak(series, stem, 20, 100) == float(norms[19:].max())
    scan = crossing_scan(series, stem, [10.0], start_pos=60, peak_from=20)
    assert scan == ([], float(norms[19:].max()), [], 0.0)
    # crossings in two chunks carry the norms at their positions, and the
    # last one its signed sum (the partial sums of alt-harmonic are negative)
    scan = crossing_scan(series, stem, [0.7, 0.7, 0.7], start_pos=60)
    assert scan == ([61, 63, 65], 0.0, norms[[60, 62, 64]].tolist(), -norms[64])
    assert crossing_scan(series, stem, [float(norms[60])], start_pos=60).positions == [61]


# ---------------------------------------------------------------------------
# integer signs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 2**40), min_size=1, max_size=50))
def test_integer_signs_match_float_parity(values):
    v = np.array(values, dtype=np.int64)
    expected = np.where(v.astype(np.float64) % 2 == 0, 1.0, -1.0)
    assert np.array_equal(_signs(v), expected)


def test_catalog_terms_match_their_formulas():
    n = np.array([1, 2, 3, 4, 2**40 + 1, 2**40 + 2], dtype=np.int64)
    alt = catalog_series("alt-harmonic")
    assert np.array_equal(alt.columns(n)[1], [(-1.0) ** int(k) / float(k) for k in n])
    assert np.array_equal(alt.term_norms(n), 1.0 / n.astype(np.float64))
    coords, coeffs = catalog_series("decaying-signed-c0").columns(n)
    assert coords.tolist() == [math.ceil(int(k) / 2) for k in n]
    assert np.array_equal(coeffs, [(-1.0) ** int(k) / math.ceil(int(k) / 2) for k in n])


# ---------------------------------------------------------------------------
# terms a run at a time

RUN_STEPS = [1, -1, 2, -2, 3, -3, 4]
RUN_FIRSTS = [(4 << 20) + 7, (4 << 20) + 8]  # odd, even; room for descending runs


@pytest.mark.parametrize("name", ["alt-harmonic", "growing-real"])
@pytest.mark.parametrize("step", RUN_STEPS)
@pytest.mark.parametrize("first", RUN_FIRSTS)
@pytest.mark.parametrize("count", [1, 2, 3, (1 << 15) + 3, (1 << 20) + 5])
def test_run_form_equals_the_index_form(name, step, first, count):
    series = catalog_series(name)
    got = series.run_coefficients(first, step, count)
    assert got.size == count
    idx = np.arange(first, first + count * step, step, dtype=np.int64)
    assert_bitwise_equal(got, series.columns(idx)[1])


@pytest.mark.parametrize("name", ["alt-harmonic", "growing-real"])
@pytest.mark.parametrize("step", RUN_STEPS)
@pytest.mark.parametrize("first", RUN_FIRSTS)
def test_engine_on_one_run_across_blocks_and_chunks(name, step, first):
    series = catalog_series(name)
    stem = RearrStem(((first, step, (1 << 20) + (1 << 15) + 5),))
    horizon = len(stem)
    assert_bitwise_equal(
        prefix_norms(series, stem, horizon), reference_scalar_norms(series, stem, horizon)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**53 + 50), st.sampled_from(RUN_STEPS), st.integers(1, 3_000))
def test_the_run_form_makes_count_terms(first, step, count):
    # growing-real's coefficients are the signed indices themselves
    series = catalog_series("growing-real")
    got = series.run_coefficients(first, step, count)
    assert got.size == count
    idx = np.arange(first, first + count * step, step, dtype=np.int64)
    assert_bitwise_equal(got, series.columns(idx)[1])


def test_a_float_arange_past_2_53_is_not_the_integer_conversion():
    # so runs that reach 2^53 must take the index form
    first = 2**53 + 1
    naive = np.arange(first, first + 4, 1, dtype=np.float64)
    assert not np.array_equal(naive, np.arange(first, first + 4).astype(np.float64))


@pytest.mark.parametrize("name", ["alt-harmonic", "growing-real"])
@pytest.mark.parametrize(
    "first, step", [(2**53 - 5, 1), (2**53 - 20, 3), (2**53 + 1, 1), (2**53 + 3, -2),
                    (2**60 + 1, 3), (2**60 + 2, -1)],
)
def test_runs_reaching_2_53_take_the_index_form(name, first, step):
    series = catalog_series(name)
    idx = np.arange(first, first + 40 * step, step, dtype=np.int64)
    assert_bitwise_equal(series.run_coefficients(first, step, 40), series.columns(idx)[1])
    stem = RearrStem(((first, step, 40),))
    assert_bitwise_equal(prefix_norms(series, stem, 40), reference_scalar_norms(series, stem, 40))


# ---------------------------------------------------------------------------
# the cache-blocked scalar engine


def reference_scalar_norms(series, stem, horizon, chunk=1 << 20):
    """`running + np.cumsum(columns(chunk))` for each chunk of the stem, the
    arithmetic the scalar engine had before it was blocked."""
    if isinstance(stem, SelectionStem):
        bits = stem.to_numpy()[:horizon]
        chunks = [
            (np.arange(lo + 1, min(lo + chunk, bits.size) + 1), bits[lo:lo + chunk])
            for lo in range(0, bits.size, chunk)
        ]
    else:
        chunks = [
            (np.arange(first, first + count * step, step)[lo:lo + chunk], None)
            for first, step, count in stem.runs.tolist() for lo in range(0, count, chunk)
        ]
    running, out, produced = 0.0, [], 0
    for part, weights in chunks:
        part = part[:horizon - produced]
        coeffs = series.columns(part)[1]
        if weights is not None:
            coeffs = coeffs * weights[:part.size]
        sums = running + np.cumsum(coeffs)
        running = float(sums[-1])
        out.append(np.abs(sums))
        produced += part.size
        if produced >= horizon:
            break
    return np.concatenate(out)


def assert_bitwise_equal(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


LONG = (1 << 21) + 12345  # three chunks; the last one ends inside a block


@pytest.mark.parametrize("name", ["alt-harmonic", "growing-real"])
def test_blocked_engine_on_one_long_run(name):
    series = catalog_series(name)
    stem = SubseqStem.identity(LONG)
    horizon = LONG - 7
    assert horizon % series_module._BLOCK
    assert_bitwise_equal(
        prefix_norms(series, stem, horizon), reference_scalar_norms(series, stem, horizon)
    )


def test_blocked_engine_with_run_boundaries_inside_blocks():
    # runs of lengths that are not multiples of the block, one longer than
    # a chunk, interleaved so the rearrangement stays injective
    series = catalog_series("alt-harmonic")
    stem = RearrStem.concat_runs(
        RearrStem.from_values(np.arange(2, 2 * 40_001, 2)),
        ((1, 2, 70_001), (4_000_000, -3, 1_100_003)),
    )
    horizon = len(stem)
    assert_bitwise_equal(
        prefix_norms(series, stem, horizon), reference_scalar_norms(series, stem, horizon)
    )


def test_blocked_engine_on_hundreds_of_short_runs():
    series = catalog_series("alt-harmonic")
    rng = np.random.default_rng(5)
    values = rng.choice(np.arange(1, 5_000), size=900, replace=False)
    stem = RearrStem.from_values(values)
    assert len(stem.runs) > 300
    assert_bitwise_equal(
        prefix_norms(series, stem, 900), reference_scalar_norms(series, stem, 900)
    )


def test_blocked_engine_on_a_selection_stem():
    series = catalog_series("alt-harmonic")
    rng = np.random.default_rng(11)
    length = (1 << 20) + (1 << 15) + 17
    stem = SelectionStem(tuple(rng.integers(0, 2, length).tolist()))
    assert_bitwise_equal(
        prefix_norms(series, stem, length), reference_scalar_norms(series, stem, length)
    )


@pytest.mark.parametrize("block", [1, 3, 16])
@pytest.mark.parametrize("kind", ["subseq", "rearr", "selection"])
def test_blocked_engine_with_tiny_blocks(monkeypatch, block, kind):
    # many block and chunk boundaries on a small stem
    monkeypatch.setattr(series_module, "_CHUNK", 37)
    monkeypatch.setattr(series_module, "_BLOCK", block)
    series = catalog_series("alt-harmonic")
    stem = _random_stem(np.random.default_rng(block), kind, 300)
    assert_bitwise_equal(
        prefix_norms(series, stem, 300), reference_scalar_norms(series, stem, 300, 37)
    )


@st.composite
def packed_stems(draw):
    """(block, chunk, stem, horizon): a rearrangement stem of runs from one
    value long to past both the block and the chunk, in either direction."""
    block = draw(st.sampled_from([1, 2, 3, 8, 16]))
    chunk = draw(st.integers(block, 40))
    runs, low = [], 1
    for count in draw(st.lists(st.integers(1, chunk + 2 * block + 3), min_size=1, max_size=40)):
        step = draw(st.integers(1, 3))
        last = low + (count - 1) * step
        runs.append((last, -step, count) if draw(st.booleans()) else (low, step, count))
        low = last + draw(st.integers(1, 4))
    stem = RearrStem(runs)
    return block, chunk, stem, draw(st.integers(1, len(stem)))


@settings(max_examples=300, deadline=None)
@given(packed_stems(), st.sampled_from(["alt-harmonic", "growing-real"]))
def test_packed_engine_equals_the_per_run_reference(drawn, name):
    block, chunk, stem, horizon = drawn
    series = catalog_series(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_CHUNK", chunk)
        patch.setattr(series_module, "_BLOCK", block)
        got = prefix_norms(series, stem, horizon)
    assert_bitwise_equal(got, reference_scalar_norms(series, stem, horizon, chunk))


@settings(max_examples=100, deadline=None)
@given(packed_stems(), st.sampled_from(["alt-harmonic", "growing-real"]), st.data())
def test_a_scan_resumed_at_a_run_end_is_the_full_scan(drawn, name, data):
    # the seed scan crosses 0.0 at p itself, so it holds the signed sum
    # there and the peak over [1, p]; repr tells -0.0 from 0.0
    block, chunk, stem, horizon = drawn
    series = catalog_series(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_CHUNK", chunk)
        patch.setattr(series_module, "_BLOCK", block)
        norms = prefix_norms(series, stem, horizon)
        for p in stem.ends[stem.ends < horizon].tolist():
            seed = crossing_scan(series, stem, [0.0], start_pos=p, peak_from=1)
            assert seed.positions == [p] and seed.values == [float(norms[p - 1])]
            start = data.draw(st.integers(p + 1, horizon))
            levels = sorted(data.draw(st.lists(
                st.sampled_from(norms[start - 1:].tolist() + [float(norms.max()) + 1.0]),
                min_size=1, max_size=3)))
            for strict in (False, True):
                scans = [crossing_scan(series, stem, levels, strict=strict, start_pos=start,
                                       end_pos=horizon, peak_from=1, resume=resume)
                         for resume in (None, seed)]
                assert repr(scans[0]) == repr(scans[1])


def test_a_scan_resumes_only_at_a_run_end_of_a_scalar_stem():
    stem = RearrStem(((1, 1, 10), (20, 1, 10)))
    seed = crossing_scan(catalog_series("alt-harmonic"), stem, [0.0], start_pos=5)
    with pytest.raises(ValueError, match="run end"):
        crossing_scan(catalog_series("alt-harmonic"), stem, [1.0], start_pos=6, resume=seed)
    seed = crossing_scan(catalog_series("decaying-signed-c0"), stem, [0.0], start_pos=10)
    with pytest.raises(ValueError, match="run end"):
        crossing_scan(catalog_series("decaying-signed-c0"), stem, [1.0], start_pos=11,
                      resume=seed)


def test_short_runs_share_one_term_rule_call():
    # 10,000 random values compress into about as many runs of one or two
    # values, which fit one block: one term-rule call for all of them
    series, seen = counting(catalog_series("alt-harmonic"))
    rng = np.random.default_rng(3)
    values = rng.choice(np.arange(1, 20_000), size=10_000, replace=False)
    stem = RearrStem.from_values(values)
    norms = prefix_norms(series, stem, len(stem))
    assert len(stem.runs) * stem.runs[:, 2].max() <= series_module._BLOCK
    assert len(seen) == 1
    assert_bitwise_equal(norms, reference_scalar_norms(series, stem, len(stem)))


def counting(series):
    """The series with a magnitude that counts the indices it evaluates:
    every term evaluation, by index or by run, makes one magnitude call."""
    seen = []

    def magnitude(x):
        seen.append(x.size)
        return series.magnitude(x)

    return dataclasses.replace(series, magnitude=magnitude), seen


def test_first_crossing_and_max_norm_in_the_second_block_of_the_second_chunk():
    # |S_n| = ceil(n / 2) on growing-real, so a threshold t is first reached
    # at n = 2t - 1 and first passed strictly at n = 2t + 1
    block = series_module._BLOCK
    series, seen = counting(catalog_series("growing-real"))
    stem = SubseqStem.identity(1 << 21)
    target = (1 << 20) + block + 101
    threshold = (target + 1) // 2
    norms = reference_scalar_norms(series, stem, 1 << 21)
    seen.clear()
    assert crossing_scan(series, stem, [float(threshold)]).positions == [target]
    assert int(np.argmax(norms >= threshold)) + 1 == target
    # the scan stopped with the block that holds the crossing
    assert sum(seen) == (1 << 20) + 2 * block
    assert crossing_scan(series, stem, [float(threshold)], strict=True).positions == [
        target + 2
    ]
    for start, end in ((1, 1 << 21), (target, target + 5), ((1 << 20) + 1, target)):
        assert peak(series, stem, start, end) == float(norms[start - 1:end].max())
    assert crossing_scan(
        series, stem, [float(threshold)], strict=True, start_pos=target, end_pos=target + 1
    ).positions == []


def test_first_crossings_walks_the_levels_in_one_scan():
    series, seen = counting(catalog_series("growing-real"))
    stem = SubseqStem.identity(1 << 21)
    # level 3 twice: the second search starts after the first hit; the last
    # level is first reached at 2^21 + 13, past the end of the stem
    levels = [1.0, 3.0, 3.0, float((1 << 20) + 7)]
    seen.clear()
    assert crossing_scan(series, stem, levels).positions == [1, 5, 6]
    assert sum(seen) == 1 << 21
    seen.clear()
    assert crossing_scan(series, stem, levels[:3]).positions == [1, 5, 6]
    assert sum(seen) == series_module._BLOCK
    # no levels and no peak asked for: nothing to read
    seen.clear()
    assert crossing_scan(series, stem, []) == ([], 0.0, [], 0.0)
    assert sum(seen) == 0


# ---------------------------------------------------------------------------
# indices made block by block


@pytest.mark.parametrize("name", ["alt-harmonic", "decaying-signed-c0"])
@pytest.mark.parametrize("kind", ["selection", "subseq", "rearr"])
def test_prefix_norms_equal_norms_at(name, kind):
    # horizons off the block grid, on a 0-1 word, on one long run, and on
    # long runs after a few hundred short ones
    series = catalog_series(name)
    block = series_module._BLOCK
    rng = np.random.default_rng(11)
    if kind == "selection":
        stem = SelectionStem(tuple(rng.integers(0, 2, 3 * block + 17).tolist()))
    elif kind == "subseq":
        stem = SubseqStem.identity(3 * block + 17)
    else:
        short = RearrStem.from_values(rng.choice(np.arange(1, 1_000), 400, replace=False))
        stem = short.concat_runs(((1_000, 2, block + 9), (1_001, 2, 2 * block)))
    for horizon in (1, block - 1, block + 1, 2 * block + 5, len(stem)):
        got = prefix_norms(series, stem, horizon)
        assert_bitwise_equal(got, norms_at(series, stem, np.arange(1, horizon + 1)))


def test_an_early_stop_on_a_long_run_makes_only_its_blocks_indices():
    # the declared stream of alt-harmonic at 3e6 is one run of 1.5e6 evens;
    # the first partial sum, 1/2, already crosses
    series = catalog_series("alt-harmonic")
    stem = SubseqStem.arithmetic(2, 2, 1_500_000)
    scan, peak_bytes = traced_peak(lambda: crossing_scan(series, stem, [0.5]))
    assert scan.positions == [1]
    # an index array of a whole 2^20-term chunk is 8 MiB
    assert peak_bytes < 8 * series_module._CHUNK // 4


@pytest.mark.parametrize("construct,outcome", [
    # a stem of 552,818 candidates, sliced from the stream's one run
    (lambda: grow_unbounded_subseries(catalog_series("alt-harmonic"), 6.9, 3_000_000),
     WitnessCertificate),
    # step 13 searches the term norms from 531,442 to the horizon in vain
    (lambda: limsup_subseries(catalog_series("growing-real"), 20, 1_000_000),
     ScanExhausted),
])
def test_growth_on_long_runs_holds_engine_blocks_not_the_stem(construct, outcome):
    result, peak_bytes = traced_peak(construct)
    assert isinstance(result, outcome)
    # 2 MiB is eight blocks of float64 norms
    assert peak_bytes < 8 * 8 * series_module._BLOCK

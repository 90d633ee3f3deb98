import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serieswitness import (
    HorizonExceedsStem,
    SelectionStem,
    SubseqStem,
    RearrStem,
    UnknownSeries,
    catalog_names,
    catalog_series,
    norms_at,
    partial_sums,
)
from serieswitness.spaces import basis

from conftest import alt_harmonic_term, scalar_prefix_sums


def test_catalog_names_are_stable():
    assert catalog_names() == (
        "alt-harmonic",
        "unit-basis-c0",
        "decaying-signed-c0",
        "growing-real",
    )


def test_unknown_series():
    with pytest.raises(UnknownSeries):
        catalog_series("riemann-zeta")


def test_catalog_term_examples(alt, unit, growing, decaying):
    assert alt.term(3) == basis(1, -1.0 / 3.0)
    assert unit.term(5) == basis(5)
    assert growing.term(4) == basis(1, 4.0)
    assert decaying.term(3) == basis(2, -0.5)
    assert decaying.term(4) == basis(2, 0.5)


def test_catalog_metadata(alt, unit, growing, decaying):
    assert alt.liminf_norm_zero and not alt.limsup_norm_infinite
    assert decaying.liminf_norm_zero
    assert growing.limsup_norm_infinite and not growing.liminf_norm_zero
    assert not unit.liminf_norm_zero and not unit.limsup_norm_infinite


def test_partial_sums_first_two(alt):
    trace = partial_sums(alt, SubseqStem.from_values((1, 2)), 2)
    assert trace.norms.tolist() == [1.0, 0.5]


def test_partial_sums_selection_unit_basis(unit):
    trace = partial_sums(unit, SelectionStem([1, 0, 1, 1, 0]), 5)
    # once any term is selected, the sup norm is exactly 1
    assert trace.norms.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]
    trace = partial_sums(unit, SelectionStem([0, 0, 1, 1, 0]), 5)
    assert trace.norms.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]


def test_partial_sums_odd_indices_against_direct_summation(alt):
    K = 400
    stem = SubseqStem.arithmetic(1, 2, K)
    trace = partial_sums(alt, stem, K)
    expected = math.fsum(1.0 / (2 * k - 1) for k in range(1, K + 1))
    assert trace.norms[-1] == pytest.approx(expected, abs=1e-9)


def test_partial_sums_horizon_error(alt):
    with pytest.raises(HorizonExceedsStem):
        partial_sums(alt, SubseqStem.from_values((1, 2)), 3)
    with pytest.raises(HorizonExceedsStem):
        partial_sums(alt, SelectionStem([1, 0, 1]), 4)


def test_norms_at_matches_independent_sums(alt):
    stem = SubseqStem.from_values(tuple(range(2, 41, 2)))
    oracle = scalar_prefix_sums(alt_harmonic_term, range(2, 41, 2))
    got = norms_at(alt, stem, list(range(1, 21)))
    for value, expected in zip(got, oracle):
        assert value == pytest.approx(abs(expected), abs=1e-12)


def test_norms_at_unsorted_positions(alt):
    stem = SubseqStem.identity(50)
    forward = norms_at(alt, stem, [3, 10, 40])
    shuffled = norms_at(alt, stem, [40, 3, 10])
    assert shuffled[1] == forward[0]
    assert shuffled[2] == forward[1]
    assert shuffled[0] == forward[2]


def test_vector_series_prefix_norms(decaying):
    # pairs cancel: after an even count of consecutive terms the sum of
    # each touched coordinate is 0 except the freshest one
    trace = partial_sums(decaying, SubseqStem.identity(6), 6)
    values = trace.norms.tolist()
    assert values == [1.0, 0.0, 0.5, 0.0, pytest.approx(1 / 3), 0.0]


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=40))
@settings(max_examples=150)
def test_unit_basis_selection_norm_is_exactly_one(bits):
    unit = catalog_series("unit-basis-c0")
    word = SelectionStem(tuple(bits))
    trace = partial_sums(unit, word, len(bits))
    try:
        first_one = bits.index(1)
    except ValueError:
        assert all(v == 0.0 for v in trace.norms)
        return
    for position, value in enumerate(trace.norms, start=1):
        assert value == (1.0 if position > first_one else 0.0)


stems_strategy = st.lists(
    st.integers(1, 200), min_size=1, max_size=30, unique=True
).map(lambda v: SubseqStem.from_values(sorted(v)))


@given(stems_strategy, st.data())
@settings(max_examples=100)
def test_prefix_consistency(stem, data):
    # extending a stem never changes earlier checkpoints
    alt = catalog_series("alt-harmonic")
    cut = data.draw(st.integers(1, len(stem)))
    small = partial_sums(alt, stem.prefix(cut), cut)
    big = partial_sums(alt, stem, len(stem))
    assert big.norms[:cut].tolist() == small.norms.tolist()


@pytest.mark.parametrize("name", ["alt-harmonic", "unit-basis-c0"])
def test_subseries_rearrangement_sup_agree_small(name):
    # finite shadow of the subseries / rearrangement equivalence: over
    # {1..n}, the best increasing selection matches the best permutation
    # prefix
    series = catalog_series(name)
    n = 6
    best_subsets = 0.0
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            stem = SubseqStem.from_values(combo)
            value = float(norms_at(series, stem, [size])[0])
            best_subsets = max(best_subsets, value)
    best_perms = 0.0
    for perm in itertools.permutations(range(1, n + 1)):
        stem = RearrStem.from_values(perm)
        values = norms_at(series, stem, list(range(1, n + 1)))
        best_perms = max(best_perms, float(values.max()))
    assert best_perms == pytest.approx(best_subsets, abs=1e-9)

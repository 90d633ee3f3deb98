
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serieswitness import (
    HorizonExceedsStem,
    SelectionStem,
    SubseqStem,
    catalog_series,
    exceedance_report,
    geometric_talagrand,
    i_bounded_verdict,
    interval,
    linear_talagrand,
    partial_sums,
)
from serieswitness.ideals import density_at, explicit_talagrand
from serieswitness.runners import IDEALS

from conftest import alt_harmonic_term, kahan_abs_prefix


def test_interval_examples():
    geo = geometric_talagrand()
    assert interval(geo, 2) == range(4, 8)
    assert interval(geo, 1) == range(2, 4)
    lin = linear_talagrand()
    assert interval(lin, 5) == range(5, 6)


def test_explicit_sequence():
    seq = explicit_talagrand([1, 5, 9, 20])
    assert interval(seq, 2) == range(5, 9)
    with pytest.raises(IndexError):
        interval(seq, 4)
    with pytest.raises(ValueError):
        explicit_talagrand([3, 3])


def test_each_ideal_is_named_by_its_interval_sequence():
    # fin is refuted by n_k = k, the density ideal by n_k = 2^k
    assert {name: seq() for name, seq in IDEALS.items()} == {
        "fin": linear_talagrand(), "density": geometric_talagrand(),
    }


def test_geometric_justifies_density_refutation():
    # the union of the intervals [2^k, 2^{k+1}) keeps density >= 1/2, so
    # no density-zero set contains cofinitely many of them
    geo = geometric_talagrand()
    for K in range(1, 13):
        union = set()
        for k in range(1, K + 1):
            union.update(interval(geo, k))
        n = 2 ** (K + 1) - 1
        assert density_at(union, n) >= 0.5


def test_density_at_examples():
    assert density_at(range(2, 101, 2), 100) == 0.5
    assert density_at(set(), 10) == 0.0
    assert density_at({1, 2, 3}, 3) == 1.0
    with pytest.raises(ValueError):
        density_at({1}, 0)


def test_exceedance_unit_basis_trace16(unit):
    trace = partial_sums(unit, SelectionStem.ones(16), 16)
    report = exceedance_report(trace, 0.5, geometric_talagrand())
    assert report.exceed_positions.tolist() == list(range(1, 17))
    assert report.contained_intervals.tolist() == [1, 2, 3]


def test_exceedance_nothing_above_huge_bound(unit):
    trace = partial_sums(unit, SelectionStem.ones(16), 16)
    report = exceedance_report(trace, 99.0, geometric_talagrand())
    assert report.exceed_positions.tolist() == []
    assert report.contained_intervals.tolist() == []


def test_exceedance_rejects_infinite_bound(unit):
    trace = partial_sums(unit, SelectionStem.ones(16), 16)
    with pytest.raises(ValueError):
        exceedance_report(trace, float("inf"), geometric_talagrand())


def test_exceedance_alt_harmonic_against_direct_sums(alt):
    horizon = 100
    bound = 0.4
    trace = partial_sums(alt, SubseqStem.identity(horizon), horizon)
    report = exceedance_report(trace, bound, geometric_talagrand())
    oracle = kahan_abs_prefix(alt_harmonic_term, range(1, horizon + 1))
    expected = {l for l in range(1, horizon + 1) if oracle[l - 1] > bound + 1e-9}
    assert report.exceed_positions.tolist() == sorted(expected)
    expected_intervals = []
    k = 1
    while 2 ** (k + 1) - 1 <= horizon:
        if all(l in expected for l in range(2**k, 2 ** (k + 1))):
            expected_intervals.append(k)
        k += 1
    assert list(report.contained_intervals) == expected_intervals


def test_verdict_bounded(unit):
    verdict = i_bounded_verdict(
        unit, SelectionStem.ones(100), IDEALS["fin"](), 2.0, 100
    )
    assert verdict.status == "bounded-evidence"
    assert verdict.interval_count == 0


def test_verdict_unbounded_evidence(unit):
    verdict = i_bounded_verdict(
        unit, SelectionStem.ones(64), IDEALS["density"](), 0.5, 64
    )
    assert verdict.status == "i-unbounded-evidence"
    assert verdict.interval_count == 5
    assert verdict.report.contained_intervals.tolist() == [1, 2, 3, 4, 5]


def test_verdict_bounded_alt_harmonic(alt):
    verdict = i_bounded_verdict(
        alt, SubseqStem.identity(1000), IDEALS["density"](), 10.0, 1000
    )
    assert verdict.status == "bounded-evidence"


def test_verdict_undecided(alt):
    # some exceedances but no whole geometric interval at this bound
    verdict = i_bounded_verdict(
        alt, SubseqStem.identity(10), IDEALS["density"](), 0.6, 10
    )
    assert verdict.status == "undecided"


def test_verdict_horizon_error(alt):
    with pytest.raises(HorizonExceedsStem):
        i_bounded_verdict(alt, SubseqStem.identity(5), IDEALS["fin"](), 1.0, 10)


bounds = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@given(bounds, bounds)
@settings(max_examples=60)
def test_exceedance_monotone_in_bound(b1, b2):
    alt = catalog_series("alt-harmonic")
    lo, hi = min(b1, b2), max(b1, b2)
    trace = partial_sums(alt, SubseqStem.identity(64), 64)
    seq = geometric_talagrand()
    low = exceedance_report(trace, lo, seq)
    high = exceedance_report(trace, hi, seq)
    assert set(high.exceed_positions.tolist()) <= set(low.exceed_positions.tolist())
    assert set(high.contained_intervals) <= set(low.contained_intervals)


@given(st.integers(5, 64), st.integers(5, 64))
@settings(max_examples=60)
def test_exceedance_monotone_in_horizon(h1, h2):
    alt = catalog_series("alt-harmonic")
    lo, hi = min(h1, h2), max(h1, h2)
    seq = geometric_talagrand()
    small = exceedance_report(
        partial_sums(alt, SubseqStem.identity(lo), lo), 0.55, seq
    )
    big = exceedance_report(
        partial_sums(alt, SubseqStem.identity(hi), hi), 0.55, seq
    )
    clipped = big.exceed_positions[big.exceed_positions <= lo]
    assert clipped.tolist() == small.exceed_positions.tolist()

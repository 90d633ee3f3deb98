import dataclasses
import itertools
import math

import numpy as np
import pytest

from serieswitness import (
    InconsistentGrowthWitness,
    PatternTooLarge,
    PreconditionViolation,
    RearrStem,
    ScanExhausted,
    SelectionStem,
    SubseqStem,
    catalog_names,
    catalog_series,
    dense_open_witness_Am,
    dense_open_witness_Bm,
    dense_open_witness_Cm,
    geometric_talagrand,
    grow_unbounded_subseries,
    limsup_subseries,
    norms_at,
    nowhere_dense_witness_rearr,
    nowhere_dense_witness_subseq,
    provision_candidate_stream,
    rearrangement_pipeline,
    small_norm_block,
    subseries_to_rearrangement,
    uniform_bound_bruteforce,
    verify_certificate,
)
from serieswitness.series import _BLOCK
from serieswitness.stems import compress_values
from serieswitness.witnesses import CheckpointColumns, _first_index, relation_holds

from conftest import (
    alt_harmonic_term,
    decaying_coord,
    growing_real_term,
    kahan_abs_prefix,
    perfbench_module,
)

GEO = geometric_talagrand()


# ---------------------------------------------------------------------------
# pattern oracle


def _bruteforce_scalar(term, n, alphabet):
    best = 0.0
    for word in itertools.product(alphabet, repeat=n):
        best = max(best, abs(math.fsum(w * term(i + 1) for i, w in enumerate(word))))
    return best


def _bruteforce_sup(coord_term, n, alphabet):
    best = 0.0
    for word in itertools.product(alphabet, repeat=n):
        coeffs = {}
        for i, w in enumerate(word):
            if w:
                coord, value = coord_term(i + 1)
                coeffs[coord] = coeffs.get(coord, 0.0) + w * value
        best = max(best, max((abs(c) for c in coeffs.values()), default=0.0))
    return best


def test_uniform_bound_examples(unit, alt):
    assert uniform_bound_bruteforce(unit, 5, (0, 1)) == 1.0
    assert uniform_bound_bruteforce(unit, 5, (-1, 0, 1)) == 1.0
    assert uniform_bound_bruteforce(alt, 1, (-1, 0, 1)) == 1.0


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("alphabet", [(0, 1), (-1, 0, 1)])
def test_uniform_bound_cross_checked(alt, decaying, n, alphabet):
    got = uniform_bound_bruteforce(alt, n, alphabet)
    assert got == pytest.approx(
        _bruteforce_scalar(alt_harmonic_term, n, alphabet), abs=1e-12
    )
    got = uniform_bound_bruteforce(decaying, n, alphabet)
    assert got == pytest.approx(
        _bruteforce_sup(decaying_coord, n, alphabet), abs=1e-12
    )


@pytest.mark.parametrize("alphabet", [[0, 1], [-1, 0, 1]])
@pytest.mark.parametrize("name", catalog_names())
def test_uniform_bound_is_the_independent_pattern_max(name, alphabet):
    checks = perfbench_module("checks")
    series = catalog_series(name)
    for n in range(1, 15):
        exact, tolerance = checks.pattern_max(name, n, alphabet)
        assert abs(uniform_bound_bruteforce(series, n, alphabet) - exact) <= tolerance


def test_uniform_bound_guards(alt):
    with pytest.raises(PatternTooLarge):
        uniform_bound_bruteforce(alt, 15, (0, 1))
    with pytest.raises(ValueError):
        uniform_bound_bruteforce(alt, 3, (0, 2))
    with pytest.raises(ValueError):
        uniform_bound_bruteforce(alt, 0, (0, 1))


# ---------------------------------------------------------------------------
# growing an unbounded subseries


def _first_crossing_evens(target):
    total = 0.0
    k = 0
    while True:
        k += 1
        total = math.fsum(1.0 / (2 * i) for i in range(1, k + 1))
        if total > target:
            return k, total


def test_grow_alt_harmonic_target3(alt):
    cert = grow_unbounded_subseries(alt, target=3.0, search_horizon=10**6)
    K, expected = _first_crossing_evens(3.0)
    assert K == 227
    assert len(cert.stem) == K
    assert list(cert.stem.values())[:3] == [2, 4, 6]
    assert cert.stem.max_value == 2 * K
    final = cert.final_norm()
    assert final > 3.0
    assert final == pytest.approx(expected, abs=1e-9)
    assert verify_certificate(cert) == []


def test_grow_doubling_chain(alt):
    cert = grow_unbounded_subseries(alt, target=3.0)
    bounds = [cp.bound for cp in cert.checkpoints]
    # b, then doubling, capped at the target
    assert bounds[0] == pytest.approx(0.5)
    for prev, nxt in zip(bounds, bounds[1:]):
        assert nxt == pytest.approx(min(2 * prev, 3.0))
    assert bounds[-1] == 3.0
    assert cert.checkpoints[-1].relation == ">"
    cps = cert.checkpoints
    assert relation_holds(cps.value, cps.bound, cps.relation).all()


def test_grow_growing_real(growing):
    cert = grow_unbounded_subseries(growing, target=10.0, search_horizon=100)
    assert list(cert.stem.values()) == [2, 4, 6]
    assert cert.final_norm() == 12.0


def _grow_to_length(series, values, k):
    """The grow witness whose stem is the first k candidates: the target
    sits halfway between the candidates' partial sums k - 1 and k."""
    sums = [math.fsum(1.0 / v for v in values[:j]) for j in (k - 1, k)]
    return grow_unbounded_subseries(series, target=sum(sums) / 2, search_horizon=10**6)


@pytest.mark.parametrize("k", [1, 2, _BLOCK - 1, _BLOCK + 1])
def test_grow_stem_is_the_table_of_its_candidates(alt, k):
    # the stem is sliced from the stream's runs, never made as values, and
    # must be the table compress_values makes of those values
    values = provision_candidate_stream(alt, 10**6).to_numpy(k)
    cert = _grow_to_length(alt, values, k)
    assert np.array_equal(cert.stem.runs, compress_values(values))
    assert len(cert.stem) == k


def test_grow_stem_on_a_stream_of_many_runs(alt):
    # positive terms of alt-harmonic split unlike compress_values, with
    # runs of one value, so every cut must resplit (count-1 runs take step 1)
    stream = SubseqStem([(2, 2, 3), (8, 2, 2), (20, 4, 3), (40, 1, 1), (44, 6, 5), (80, 2, 9)])
    series = dataclasses.replace(alt, candidates=lambda horizon: stream)
    for k in range(1, len(stream) + 1):
        values = stream.to_numpy(k)
        cert = _grow_to_length(series, values, k)
        assert np.array_equal(cert.stem.runs, compress_values(values)), k
        assert verify_certificate(cert) == []


class _Spikes:
    """Term norms 1 at the given indices and 0 elsewhere; records the size
    of every span of indices read."""

    def __init__(self, hits):
        self.hits = np.asarray(hits, dtype=np.int64)
        self.spans = []

    def term_norms(self, idx):
        self.spans.append(idx.size)
        return np.isin(idx, self.hits).astype(np.float64)


@pytest.mark.parametrize("after", [0, 7])
def test_first_index_at_span_edges(after):
    # spans of 2^10, 2^13, then 2^15 indices from after + 1, cut at the horizon
    horizon = after + 100_000
    ends = np.cumsum([1 << 10, 1 << 13, _BLOCK, _BLOCK]) + after
    edges = [after + 1, *ends, *(ends + 1), horizon]
    for hit in edges:
        series = _Spikes([hit, horizon])
        norms = series.term_norms(np.arange(1, horizon + 1))
        expected = after + 1 + int(np.flatnonzero(norms[after:] > 0.5)[0])
        series.spans.clear()
        assert _first_index(series, after, horizon, lambda n: n > 0.5) == expected == hit
        assert max(series.spans) <= _BLOCK
    for hits in ([], [after], [horizon + 1]):
        assert _first_index(_Spikes(hits), after, horizon, lambda n: n > 0.5) is None


def test_grow_unit_basis_exhausts(unit):
    with pytest.raises(ScanExhausted) as info:
        grow_unbounded_subseries(unit, target=2.0, search_horizon=10**4)
    assert info.value.best == pytest.approx(1.0)


def test_grow_strategy_applicability(alt, unit):
    with pytest.raises(PreconditionViolation):
        grow_unbounded_subseries(alt, target=0.0)


_P_PRIME = RearrStem.identity(10)


@pytest.mark.parametrize(
    "construct",
    [
        lambda alt, h: grow_unbounded_subseries(alt, 2.0, h),
        lambda alt, h: subseries_to_rearrangement(alt, SubseqStem.identity(10), 1, h),
        lambda alt, h: nowhere_dense_witness_subseq(
            alt, SubseqStem.identity(10), 1, SubseqStem.from_values([1]), h
        ),
        lambda alt, h: nowhere_dense_witness_rearr(
            alt, _P_PRIME, 1, RearrStem.from_values([1]), h
        ),
        lambda alt, h: small_norm_block(alt, 10, 3, 1.0, h),
        lambda alt, h: dense_open_witness_Bm(
            alt, GEO, SubseqStem.identity(10), 1, SubseqStem.identity(2), h
        ),
        lambda alt, h: dense_open_witness_Cm(
            alt, GEO, _P_PRIME, 1, RearrStem.from_values([1, 2, 3, 4]), h
        ),
        lambda alt, h: dense_open_witness_Am(
            alt, GEO, SubseqStem.identity(10), 1, SelectionStem(), h
        ),
        lambda alt, h: limsup_subseries(alt, 2, h),
        lambda alt, h: provision_candidate_stream(alt, h),
        lambda alt, h: rearrangement_pipeline(alt, 1, h),
    ],
)
@pytest.mark.parametrize("horizon", [0, -3])
def test_library_horizons_below_one_are_refused(alt, construct, horizon):
    with pytest.raises(PreconditionViolation, match="horizon must be >= 1"):
        construct(alt, horizon)


def test_library_horizon_none_is_the_default(unit):
    with pytest.raises(ScanExhausted, match="within horizon 10000"):
        grow_unbounded_subseries(unit, 2.0, None)
    with pytest.raises(PreconditionViolation):
        grow_unbounded_subseries(unit, 2.0, 0)


def test_grow_decaying_exhausts(decaying):
    # every selection of this series has sup norm at most 1
    with pytest.raises(ScanExhausted) as info:
        grow_unbounded_subseries(decaying, target=2.0, search_horizon=4000)
    assert info.value.best <= 1.0 + 1e-12


def test_decaying_dense_open_exhausts(decaying):
    # coordinate m only ever receives -1/m and +1/m, so every selection
    # partial sum of this series has sup norm <= 1 and no interval
    # certificate above m = 1 can exist; the constructions must say so
    evens = SubseqStem.arithmetic(2, 2, 2000)
    with pytest.raises(ScanExhausted):
        dense_open_witness_Bm(
            decaying, GEO, evens, 1, SubseqStem.from_values([2, 4]), 4000
        )
    with pytest.raises(ScanExhausted):
        dense_open_witness_Am(decaying, GEO, evens, 1, SelectionStem(), 4000)


# ---------------------------------------------------------------------------
# rearrangements


def test_rearrangement_growing_real(growing):
    cert = rearrangement_pipeline(growing, 2, 1000)
    assert list(cert.stem.values()) == [2, 1, 4, 3]
    assert cert.stage_boundaries == (2, 4)
    assert [cp.bound for cp in cert.checkpoints] == [1.0, 2.0]
    assert verify_certificate(cert) == []
    # re-verify by direct summation
    values = list(cert.stem.values())
    sums = kahan_abs_prefix(growing_real_term, values)
    for cp in cert.checkpoints:
        assert sums[cp.position - 1] >= cp.bound
        assert sums[cp.position - 1] == pytest.approx(cp.value, abs=1e-9)


def test_rearrangement_alt_harmonic_depth2(alt):
    cert = rearrangement_pipeline(alt, 2)
    assert len(cert.checkpoints) == 2
    for boundary in cert.stage_boundaries:
        assert cert.stem.is_prefix_bijection(boundary)
    values = cert.stem.to_numpy().tolist()
    sums = kahan_abs_prefix(alt_harmonic_term, values)
    for cp in cert.checkpoints:
        assert sums[cp.position - 1] == pytest.approx(cp.value, abs=1e-9)
        assert cp.value >= cp.bound
    assert verify_certificate(cert) == []


def test_rearrangement_depth0(alt):
    cert = subseries_to_rearrangement(alt, SubseqStem(()), 0)
    assert len(cert.stem) == 0
    assert len(cert.checkpoints) == 0


def test_rearrangement_unit_basis_exhausts(unit):
    with pytest.raises(ScanExhausted):
        rearrangement_pipeline(unit, 2, 2000)


# ---------------------------------------------------------------------------
# nowhere-dense escapes


def test_nd_subseq_single_positive_term(alt):
    evens = SubseqStem.arithmetic(2, 2, 10)
    cert = nowhere_dense_witness_subseq(
        alt, evens, 0, SubseqStem.from_values([2]), 10
    )
    assert list(cert.stem.values()) == [2, 4]
    cp = cert.checkpoints[0]
    assert (cp.position, cp.value) == (1, 0.5)
    assert verify_certificate(cert) == []


def test_nd_subseq_alt_harmonic(alt):
    evens = SubseqStem.arithmetic(2, 2, 10**5)
    base = SubseqStem.from_values([1, 3])
    cert = nowhere_dense_witness_subseq(alt, evens, 1, base, 10**5)
    assert cert.stem.extends(base)
    cp = cert.checkpoints[0]
    # the escape inequality contradicts membership in the level-1 bounded set
    assert cp.value > 1.0
    # independent first-match check
    values = list(cert.stem.values())
    sums = kahan_abs_prefix(alt_harmonic_term, values)
    assert sums[cp.position - 1] > 1.0
    assert all(s <= 1.0 + 1e-9 for s in sums[: cp.position - 1])
    assert verify_certificate(cert) == []


def test_nd_subseq_exhausts_on_unit_basis(unit):
    cert_input = SubseqStem.identity(1000)
    with pytest.raises(ScanExhausted):
        nowhere_dense_witness_subseq(
            unit, cert_input, 2, SubseqStem.from_values([1, 3]), 1000
        )


def test_nd_rearr_growing_real(growing):
    cert = nowhere_dense_witness_rearr(
        growing, RearrStem.identity(100), 3, RearrStem.from_values([1]), 100
    )
    assert list(cert.stem.values()) == [1, 2, 3, 4, 5, 6, 7]
    cp = cert.checkpoints[0]
    assert (cp.position, cp.value) == (7, 4.0)
    assert cert.stem.is_prefix_bijection(len(cert.stem))
    assert verify_certificate(cert) == []


def test_nd_rearr_alt_harmonic(alt):
    p_prime = rearrangement_pipeline(alt, 2).stem
    cert = nowhere_dense_witness_rearr(
        alt, p_prime, 1, RearrStem.from_values([2, 1]), 10**5
    )
    assert cert.stem.extends(RearrStem.from_values([2, 1]))
    assert cert.checkpoints[0].value > 1.0
    assert cert.stem.is_prefix_bijection(cert.stage_boundaries[0])
    assert verify_certificate(cert) == []


def test_nd_rearr_rejects_bad_p_prime_checkpoints(alt):
    p_prime = RearrStem.identity(100)
    base = RearrStem.from_values([1])
    with pytest.raises(InconsistentGrowthWitness):
        nowhere_dense_witness_rearr(alt, p_prime, 1, base, None, [(3, 5.0)])
    with pytest.raises(InconsistentGrowthWitness):
        nowhere_dense_witness_rearr(alt, p_prime, 1, base, None, [(101, 1.0)])


def test_nd_rearr_exhausts_on_unit_basis(unit):
    with pytest.raises(ScanExhausted):
        nowhere_dense_witness_rearr(
            unit, RearrStem.identity(1000), 2, RearrStem.from_values([1, 2]), 1000
        )


# ---------------------------------------------------------------------------
# small-norm blocks


def test_small_norm_block_example(alt):
    block = small_norm_block(alt, 10, 3, 1.0, 10**4)
    values = list(block.values())
    assert values == [11, 12, 13]
    assert math.fsum(1.0 / v for v in values) < 1.0


def test_small_norm_block_trivial(alt):
    assert list(small_norm_block(alt, 0, 1, 10.0).values()) == [1]


def test_small_norm_block_properties(alt, decaying):
    for series, after, length, budget in [
        (alt, 5, 20, 0.5),
        (alt, 100, 7, 0.05),
        (decaying, 3, 10, 0.8),
    ]:
        block = small_norm_block(series, after, length, budget, 10**6)
        values = list(block.values())
        assert len(values) == length
        assert values[0] > after
        assert all(a < b for a, b in zip(values, values[1:]))
        total = float(np.sum(series.term_norms(np.array(values))))
        assert total < budget


def test_small_norm_block_exhausts_without_decay(growing, unit):
    with pytest.raises(ScanExhausted):
        small_norm_block(growing, 0, 2, 0.5, 100)
    with pytest.raises(ScanExhausted):
        small_norm_block(unit, 0, 1, 0.5, 100)


def test_small_norm_block_guards(alt):
    with pytest.raises(PreconditionViolation):
        small_norm_block(alt, 0, 0, 1.0)
    with pytest.raises(PreconditionViolation):
        small_norm_block(alt, 0, 1, 0.0)


# ---------------------------------------------------------------------------
# dense-open interval witnesses


def _check_interval_cert(cert, term):
    lo, hi = cert.interval
    assert {cp.position for cp in cert.checkpoints} == set(range(lo, hi))
    values = list(cert.stem.values()) if not isinstance(
        cert.stem, SelectionStem
    ) else None
    if values is not None:
        sums = kahan_abs_prefix(term, values)
        for cp in cert.checkpoints:
            assert sums[cp.position - 1] > cp.bound
            assert sums[cp.position - 1] == pytest.approx(cp.value, abs=1e-9)


def test_bm_alt_harmonic(alt):
    u = provision_candidate_stream(alt, 10**5)
    base = SubseqStem.from_values([1, 3])
    cert = dense_open_witness_Bm(alt, GEO, u, 1, base, 10**5)
    assert cert.interval_index == 11
    assert cert.interval == (2048, 4096)
    assert len(cert.stem) == 4095
    assert cert.stem.extends(base)
    assert len(cert.checkpoints) == 2048
    assert min(cp.value for cp in cert.checkpoints) > 1.0
    _check_interval_cert(cert, alt_harmonic_term)
    assert verify_certificate(cert) == []


def test_bm_precondition_r_exceeds_m(alt):
    u = provision_candidate_stream(alt, 1000)
    with pytest.raises(PreconditionViolation):
        dense_open_witness_Bm(alt, GEO, u, 3, SubseqStem.from_values([1, 3, 5]), 1000)


def test_bm_base_blocks_u(alt):
    u = provision_candidate_stream(alt, 1000)  # evens
    base = SubseqStem.from_values([1, 99])  # u(3) = 6 < 99
    with pytest.raises(PreconditionViolation):
        dense_open_witness_Bm(alt, GEO, u, 1, base, 1000)


def test_bm_exhausts_on_unit_basis(unit):
    u = SubseqStem.identity(2000)
    with pytest.raises(ScanExhausted):
        dense_open_witness_Bm(unit, GEO, u, 2, SubseqStem.identity(3), 2000)


def test_cm_alt_harmonic(alt):
    pipeline = rearrangement_pipeline(alt, 2)
    base = RearrStem.from_values([2, 4, 6, 8])
    cert = dense_open_witness_Cm(alt, GEO, pipeline.stem, 1, base, 10**5)
    assert cert.stem.extends(base)
    assert cert.detail("z") == 8
    lo, hi = cert.interval
    assert len(cert.stem) == hi - 1
    assert min(cp.value for cp in cert.checkpoints) > 1.0
    _check_interval_cert(cert, alt_harmonic_term)
    assert verify_certificate(cert) == []


def test_cm_preconditions(alt):
    pipeline = rearrangement_pipeline(alt, 2)
    with pytest.raises(PreconditionViolation):
        dense_open_witness_Cm(
            alt, GEO, pipeline.stem, 2, RearrStem.from_values([2, 1]), 1000
        )


def test_cm_exhausts_on_unit_basis(unit):
    with pytest.raises(ScanExhausted):
        dense_open_witness_Cm(
            unit, GEO, RearrStem.identity(2000), 2, RearrStem.identity(3), 2000
        )


def test_am_growing_real(growing):
    u = provision_candidate_stream(growing, 1000)
    cert = dense_open_witness_Am(
        growing, GEO, u, 2, SelectionStem([1, 0]), 1000
    )
    # -1 + 4 = 3 crosses m = 2 at index 4; zeros freeze the sum there
    assert cert.stem.word() == "1001" + "0" * 11
    assert cert.interval == (8, 16)
    assert all(cp.value == 3.0 for cp in cert.checkpoints)
    assert verify_certificate(cert) == []


def test_am_alt_harmonic_m0(alt):
    u = provision_candidate_stream(alt, 1000)
    cert = dense_open_witness_Am(alt, GEO, u, 0, SelectionStem(), 1000)
    assert cert.stem.word() == "0100000"
    assert cert.interval == (4, 8)
    assert all(cp.value == pytest.approx(0.5) for cp in cert.checkpoints)
    assert verify_certificate(cert) == []


def test_am_exhausts_on_unit_basis(unit):
    u = SubseqStem.identity(500)
    with pytest.raises(ScanExhausted):
        dense_open_witness_Am(unit, GEO, u, 2, SelectionStem(), 500)


def test_am_base_word_already_crossing(growing):
    # the base word's own sum passes m: no 1s are added, zeros freeze it
    u = provision_candidate_stream(growing, 1000)
    base = SelectionStem([0, 1])
    cert = dense_open_witness_Am(growing, GEO, u, 1, base, 1000)
    assert cert.stem.word().startswith("01")
    assert set(cert.stem.word()[2:]) <= {"0"}
    assert all(cp.value == 2.0 for cp in cert.checkpoints)
    assert verify_certificate(cert) == []


# ---------------------------------------------------------------------------
# blowing-up term norms


def test_limsup_growing_real(growing):
    cert = limsup_subseries(growing, 4, 1000)
    assert list(cert.stem.values()) == [1, 3, 9, 27, 81]
    term_cps = [cp for cp in cert.checkpoints if cp.kind == "term-norm"]
    sum_cps = [cp for cp in cert.checkpoints if cp.kind == "partial-sum"]
    assert len(term_cps) == 8 and len(sum_cps) == 4
    cps = cert.checkpoints
    assert relation_holds(cps.value, cps.bound, cps.relation).all()
    # both chains strictly increase
    sums = [abs(v) for v in
            np.cumsum([growing_real_term(n) for n in [1, 3, 9, 27, 81]])]
    assert all(a < b for a, b in zip(sums, sums[1:]))
    assert verify_certificate(cert) == []


def test_limsup_depth0(growing):
    cert = limsup_subseries(growing, 0)
    assert len(cert.stem) == 0


def test_limsup_alt_harmonic_exhausts(alt):
    with pytest.raises(ScanExhausted):
        limsup_subseries(alt, 1, 100)


def test_limsup_unit_basis_exhausts(unit):
    with pytest.raises(ScanExhausted):
        limsup_subseries(unit, 1, 500)


# ---------------------------------------------------------------------------
# certificate soundness


def test_verify_rejects_tampering(growing):
    cert = rearrangement_pipeline(growing, 2, 1000)
    bad_value = cert.checkpoints[0].__class__(
        position=cert.checkpoints[0].position,
        value=cert.checkpoints[0].value + 0.1,
        bound=cert.checkpoints[0].bound,
        relation=cert.checkpoints[0].relation,
    )
    tampered = cert.__class__(
        construction=cert.construction,
        series_name=cert.series_name,
        stem=cert.stem,
        checkpoints=CheckpointColumns(*zip(bad_value, *cert.checkpoints[1:])),
        stage_boundaries=cert.stage_boundaries,
        details=cert.details,
    )
    issues = verify_certificate(tampered)
    assert issues and "position 1" in issues[0]


def test_verify_rejects_broken_bijection(growing):
    cert = rearrangement_pipeline(growing, 2, 1000)
    broken = cert.__class__(
        construction=cert.construction,
        series_name=cert.series_name,
        stem=cert.stem,
        checkpoints=cert.checkpoints,
        stage_boundaries=(3,),
        details=cert.details,
    )
    issues = verify_certificate(broken)
    assert any("bijection" in issue for issue in issues)


@pytest.mark.parametrize("kind", ["partial-sum", "term-norm"])
def test_verify_rejects_a_nan_value(growing, kind):
    # NaN compares False with everything, so a far-from test would pass it
    cert = limsup_subseries(growing, 2, 1000)
    at = next(i for i, cp in enumerate(cert.checkpoints) if cp.kind == kind)
    checkpoints = list(cert.checkpoints)
    checkpoints[at] = checkpoints[at]._replace(value=math.nan)
    tampered = cert.__class__(
        construction=cert.construction,
        series_name=cert.series_name,
        stem=cert.stem,
        checkpoints=CheckpointColumns(*zip(*checkpoints)),
        details=cert.details,
    )
    issues = verify_certificate(tampered)
    assert len(issues) == 1 and "recorded" in issues[0] and "nan" in issues[0]


# ---------------------------------------------------------------------------
# checkpoint values taken from the crossing scans


def _scanned_constructions(series):
    """The constructions whose checkpoint values come from their scans, as
    calls: rearrangements of depth 1 to 3, escapes from the one-value open
    sets at m = 1, 2, and escapes from random open sets as in the
    stem-load benchmark (bases of hundreds of short runs)."""
    horizon = 3_000_000
    stream = provision_candidate_stream(series, horizon)
    p_prime = rearrangement_pipeline(series, 3, horizon, stream=stream).stem
    calls = [
        lambda depth=depth: rearrangement_pipeline(series, depth, horizon, stream=stream)
        for depth in (1, 2, 3)
    ]
    for m in (1, 2):
        calls.append(lambda m=m: nowhere_dense_witness_subseq(
            series, stream, m, SubseqStem.from_values([1]), horizon))
        calls.append(lambda m=m: nowhere_dense_witness_rearr(
            series, p_prime, m, RearrStem.from_values([1]), horizon))
    rng = np.random.default_rng(sum(map(ord, series.name)))
    for r, value_max in ((250, 500), (200, 1800)):
        base = RearrStem.from_values(
            rng.choice(np.arange(1, value_max + 1), size=r, replace=False))
        calls.append(lambda base=base: nowhere_dense_witness_rearr(
            series, p_prime, 1, base, horizon))
    for r, value_max in ((900, 2700), (1500, 4500)):
        base = SubseqStem.from_values(
            np.sort(rng.choice(np.arange(1, value_max + 1), size=r, replace=False)))
        calls.append(lambda base=base: nowhere_dense_witness_subseq(
            series, stream, 1, base, horizon))
    return calls


# alt-harmonic's p' of depth 3 never passes 2 after the value 1, and
# growing-real's p' (six values) never covers a random rearrangement base
@pytest.mark.parametrize("name, exhausted", [("alt-harmonic", 1), ("growing-real", 2)])
def test_scanned_checkpoints_equal_a_fresh_recompute(name, exhausted):
    series = catalog_series(name)
    misses = 0
    for call in _scanned_constructions(series):
        try:
            cert = call()
        except ScanExhausted:
            misses += 1
            continue
        positions = [cp.position for cp in cert.checkpoints]
        fresh = norms_at(series, cert.stem, positions).tolist()
        assert [cp.value.hex() for cp in cert.checkpoints] == [v.hex() for v in fresh]
    assert misses == exhausted


# ---------------------------------------------------------------------------
# every exhaustion of the stream continuations, pinned


def _stream(series, horizon):
    return provision_candidate_stream(series, horizon)


_S, _R = SubseqStem.from_values, RearrStem.from_values
_EVENS = SubseqStem.arithmetic(2, 2, 1000)  # 2, 4, ..., 2000

# name -> (call on (alt-harmonic, growing-real), (construction, reason,
# horizon, best.hex() or None))
_EXHAUSTIONS = {
    "nd-subseq-never-passes": (
        lambda alt, growing: nowhere_dense_witness_subseq(alt, _S([1, 2, 3]), 1, _S([5])),
        ("nowhere-dense-subseq", "the unbounded stem never passes the base stem", 3, None),
    ),
    "nd-subseq-no-sum-above": (
        lambda alt, growing: nowhere_dense_witness_subseq(
            alt, _stream(alt, 200), 5, _S([1]), 300),
        ("nowhere-dense-subseq", "no partial sum above 5", 100, "0x1.97fbfc8b22486p+0"),
    ),
    "nd-rearr-never-covers": (
        lambda alt, growing: nowhere_dense_witness_rearr(alt, _R([2, 1, 3]), 1, _R([5])),
        ("nowhere-dense-rearr", "p' never covers the base stem's values", 3, None),
    ),
    "nd-rearr-ends-at-cover": (
        lambda alt, growing: nowhere_dense_witness_rearr(alt, _R([2, 1, 3]), 1, _R([3])),
        ("nowhere-dense-rearr", "p' ends at the covering point", 3, None),
    ),
    "nd-rearr-no-sum-above": (
        lambda alt, growing: nowhere_dense_witness_rearr(
            alt, rearrangement_pipeline(alt, 2, 2000).stem, 20, _R([3, 1]), 2000),
        ("nowhere-dense-rearr", "no partial sum above 20", 1752, "0x1.bc0a0ffb9eb28p+0"),
    ),
    "bm-no-sum-above": (
        lambda alt, growing: dense_open_witness_Bm(
            alt, GEO, _stream(alt, 300), 3, _stream(alt, 300).prefix(4), 300),
        ("dense-open-Bm", "no partial sum above 4", 150, "0x1.65d5e71b9059dp+1"),
    ),
    "bm-no-padding": (
        lambda alt, growing: dense_open_witness_Bm(
            growing, GEO, _stream(growing, 300), 1, _stream(growing, 300).prefix(2), 300),
        ("dense-open-Bm", "no interval admits a small-norm padding block", 300, None),
    ),
    "cm-never-covers": (
        lambda alt, growing: dense_open_witness_Cm(
            alt, GEO, _R([1, 2, 3, 4, 5, 6]), 1, _R([9, 1])),
        ("dense-open-Cm", "t never covers the base stem's values", 6, None),
    ),
    "cm-ends-before-tail": (
        lambda alt, growing: dense_open_witness_Cm(alt, GEO, _R([2, 1, 3, 4]), 1, _R([4, 1])),
        ("dense-open-Cm", "t ends before the tail may start", 4, None),
    ),
    "cm-no-sum-above": (
        lambda alt, growing: dense_open_witness_Cm(
            alt, GEO, rearrangement_pipeline(alt, 2, 2000).stem, 20,
            _R(_stream(alt, 2000).to_numpy(21)), 2000),
        ("dense-open-Cm", "no partial sum above 21", 1752, "0x1.b151a8e4b1c77p+1"),
    ),
    "am-never-passes": (
        lambda alt, growing: dense_open_witness_Am(
            alt, GEO, _S([1, 2]), 0, SelectionStem([0, 0, 0])),
        ("dense-open-Am", "u never passes the initial word", 2, None),
    ),
    "am-no-sum-above": (
        lambda alt, growing: dense_open_witness_Am(
            alt, GEO, _stream(alt, 300), 5, SelectionStem([0, 1, 1, 0]), 300),
        ("dense-open-Am", "no selection partial sum above 5", 300, "0x1.1b2b3c70e5af1p+1"),
    ),
    # the evens through 1,752 reach 3 on their own, and stage 2 crosses 2 at
    # the last of them (stem position 876)
    "rearr-stem-exhausted": (
        lambda alt, growing: subseries_to_rearrangement(alt, _EVENS.prefix(876), 3),
        ("rearrangement", "input stem exhausted before stage 3", 876, None),
    ),
    "rearr-tail-past-horizon": (
        lambda alt, growing: subseries_to_rearrangement(alt, _EVENS, 3, 876),
        ("rearrangement", "stage 3 tail starts past the scan horizon", 876, None),
    ),
    "rearr-never-crossed": (
        lambda alt, growing: subseries_to_rearrangement(alt, _stream(alt, 500), 3, 500),
        ("rearrangement", "stage 2 never crossed 2", 250, "0x1.5fc81b86cf5d8p+0"),
    ),
    "depth-never-reaches": (
        lambda alt, growing: subseries_to_rearrangement(alt, _stream(alt, 500), 4, 500),
        ("depth-checkpoints", "stem never reaches partial-sum norm 4", 250, None),
    ),
}


@pytest.mark.parametrize("name", list(_EXHAUSTIONS))
def test_library_exhaustions_are_pinned(alt, growing, name):
    call, expected = _EXHAUSTIONS[name]
    with pytest.raises(ScanExhausted) as info:
        call(alt, growing)
    exc = info.value
    best = None if exc.best is None else exc.best.hex()
    assert (exc.construction, exc.reason, exc.horizon, best) == expected


# ---------------------------------------------------------------------------
# verify reads run stems as run tables


def _no_values(*args, **kwargs):
    raise AssertionError("verify made the values of a run stem")


def test_verify_builds_no_run_stem_values(tmp_path, monkeypatch):
    from serieswitness.certificates import load_document, verify_document
    from serieswitness.cli import main
    from serieswitness.stems import _RunStem

    series = catalog_series("alt-harmonic")
    p_prime = rearrangement_pipeline(series, 3, 3_000_000).stem
    rng = np.random.default_rng(800)
    base = RearrStem.from_values(rng.choice(np.arange(1, 1801), size=800, replace=False))
    escape = nowhere_dense_witness_rearr(series, p_prime, 1, base, 3_000_000)
    path = tmp_path / "cm.json"
    assert main(["run", "--series", "alt-harmonic", "--construction", "dense-open-cm",
                 "--m", "1", "--horizon", "200000", "--out", str(path)]) == 0
    doc = load_document(str(path))
    assert doc["result"]["base"] is not None
    # the engine makes each block's indices itself, from the run rows
    monkeypatch.setattr(_RunStem, "to_numpy", _no_values)
    monkeypatch.setattr(_RunStem, "values", _no_values)
    assert len(escape.stem.runs) > 1_000
    assert verify_certificate(escape) == []
    assert verify_document(doc) == []

"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the independent oracles live in
conftest and recompute certificate values by direct summation.
"""

import itertools
import math
import time

import pytest

from serieswitness import (
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
    i_bounded_verdict,
    interval,
    limsup_subseries,
    nowhere_dense_witness_rearr,
    nowhere_dense_witness_subseq,
    provision_candidate_stream,
    rearrangement_pipeline,
    uniform_bound_bruteforce,
    verify_certificate,
)
from serieswitness.certificates import (
    document_for_certificate,
    load_document,
    write_document,
)
from serieswitness.cli import main as cli_main
from serieswitness.ideals import density_at
from serieswitness.runners import IDEALS

from conftest import alt_harmonic_term, growing_real_term, kahan_abs_prefix

GEO = geometric_talagrand()
TOL = 1e-9


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS: {detail}")


def test_criterion_1_uniform_unconditional_bound_of_unit_basis(unit):
    started = time.perf_counter()
    for n in range(1, 13):
        assert uniform_bound_bruteforce(unit, n, (0, 1)) == 1.0
    binary_elapsed = time.perf_counter() - started
    assert binary_elapsed < 1.0
    for n in range(1, 11):
        assert uniform_bound_bruteforce(unit, n, (-1, 0, 1)) == 1.0
    report(
        1,
        f"unit-basis-c0 pattern sweeps all equal 1 exactly "
        f"(binary n<=12 in {binary_elapsed:.3f}s, ternary n<=10)",
    )


def test_criterion_2_sign_patterns_within_twice_selections():
    started = time.perf_counter()
    checked = 0
    for name in catalog_names():
        series = catalog_series(name)
        for n in range(1, 11):
            ternary = uniform_bound_bruteforce(series, n, (-1, 0, 1))
            binary = uniform_bound_bruteforce(series, n, (0, 1))
            assert ternary <= 2.0 * binary + TOL, (name, n)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        2,
        f"{checked} exhaustive sweeps satisfy ternary <= 2 * binary + 1e-9 "
        f"in {elapsed:.2f}s",
    )


def test_criterion_3_selection_and_rearrangement_sups_agree(alt):
    started = time.perf_counter()
    n = 8
    terms = [alt_harmonic_term(i) for i in range(1, n + 1)]
    best_selections = 0.0
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            best_selections = max(
                best_selections, abs(math.fsum(terms[i] for i in combo))
            )
    best_prefixes = 0.0
    count = 0
    for perm in itertools.permutations(terms):
        total = 0.0
        for value in perm:
            total += value
            if abs(total) > best_prefixes:
                best_prefixes = abs(total)
        count += 1
    assert count == 40320
    assert abs(best_selections - best_prefixes) <= TOL
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(
        3,
        f"sup over selections {best_selections:.12f} matches sup over all "
        f"40320 permutation prefixes within 1e-9 ({elapsed:.2f}s)",
    )


def test_criterion_4_rearrangement_witness_chain(alt, tmp_path):
    started = time.perf_counter()
    grown = grow_unbounded_subseries(alt, target=3.0, search_horizon=10**6)
    # independent oracle: direct summation of the positive terms
    total, K = 0.0, 0
    while total <= 3.0:
        K += 1
        total = math.fsum(1.0 / (2 * k) for k in range(1, K + 1))
    assert K == 227
    assert len(grown.stem) == K
    assert grown.final_norm() > 3.0
    assert grown.final_norm() == pytest.approx(total, abs=TOL)

    cert = rearrangement_pipeline(alt, depth=3, scan_horizon=3_000_000)
    assert len(cert.stage_boundaries) == 3
    for boundary in cert.stage_boundaries:
        assert cert.stem.is_prefix_bijection(boundary)
    bounds = [cp.bound for cp in cert.checkpoints]
    assert bounds == [1.0, 2.0, 3.0]
    for cp in cert.checkpoints:
        assert cp.value >= cp.bound - TOL
    assert verify_certificate(cert) == []

    doc = document_for_certificate(
        cert,
        {"series": "alt-harmonic", "construction": "rearrangement",
         "depth": 3, "horizon": 3_000_000},
    )
    path = tmp_path / "rearrangement.json"
    write_document(doc, str(path))
    assert cli_main(["verify", str(path)]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(
        4,
        f"growth to {grown.final_norm():.6f} at K=227, rearrangement depth 3 "
        f"with prefix bijections and checkpoints >= 1,2,3; verify() exit 0 "
        f"({elapsed:.2f}s)",
    )


def _recheck_interval(cert, term) -> None:
    lo, hi = cert.interval
    positions = sorted(cp.position for cp in cert.checkpoints)
    assert positions == list(range(lo, hi))
    if isinstance(cert.stem, SelectionStem):
        indices = [i + 1 for i, b in enumerate(cert.stem.bits) if b]
        weighted = {i: 1.0 for i in indices}
        sums = []
        total = 0.0
        for i in range(1, len(cert.stem.bits) + 1):
            if i in weighted:
                total += term(i)
            sums.append(abs(total))
    else:
        sums = kahan_abs_prefix(term, list(cert.stem.values()))
    for cp in cert.checkpoints:
        assert sums[cp.position - 1] > cp.bound, cp
        assert sums[cp.position - 1] == pytest.approx(cp.value, abs=TOL)


def test_criterion_5_dense_open_interval_certificates(alt, growing):
    horizon = 10**5

    started = time.perf_counter()
    u = provision_candidate_stream(alt, horizon)
    bm = dense_open_witness_Bm(
        alt, GEO, u, 1, SubseqStem.from_values([1, 3]), horizon
    )
    _recheck_interval(bm, alt_harmonic_term)
    assert verify_certificate(bm) == []
    bm_elapsed = time.perf_counter() - started
    assert bm_elapsed < 30.0

    started = time.perf_counter()
    ug = provision_candidate_stream(growing, horizon)
    am = dense_open_witness_Am(growing, GEO, ug, 1, SelectionStem(), horizon)
    _recheck_interval(am, growing_real_term)
    assert verify_certificate(am) == []
    am_elapsed = time.perf_counter() - started
    assert am_elapsed < 30.0

    started = time.perf_counter()
    pipeline = rearrangement_pipeline(alt, 2)
    cm = dense_open_witness_Cm(
        alt,
        GEO,
        pipeline.stem,
        1,
        RearrStem.from_values([2, 4, 6, 8]),
        horizon,
    )
    assert cm.detail("z") == 8
    assert cm.detail("m_r") is not None
    _recheck_interval(cm, alt_harmonic_term)
    assert verify_certificate(cm) == []
    cm_elapsed = time.perf_counter() - started
    assert cm_elapsed < 30.0

    report(
        5,
        f"Bm interval {bm.interval} ({bm_elapsed:.2f}s), Am interval "
        f"{am.interval} ({am_elapsed:.2f}s), Cm interval {cm.interval} with "
        f"z-offset bookkeeping ({cm_elapsed:.2f}s); every interval position "
        f"recomputed independently above m=1",
    )


def test_criterion_6_ideal_evidence(unit):
    verdict = i_bounded_verdict(
        unit, SelectionStem.ones(64), IDEALS["density"](), 0.5, 64
    )
    assert verdict.status == "i-unbounded-evidence"
    assert verdict.report.contained_intervals.tolist() == [1, 2, 3, 4, 5]
    union = set()
    for k in verdict.report.contained_intervals:
        union.update(interval(GEO, k))
    assert union == set(range(2, 64))
    assert density_at(union, 63) >= 0.5
    report(
        6,
        f"i-unbounded-evidence with exactly 5 intervals [2,4)..[32,64); "
        f"union density at 63 is {density_at(union, 63):.4f} >= 0.5",
    )


def test_criterion_7_negative_controls_on_unit_basis(unit, tmp_path):
    horizon = 2000
    outcomes = {}

    def expect_exhaustion(label, thunk):
        with pytest.raises(ScanExhausted):
            thunk()
        outcomes[label] = "exhausted"

    expect_exhaustion(
        "grow/per-coordinate",
        lambda: grow_unbounded_subseries(unit, 2.0, horizon),
    )
    expect_exhaustion(
        "rearrangement", lambda: rearrangement_pipeline(unit, 2, horizon)
    )
    expect_exhaustion(
        "nowhere-dense-subseq",
        lambda: nowhere_dense_witness_subseq(
            unit, SubseqStem.identity(horizon), 2,
            SubseqStem.from_values([1, 3]), horizon,
        ),
    )
    expect_exhaustion(
        "nowhere-dense-rearr",
        lambda: nowhere_dense_witness_rearr(
            unit, RearrStem.identity(horizon), 2,
            RearrStem.from_values([2, 1]), horizon,
        ),
    )
    expect_exhaustion(
        "dense-open-Bm",
        lambda: dense_open_witness_Bm(
            unit, GEO, SubseqStem.identity(horizon), 2,
            SubseqStem.identity(3), horizon,
        ),
    )
    expect_exhaustion(
        "dense-open-Cm",
        lambda: dense_open_witness_Cm(
            unit, GEO, RearrStem.identity(horizon), 2,
            RearrStem.identity(3), horizon,
        ),
    )
    expect_exhaustion(
        "dense-open-Am",
        lambda: dense_open_witness_Am(
            unit, GEO, SubseqStem.identity(horizon), 2, SelectionStem(), horizon
        ),
    )
    expect_exhaustion("limsup", lambda: limsup_subseries(unit, 1, horizon))

    out = tmp_path / "exhausted.json"
    code = cli_main(
        [
            "run",
            "--series", "unit-basis-c0",
            "--construction", "grow-subseries",
            "--target", "2",
            "--horizon", str(horizon),
            "--out", str(out),
        ]
    )
    assert code == 2
    assert load_document(str(out))["kind"] == "exhaustion"
    report(
        7,
        f"all {len(outcomes)} constructors exhaust on unit-basis-c0 at "
        f"target/m >= 2; CLI exit code 2",
    )


def test_criterion_8_certificate_fault_injection(alt, tmp_path):
    cert = rearrangement_pipeline(alt, 2)
    doc = document_for_certificate(
        cert,
        {"series": "alt-harmonic", "construction": "rearrangement",
         "depth": 2, "horizon": 10**6},
    )
    checked = 0
    for i, cp in enumerate(doc["result"]["checkpoints"]):
        import copy
        import json

        hacked = copy.deepcopy(doc)
        hacked["result"]["checkpoints"][i]["value"] = cp["value"] + 0.1
        path = tmp_path / f"hacked-{i}.json"
        with open(path, "w") as fh:
            json.dump(hacked, fh)
        assert cli_main(["verify", str(path)]) == 1
        from serieswitness.certificates import verify_document

        issues = verify_document(hacked)
        assert issues and f"position {cp['position']}" in issues[0]
        checked += 1
    report(
        8,
        f"perturbing each of {checked} checkpoint norms by 0.1 makes verify "
        f"fail and name the checkpoint",
    )

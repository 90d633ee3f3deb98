"""The catalog declares each series' candidate stream; it must equal the
stream read off the term rule, and so must every payload built on it,
exhaustions included.  The work the cells do is pinned."""

import dataclasses

import numpy as np
import pytest

import serieswitness.series as series_module
from serieswitness import runners
from serieswitness.certificates import (
    document_for_certificate,
    document_for_exhaustion,
    payload_without_timing,
)
from serieswitness.runners import execute_config, resolve_config
from serieswitness.series import catalog_names, catalog_series
from serieswitness.spaces import DELTA
from serieswitness.stems import SubseqStem
from serieswitness.witnesses import (
    ScanExhausted,
    _threshold_chain,
    grow_unbounded_subseries,
    nowhere_dense_witness_subseq,
    provision_candidate_stream,
)

STREAM_FED = (
    "rearrangement",
    "nowhere-dense-subseq",
    "nowhere-dense-rearr",
    "dense-open-bm",
    "dense-open-cm",
    "dense-open-am",
)


def _payload(config):
    config = resolve_config(config)
    try:
        _, cert = execute_config(config)
    except ScanExhausted as exc:
        return payload_without_timing(document_for_exhaustion(exc, config))
    return payload_without_timing(document_for_certificate(cert, config))


def reference_stream(series, horizon):
    """The candidate stream read off the term rule: the indices up to the
    horizon of the positive terms, on coordinate 1 off the line."""
    idx = np.arange(1, horizon + 1, dtype=np.int64)
    coords, coeffs = series.columns(idx)
    mask = coeffs > 0
    if not series.is_scalar:
        mask &= coords == 1
    return SubseqStem.from_values(idx[mask])


BLOCK, CHUNK = series_module._BLOCK, series_module._CHUNK


@pytest.mark.parametrize("horizon", [1, 2, 3, BLOCK - 1, BLOCK + 1, CHUNK + 3])
@pytest.mark.parametrize("name", catalog_names())
def test_declared_candidates_are_the_rule_derived_stream(name, horizon):
    series = catalog_series(name)
    declared = provision_candidate_stream(series, horizon)
    # the same runs, so a stem cut from either serializes the same
    assert declared.runs.tolist() == reference_stream(series, horizon).runs.tolist()


@pytest.mark.parametrize("horizon", [3, 5_000])
@pytest.mark.parametrize("series", catalog_names())
@pytest.mark.parametrize("construction", STREAM_FED)
def test_declared_stream_payloads_equal_the_reference_stream(
    monkeypatch, series, construction, horizon
):
    flags = {"depth": 2} if construction == "rearrangement" else {"m": 1}
    config = {"series": series, "construction": construction, "horizon": horizon, **flags}
    declared = _payload(config)
    monkeypatch.setattr(runners, "provision_candidate_stream", reference_stream)
    assert declared == _payload(config)


def reference_grow(series, target, horizon):
    """The checkpoint positions of grow_unbounded_subseries, or its best
    norm on exhaustion, from the mask-based candidate scan: the term rule
    over _BLOCK-index windows, a cumsum over each window's positive terms."""
    raw, running, count, pending = [], 0.0, 0, None
    for lo in range(1, horizon + 1, BLOCK):
        idx = np.arange(lo, min(horizon, lo + BLOCK - 1) + 1, dtype=np.int64)
        coords, coeffs = series.columns(idx)
        mask = (coeffs > 0) & (True if series.is_scalar else coords == 1)
        if not mask.any():
            continue
        csum = np.cumsum(coeffs[mask])
        values = np.abs(running + csum)
        if pending is None:
            raw.append(count + 1)
            pending = _threshold_chain(float(values[0]), target)
        while pending:
            final = len(pending) == 1 and pending[0] >= target
            i = int(np.searchsorted(values, target + DELTA, side="right") if final
                    else np.searchsorted(values, pending[0], side="left"))
            if i >= values.size:
                break
            raw.append(count + i + 1)
            pending.pop(0)
            if not pending:
                return raw
        running = float(running + csum[-1])
        count += int(mask.sum())
    return abs(running)


@pytest.mark.parametrize(
    "name, target, horizon",
    [
        ("alt-harmonic", 3.0, 10_000),
        # the last crossing lies in the sixth window
        ("alt-harmonic", 6.0, 400_000),
        ("growing-real", 1e6, 5_000),
        ("unit-basis-c0", 2.0, 3 * BLOCK + 5),
        ("decaying-signed-c0", 2.0, 3 * BLOCK + 5),
    ],
)
def test_grow_reads_the_stream_in_the_windows_of_the_mask_scan(name, target, horizon):
    series = catalog_series(name)
    expected = reference_grow(series, target, horizon)
    try:
        cert = grow_unbounded_subseries(series, target, horizon)
    except ScanExhausted as exc:
        assert exc.best == expected
    else:
        assert [cp.position for cp in cert.checkpoints] == expected


# ---------------------------------------------------------------------------
# work counts


@pytest.fixture
def work(monkeypatch):
    """A counting copy of alt-harmonic, handed to the registry, and the work
    it sees: positions the partial-sum engine streams, term evaluations (one
    magnitude call each, by index or by run) and the terms those calls
    evaluate (the engine's and the provisioning's)."""
    seen = {"positions": 0, "calls": 0, "terms": 0}
    alt = catalog_series("alt-harmonic")

    def magnitude(x):
        seen["calls"] += 1
        seen["terms"] += x.size
        return alt.magnitude(x)

    counted = dataclasses.replace(alt, magnitude=magnitude)
    engine = series_module._norm_chunks

    def streamed(*args):
        for norms in engine(*args):
            seen["positions"] += norms.size
            yield norms

    monkeypatch.setattr(series_module, "_norm_chunks", streamed)
    monkeypatch.setattr(runners, "catalog_series", lambda name: counted)
    return counted, seen


# Each position is read once per fact: a checkpoint takes its value from
# the scan that found it, the registry does not re-check the p' it has just
# built, and short runs share one term-rule call.  The candidate stream is
# declared, so every term evaluated is a position the engine streams.
@pytest.mark.parametrize(
    "flags, positions, calls, terms",
    [
        ({"construction": "rearrangement", "depth": 3}, 1_540_972, 49, 1_540_972),
        # an exhaustion: p' of depth 3 never passes 2 after the value 1
        ({"construction": "nowhere-dense-rearr", "m": 2}, 4_368_198, 138, 4_368_198),
    ],
    ids=["rearrangement-depth-3", "nowhere-dense-rearr-m-2"],
)
def test_registry_work_counts(work, flags, positions, calls, terms):
    _, seen = work
    config = resolve_config({"series": "alt-harmonic", "horizon": 3_000_000, **flags})
    try:
        execute_config(config)
    except ScanExhausted:
        pass
    assert seen == {"positions": positions, "calls": calls, "terms": terms}


def test_rearrangement_stages_resume_where_the_last_one_crossed(work, monkeypatch):
    # the depth-4 pipeline behind dense-open-cm m=3 exhausts in stage 4.  Its
    # scans, one engine pass each: the growth levels, then stages 1 to 4,
    # each resumed at the crossing before it.  Scanned from
    # position 1, stages 3 and 4 streamed 1,443,544 and 2,913,615 positions.
    _, seen = work
    scans = []
    counting = series_module._norm_chunks

    def per_scan(*args):
        scans.append(0)
        for norms in counting(*args):
            scans[-1] += norms.size
            yield norms

    monkeypatch.setattr(series_module, "_norm_chunks", per_scan)
    config = resolve_config({"series": "alt-harmonic", "horizon": 3_000_000,
                             "construction": "dense-open-cm", "m": 3})
    with pytest.raises(ScanExhausted, match="stage 4"):
        execute_config(config)
    assert scans == [32_768, 32_768, 32_772, 1_442_664, 1_499_124]
    assert seen == {"positions": 3_040_096, "calls": 96, "terms": 3_040_096}

def test_open_set_work_counts(work):
    counted, seen = work
    stream = provision_candidate_stream(counted, 3_000_000)
    values = np.random.default_rng(1).choice(np.arange(1, 4_501), size=1_500, replace=False)
    base = SubseqStem.from_values(np.sort(values))
    assert len(base.runs) > 1_000
    seen.update(positions=0, calls=0, terms=0)
    nowhere_dense_witness_subseq(counted, stream, 1, base, 3_000_000)
    assert seen == {"positions": 34_268, "calls": 2, "terms": 34_268}

"""The registry's stream-fed builders provision the candidate stream in
growing bounds; their payloads must equal those of one eager provisioning
to the horizon, exhaustions included.  The work the cells do is pinned."""

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
from serieswitness.series import SeriesOracle, catalog_series
from serieswitness.stems import SubseqStem
from serieswitness.witnesses import (
    ScanExhausted,
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


@pytest.fixture
def bounds(monkeypatch):
    """The bounds the builders provision the candidate stream through."""
    seen = []
    provision = runners.provision_candidate_stream

    def counting(series, bound):
        seen.append(bound)
        return provision(series, bound)

    monkeypatch.setattr(runners, "provision_candidate_stream", counting)
    return seen


def _eager(monkeypatch, config):
    """The payload of one provisioning to the horizon: the first bound is
    the horizon itself."""
    with monkeypatch.context() as patch:
        patch.setattr(runners, "_FIRST_BOUND", config["horizon"])
        return _payload(config)


@pytest.mark.parametrize(
    "construction, flags, horizon, attempts",
    [
        ("rearrangement", {"depth": 1}, 600_000, [65_536]),
        ("nowhere-dense-subseq", {"m": 5}, 600_000, [65_536, 524_288]),
        # exhaustions: the last attempt is the eager one
        ("nowhere-dense-subseq", {"m": 6}, 600_000, [65_536, 524_288, 600_000]),
        ("nowhere-dense-rearr", {"m": 2}, 100_000, [65_536, 100_000]),
        ("dense-open-cm", {"m": 3}, 600_000, [65_536, 524_288, 600_000]),
    ],
)
def test_growing_stream_equals_the_eager_stream(
    monkeypatch, bounds, construction, flags, horizon, attempts
):
    config = {"series": "alt-harmonic", "construction": construction,
              "horizon": horizon, **flags}
    grown = _payload(config)
    assert bounds == attempts
    assert grown == _eager(monkeypatch, config)


@pytest.mark.parametrize(
    "series", ["alt-harmonic", "growing-real", "unit-basis-c0", "decaying-signed-c0"]
)
@pytest.mark.parametrize("construction", STREAM_FED)
def test_many_small_attempts_equal_the_eager_stream(
    monkeypatch, bounds, series, construction
):
    # a first bound of 3 forces attempts at 3, 24, 192, ... on every cell
    monkeypatch.setattr(runners, "_FIRST_BOUND", 3)
    flags = {"depth": 2} if construction == "rearrangement" else {"m": 1}
    config = {"series": series, "construction": construction, "horizon": 5_000, **flags}
    grown = _payload(config)
    assert bounds == sorted(set(bounds)) and bounds[0] == 3
    assert grown == _eager(monkeypatch, config)


def test_a_shallow_rearrangement_provisions_one_small_bound(bounds):
    _payload({"series": "alt-harmonic", "construction": "rearrangement",
              "horizon": 3_000_000, "depth": 1})
    assert bounds == [1 << 16]


# ---------------------------------------------------------------------------
# work counts


@pytest.fixture
def work(monkeypatch):
    """A counting copy of alt-harmonic, handed to the registry, and the work
    it sees: positions the partial-sum engine streams, term-rule calls and
    the terms those calls evaluate (the engine's and the provisioning's)."""
    seen = {"positions": 0, "calls": 0, "terms": 0}
    alt = catalog_series("alt-harmonic")

    def rule(n):
        seen["calls"] += 1
        seen["terms"] += n.size
        return alt.rule(n)

    counted = SeriesOracle(alt.name, alt.space, alt.description,
                           alt.liminf_norm_zero, alt.limsup_norm_infinite, rule)
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
# built, and short runs share one term-rule call.
@pytest.mark.parametrize(
    "flags, positions, calls, terms",
    [
        ({"construction": "rearrangement", "depth": 3}, 2_035_821, 181, 5_625_645),
        # an exhaustion: p' of depth 3 never passes 2 after the value 1
        ({"construction": "nowhere-dense-rearr", "m": 2}, 4_863_047, 270, 8_452_871),
    ],
)
def test_registry_work_counts(work, flags, positions, calls, terms):
    _, seen = work
    config = resolve_config({"series": "alt-harmonic", "horizon": 3_000_000, **flags})
    try:
        execute_config(config)
    except ScanExhausted:
        pass
    assert seen == {"positions": positions, "calls": calls, "terms": terms}


def test_open_set_work_counts(work):
    counted, seen = work
    stream = provision_candidate_stream(counted, 3_000_000)
    values = np.random.default_rng(1).choice(np.arange(1, 4_501), size=1_500, replace=False)
    base = SubseqStem.from_values(np.sort(values))
    assert len(base.runs) > 1_000
    seen.update(positions=0, calls=0, terms=0)
    nowhere_dense_witness_subseq(counted, stream, 1, base, 3_000_000)
    assert seen == {"positions": 34_268, "calls": 2, "terms": 34_268}

"""The registry's stream-fed builders provision the candidate stream in
growing bounds; their payloads must equal those of one eager provisioning
to the horizon, exhaustions included."""

import pytest

from serieswitness import runners
from serieswitness.certificates import (
    document_for_certificate,
    document_for_exhaustion,
    payload_without_timing,
)
from serieswitness.runners import execute_config, resolve_config
from serieswitness.witnesses import ScanExhausted

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

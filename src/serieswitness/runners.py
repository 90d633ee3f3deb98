"""Construction dispatch: resolve a run configuration into a result.

The CLI echoes every resolved parameter into the certificate document,
and exhaustion documents are re-verified by executing the same
configuration again, so everything here must be deterministic in the
config alone.
"""

from __future__ import annotations

from typing import Any

from .ideals import (
    DEFAULT_EVIDENCE_THRESHOLD,
    IdealSpec,
    TalagrandSequence,
    density_ideal,
    fin_ideal,
    geometric_talagrand,
    ideal_talagrand,
    i_bounded_verdict,
    linear_talagrand,
)
from .series import SeriesOracle, catalog_series
from .stems import RearrStem, SelectionStem, SubseqStem
from .witnesses import (
    PreconditionViolation,
    ScanExhausted,
    default_scan_horizon,
    dense_open_witness_Am,
    dense_open_witness_Bm,
    dense_open_witness_Cm,
    grow_unbounded_subseries,
    limsup_subseries,
    nowhere_dense_witness_subseq,
    nowhere_dense_witness_rearr,
    provision_candidate_stream,
    rearrangement_pipeline,
)

CONSTRUCTIONS = (
    "grow-subseries",
    "rearrangement",
    "nowhere-dense-subseq",
    "nowhere-dense-rearr",
    "dense-open-bm",
    "dense-open-cm",
    "dense-open-am",
    "limsup-subseries",
    "i-bounded",
)

# The candidate stream ends inside the scan horizon before it can seed the
# open set's base stem: a finite search came up short, so this is exhaustion.
_TOO_FEW_CANDIDATES = "not enough candidate indices to seed the base stem"


def _sequence_from_name(name: str) -> TalagrandSequence:
    if name == "geometric":
        return geometric_talagrand()
    if name == "linear":
        return linear_talagrand()
    raise PreconditionViolation(f"unknown interval sequence {name!r}")


def _ideal_from_name(name: str) -> IdealSpec:
    if name == "fin":
        return fin_ideal()
    if name == "density":
        return density_ideal()
    raise PreconditionViolation(f"unknown ideal {name!r}")


def resolve_config(config: dict[str, Any]) -> dict[str, Any]:
    """Fill defaults so the echoed config replays identically."""
    series = catalog_series(config["series"])
    construction = config.get("construction")
    if construction not in CONSTRUCTIONS:
        raise PreconditionViolation(
            f"unknown construction {construction!r}; known: {', '.join(CONSTRUCTIONS)}"
        )
    out = dict(config)
    out.setdefault("horizon", default_scan_horizon(series))
    if construction in ("grow-subseries",):
        out.setdefault("target", 2.0)
    if construction in ("rearrangement",):
        out.setdefault("depth", 3)
    if construction == "limsup-subseries":
        out.setdefault("depth", 4)
    if construction in (
        "nowhere-dense-subseq",
        "nowhere-dense-rearr",
        "dense-open-bm",
        "dense-open-cm",
        "dense-open-am",
    ):
        out.setdefault("m", 1)
        if out["m"] < 0:
            raise PreconditionViolation("m must be >= 0")
    if construction in ("dense-open-bm", "dense-open-cm", "dense-open-am"):
        out.setdefault("talagrand", "geometric")
    if construction == "i-bounded":
        if out.get("M") is None:
            raise PreconditionViolation("i-bounded requires a bound (--M)")
        out.setdefault("ideal", "fin")
        out.setdefault("threshold", DEFAULT_EVIDENCE_THRESHOLD)
        if out.get("talagrand") is None:
            out["talagrand"] = ideal_talagrand(
                _ideal_from_name(out["ideal"])
            ).label
    return out


def _certified_pipeline(series: SeriesOracle, depth: int, horizon: int, stream=None):
    cert = rearrangement_pipeline(series, depth, horizon, stream=stream)
    checkpoints = [
        (cp.position, cp.bound)
        for cp in cert.checkpoints
        if cp.kind == "partial-sum"
    ]
    return cert.stem, checkpoints


def execute_config(config: dict[str, Any]) -> tuple[str, Any]:
    """Run a resolved configuration.

    Returns ("witness", WitnessCertificate) or
    ("verdict", (verdict, indexer, ideal, threshold)).  ScanExhausted
    propagates to the caller, which turns it into an exhaustion document.
    """
    config = resolve_config(config)
    series = catalog_series(config["series"])
    construction = config["construction"]
    horizon = int(config["horizon"])

    if construction == "grow-subseries":
        cert = grow_unbounded_subseries(
            series, target=float(config["target"]), search_horizon=horizon
        )
        return "witness", cert

    if construction == "rearrangement":
        return "witness", rearrangement_pipeline(
            series, int(config["depth"]), horizon
        )

    if construction == "limsup-subseries":
        return "witness", limsup_subseries(series, int(config["depth"]), horizon)

    if construction == "nowhere-dense-subseq":
        m = int(config["m"])
        stream = provision_candidate_stream(series, horizon)
        base = SubseqStem.from_values([1])
        return "witness", nowhere_dense_witness_subseq(
            series, stream, m, base, horizon
        )

    if construction == "nowhere-dense-rearr":
        m = int(config["m"])
        stem, checkpoints = _certified_pipeline(series, m + 1, horizon)
        base = RearrStem.from_values([1])
        return "witness", nowhere_dense_witness_rearr(
            series, stem, m, base, horizon, checkpoints
        )

    if construction == "dense-open-bm":
        m = int(config["m"])
        seq = _sequence_from_name(config["talagrand"])
        stream = provision_candidate_stream(series, horizon)
        if len(stream) < m + 2:
            raise ScanExhausted("dense-open-Bm", _TOO_FEW_CANDIDATES, horizon)
        base = stream.prefix(m + 1)
        return "witness", dense_open_witness_Bm(
            series, seq, stream, m, base, horizon
        )

    if construction == "dense-open-cm":
        m = int(config["m"])
        seq = _sequence_from_name(config["talagrand"])
        stream = provision_candidate_stream(series, horizon)
        r = max(m + 1, 4)
        if len(stream) < r:
            raise ScanExhausted("dense-open-Cm", _TOO_FEW_CANDIDATES, horizon)
        base = RearrStem.from_values(stream.to_numpy(r))
        stem, checkpoints = _certified_pipeline(series, m + 1, horizon, stream)
        return "witness", dense_open_witness_Cm(
            series, seq, stem, m, base, horizon, checkpoints
        )

    if construction == "dense-open-am":
        m = int(config["m"])
        seq = _sequence_from_name(config["talagrand"])
        stream = provision_candidate_stream(series, horizon)
        return "witness", dense_open_witness_Am(
            series, seq, stream, m, SelectionStem(), horizon
        )

    if construction == "i-bounded":
        ideal = _ideal_from_name(config["ideal"])
        seq = _sequence_from_name(config["talagrand"])
        threshold = int(config["threshold"])
        indexer = SelectionStem.ones(horizon)
        verdict = i_bounded_verdict(
            series,
            indexer,
            ideal,
            float(config["M"]),
            horizon,
            threshold=threshold,
            seq=seq,
        )
        return "verdict", (verdict, indexer, ideal, threshold)

    raise PreconditionViolation(f"unknown construction {construction!r}")

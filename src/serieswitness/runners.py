"""The construction registry: resolve a run configuration into a result.

Each construction is one entry of REGISTRY: the kind of result it makes,
its declared parameters and its builder.  Resolution, the CLI's choices
and execution all read that one table.  The CLI echoes every resolved
parameter into the certificate document, and exhaustion documents are
re-verified by executing the same configuration again, so everything
here must be deterministic in the config alone.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .ideals import (
    DEFAULT_EVIDENCE_THRESHOLD,
    geometric_talagrand,
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

# The interval sequences and the ideals a configuration may name.  An ideal
# is named by the interval sequence that no member of it swallows
# cofinitely.  fin: n_k = k, since a set containing infinitely many
# [k, k+1) is infinite.  density: n_k = 2^k, since a set containing
# [2^k, 2^{k+1}) has density >= 1/2 at 2^{k+1} - 1 and so cannot have
# density zero.
SEQUENCES = {"geometric": geometric_talagrand, "linear": linear_talagrand}
IDEALS = {"fin": linear_talagrand, "density": geometric_talagrand}

# The candidate stream ends inside the scan horizon before it can seed the
# open set's base stem: a finite search came up short, so this is exhaustion.
_TOO_FEW_CANDIDATES = "not enough candidate indices to seed the base stem"


class Param(NamedTuple):
    """The type of a parameter, the same in every construction: int or float
    (which admits ints; neither admits bools) with an optional least value,
    or a table of names.  noun names the parameter in resolution errors;
    help describes its command-line flag."""

    kind: Any
    minimum: int | None = None
    noun: str = ""
    help: str = ""


PARAMS = {
    "horizon": Param(int, 1, help="scan horizon"),
    "m": Param(int, 0, help="escape level m"),
    "depth": Param(int, 0, help="construction depth"),
    "threshold": Param(int, help="contained-interval count treated as unboundedness "
                       f"evidence (default {DEFAULT_EVIDENCE_THRESHOLD})"),
    "target": Param(float, help="growth target"),
    "M": Param(float, noun="a bound", help="boundedness bound M"),
    "ideal": Param(IDEALS, noun="ideal", help="ideal of an i-bounded verdict"),
    "talagrand": Param(SEQUENCES, noun="interval sequence",
                       help="interval sequence: geometric n_k = 2^k or linear n_k = k"),
}


class Construction(NamedTuple):
    """One registry entry: the result kind ("witness" or "verdict"), the
    default of each parameter in resolution order (None: required; a
    callable computes it from the configuration resolved so far) and the
    builder, called as build(series, resolved config, horizon)."""

    result: str
    params: dict[str, Any]
    build: Callable[[SeriesOracle, dict[str, Any], int], Any]


def _check(key: str, value: Any) -> None:
    param = PARAMS[key]
    if isinstance(param.kind, dict):
        if not isinstance(value, str) or value not in param.kind:
            raise PreconditionViolation(f"unknown {param.noun} {value!r}")
        return
    integral = isinstance(value, int) and not isinstance(value, bool)
    if param.kind is int and not integral:
        raise PreconditionViolation(f"{key} must be an integer, got {value!r}")
    if param.kind is float and not (integral or isinstance(value, float)):
        raise PreconditionViolation(f"{key} must be a number, got {value!r}")
    if param.minimum is not None and value < param.minimum:
        raise PreconditionViolation(f"{key} must be >= {param.minimum}")


def resolve_config(config: dict[str, Any]) -> dict[str, Any]:
    """Fill defaults and check every declared parameter, so the echoed
    config replays identically."""
    name = config.get("series")
    if not isinstance(name, str):
        raise PreconditionViolation(f"series must be a string, got {name!r}")
    series = catalog_series(name)
    construction = config.get("construction")
    if construction not in CONSTRUCTIONS:
        raise PreconditionViolation(
            f"unknown construction {construction!r}; known: {', '.join(CONSTRUCTIONS)}"
        )
    out = dict(config)
    defaults = {"horizon": default_scan_horizon(series), **REGISTRY[construction].params}
    for key, default in defaults.items():
        if out.get(key) is None:
            if default is None:
                raise PreconditionViolation(
                    f"{construction} requires {PARAMS[key].noun} (--{key})"
                )
            out[key] = default(out) if callable(default) else default
        _check(key, out[key])
    return out


def execute_config(config: dict[str, Any]) -> tuple[str, Any]:
    """Run a configuration that resolve_config has resolved.

    Returns ("witness", WitnessCertificate) or ("verdict", (verdict,
    indexer)).  ScanExhausted propagates to the caller, which turns it into
    an exhaustion document.
    """
    entry = REGISTRY[config["construction"]]
    series = catalog_series(config["series"])
    return entry.result, entry.build(series, config, config["horizon"])


# ---------------------------------------------------------------------------
# builders


def _grow(series, config, horizon):
    return grow_unbounded_subseries(series, float(config["target"]), horizon)


def _rearrangement(series, config, horizon):
    return rearrangement_pipeline(series, config["depth"], horizon)


def _limsup(series, config, horizon):
    return limsup_subseries(series, config["depth"], horizon)


def _nowhere_dense_subseq(series, config, horizon):
    stream = provision_candidate_stream(series, horizon)
    base = SubseqStem.from_values([1])
    return nowhere_dense_witness_subseq(series, stream, config["m"], base, horizon)


def _nowhere_dense_rearr(series, config, horizon):
    m = config["m"]
    stream = provision_candidate_stream(series, horizon)
    p_prime = rearrangement_pipeline(series, m + 1, horizon, stream=stream).stem
    return nowhere_dense_witness_rearr(series, p_prime, m, RearrStem.from_values([1]), horizon)


def _dense_open_bm(series, config, horizon):
    m = config["m"]
    seq = SEQUENCES[config["talagrand"]]()
    stream = provision_candidate_stream(series, horizon)
    if len(stream) < m + 2:
        raise ScanExhausted("dense-open-Bm", _TOO_FEW_CANDIDATES, horizon)
    base = stream.prefix(m + 1)
    return dense_open_witness_Bm(series, seq, stream, m, base, horizon)


def _dense_open_cm(series, config, horizon):
    m = config["m"]
    seq = SEQUENCES[config["talagrand"]]()
    r = max(m + 1, 4)
    stream = provision_candidate_stream(series, horizon)
    if len(stream) < r:
        raise ScanExhausted("dense-open-Cm", _TOO_FEW_CANDIDATES, horizon)
    base = RearrStem.from_values(stream.to_numpy(r))
    t = rearrangement_pipeline(series, m + 1, horizon, stream=stream).stem
    return dense_open_witness_Cm(series, seq, t, m, base, horizon)


def _dense_open_am(series, config, horizon):
    seq = SEQUENCES[config["talagrand"]]()
    stream = provision_candidate_stream(series, horizon)
    return dense_open_witness_Am(series, seq, stream, config["m"], SelectionStem(), horizon)


def _i_bounded(series, config, horizon):
    seq = SEQUENCES[config["talagrand"]]()
    indexer = SelectionStem.ones(horizon)
    verdict = i_bounded_verdict(
        series, indexer, seq, float(config["M"]), horizon, config["threshold"]
    )
    return verdict, indexer


def _ideal_sequence(config) -> str:
    """i-bounded's default interval sequence is the one its ideal names."""
    return IDEALS[config["ideal"]]().label


_M = {"m": 1}
_DENSE_OPEN = {"m": 1, "talagrand": "geometric"}

REGISTRY: dict[str, Construction] = {
    "grow-subseries": Construction("witness", {"target": 2.0}, _grow),
    "rearrangement": Construction("witness", {"depth": 3}, _rearrangement),
    "nowhere-dense-subseq": Construction("witness", _M, _nowhere_dense_subseq),
    "nowhere-dense-rearr": Construction("witness", _M, _nowhere_dense_rearr),
    "dense-open-bm": Construction("witness", _DENSE_OPEN, _dense_open_bm),
    "dense-open-cm": Construction("witness", _DENSE_OPEN, _dense_open_cm),
    "dense-open-am": Construction("witness", _DENSE_OPEN, _dense_open_am),
    "limsup-subseries": Construction("witness", {"depth": 4}, _limsup),
    "i-bounded": Construction(
        "verdict",
        {"M": None, "ideal": "fin", "threshold": DEFAULT_EVIDENCE_THRESHOLD,
         "talagrand": _ideal_sequence},
        _i_bounded,
    ),
}

CONSTRUCTIONS = tuple(REGISTRY)

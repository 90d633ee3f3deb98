"""Self-contained JSON certificate documents and their re-verification.

A document carries everything needed to recheck it against the catalog:
the run configuration, the stem (run-length encoded, so multi-million
entry stems stay small), every checked inequality, and the verdict or
exhaustion outcome.  Floats are serialized with Python's shortest
round-tripping decimal form, so reloading reproduces them bit for bit
and byte-identical payloads mean identical runs.
"""

from __future__ import annotations

import json
import math
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

from .ideals import (
    BoundednessVerdict,
    TalagrandSequence,
    exceedance_report,
    verdict_status,
)
from .runners import execute_config, resolve_config
from .series import catalog_series, partial_sums
from .stems import (
    IndexerStem,
    RearrStem,
    SelectionStem,
    SubseqStem,
    compress_values,
)
from .witnesses import (
    CheckpointColumns,
    ScanExhausted,
    WitnessCertificate,
    verify_certificate,
)

SCHEMA_VERSION = "1"


class SchemaMismatch(ValueError):
    """Document schema version is not the one this build understands."""


class DocumentError(ValueError):
    """A document is not an object, or one of its fields is missing or ill-typed."""


# ---------------------------------------------------------------------------
# stem serialization


class _BadStemField(ValueError):
    """A field of a stem document is out of shape.  args are its path below
    the stem (`segments[i]`, `rle`) and what is wrong with it."""


def _bits_to_rle(bits: np.ndarray | tuple[int, ...]) -> list[list[int]]:
    word = np.asarray(bits, dtype=np.int64)
    starts = np.flatnonzero(np.r_[True, word[1:] != word[:-1]]) if word.size else word
    counts = np.diff(np.r_[starts, word.size])
    return np.column_stack((word[starts], counts)).tolist()


# The longest 0-1 word a document may carry.  A word is expanded letter by
# letter into an int64 array, so its length is checked against this budget
# before anything of that length is allocated.
_MAX_WORD_LETTERS = 1 << 26


def _bits_from_rle(rle: list[list[int]]) -> np.ndarray:
    if type(rle) is list and set(map(type, rle)) == {list} and set(map(len, rle)) == {2}:
        # the usual list of pairs, read in one pass without nested lists
        pairs = np.fromiter(chain.from_iterable(rle), np.int64, 2 * len(rle)).reshape(-1, 2)
    else:
        pairs = np.array(rle, dtype=np.int64).reshape(len(rle), 2)
    counts = np.maximum(pairs[:, 1], 0)
    # each count is checked first, so the sum cannot wrap around
    if counts.max(initial=0) > _MAX_WORD_LETTERS or counts.sum() > _MAX_WORD_LETTERS:
        raise _BadStemField("rle", f"spells a word longer than {_MAX_WORD_LETTERS} letters")
    return np.repeat(pairs[:, 0], counts)


def stem_to_json(stem: IndexerStem) -> dict[str, Any]:
    if isinstance(stem, SelectionStem):
        return {"kind": "selection", "rle": _bits_to_rle(stem.to_numpy())}
    kind = "subseq" if isinstance(stem, SubseqStem) else "rearr"
    return {
        "kind": kind,
        "segments": stem.runs.tolist(),
    }


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_SEGMENT = "is not three ints inside int64 with a count >= 1 and a last value inside int64"
# what a segment that is not a list of three ints is screened as: no run
_NO_RUN = [1, 1, 0]


def _segment_table(segments: Any) -> np.ndarray:
    """Stem segments as one (k, 3) int64 run table, screened as columns of
    Python ints, so nothing wraps: each segment is three ints inside int64
    with a count >= 1 and a last value first + (count - 1) * step inside
    int64.  Raises _BadStemField naming the first segment that is not."""
    if type(segments) is not list:
        raise _BadStemField("segments", "is not a list")
    rows = np.array(
        [s if type(s) is list and len(s) == 3 and type(s[0]) is type(s[1]) is type(s[2]) is int
         else _NO_RUN for s in segments],
        dtype=object,
    ).reshape(-1, 3)
    first, step, count = rows.T
    last = first + (count - 1) * step
    bad = (count < 1) | (last < _INT64_MIN) | (last > _INT64_MAX) \
        | ((rows < _INT64_MIN) | (rows > _INT64_MAX)).any(axis=1)
    if bad.any():
        raise _BadStemField(f"segments[{int(bad.argmax())}]", _SEGMENT)
    return rows.astype(np.int64)


def stem_from_json(data: dict[str, Any]) -> IndexerStem:
    kind = data["kind"]
    if kind == "selection":
        return SelectionStem(_bits_from_rle(data["rle"]))
    runs = _segment_table(data["segments"])
    if kind == "subseq":
        return SubseqStem(runs)
    if kind == "rearr":
        return RearrStem(runs)
    raise ValueError(f"unknown stem kind {kind!r}")


def talagrand_to_json(seq: TalagrandSequence | None) -> dict[str, Any] | None:
    if seq is None:
        return None
    body: dict[str, Any] = {"label": seq.label}
    if seq.label == "explicit":
        body["values"] = list(seq.values)
    return body


def talagrand_from_json(data: dict[str, Any] | None) -> TalagrandSequence | None:
    if data is None:
        return None
    return TalagrandSequence(data["label"], tuple(data.get("values", ())))


# ---------------------------------------------------------------------------
# witness certificates


def _checkpoints_to_json(cps: CheckpointColumns) -> list[dict[str, Any]]:
    """One object per checkpoint, zipped from the columns."""
    rows = zip(cps.position.tolist(), cps.value.tolist(), cps.bound.tolist(),
               cps.relation.tolist(), cps.kind.tolist())
    return [{"position": p, "value": v, "bound": b, "relation": r, "kind": k}
            for p, v, b, r, k in rows]


_RELATIONS = (">", ">=")
_KINDS = ("partial-sum", "term-norm")


def _refuse_first(column: list[Any], field: str, good, what: str) -> None:
    """Raise the DocumentError naming the first checkpoint whose field is
    not good, if there is one."""
    for i, value in enumerate(column):
        if not good(value):
            raise DocumentError(
                f"document field 'result.checkpoints[{i}].{field}' is not {what}"
            )


def _finite_column(column: list[Any], field: str) -> list[float]:
    """The column as floats; every item must be a finite int or float.  A
    NaN or an infinity leaves the sum of the column non-finite, so one sum
    clears the usual column; the items are looked at one by one only when
    it does not (or large finite items overflow it)."""
    types = set(map(type, column))
    if not (types <= {int, float} and math.isfinite(sum(column))):
        _refuse_first(
            column, field, lambda v: type(v) in (int, float) and math.isfinite(v),
            "a finite number",
        )
    return [float(v) for v in column] if int in types else column


def _known_column(column: list[Any], field: str, known: tuple[str, ...]) -> list[str]:
    """The column, whose every item must be one of the known strings."""
    if sum(map(column.count, known)) != len(column):
        _refuse_first(
            column, field, lambda v: type(v) is str and v in known, f"one of {known}"
        )
    return column


def checkpoints_from_json(items: list[dict[str, Any]]) -> CheckpointColumns:
    """The checkpoint columns of their documents, checked column by column:
    a position is an int (not a bool), a value and a bound are finite
    numbers, a relation and a kind are ones the verifier knows.  A bad
    field raises DocumentError naming it."""
    positions = [data["position"] for data in items]
    if not set(map(type, positions)) <= {int}:
        _refuse_first(positions, "position", lambda v: type(v) is int, "an int")
    return CheckpointColumns(
        positions,
        _finite_column([data["value"] for data in items], "value"),
        _finite_column([data["bound"] for data in items], "bound"),
        _known_column([data["relation"] for data in items], "relation", _RELATIONS),
        _known_column([data.get("kind", "partial-sum") for data in items], "kind", _KINDS),
    )


def certificate_to_json(cert: WitnessCertificate) -> dict[str, Any]:
    return _result_json(cert, _checkpoints_to_json(cert.checkpoints))


def _result_json(cert: WitnessCertificate, checkpoints: Any) -> dict[str, Any]:
    """certificate_to_json with `checkpoints` in place of the rows."""
    return {
        "construction": cert.construction,
        "series": cert.series_name,
        "stem": stem_to_json(cert.stem),
        "base": stem_to_json(cert.base) if cert.base is not None else None,
        "checkpoints": checkpoints,
        "interval_index": cert.interval_index,
        "interval": list(cert.interval) if cert.interval else None,
        "talagrand": talagrand_to_json(cert.talagrand),
        "stage_boundaries": list(cert.stage_boundaries),
        "details": {k: v for k, v in cert.details},
    }


def _result_field(data: dict[str, Any], name: str, kinds: tuple[type, ...]) -> Any:
    """data[name] (None if absent) if it is one of kinds, else a
    DocumentError naming the field; no bool passes for an int."""
    value = data.get(name)
    if not isinstance(value, kinds) or isinstance(value, bool):
        names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        raise DocumentError(f"document field 'result.{name}' is missing or not {names}")
    return value


def _integers(values: list[Any], name: str) -> tuple[int, ...]:
    for i, value in enumerate(values):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DocumentError(f"document field 'result.{name}[{i}]' is not an int")
    return tuple(values)


def _decoded(name: str, decode, value: Any) -> Any:
    """decode(value), with its failure turned into a DocumentError naming
    the field."""
    try:
        return decode(value)
    except DocumentError:
        raise
    except _BadStemField as exc:
        path, what = exc.args
        raise DocumentError(f"document field 'result.{name}.{path}' {what}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DocumentError(
            f"document field 'result.{name}' is malformed: {detail}"
        ) from None


def certificate_from_json(data: dict[str, Any]) -> WitnessCertificate:
    """The certificate of a witness document's result.  Every field is
    checked before use; a missing or ill-typed one raises DocumentError."""
    null = type(None)
    interval = _result_field(data, "interval", (list, null))
    if interval is not None and len(_integers(interval, "interval")) != 2:
        raise DocumentError("document field 'result.interval' is not a pair")
    base = _result_field(data, "base", (dict, null))
    talagrand = _result_field(data, "talagrand", (dict, null))
    return WitnessCertificate(
        construction=_result_field(data, "construction", (str,)),
        series_name=_result_field(data, "series", (str,)),
        stem=_decoded("stem", stem_from_json, _result_field(data, "stem", (dict,))),
        checkpoints=_decoded(
            "checkpoints", checkpoints_from_json, _result_field(data, "checkpoints", (list,))
        ),
        base=_decoded("base", stem_from_json, base) if base else None,
        interval_index=_result_field(data, "interval_index", (int, null)),
        interval=tuple(interval) if interval else None,
        talagrand=_decoded("talagrand", talagrand_from_json, talagrand),
        stage_boundaries=_integers(
            _result_field(data, "stage_boundaries", (list, null)) or [], "stage_boundaries"
        ),
        details=tuple(sorted((_result_field(data, "details", (dict, null)) or {}).items())),
    )


# ---------------------------------------------------------------------------
# documents


def _document(kind: str, config: dict[str, Any], result: dict[str, Any],
              seconds: float) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config,
        "result": result,
        "timing": {"seconds": seconds},
    }


def document_for_certificate(
    cert: WitnessCertificate, config: dict[str, Any], seconds: float = 0.0
) -> dict[str, Any]:
    return _document("witness", config, certificate_to_json(cert), seconds)


def document_for_exhaustion(
    exc: Exception, config: dict[str, Any], seconds: float = 0.0
) -> dict[str, Any]:
    result = {
        "construction": getattr(exc, "construction", config.get("construction")),
        "series": config.get("series"),
        "reason": getattr(exc, "reason", str(exc)),
        "horizon": getattr(exc, "horizon", None),
        "best": getattr(exc, "best", None),
    }
    return _document("exhaustion", config, result, seconds)


def _exceed_runs(positions: np.ndarray) -> list[list[int]]:
    return compress_values(positions).tolist()


def document_for_verdict(
    verdict: BoundednessVerdict,
    indexer: IndexerStem,
    config: dict[str, Any],
    seconds: float = 0.0,
) -> dict[str, Any]:
    """The verdict's document; its ideal and threshold are the resolved
    config's."""
    result = {
        "series": config.get("series"),
        "indexer": stem_to_json(indexer),
        "ideal": config["ideal"],
        "talagrand": talagrand_to_json(verdict.report.talagrand),
        "bound": verdict.bound,
        "horizon": verdict.horizon,
        "threshold": config["threshold"],
        "status": verdict.status,
        "interval_count": verdict.interval_count,
        "contained_intervals": verdict.report.contained_intervals.tolist(),
        "exceed_runs": _exceed_runs(verdict.report.exceed_positions),
    }
    return _document("verdict", config, result, seconds)


def dumps_document(doc: dict[str, Any]) -> str:
    """One line of compact JSON with sorted keys; without an indent the
    standard library takes its C encoder.  A document is a tree, never a
    cycle, so the encoder skips its cycle check (one dict entry per
    container, about a tenth of its time on a long checkpoint list)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def payload_without_timing(doc: dict[str, Any]) -> str:
    """The document without `timing`, as dumps_document spells it: the
    canonical text that payload digests are taken of."""
    return dumps_document({k: v for k, v in doc.items() if k != "timing"})


_ROWS_MARK = "\x00checkpoints"  # holds the checkpoints' place in certificate_text


def certificate_text(cert: WitnessCertificate, config: dict, seconds: float = 0.0) -> str:
    """dumps_document(document_for_certificate(cert, config, seconds)), byte
    for byte, with the checkpoints spelled from their columns and no object
    made per checkpoint.  The rest is one call to the C encoder, with a
    marker where the checkpoints go."""
    doc = _document("witness", config, _result_json(cert, _ROWS_MARK), seconds)
    head, *tail = dumps_document(doc).split(encode_basestring_ascii(_ROWS_MARK))
    if len(tail) != 1:  # another field spells the marker as well
        return dumps_document(document_for_certificate(cert, config, seconds))
    return head + "[" + _checkpoint_rows(cert.checkpoints) + "]" + tail[0]


def _checkpoint_rows(cps: CheckpointColumns) -> str:
    """The checkpoints' objects as dumps_document spells them, joined by
    commas; a column of one text is folded into the fixed text of the row."""
    return _interleave(
        ['{"bound":', _spelled(cps.bound), ',"kind":', _spelled(cps.kind),
         ',"position":', list(map(int.__repr__, cps.position.tolist())),
         ',"relation":', _spelled(cps.relation), ',"value":', _spelled(cps.value), "}"],
        ",", len(cps),
    )


# how the json module spells the floats that JSON has no number for
_NOT_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _spelled(column: np.ndarray) -> str | list[str]:
    """The texts of a float or str column, or its one text: each float bit
    pattern (0.0 and -0.0 differ) or str once, strs through a dict."""
    if column.dtype == object:
        keys = column.tolist()
        texts = {key: encode_basestring_ascii(key) for key in set(keys)}
    else:
        bits, which = np.unique(column.view(np.int64), return_inverse=True)
        floats, keys = bits.view(np.float64), which.tolist()
        texts = {i: _NOT_FINITE.get(text, text)
                 for i, text in enumerate(map(float.__repr__, floats.tolist()))}
    return [*texts.values()][0] if len(texts) == 1 else list(map(texts.__getitem__, keys))


def _interleave(parts: Sequence[str | list[str]], separator: str, count: int) -> str:
    """`count` rows joined by `separator` in one join.  Row i concatenates
    the parts: a str is fixed text, a list holds each row's own text.  A
    lone list is joined once, with the fixed text on both sides."""
    pieces: list[str | list[str]] = []
    for fixed, group in groupby(parts, key=lambda part: isinstance(part, str)):
        pieces += ["".join(group)] if fixed else group
    lists = [i for i, piece in enumerate(pieces) if not isinstance(piece, str)]
    if len(lists) == 1 and count:
        (at,) = lists
        head, tail = "".join(pieces[:at]), "".join(pieces[at + 1:])
        return head + (tail + separator + head).join(pieces[at]) + tail
    rows = [repeat(piece) if isinstance(piece, str) else piece for piece in pieces]
    # a list ends the zip after `count` rows, even when every part is fixed
    rows.append([separator] * count)
    return "".join(chain.from_iterable(zip(*rows)))[: -len(separator)]


def write_document(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(doc))


def load_document(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# verification


def _check_schema(doc: dict[str, Any]) -> None:
    if not isinstance(doc, dict):
        raise DocumentError(f"a document is a JSON object, not {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"document schema version {version!r}, expected {SCHEMA_VERSION!r}"
        )
    for name, kind in (("kind", str), ("config", dict), ("result", dict)):
        if not isinstance(doc.get(name), kind):
            raise DocumentError(f"document field {name!r} is missing or not a {kind.__name__}")


def _verify_verdict(doc: dict[str, Any]) -> list[str]:
    """Recompute a verdict document.  Every result field is checked before
    use, as in certificate_from_json; a missing or ill-typed one raises
    DocumentError."""
    result = doc["result"]
    series = catalog_series(_result_field(result, "series", (str,)))
    indexer = _decoded("indexer", stem_from_json, _result_field(result, "indexer", (dict,)))
    _result_field(result, "ideal", (str,))
    seq = _decoded("talagrand", talagrand_from_json, _result_field(result, "talagrand", (dict,)))
    horizon = _result_field(result, "horizon", (int,))
    bound = float(_result_field(result, "bound", (int, float)))
    threshold = _result_field(result, "threshold", (int,))
    recorded_status = _result_field(result, "status", (str,))
    interval_count = _result_field(result, "interval_count", (int,))
    contained = _result_field(result, "contained_intervals", (list,))
    exceed_runs = _result_field(result, "exceed_runs", (list,))
    trace = partial_sums(series, indexer, horizon)
    report = exceedance_report(trace, bound, seq)
    issues: list[str] = []
    if _exceed_runs(report.exceed_positions) != exceed_runs:
        issues.append("exceedance set does not recompute")
    recomputed = report.contained_intervals.tolist()
    if recomputed != contained:
        more = f" and {len(recomputed) - 5} more" if len(recomputed) > 5 else ""
        issues.append(f"contained intervals recompute to {recomputed[:5]}{more}")
    status = verdict_status(report, threshold)
    if status != recorded_status:
        issues.append(f"verdict status recomputes to {status!r}")
    if report.interval_count != interval_count:
        issues.append(f"interval count recomputes to {report.interval_count}")
    return issues


def _replay_exhaustion(doc: dict[str, Any]) -> list[str]:
    """Run an exhaustion document's configuration again: the search must
    come up empty with the recorded result, every field of it."""
    config = resolve_config(doc["config"])
    try:
        execute_config(config)
    except ScanExhausted as exc:
        replayed, recorded = document_for_exhaustion(exc, config)["result"], doc["result"]
        shared = replayed.keys() & recorded
        for field in (*replayed, *recorded):
            if field not in shared or replayed[field] != recorded[field]:
                return [f"exhaustion result field {field!r} replays as "
                        f"{replayed.get(field)!r}, recorded {recorded.get(field)!r}"]
        return []
    return ["recorded as exhausted, but the construction now succeeds"]


def verify_document(doc: dict[str, Any], rerun_exhaustion: bool = True) -> list[str]:
    """Recompute a loaded document against the catalog: a witness is decoded
    and checked by verify_certificate, as `run` checks the one it holds.

    Returns discrepancies; raises SchemaMismatch for foreign documents and
    DocumentError for a missing or ill-typed top-level field.  Exhaustion
    documents are replayed, and the replay must reproduce the recorded
    result.  The result's series must be the configured one.
    """
    _check_schema(doc)
    kind = doc.get("kind")
    if kind == "witness":
        issues = verify_certificate(certificate_from_json(doc["result"]))
    elif kind == "verdict":
        issues = _verify_verdict(doc)
    elif kind == "exhaustion":
        if not rerun_exhaustion:
            return []
        issues = _replay_exhaustion(doc)
    else:
        return [f"unknown document kind {kind!r}"]
    series, configured = doc["result"].get("series"), doc["config"].get("series")
    if series != configured:
        issues.append(f"result series {series!r} is not the configured series {configured!r}")
    return issues

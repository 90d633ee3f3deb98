import copy
import dataclasses
import json
import math
import pathlib
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from serieswitness import (
    RearrStem,
    SelectionStem,
    SubseqStem,
    rearrangement_pipeline,
)
from serieswitness import certificates, cli
from serieswitness.certificates import (
    SchemaMismatch,
    _bits_from_rle,
    _bits_to_rle,
    certificate_from_json,
    certificate_text,
    certificate_to_json,
    document_for_certificate,
    dumps_document,
    load_document,
    payload_without_timing,
    stem_from_json,
    stem_to_json,
    verify_document,
    write_document,
)
from serieswitness.cli import main
from serieswitness.runners import execute_config, resolve_config
from serieswitness.series import catalog_series, norms_at
from serieswitness.spaces import DELTA
from serieswitness.witnesses import (
    Checkpoint,
    CheckpointColumns,
    WitnessCertificate,
    verify_certificate,
)


def _witness_doc(tmp_path, config):
    config = resolve_config(config)
    kind, cert = execute_config(config)
    assert kind == "witness"
    doc = document_for_certificate(cert, config, seconds=0.0)
    path = tmp_path / "cert.json"
    write_document(doc, str(path))
    return doc, path


def test_stem_serialization_roundtrip():
    for stem in [
        SubseqStem.arithmetic(2, 2, 1000),
        SubseqStem.from_values((1, 4, 9, 16, 25)),
        RearrStem.from_values((5, 1, 2, 3, 4)),
        SelectionStem([1, 0, 0, 1, 0, 0, 0, 0, 1, 1]),
        SelectionStem(),
        SubseqStem(()),
    ]:
        data = json.loads(json.dumps(stem_to_json(stem)))
        back = stem_from_json(data)
        assert back == stem


def test_certificate_roundtrip(growing):
    cert = rearrangement_pipeline(growing, 2, 1000)
    data = json.loads(json.dumps(certificate_to_json(cert)))
    back = certificate_from_json(data)
    assert back.stem == cert.stem
    assert back.checkpoints == cert.checkpoints
    assert back.stage_boundaries == cert.stage_boundaries
    assert back.construction == cert.construction


def test_float_values_survive_roundtrip(alt):
    cert = rearrangement_pipeline(alt, 2)
    data = json.loads(json.dumps(certificate_to_json(cert)))
    back = certificate_from_json(data)
    for original, reloaded in zip(cert.checkpoints, back.checkpoints):
        assert original.value == reloaded.value  # bit-exact


def test_document_roundtrip_verifies(tmp_path):
    doc, path = _witness_doc(
        tmp_path,
        {"series": "growing-real", "construction": "rearrangement",
         "depth": 2, "horizon": 1000},
    )
    loaded = load_document(str(path))
    assert verify_document(loaded) == []


def test_fault_injection_every_checkpoint(tmp_path):
    doc, _ = _witness_doc(
        tmp_path,
        {"series": "growing-real", "construction": "rearrangement",
         "depth": 2, "horizon": 1000},
    )
    for i, cp in enumerate(doc["result"]["checkpoints"]):
        hacked = copy.deepcopy(doc)
        hacked["result"]["checkpoints"][i]["value"] = cp["value"] + 0.1
        issues = verify_document(hacked)
        assert issues, "perturbed checkpoint must be caught"
        assert f"position {cp['position']}" in issues[0]


def test_schema_mismatch(tmp_path):
    doc, path = _witness_doc(
        tmp_path,
        {"series": "growing-real", "construction": "limsup-subseries",
         "depth": 2, "horizon": 1000},
    )
    stale = dict(doc)
    stale["schema_version"] = "0"
    with pytest.raises(SchemaMismatch):
        verify_document(stale)


def test_determinism_modulo_timing():
    config = {
        "series": "alt-harmonic",
        "construction": "grow-subseries",
        "target": 3.0,
        "horizon": 10**6,
    }
    docs = []
    for _ in range(2):
        resolved = resolve_config(dict(config))
        kind, cert = execute_config(resolved)
        docs.append(document_for_certificate(cert, resolved, seconds=0.0))
    docs[1]["timing"]["seconds"] = 123.0
    assert payload_without_timing(docs[0]) == payload_without_timing(docs[1])
    assert dumps_document(docs[0]) != dumps_document(docs[1])


def test_verdict_document_roundtrip(tmp_path):
    from serieswitness.certificates import document_for_verdict

    config = resolve_config(
        {
            "series": "unit-basis-c0",
            "construction": "i-bounded",
            "M": 0.5,
            "ideal": "density",
            "horizon": 64,
        }
    )
    kind, payload = execute_config(config)
    assert kind == "verdict"
    verdict, indexer = payload
    doc = document_for_verdict(verdict, indexer, config)
    path = tmp_path / "verdict.json"
    write_document(doc, str(path))
    loaded = load_document(str(path))
    assert verify_document(loaded) == []
    assert loaded["result"]["status"] == "i-unbounded-evidence"
    assert loaded["result"]["contained_intervals"] == [1, 2, 3, 4, 5]


def test_verdict_document_tampering(tmp_path):
    from serieswitness.certificates import document_for_verdict

    config = resolve_config(
        {
            "series": "unit-basis-c0",
            "construction": "i-bounded",
            "M": 0.5,
            "ideal": "density",
            "horizon": 64,
        }
    )
    _, payload = execute_config(config)
    verdict, indexer = payload
    doc = document_for_verdict(verdict, indexer, config)
    doc["result"]["interval_count"] = 7
    assert verify_document(doc)


def test_exhaustion_document_reruns(tmp_path):
    from serieswitness.certificates import document_for_exhaustion
    from serieswitness.witnesses import ScanExhausted

    config = resolve_config(
        {
            "series": "unit-basis-c0",
            "construction": "grow-subseries",
            "target": 2.0,
            "horizon": 500,
        }
    )
    with pytest.raises(ScanExhausted) as info:
        execute_config(config)
    doc = document_for_exhaustion(info.value, config)
    assert verify_document(doc) == []
    lying = copy.deepcopy(doc)
    lying["config"]["series"] = "alt-harmonic"
    lying["config"]["horizon"] = 10**6
    assert verify_document(lying)


# ---------------------------------------------------------------------------
# the document layer against the per-bit and per-checkpoint loops it replaced

DATA = pathlib.Path(__file__).parent / "data"
AM_CONFIG = {"series": "alt-harmonic", "construction": "dense-open-am", "m": 2,
             "horizon": 20000}


def reference_bits_to_rle(bits):
    out = []
    for b in bits:
        if out and out[-1][0] == b:
            out[-1][1] += 1
        else:
            out.append([b, 1])
    return out


def reference_stem_from_json(data):
    """The per-segment loop stem_from_json once fell back to: it names the
    first segment out of shape and leaves the rest to the stem."""
    for i, segment in enumerate(data["segments"]):
        if not (type(segment) is list and len(segment) == 3
                and all(type(v) is int for v in segment)):
            raise ValueError(f"segments[{i}]")
        start, step, count = segment
        last = start + (count - 1) * step
        if count < 1 or not all(-(2**63) <= v < 2**63 for v in (*segment, last)):
            raise ValueError(f"segments[{i}]")
    return (SubseqStem if data["kind"] == "subseq" else RearrStem)(data["segments"])


_segment_values = (st.integers(-3, 40) | st.sampled_from([2**31, -(2**31), 2**62, 2**63 - 1,
                                                          2**63, 10**30]))
_segments = st.lists(
    st.lists(_segment_values, min_size=3, max_size=3)
    | st.lists(st.integers(1, 9), min_size=2, max_size=4)
    | st.tuples(st.integers(1, 9), st.integers(1, 3), st.integers(1, 3))
    | st.lists(st.sampled_from([True, 1.5, "1", None, 3]), min_size=3, max_size=3),
    max_size=6,
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["subseq", "rearr"]), _segments)
@example("rearr", [[3, -2, 3]])
@example("rearr", [[5, 0, 1]])
@example("subseq", [[2, 1, 2], [4, 2**31, 0]])
@example("rearr", [[2**63 - 1, -(2**62), 3]])
@example("subseq", [[2**62, 2**31, 2**31]])
@example("subseq", [[2**62, 2**32, 2**31]])
@example("rearr", [[1, 2**40, 2**40]])
@example("subseq", [[5, 2**70, 1]])
@example("subseq", [[1, 1, 2], [5, 1, 1], [7, True, 2]])
@example("rearr", [[1, 1, 2], [5, 1, 1], [7, 1.0, 2], [20, 1, 1]])
@example("subseq", [[1, 2**31, 2], [2**62 + 5, 1, 3]])
@example("rearr", [[5, 0, 1], [2, 1, None]])
def test_stem_segments_decode_as_the_loop_does(kind, segments):
    data = {"kind": kind, "segments": segments}
    try:
        expected = reference_stem_from_json(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            stem_from_json(data)
        # a segment out of shape is named; the stem speaks for the others
        assert str(raised.value.args[0]) == str(exc.args[0])
    else:
        got = stem_from_json(data)
        assert type(got) is type(expected)
        assert got.runs.dtype == np.int64 and got.runs.tolist() == segments


def test_large_segment_values_decode_into_the_run_table():
    huge = 2**62 + 5
    stem = stem_from_json({"kind": "subseq", "segments": [[1, 2**31, 2], [huge, 1, 3]]})
    assert stem.runs.tolist() == [[1, 2**31, 2], [huge, 1, 3]]
    assert not stem.runs.flags.writeable


def reference_bits_from_rle(rle):
    bits = []
    for b, count in rle:
        bits.extend([int(b)] * int(count))
    return tuple(bits)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=300))
def test_bits_to_rle_matches_the_loop(bits):
    rle = _bits_to_rle(tuple(bits))
    assert rle == reference_bits_to_rle(tuple(bits))
    assert all(type(x) is int for pair in rle for x in pair)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 40)), max_size=30))
def test_bits_from_rle_matches_the_loop(pairs):
    rle = [list(pair) for pair in pairs]
    assert tuple(_bits_from_rle(rle).tolist()) == reference_bits_from_rle(rle)


def test_documents_are_one_line_of_json(tmp_path):
    doc, path = _witness_doc(tmp_path, AM_CONFIG)
    text = dumps_document(doc)
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == doc
    assert path.read_text(encoding="utf-8") == text


def test_an_indented_document_still_verifies(tmp_path, capsys):
    # written with the earlier `indent=2` encoder; the payload is unchanged
    path = DATA / "dense_open_am_indented.json"
    assert path.read_text(encoding="utf-8").count("\n") > 100
    assert main(["verify", str(path)]) == 0
    doc, _ = _witness_doc(tmp_path, AM_CONFIG)
    assert payload_without_timing(load_document(str(path))) == payload_without_timing(doc)


def reference_checkpoint_issues(cert, series):
    """Interval coverage and the per-checkpoint loops, over Checkpoint rows,
    as verify_certificate ran them before it read the checkpoint columns."""
    def holds(value, bound, relation):
        return value > bound + DELTA if relation == ">" else value >= bound - DELTA

    if any(not -(2**63) <= c.position < 2**63 for c in cert.checkpoints):
        return ["checkpoint position outside the 64-bit range"]
    issues = []
    if cert.interval is not None:
        lo, hi = cert.interval
        covered = {c.position for c in cert.checkpoints if c.kind == "partial-sum"}
        missing = [j for j in range(lo, hi) if j not in covered]
        if missing:
            issues.append(f"interval [{lo}, {hi}) misses checkpoints at {missing[:5]}")
    sum_cps = [c for c in cert.checkpoints if c.kind == "partial-sum"]
    order = sorted(range(len(sum_cps)), key=lambda i: sum_cps[i].position)
    try:
        values = norms_at(series, cert.stem, [sum_cps[i].position for i in order])
    except ValueError as exc:
        issues.append(f"cannot recompute partial sums: {exc}")
        order = []
    for rank, i in enumerate(order):
        cp = sum_cps[i]
        recomputed = float(values[rank])
        if abs(recomputed - cp.value) > DELTA:
            issues.append(
                f"checkpoint at position {cp.position}: recorded norm "
                f"{cp.value!r} but recomputed {recomputed!r}"
            )
        elif not holds(recomputed, cp.bound, cp.relation):
            issues.append(
                f"checkpoint at position {cp.position}: norm {recomputed!r} "
                f"fails {cp.relation} {cp.bound!r}"
            )
    for cp in cert.checkpoints:
        if cp.kind != "term-norm":
            continue
        try:
            index = cert.stem.value_at(cp.position)
        except IndexError:
            issues.append(f"term checkpoint at position {cp.position} is off-stem")
            continue
        recomputed = float(series.term_norms(np.array([index]))[0])
        if abs(recomputed - cp.value) > DELTA:
            issues.append(
                f"term checkpoint at position {cp.position}: recorded "
                f"{cp.value!r} but recomputed {recomputed!r}"
            )
        elif not holds(recomputed, cp.bound, cp.relation):
            issues.append(
                f"term checkpoint at position {cp.position}: {recomputed!r} "
                f"fails {cp.relation} {cp.bound!r}"
            )
    return issues


def _tamperings(cps):
    cps = list(cps)
    yield "value", [cp._replace(value=cp.value + 1e-6) if i % 7 == 3 else cp
                    for i, cp in enumerate(cps)]
    yield "bound", [cp._replace(bound=cp.value + 0.5) if i % 5 == 1 else cp
                    for i, cp in enumerate(cps)]
    yield "dropped", [cp for i, cp in enumerate(cps) if i not in (0, 9, 10, 11, 40)]
    yield "mixed", list(reversed([
        cp._replace(value=cp.value - 1.0) if i % 2 else cp._replace(bound=cp.bound + 9.0)
        for i, cp in enumerate(cps) if i % 3
    ])) + [cps[4], cps[4]._replace(value=0.0)]
    yield "off-stem", cps + [cp._replace(position=10**9) for cp in cps[-2:]]
    yield "past int64", [cps[0]._replace(position=-(2**63) - 1)] + cps[1:]


# limsup-subseries certificates carry term-norm rows; rearrangement ones
# carry >= relations
@pytest.mark.parametrize("config", [
    {**AM_CONFIG, "construction": "dense-open-am"},
    {**AM_CONFIG, "construction": "dense-open-bm"},
    {"series": "growing-real", "construction": "limsup-subseries", "depth": 9,
     "horizon": 10**6},
    {"series": "growing-real", "construction": "rearrangement", "depth": 9,
     "horizon": 10**6},
], ids=lambda config: config["construction"])
def test_tampered_checkpoints_give_the_loops_issues(config):
    _, cert = execute_config(resolve_config(config))
    series = catalog_series(cert.series_name)
    assert len(cert.checkpoints) > 5
    assert verify_certificate(cert) == reference_checkpoint_issues(cert, series) == []
    for what, cps in _tamperings(cert.checkpoints):
        tampered = dataclasses.replace(cert, checkpoints=tuple(cps))
        issues = verify_certificate(tampered)
        # without an interval, no position needs a checkpoint
        assert issues or (what == "dropped" and cert.interval is None), what
        assert issues == reference_checkpoint_issues(tampered, series), what


def test_a_position_past_64_bits_is_an_issue_not_a_crash():
    _, cert = execute_config(resolve_config(AM_CONFIG))
    huge = cert.checkpoints[0]._replace(position=2**70)
    tampered = dataclasses.replace(cert, checkpoints=(huge, *cert.checkpoints[1:]))
    assert verify_certificate(tampered) == ["checkpoint position outside the 64-bit range"]


def test_a_huge_interval_reports_its_first_missing_positions():
    _, cert = execute_config(resolve_config(AM_CONFIG))
    lo, _ = cert.interval
    tampered = dataclasses.replace(cert, interval=(lo, 10**15), talagrand=None)
    assert verify_certificate(tampered)[0] == (
        f"interval [{lo}, {10**15}) misses checkpoints at {list(range(2 * lo, 2 * lo + 5))}"
    )


def test_a_huge_stage_boundary_is_checked_without_a_mask():
    # The identity on {1..10^15} as one run: a bijection check that
    # allocated by length could not run at all.
    size = 10**15
    stem = RearrStem(((1, 1, size),))
    series = catalog_series("alt-harmonic")
    values = norms_at(series, stem, [1, 3])
    cert = WitnessCertificate(
        construction="rearrangement",
        series_name=series.name,
        stem=stem,
        checkpoints=(
            Checkpoint(1, float(values[0]), 1.0, ">="),
            Checkpoint(3, float(values[1]), 0.5, ">"),
        ),
        stage_boundaries=(size,),
        details=(("depth", 1),),
    )
    doc = json.loads(dumps_document(document_for_certificate(
        cert, {"series": series.name, "construction": "rearrangement", "depth": 1}
    )))
    past = copy.deepcopy(doc)
    past["result"]["stage_boundaries"] = [size + 1, -1]
    tracemalloc.start()
    try:
        assert verify_document(doc) == []
        assert verify_document(past) == [
            f"prefix of length {size + 1} is not a bijection of an initial segment",
            "prefix of length -1 is not a bijection of an initial segment",
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# the payload digest's text


def test_run_and_verify_build_no_checkpoint_rows(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a checkpoint row was built")

    monkeypatch.setattr(CheckpointColumns, "__iter__", refuse)
    monkeypatch.setattr(CheckpointColumns, "__getitem__", refuse)
    path = tmp_path / "am.json"
    assert main(["run", "--series", "alt-harmonic", "--construction", "dense-open-am",
                 "--m", "3", "--horizon", "20000", "--out", str(path)]) == 0
    assert len(load_document(str(path))["result"]["checkpoints"]) == 512
    assert main(["verify", str(path)]) == 0


def _stdlib_payload(doc):
    trimmed = {k: v for k, v in doc.items() if k != "timing"}
    return json.dumps(trimmed, sort_keys=True, indent=2) + "\n"


def _outcome(encode, doc):
    """The text, or the type of the error the encoder raises."""
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


_texts = st.text(max_size=6) | st.sampled_from(
    ["%", "%s", "%%d", "é", "ŝ😀", " ", "\x00", '"', "\\", "NaN", "inf"])
_ints = st.integers() | st.integers(-(2**80), 2**80) | st.booleans()
_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-7, 1e308])
_scalars = st.none() | _ints | _floats | _texts
_keys = _texts | st.sampled_from(["position", "value", "bound", "kind"])


@st.composite
def _rows(draw, values):
    """Lists of dicts with the same keys or of lists of one length, with
    columns of one type or of mixed values; sometimes one row is ragged or
    has a key of its own."""
    width = draw(st.integers(0, 4))
    columns = [draw(st.sampled_from([_ints, _floats, _texts, _scalars, values]))
               for _ in range(width)]
    table = [[draw(column) for column in columns] for _ in range(draw(st.integers(1, 5)))]
    odd = draw(st.integers(0, len(table) - 1))
    if draw(st.booleans()):
        keys = draw(st.lists(_keys, min_size=width, max_size=width, unique=True))
        rows = [dict(zip(keys, row)) for row in table]
        if width and draw(st.booleans()):
            rows[odd][keys[0] + "x"] = rows[odd].pop(keys[0])
        return rows
    if width and draw(st.booleans()):
        table[odd].pop()
    return table


_trees = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_keys, children, max_size=4)
                      | st.dictionaries(_floats | _ints | st.none(), children, max_size=3)
                      | _rows(children)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_trees)
@example({"floats": [math.nan, math.inf, -math.inf, -0.0, 1e16, 0.1],
          "ints": [2**70, -(2**64), 0, True, False, 7]})
@example({"100% é": "ü%s", "rows": [{"%": 1.5, "é": "x"}, {"%": math.nan, "é": "%s"}]})
@example({"empty": [[], {}, [[]], [{}]], "ragged": [[1, 2], [3]],
          "other keys": [{"a": 1}, {"b": 1}], "pairs": [[0, 5], [1, 3]]})
@example({1: "x", 2.5: [True, None], None: {}})
@example({"mixed keys": {1: 0, "1": 0}})
# columns equal under == but not in spelling, a lone varying column, rows
# that are all fixed text
@example({"zeros": [{"a": 0.0, "b": 1, "c": 7}, {"a": -0.0, "b": 1.0, "c": 8},
                    {"a": 0.0, "b": True, "c": 9}],
          "lone": [{"k": "x", "p": 1, "v": 2.5}, {"k": "x", "p": 2, "v": 2.5}],
          "pairs": [[1, 0.0], [1, -0.0]], "fixed": [[3, "s"], [3, "s"]]})
def test_payload_text_is_the_standard_librarys(tree):
    doc = {"schema_version": "1", "result": tree, "timing": {"seconds": 0.25}}
    assert _outcome(payload_without_timing, doc) == _outcome(_stdlib_payload, doc)


# ---------------------------------------------------------------------------
# the witness text that `run` writes


_cell_floats = _floats | st.sampled_from([0.0, -0.0, 1.0])
_cell_texts = st.sampled_from([">", ">=", "partial-sum", "term-norm"]) | _texts
_positions = st.integers(1, 50) | st.integers(-(2**70), 2**70)


@st.composite
def _checkpoint_columns(draw):
    """Columns of 0 to 6 rows, drawn so that some columns repeat one value
    and others mix them."""
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 6))

    def column(items):
        return draw(st.lists(items, min_size=n, max_size=n)
                    | items.map(lambda item: [item] * n))

    return CheckpointColumns(column(_positions), column(_cell_floats), column(_cell_floats),
                             column(_cell_texts), column(_cell_texts))


@settings(max_examples=300, deadline=None)
@given(_checkpoint_columns(), st.dictionaries(_keys, _scalars, max_size=3),
       st.sampled_from([0.0, 0.25, math.nan]))
@example(CheckpointColumns([2**64, 3], [0.0, -0.0], [math.nan, math.inf], ">", "term-norm"),
         {"m": -math.inf}, 0.0)
@example(CheckpointColumns([], [], [], [], []), {}, 0.0)
@example(CheckpointColumns([7], [1.5], [1.0], ">"), {"x": "\x00checkpoints"}, 0.0)
def test_certificate_text_is_the_documents_text(cps, config, seconds):
    cert = WitnessCertificate("dense-open-am", "alt-harmonic",
                              SelectionStem((1, 0, 1)), cps, base=SelectionStem((1,)),
                              interval=(4, 8), stage_boundaries=(2,), details=(("m", 1),))
    expected = _outcome(lambda c: dumps_document(document_for_certificate(*c)),
                        (cert, config, seconds))
    assert _outcome(lambda c: certificate_text(*c), (cert, config, seconds)) == expected


@pytest.mark.parametrize("flags", [
    ["--series", "alt-harmonic", "--construction", "dense-open-am", "--m", "3"],
    ["--series", "alt-harmonic", "--construction", "rearrangement", "--depth", "2"],
    ["--series", "unit-basis-c0", "--construction", "i-bounded", "--M", "0.5"],
    ["--series", "unit-basis-c0", "--construction", "rearrangement"],
])
def test_stdout_and_out_get_the_same_text(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    argv = ["run", *flags, "--horizon", "20000"]
    code = main(argv)
    printed = capsys.readouterr().out
    path = tmp_path / "doc.json"
    assert main([*argv, "--out", str(path)]) == code
    assert path.read_text() == printed
    if json.loads(printed)["kind"] == "witness":
        config = resolve_config(json.loads(printed)["config"])
        cert = execute_config(config)[1]
        assert printed == dumps_document(document_for_certificate(cert, config, 0.0))


def test_run_spells_and_checks_a_witness_without_rows_or_decoding(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("run built a checkpoint row or decoded its document")

    path = tmp_path / "am.json"
    argv = ["--series", "alt-harmonic", "--construction", "dense-open-am",
            "--m", "3", "--horizon", "20000"]
    with monkeypatch.context() as patch:
        patch.setattr(certificates, "_checkpoints_to_json", refuse)
        patch.setattr(certificates, "certificate_from_json", refuse)
        assert main(["run", *argv, "--out", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    config = resolve_config({"series": "alt-harmonic", "construction": "dense-open-am",
                             "m": 3, "horizon": 20000})
    golden = document_for_certificate(execute_config(config)[1], config)
    assert payload_without_timing(load_document(str(path))) == payload_without_timing(golden)

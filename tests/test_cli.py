import argparse
import json
import subprocess
import sys
import types

import pytest

from serieswitness.certificates import (
    DocumentError,
    document_for_certificate,
    document_for_exhaustion,
    document_for_verdict,
    load_document,
    payload_without_timing,
    verify_document,
)
from serieswitness import cli
from serieswitness.cli import _build_parser, main
from serieswitness.runners import PARAMS, execute_config, resolve_config
from serieswitness.witnesses import ScanExhausted

from conftest import traced_peak


def run_cli(args):
    """Invoke the CLI in-process, capturing the exit code."""
    return main(args)


def test_catalog_list(capsys):
    assert run_cli(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("alt-harmonic", "unit-basis-c0", "decaying-signed-c0", "growing-real"):
        assert name in out


def test_run_rearrangement_roundtrip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run_cli(
        [
            "run",
            "--series", "alt-harmonic",
            "--construction", "rearrangement",
            "--depth", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = load_document(str(out))
    assert doc["kind"] == "witness"
    assert len(doc["result"]["checkpoints"]) == 2
    assert run_cli(["verify", str(out)]) == 0


def test_run_exhaustion_exit_2(tmp_path):
    out = tmp_path / "cert.json"
    code = run_cli(
        [
            "run",
            "--series", "unit-basis-c0",
            "--construction", "grow-subseries",
            "--target", "2",
            "--horizon", "2000",
            "--out", str(out),
        ]
    )
    assert code == 2
    doc = load_document(str(out))
    assert doc["kind"] == "exhaustion"
    assert run_cli(["verify", str(out)]) == 0


def test_run_verdict(tmp_path):
    out = tmp_path / "verdict.json"
    code = run_cli(
        [
            "run",
            "--series", "unit-basis-c0",
            "--construction", "i-bounded",
            "--ideal", "density",
            "--M", "0.5",
            "--horizon", "64",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = load_document(str(out))
    assert doc["result"]["status"] == "i-unbounded-evidence"
    assert doc["result"]["interval_count"] == 5
    assert run_cli(["verify", str(out)]) == 0


def test_unknown_series_exit_1(tmp_path):
    code = run_cli(
        ["run", "--series", "nope", "--construction", "grow-subseries"]
    )
    assert code == 1


def test_missing_bound_exit_1():
    code = run_cli(
        ["run", "--series", "unit-basis-c0", "--construction", "i-bounded"]
    )
    assert code == 1


def test_verify_detects_fault(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli(
        [
            "run",
            "--series", "growing-real",
            "--construction", "limsup-subseries",
            "--depth", "3",
            "--horizon", "1000",
            "--out", str(out),
        ]
    ) == 0
    doc = load_document(str(out))
    doc["result"]["checkpoints"][0]["value"] += 0.1
    hacked = tmp_path / "hacked.json"
    with open(hacked, "w") as fh:
        json.dump(doc, fh)
    assert run_cli(["verify", str(hacked)]) == 1


def test_verify_schema_mismatch(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli(
        [
            "run",
            "--series", "growing-real",
            "--construction", "grow-subseries",
            "--target", "5",
            "--horizon", "100",
            "--out", str(out),
        ]
    ) == 0
    doc = load_document(str(out))
    doc["schema_version"] = "99"
    stale = tmp_path / "stale.json"
    with open(stale, "w") as fh:
        json.dump(doc, fh)
    assert run_cli(["verify", str(stale)]) == 1


def _drop(name):
    def edit(doc):
        del doc[name]
        return doc
    return edit


def _set_result(name, value):
    def edit(doc):
        doc["result"][name] = value
        return doc
    return edit


def _drop_result(name):
    def edit(doc):
        del doc["result"][name]
        return doc
    return edit


def _checkpoint(of, **changes):
    """An edit of the first checkpoint of kind `of`: each change maps a
    field to a function of its recorded value."""
    def edit(doc):
        cp = next(cp for cp in doc["result"]["checkpoints"] if cp["kind"] == of)
        cp.update({name: change(cp[name]) for name, change in changes.items()})
        return doc
    return edit


def _replay(**config):
    """The document as an exhaustion report, whose verification replays config."""
    def edit(doc):
        return {**doc, "kind": "exhaustion", "config": config}
    return edit


_AM = {"series": "unit-basis-c0", "construction": "dense-open-am"}


def _made(edit, **config):
    """The document `run` writes for config, in place of the given one,
    with edit applied to it."""
    def build(doc):
        resolved = resolve_config(config)
        try:
            kind, payload = execute_config(resolved)
        except ScanExhausted as exc:
            made = document_for_exhaustion(exc, resolved)
        else:
            made = (document_for_certificate(payload, resolved) if kind == "witness"
                    else document_for_verdict(*payload, resolved))
        edit(made)
        return json.loads(json.dumps(made))
    return build


def _verdict(edit):
    """An i-bounded verdict document in place of the given one, with edit
    applied to its result."""
    return _made(lambda doc: edit(doc["result"]), series="unit-basis-c0",
                 construction="i-bounded", M=0.5, ideal="density", horizon=64)


def _configured(**fields):
    return lambda doc: doc["config"].update(fields)


def _recorded(**fields):
    return lambda doc: doc["result"].update(fields)


_ALT_VERDICT = {"series": "alt-harmonic", "construction": "i-bounded", "M": 0.5,
                "horizon": 1000}
_ALT_GROW = {"series": "alt-harmonic", "construction": "grow-subseries", "target": 2.0,
             "horizon": 1000}
# every term of unit-basis-c0 has norm 1, so the limsup search exhausts
_UNIT_LIMSUP = {"series": "unit-basis-c0", "construction": "limsup-subseries",
                "horizon": 1000}
_NOT_CONFIGURED = "result series 'alt-harmonic' is not the configured series"


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc: [doc], "a document is a JSON object, not list"),
        (_drop("result"), "document field 'result' is missing"),
        (_drop("kind"), "document field 'kind' is missing"),
        (_drop("config"), "document field 'config' is missing"),
        (lambda doc: {**doc, "result": [1]}, "document field 'result' is missing or not"),
        (_set_result("stage_boundaries", [None]), "'result.stage_boundaries[0]'"),
        (_set_result("stage_boundaries", ["x"]), "'result.stage_boundaries[0]'"),
        (_set_result("stage_boundaries", [[1]]), "'result.stage_boundaries[0]'"),
        (_set_result("stage_boundaries", [True]), "'result.stage_boundaries[0]'"),
        (_drop_result("construction"), "'result.construction' is missing"),
        (_drop_result("series"), "'result.series' is missing"),
        (_drop_result("stem"), "'result.stem' is missing"),
        (_set_result("stem", {"kind": "rearr", "segments": [[1, 1, 10**30]]}),
         "'result.stem.segments[0]' is not three ints"),
        (_set_result("stem", {"kind": "rearr", "segments": [[2, 2, 4], [1.5, 1, 3]]}),
         "'result.stem.segments[1]' is not three ints"),
        (_set_result("stem", {"kind": "rearr", "segments": [[True, 1, 3]]}),
         "'result.stem.segments[0]' is not three ints"),
        (_set_result("checkpoints", None), "'result.checkpoints' is missing or not"),
        (_checkpoint("partial-sum", position=lambda p: True), "'result.checkpoints[0].position'"),
        (_checkpoint("partial-sum", bound=lambda b: float("inf")),
         "'result.checkpoints[0].bound' is not a finite number"),
        (_checkpoint("partial-sum", relation=lambda r: ">>"), "'result.checkpoints[0].relation'"),
        (_checkpoint("partial-sum", kind=lambda k: None), "'result.checkpoints[0].kind'"),
        (_checkpoint("partial-sum", value=lambda v: [v]), "'result.checkpoints[0].value'"),
        (_set_result("details", [1, 2]), "'result.details' is missing or not"),
        (_replay(construction="dense-open-am", m=1), "series must be a string, got None"),
        (_replay(**_AM, m="1"), "m must be an integer, got '1'"),
        (_replay(**_AM, horizon=True), "horizon must be an integer, got True"),
        (_replay(**_AM, horizon=0), "horizon must be >= 1"),
        (_verdict(lambda r: r.pop("indexer")), "'result.indexer' is missing or not dict"),
        (_verdict(lambda r: r.pop("exceed_runs")), "'result.exceed_runs' is missing or not"),
        (_verdict(lambda r: r.pop("status")), "'result.status' is missing or not str"),
        (_verdict(lambda r: r.update(threshold=None)), "'result.threshold' is missing or not"),
        (_verdict(lambda r: r.update(horizon="x")), "'result.horizon' is missing or not int"),
        (_verdict(lambda r: r.update(horizon=True)), "'result.horizon' is missing or not int"),
        (_verdict(lambda r: r.update(bound="a")), "'result.bound' is missing or not int or"),
        (_verdict(lambda r: r.update(interval_count=[5])), "'result.interval_count' is"),
        (_verdict(lambda r: r.update(contained_intervals=7)), "'result.contained_intervals'"),
        (_verdict(lambda r: r.update(ideal=None)), "'result.ideal' is missing or not str"),
        (_verdict(lambda r: r.update(series=3)), "'result.series' is missing or not str"),
        (_verdict(lambda r: r.update(indexer={"kind": "selection"})), "'result.indexer' is"),
        (_verdict(lambda r: r.update(talagrand={"label": "x"})), "'result.talagrand' is"),
        (_verdict(lambda r: r.update(talagrand=None)), "'result.talagrand' is missing or not dict"),
        # no count passes the letter budget, but their sum does
        (_verdict(lambda r: r.update(indexer={"kind": "selection",
                                              "rle": [[1, 2**25], [0, 2**25], [1, 1]]})),
         "'result.indexer.rle' spells a word longer than"),
        (_made(_configured(series="growing-real"), **_ALT_VERDICT),
         _NOT_CONFIGURED + " 'growing-real'"),
        (_made(_configured(series="growing-real"), **_ALT_GROW),
         _NOT_CONFIGURED + " 'growing-real'"),
        (_made(_recorded(series="alt-harmonic"), **_UNIT_LIMSUP),
         _NOT_CONFIGURED + " 'unit-basis-c0'"),
        (_made(_recorded(best=5.0), **_UNIT_LIMSUP),
         "exhaustion result field 'best' replays as"),
        (_made(_recorded(horizon=7), **_UNIT_LIMSUP),
         "exhaustion result field 'horizon' replays as 1000, recorded 7"),
        (_made(_recorded(construction="x"), **_UNIT_LIMSUP),
         "exhaustion result field 'construction' replays as 'limsup-subseries'"),
    ],
)
def test_verify_malformed_document_names_the_field(tmp_path, capsys, edit, named):
    out = tmp_path / "cert.json"
    assert run_cli(
        [
            "run",
            "--series", "alt-harmonic",
            "--construction", "rearrangement",
            "--depth", "1",
            "--horizon", "100",
            "--out", str(out),
        ]
    ) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(load_document(str(out)))))
    capsys.readouterr()
    assert run_cli(["verify", str(bad)]) == 1
    assert named in capsys.readouterr().err


_REARRANGEMENT = ["--series", "alt-harmonic", "--construction", "rearrangement",
                  "--depth", "2", "--horizon", "10000"]
_LIMSUP = ["--series", "growing-real", "--construction", "limsup-subseries",
           "--depth", "2", "--horizon", "1000"]


@pytest.mark.parametrize(
    "run, edit, named",
    [
        (_REARRANGEMENT, _checkpoint("partial-sum", value=lambda v: float("nan")),
         "'result.checkpoints[0].value' is not a finite number"),
        (_LIMSUP, _checkpoint("term-norm", value=lambda v: float("nan")),
         "'result.checkpoints[0].value' is not a finite number"),
        # the recorded value itself, as a string
        (_REARRANGEMENT, _checkpoint("partial-sum", value=repr),
         "'result.checkpoints[0].value' is not a finite number"),
        (_REARRANGEMENT, _checkpoint("partial-sum", position=lambda p: p + 0.7),
         "'result.checkpoints[0].position' is not an int"),
    ],
)
def test_verify_refuses_ill_typed_checkpoints(tmp_path, capsys, run, edit, named):
    out = tmp_path / "cert.json"
    assert run_cli(["run", *run, "--out", str(out)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(load_document(str(out)))))
    capsys.readouterr()
    assert run_cli(["verify", str(bad)]) == 1
    assert named in capsys.readouterr().err


def test_run_flags_are_the_registry_parameters():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        option[2:]
        for action in commands.choices["run"]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert flags == set(PARAMS) | {"series", "construction", "out"}


def test_one_parser_serves_run_a_usage_error_and_verify(tmp_path, monkeypatch, capsys):
    # the parser is built once per process: after run, a usage error and
    # verify, it prints what the freshly built one printed
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    out = tmp_path / "doc.json"
    rounds = []
    _build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(["run", "--series", "alt-harmonic", "--construction", "rearrangement",
                        "--depth", "2", "--horizon", "20000", "--out", str(out)]) == 0
        outputs = [out.read_text(), capsys.readouterr()]
        with pytest.raises(SystemExit) as usage:
            run_cli(["run", "--series", "alt-harmonic", "--depth", "two"])
        assert usage.value.code == 2
        outputs.append(capsys.readouterr())
        assert run_cli(["verify", str(out)]) == 0
        outputs.append(capsys.readouterr())
        rounds.append(outputs)
    assert rounds[0] == rounds[1]
    assert "invalid int value: 'two'" in rounds[0][2].err
    assert rounds[0][3].out == "verified: every checkpoint recomputes\n"
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--construction", "grow-subseries", "--horizon", "0"], "horizon must be >= 1"),
        (["--construction", "grow-subseries", "--horizon", "-5"], "horizon must be >= 1"),
        (["--construction", "i-bounded", "--M", "0.5", "--horizon", "0"],
         "horizon must be >= 1"),
        (["--construction", "dense-open-am", "--m", "-1"], "m must be >= 0"),
    ],
)
def test_run_refuses_bad_parameters(tmp_path, capsys, flags, named):
    out = tmp_path / "doc.json"
    argv = ["run", "--series", "alt-harmonic", *flags, "--out", str(out)]
    assert run_cli(argv) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_byte_identical_outputs_modulo_timing(tmp_path):
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(
            [
                "run",
                "--series", "alt-harmonic",
                "--construction", "dense-open-bm",
                "--m", "1",
                "--horizon", "100000",
                "--out", str(out),
            ]
        ) == 0
        docs.append(load_document(str(out)))
    assert payload_without_timing(docs[0]) == payload_without_timing(docs[1])


CONFIG_MATRIX = [
    (["--series", "alt-harmonic", "--construction", "grow-subseries",
      "--target", "3"], 0),
    (["--series", "growing-real", "--construction", "grow-subseries",
      "--target", "10", "--horizon", "100"], 0),
    (["--series", "alt-harmonic", "--construction", "rearrangement",
      "--depth", "2"], 0),
    (["--series", "growing-real", "--construction", "rearrangement",
      "--depth", "3", "--horizon", "1000"], 0),
    (["--series", "alt-harmonic", "--construction", "nowhere-dense-subseq",
      "--m", "1", "--horizon", "100000"], 0),
    (["--series", "alt-harmonic", "--construction", "nowhere-dense-rearr",
      "--m", "1", "--horizon", "100000"], 0),
    (["--series", "alt-harmonic", "--construction", "dense-open-bm",
      "--m", "1", "--horizon", "100000"], 0),
    (["--series", "alt-harmonic", "--construction", "dense-open-cm",
      "--m", "1", "--horizon", "200000"], 0),
    (["--series", "alt-harmonic", "--construction", "dense-open-am",
      "--m", "1", "--horizon", "1000"], 0),
    (["--series", "growing-real", "--construction", "dense-open-am",
      "--m", "2", "--horizon", "1000"], 0),
    (["--series", "growing-real", "--construction", "limsup-subseries",
      "--depth", "4", "--horizon", "1000"], 0),
    (["--series", "alt-harmonic", "--construction", "i-bounded",
      "--M", "10", "--ideal", "density", "--horizon", "1000"], 0),
    (["--series", "unit-basis-c0", "--construction", "i-bounded",
      "--M", "0.5", "--ideal", "density", "--horizon", "64"], 0),
    (["--series", "unit-basis-c0", "--construction", "grow-subseries",
      "--target", "2", "--horizon", "1000"], 2),
    (["--series", "alt-harmonic", "--construction", "i-bounded",
      "--M", "0.6", "--ideal", "density", "--horizon", "10"], 2),
    # the candidate stream is too short to seed the base stem: exhaustion
    (["--series", "unit-basis-c0", "--construction", "dense-open-bm",
      "--m", "1", "--horizon", "1000"], 2),
]


@pytest.mark.parametrize("flags,expected", CONFIG_MATRIX)
def test_run_then_verify_matrix(tmp_path, flags, expected):
    # round trip: every valid run's document re-verifies with exit 0
    out = tmp_path / "doc.json"
    code = run_cli(["run", *flags, "--out", str(out)])
    assert code == expected
    assert run_cli(["verify", str(out)]) == 0


@pytest.mark.parametrize("flags,expected", [
    (["--series", "alt-harmonic", "--construction", "grow-subseries",
      "--target", "6.9", "--horizon", "3000000"], 0),
    (["--series", "alt-harmonic", "--construction", "rearrangement",
      "--depth", "3", "--horizon", "3000000"], 0),
    (["--series", "alt-harmonic", "--construction", "nowhere-dense-rearr",
      "--m", "2", "--horizon", "3000000"], 2),
    (["--series", "growing-real", "--construction", "limsup-subseries",
      "--depth", "20", "--horizon", "1000000"], 2),
])
def test_deep_run_stem_cells_run_and_verify_in_bounded_memory(tmp_path, flags, expected):
    # stems of up to 2.8 million entries are held as runs and scanned an
    # engine block at a time, by run and by verify alike
    out = tmp_path / "doc.json"
    code, run_peak = traced_peak(lambda: run_cli(["run", *flags, "--out", str(out)]))
    assert code == expected
    code, verify_peak = traced_peak(lambda: run_cli(["verify", str(out)]))
    assert code == 0
    assert run_peak < 2 * 2**20
    assert verify_peak < 2 * 2**20


def test_verify_refuses_a_word_past_the_letter_budget(tmp_path, capsys):
    doc = _verdict(lambda r: r.update(indexer={"kind": "selection", "rle": [[1, 10**12]]}))({})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code, peak = traced_peak(lambda: run_cli(["verify", str(bad)]))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert "document field 'result.indexer.rle' spells a word longer than" in err
    assert peak < 64 * 2**20
    with pytest.raises(DocumentError, match=r"'result\.indexer\.rle'"):
        verify_document(doc)


@pytest.mark.parametrize(
    "flags",
    [
        ["--construction", "rearrangement", "--depth", "1"],
        ["--construction", "dense-open-bm", "--m", "2"],
        ["--construction", "grow-subseries", "--target", "2"],
    ],
)
def test_a_horizon_of_10_to_the_12_bounds_the_search(tmp_path, flags):
    # the declared candidate stream costs nothing to provision to any
    # horizon, and the scans stop at their crossings
    out = tmp_path / "doc.json"
    horizon = str(10**12)
    assert run_cli(["run", "--series", "alt-harmonic", *flags, "--horizon", horizon,
                    "--out", str(out)]) == 0
    assert run_cli(["verify", str(out)]) == 0


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "serieswitness.cli", "catalog", "list"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "alt-harmonic" in result.stdout

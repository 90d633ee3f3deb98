"""Pinned payloads of the CLI matrix: 4 catalog series x 9 constructions.

Each cell runs at a small horizon and writes a document; the test compares
the sha256 of `payload_without_timing` with the recorded value, so any
change to a certificate, verdict or exhaustion payload shows up here.
Every cell writes a document, exhaustion cells (exit 2) included, and every
cell is listed.  Each document is written and loaded once more, and the
second copy must hash the same.  Each cell's document also passes the
independent checker of perfbench/checks.py, which recomputes every value
without importing serieswitness.  One deep cell past the matrix
(DEEP_CELL) sums far enough to cross the engine's blocks and chunks.

To re-pin after an intended payload change (which also bumps
`schema_version`), print the digests with

    PYTHONPATH=src python tests/test_payload_goldens.py
"""

import hashlib
from pathlib import Path

import pytest

from serieswitness.certificates import load_document, payload_without_timing, write_document
from serieswitness.cli import main
from serieswitness.runners import CONSTRUCTIONS
from serieswitness.series import catalog_names

from conftest import perfbench_module

SCALAR_HORIZON = "20000"
SEQUENCE_HORIZON = "2000"

FLAGS = {
    "grow-subseries": ["--target", "3"],
    "rearrangement": ["--depth", "2"],
    "nowhere-dense-subseq": ["--m", "1"],
    "nowhere-dense-rearr": ["--m", "1"],
    "dense-open-bm": ["--m", "1"],
    "dense-open-cm": ["--m", "1"],
    "dense-open-am": ["--m", "1"],
    "limsup-subseries": ["--depth", "3"],
    "i-bounded": ["--M", "0.6", "--ideal", "density"],
}

# (series, construction) -> (exit code, sha256 of the payload without timing)
GOLDENS = {
    ('alt-harmonic', 'grow-subseries'): (0, 'eaac3f0269ac80731b56c3590579a4b240cfa13631984186668af32ee3706c23'),
    ('alt-harmonic', 'rearrangement'): (0, '2156d248c403a52bd31dab16ca738c4f66fa71b2961cdd28e0de10b2494b5309'),
    ('alt-harmonic', 'nowhere-dense-subseq'): (0, '51aaa94f921b2724d7f04e78aa092726961549c4cef35ebf01e6d4e46be489c1'),
    ('alt-harmonic', 'nowhere-dense-rearr'): (0, '348610b9ab1f7daa40b9652a492228348fe33a074bfaca35a36ba155eb8e9806'),
    ('alt-harmonic', 'dense-open-bm'): (0, 'a0bad6fd034ebd798245146fd36320f84368eacff3db0573c174f9da928817a1'),
    ('alt-harmonic', 'dense-open-cm'): (0, '34aa395f708ee3e923da9e060e4d5e49454a4bae41cf06f69ce66bad9f432ecd'),
    ('alt-harmonic', 'dense-open-am'): (0, 'b50b24b58835d8e7858b01a4a6498f9b17d6bed07b39f751c06d47d4831019d2'),
    ('alt-harmonic', 'limsup-subseries'): (2, '46a78d1d77aa3d04e788076b9fd5ac05908444f6f6a644f7bf014d8664662b2f'),
    ('alt-harmonic', 'i-bounded'): (0, 'afe701ea172ca05b36688e9423b24fe383b74fd3fbace611cf59bba9770c2f01'),
    ('unit-basis-c0', 'grow-subseries'): (2, 'b819b9133982cfc5778b8c896f27e91751d696447d5bae162cccbcdd7f6c74ed'),
    ('unit-basis-c0', 'rearrangement'): (2, '1a3369991368d5bff416a94d78551d38ec37c7ec789debc983d790d49604376a'),
    ('unit-basis-c0', 'nowhere-dense-subseq'): (2, '809917f20de4f7ed9c72ef1b1fe96c90554500d70a78c35907af9074f9d348e0'),
    ('unit-basis-c0', 'nowhere-dense-rearr'): (2, 'f5be5eac6b5082e59b46d048c9506700b37a641818ba016ae656b6c8f3df6fad'),
    ('unit-basis-c0', 'dense-open-bm'): (2, '7269e92b8f4b47763f94ccfb5eaa2792529e0a4363212f93b35ef01774aa23ec'),
    ('unit-basis-c0', 'dense-open-cm'): (2, 'fd142776feaa148535a16a3737093940504fddc9ed41237249973172d4d5180a'),
    ('unit-basis-c0', 'dense-open-am'): (2, 'e6a71a259918f36b0f917a52eddd2652d268681820b3870d05e04534266a40da'),
    ('unit-basis-c0', 'limsup-subseries'): (2, '6d2ad2e3f3c0bf566d8ed58054deec9c48aeeb306ac34d3017494eb21026d2be'),
    ('unit-basis-c0', 'i-bounded'): (0, 'b1fde3a9503dd1464875de3017a8b9327a1570da902f8129021a9aa72f94403a'),
    ('decaying-signed-c0', 'grow-subseries'): (2, '154f09209511d4480627ff7b15579fc8ee981ba3166efba8fd68f0422c560e94'),
    ('decaying-signed-c0', 'rearrangement'): (2, '50e79508b4bec930e57109c1bac251e75dc8053aba0a84e1928d6ad5bfed762a'),
    ('decaying-signed-c0', 'nowhere-dense-subseq'): (2, 'a9d5d217c35fab7604b2b550c00c0a0af32c1167000b61dd4eec95cc0fea812f'),
    ('decaying-signed-c0', 'nowhere-dense-rearr'): (2, 'c805047b3de31b92e5eb6c06574418dc57dcfe01ea880f10af8f1a7c0f550473'),
    ('decaying-signed-c0', 'dense-open-bm'): (2, '5c64600021c2855c411d23248171a6786ce148bfcaa4a892d1f9fc888b6af3f8'),
    ('decaying-signed-c0', 'dense-open-cm'): (2, '43911f1067f69dbd719c2dd2d562654ec8fbd33f02e0518e0e4f0787e1aa2c4e'),
    ('decaying-signed-c0', 'dense-open-am'): (2, 'a8011377e27db99a1d17b96a60bf7ef4f368fde0735e0e0fba670bab0256031d'),
    ('decaying-signed-c0', 'limsup-subseries'): (2, '6c3134edc6502861afae34c436897b5e09736ba2bf80b5346883fb675750e4df'),
    ('decaying-signed-c0', 'i-bounded'): (2, '054ed6091ad39a4732457b246dc9ccf3d73a70f3cdccd7b401864ee26f51b888'),
    ('growing-real', 'grow-subseries'): (0, 'b8e2d4248851e26d4e51fcb51f2acae123fb01d1fefe110e913b2f049c26e3ec'),
    ('growing-real', 'rearrangement'): (0, '89663e0335398f6603975896ff6cb08c632fbd5b60d0932507d0e8b3da31a482'),
    ('growing-real', 'nowhere-dense-subseq'): (0, 'e6c158f5d6ef535ebdff8970e05a9dc16d6b5c0c7f04cf29931f6b4fdab4fd60'),
    ('growing-real', 'nowhere-dense-rearr'): (0, '6cb777bb37252765591e90f186c4a269ada75bfe2de5f19974a43857b2f190f9'),
    ('growing-real', 'dense-open-bm'): (2, '747ada739deb63cd1e73add17b75e2bb5eeac000abf7631fe22cdb442b6071b3'),
    ('growing-real', 'dense-open-cm'): (2, '673bffe489820c782a36ae06302619cbe3456b2fa4b8073675fa9ec69bd641a5'),
    ('growing-real', 'dense-open-am'): (0, '0e41b06fcc06201028291f7838dc64babd7c3cdc304894bd1c9f84225bd94dd5'),
    ('growing-real', 'limsup-subseries'): (0, '70ca3b9b1c3ff2320bd57c8f404048b68ead520c7908ad78e61333241b437a35'),
    ('growing-real', 'i-bounded'): (0, 'c218a384fd7b177d7a0fba65e4204080b6d6ae703308d323fa24817971796d7e'),
}


# One deep cell past the matrix: the depth-3 rearrangement of alt-harmonic
# at horizon 3e6 sums runs of 872 and 1,412,739 terms, so its values cross
# the 2^15-term blocks and the 2^20-term chunks of the engine, which no
# matrix cell reaches.  (series, construction, flags, horizon) -> (exit
# code, sha256, checkpoint positions, stage boundaries).
DEEP_CELL = ("alt-harmonic", "rearrangement", ["--depth", "3"], "3000000")
DEEP_GOLDEN = (0, '6cf83321d69af3d20d3e1e8ef2d4e2683a49ae66eb853ffed4d8b2fee6731049',
               [4, 880, 1_414_491], [8, 1752, 2_827_230])


# Depth-4 pipelines of alt-harmonic at horizon 3e6: stage 4 never crosses 4,
# so both are exhaustions whose stages 2 to 4 resume where the stage before
# crossed.  (flags) -> (exit code, sha256); the payloads are the ones made
# before the stages resumed.
DEPTH_4_CELLS = {
    ("--construction", "rearrangement", "--depth", "4"):
        (2, 'b8d878892e15504dc1ffe11a9a14fc75370a66e5f9b11fa96fd7c01e1923bd67'),
    ("--construction", "dense-open-cm", "--m", "3"):
        (2, '92a8fc9a98572a6098f65f17475559751ab8d56b598497ed14d2988b63f7ead8'),
}

def digest_of(path):
    return hashlib.sha256(payload_without_timing(load_document(str(path))).encode()).hexdigest()


def run_cell(series, construction, out):
    horizon = SCALAR_HORIZON if series in ("alt-harmonic", "growing-real") else SEQUENCE_HORIZON
    argv = ["run", "--series", series, "--construction", construction,
            "--horizon", horizon, *FLAGS[construction], "--out", str(out)]
    code = main(argv)
    return code, digest_of(out)


@pytest.mark.parametrize("cell", sorted(GOLDENS), ids="/".join)
def test_payload_is_pinned(tmp_path, cell):
    assert run_cell(*cell, tmp_path / "doc.json") == GOLDENS[cell]
    write_document(load_document(str(tmp_path / "doc.json")), str(tmp_path / "again.json"))
    assert digest_of(tmp_path / "again.json") == GOLDENS[cell][1]


def test_deep_cell_is_pinned_and_passes_the_independent_checker(tmp_path):
    series, construction, flags, horizon = DEEP_CELL
    out = tmp_path / "doc.json"
    code = main(["run", "--series", series, "--construction", construction,
                 "--horizon", horizon, *flags, "--out", str(out)])
    doc = load_document(str(out))
    result = doc["result"]
    assert (code, digest_of(out), [c["position"] for c in result["checkpoints"]],
            result["stage_boundaries"]) == DEEP_GOLDEN
    assert perfbench_module("checks").check_document(doc) == []


@pytest.mark.parametrize("flags", sorted(DEPTH_4_CELLS), ids=" ".join)
def test_depth_4_pipelines_are_pinned(tmp_path, flags):
    out = tmp_path / "doc.json"
    code = main(["run", "--series", "alt-harmonic", *flags, "--horizon", "3000000",
                 "--out", str(out)])
    assert (code, digest_of(out)) == DEPTH_4_CELLS[flags]
    assert main(["verify", str(out)]) == 0

@pytest.mark.parametrize("cell", sorted(GOLDENS), ids="/".join)
def test_golden_cells_pass_the_independent_checker(tmp_path, cell):
    # perfbench/checks.py recomputes every value without serieswitness
    checks = perfbench_module("checks")
    run_cell(*cell, tmp_path / "doc.json")
    assert checks.check_document(load_document(str(tmp_path / "doc.json"))) == []


def test_the_independent_checker_refuses_a_nudged_value(tmp_path):
    checks = perfbench_module("checks")
    indented = Path(__file__).resolve().parent / "data" / "dense_open_am_indented.json"
    assert checks.check_document(load_document(str(indented))) == []
    run_cell("alt-harmonic", "rearrangement", tmp_path / "doc.json")
    doc = load_document(str(tmp_path / "doc.json"))
    assert checks.check_document(doc) == []
    # the checker's tolerance after 20,000 terms summing to about 10 in
    # absolute value is about 2e-11
    doc["result"]["checkpoints"][-1]["value"] += 1e-7
    issues = checks.check_document(doc)
    assert len(issues) == 1 and issues[0].startswith("partial sum at ")


def test_matrix_is_complete():
    assert set(GOLDENS) == {(s, c) for s in catalog_names() for c in CONSTRUCTIONS}
    assert set(FLAGS) == set(CONSTRUCTIONS)
    jobs = perfbench_module("jobs")
    assert tuple(jobs.SEQUENCE_CONSTRUCTIONS) == tuple(CONSTRUCTIONS)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "doc.json")
        for series in catalog_names():
            for construction in FLAGS:
                if os.path.exists(path):
                    os.remove(path)
                try:
                    print(f"    {(series, construction)!r}: {run_cell(series, construction, path)!r},")
                except FileNotFoundError:
                    print(f"    # {series} {construction}: no document")

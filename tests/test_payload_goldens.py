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
import importlib.util
from pathlib import Path

import pytest

from serieswitness.certificates import load_document, payload_without_timing, write_document
from serieswitness.cli import main
from serieswitness.runners import CONSTRUCTIONS
from serieswitness.series import catalog_names

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
    ('alt-harmonic', 'grow-subseries'): (0, 'a5a31b1c73845ec04df18722bf3fb9e8a38adc7d07d7a04ea57c798c7ca9ab3b'),
    ('alt-harmonic', 'rearrangement'): (0, '0b7867fab66dc4fbe45716ac36ce1b452c78978a591f78ed6f750428f84bad30'),
    ('alt-harmonic', 'nowhere-dense-subseq'): (0, 'c58dd93d11e6d6a5c3fb9dd16960490f9bc6b025b0ccdaa24425390e99bc525f'),
    ('alt-harmonic', 'nowhere-dense-rearr'): (0, 'a068d52f6399033cafdd386af1490e79a75bcad1c5c6fbc2d93f0a341fd02116'),
    ('alt-harmonic', 'dense-open-bm'): (0, '5fb29c2c74d9ec261d847c515fdf4ff6016ed01ce6a8a2e641e695c7a59b5e2e'),
    ('alt-harmonic', 'dense-open-cm'): (0, 'ea9b8009898b46fb0b43d2c60e195ed24ab4dc62c92d7748c775a7651cc576f3'),
    ('alt-harmonic', 'dense-open-am'): (0, '77853b599257fafc09bbec34c1a516f4405114d5796819472731a304c58e4213'),
    ('alt-harmonic', 'limsup-subseries'): (2, '7b8b234f092d9467c3550e7a6ef47fd472060037f01192fec64c76e1591cba80'),
    ('alt-harmonic', 'i-bounded'): (0, '6824f16c0eeff84ade441eb473c7eb69616c45d7712cef2699379016984bdf35'),
    ('unit-basis-c0', 'grow-subseries'): (2, '4225b434fb5150f35f2a07e706dbe4246e41fe507554acd083e8aedeb654ba3f'),
    ('unit-basis-c0', 'rearrangement'): (2, '913b97aa639b994679652476a8925da671087c15349744f117e6f7eb7cf6b89f'),
    ('unit-basis-c0', 'nowhere-dense-subseq'): (2, '95019c17f70fffd61cd3f80a84a95a905b9775a86a9f11914f6abfa68bf27e4e'),
    ('unit-basis-c0', 'nowhere-dense-rearr'): (2, '0f5fbfeb121b2e9ee26d2227f73bf24d90a9fd02d7f12bd2bf742b3dc2e42d7a'),
    ('unit-basis-c0', 'dense-open-bm'): (2, '995965ecdd2fd9f24cf161a3a4253c8c3b53dc8842fdd4453a11665dc306855e'),
    ('unit-basis-c0', 'dense-open-cm'): (2, '4fab5ab7f1f35b673fd529817a011b218fc7377a94dc467897f859a8d53c62ad'),
    ('unit-basis-c0', 'dense-open-am'): (2, 'ff333468e8eeb6df96b510e1f60d208008bf9a328f073e520ab87cbd3d4b1ffe'),
    ('unit-basis-c0', 'limsup-subseries'): (2, '87428fb70dde834b2a95c4d10a4e7f5ba8873aae98690c79dcaa6088dde9d9f4'),
    ('unit-basis-c0', 'i-bounded'): (0, '418ae84f5f88c0db011e257fd54b385453520884f8c8f87479b9afc54b71d1ee'),
    ('decaying-signed-c0', 'grow-subseries'): (2, 'c4f027759ff8b24859d0215fea74fb9ad973ba2e92b4d55fb2c3846b908b696e'),
    ('decaying-signed-c0', 'rearrangement'): (2, '2f136806923c8c90186249c893fd21149481fa20991c979937ff28502ffa0d41'),
    ('decaying-signed-c0', 'nowhere-dense-subseq'): (2, '852030f1227bd8d4ce9872c7aeed337ead8926b3835d0ee0d98511e382c23983'),
    ('decaying-signed-c0', 'nowhere-dense-rearr'): (2, '78762fab21f49d8fef9afd821455f47c2d4b5bd6d9d5bdc18bc555cb30a8d168'),
    ('decaying-signed-c0', 'dense-open-bm'): (2, '728f89e9793ca64f99a184dbbf5b32ba3646662c6e7e1b2fa9171953be42b383'),
    ('decaying-signed-c0', 'dense-open-cm'): (2, 'ef0d323743adafa0f69c8c384a6478796aa99f330c7f87f848bef05ff84acf47'),
    ('decaying-signed-c0', 'dense-open-am'): (2, 'cfbc41bfc2d076bb60e99107f5a47c460e36fc680c70ed8f5aa45dd3d9ab7a8f'),
    ('decaying-signed-c0', 'limsup-subseries'): (2, '8e55c69d111cd846f3b916c0912e7abd076597ec698f6f8c8a321f7a49235a59'),
    ('decaying-signed-c0', 'i-bounded'): (2, '0da71fe85bae5905529f2b4bba2222c65cb10fe1c6e6f6a132307425e8916232'),
    ('growing-real', 'grow-subseries'): (0, '94aa329e464dcee72c39ce87d9799836e17c58ae1f419f070a7cf8aac79382ba'),
    ('growing-real', 'rearrangement'): (0, 'd6575a5b227ff899b1c5fd816ac5ec279a4ed44bed8c2fd686da557f85054256'),
    ('growing-real', 'nowhere-dense-subseq'): (0, 'c44afc0f5c9866c2a5cb3f2491d68902d6a230ee82eb4cb25b47a5a947249874'),
    ('growing-real', 'nowhere-dense-rearr'): (0, 'e5da7062873c34b798c2861d38b951d25a989b9d8559c7a5543259678160752d'),
    ('growing-real', 'dense-open-bm'): (2, '000f7c279ee672eda8622804040b338687c19970ce9e9a46f8010fb15d525164'),
    ('growing-real', 'dense-open-cm'): (2, 'bf6a06b2b20297a4e73f315d46e3bdd4dbb3226dded23a4e59e9c03c97670fe7'),
    ('growing-real', 'dense-open-am'): (0, 'de80dbefcfb38f0ca3cb91f6eddc68b058f6401836eaf93ea640832111512460'),
    ('growing-real', 'limsup-subseries'): (0, '007f1f9bbd334590845b0c7f3a745b2a58340f2bd649b51135aac40056d50afb'),
    ('growing-real', 'i-bounded'): (0, 'ea9342203fe98972b27a487d1f0d728a75f39063ca09c51b5fd8b0b5581b219b'),
}


# One deep cell past the matrix: the depth-3 rearrangement of alt-harmonic
# at horizon 3e6 sums runs of 872 and 1,412,739 terms, so its values cross
# the 2^15-term blocks and the 2^20-term chunks of the engine, which no
# matrix cell reaches.  (series, construction, flags, horizon) -> (exit
# code, sha256, checkpoint positions, stage boundaries).
DEEP_CELL = ("alt-harmonic", "rearrangement", ["--depth", "3"], "3000000")
DEEP_GOLDEN = (0, '1ec1ead314e23113d14a00f5aa4b5f003a77b147c1b5ed9174d8d1842110a965',
               [4, 880, 1_414_491], [8, 1752, 2_827_230])


# Depth-4 pipelines of alt-harmonic at horizon 3e6: stage 4 never crosses 4,
# so both are exhaustions whose stages 2 to 4 resume where the stage before
# crossed.  (flags) -> (exit code, sha256); pinned before the stages resumed.
DEPTH_4_CELLS = {
    ("--construction", "rearrangement", "--depth", "4"):
        (2, '725a7fca9112dc69d67c55205ead8eb69274504744fdcdebe6a30a619a5a62af'),
    ("--construction", "dense-open-cm", "--m", "3"):
        (2, '38872409b67768d5b4f9c1c44c52bc48a1bc6ab9e420a27d092211551b78e80f'),
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
    assert _perfbench_module("checks").check_document(doc) == []


@pytest.mark.parametrize("flags", sorted(DEPTH_4_CELLS), ids=" ".join)
def test_depth_4_pipelines_are_pinned(tmp_path, flags):
    out = tmp_path / "doc.json"
    code = main(["run", "--series", "alt-harmonic", *flags, "--horizon", "3000000",
                 "--out", str(out)])
    assert (code, digest_of(out)) == DEPTH_4_CELLS[flags]
    assert main(["verify", str(out)]) == 0

def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cell", sorted(GOLDENS), ids="/".join)
def test_golden_cells_pass_the_independent_checker(tmp_path, cell):
    # perfbench/checks.py recomputes every value without serieswitness
    checks = _perfbench_module("checks")
    run_cell(*cell, tmp_path / "doc.json")
    assert checks.check_document(load_document(str(tmp_path / "doc.json"))) == []


def test_the_independent_checker_refuses_a_nudged_value(tmp_path):
    checks = _perfbench_module("checks")
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
    jobs = _perfbench_module("jobs")
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

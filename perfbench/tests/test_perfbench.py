"""Tests of the benchmark itself: job generation, tiny smoke rounds of every
workload, tracing hygiene, and the metric names BENCHMARK.json declares.

Run from the repository root with the package importable:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import jobs as joblib  # noqa: E402
import run as runner  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("workload", sorted(joblib.WORKLOADS))
def test_job_lists_follow_the_seed(workload):
    assert joblib.make_jobs(workload, 7) == joblib.make_jobs(workload, 7)
    assert joblib.make_jobs(workload, 7) != joblib.make_jobs(workload, 8)
    for job in joblib.make_jobs(workload, 7):
        if job["kind"] == "cli":
            argv = joblib.cli_argv(job, "out.json")
            assert argv[argv.index("--horizon") + 1] == str(job["horizon"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(joblib.WORKLOADS)


def _tiny(job: dict) -> dict:
    """The same job at a small size: horizons / 100, open sets / 10."""
    job = dict(job)
    if job["kind"] == "cli":
        job["horizon"] = max(job["horizon"] // 100, 500)
    elif job["kind"] == "pattern":
        job["n"] = min(job["n"], 6)
    else:
        job["r"] = max(job["r"] // 10, 5)
        job["value_max"] = max(job["value_max"] // 10, job["r"])
    return job


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Per workload: an untraced, a traced and a counting round of the tiny
    jobs, audited as run.py audits them once the worker has exited."""
    out = {}
    for workload in joblib.WORKLOADS:
        work = worker.Workload(workload, 3, str(tmp_path_factory.mktemp(workload)))
        work.jobs = [_tiny(job) for job in work.jobs]
        plain = worker.run_round(work, "r0")
        layers, traced = worker.traced_round(work, "t0")
        counts, counted = worker.counting_round(work, "c0")
        checked = {}
        for results in (plain, traced, counted):
            runner.audit(work.jobs, results, work.kept_dir, checked)
        assert os.listdir(work.kept_dir) == []
        out[workload] = (plain, traced, counted, layers, counts)
    return out


@pytest.mark.parametrize("workload", sorted(joblib.WORKLOADS))
def test_tiny_rounds_succeed_and_repeat(tiny_runs, workload):
    plain, traced, counted, _, _ = tiny_runs[workload]
    assert all(r["failed"] == 0 for r in plain), [r for r in plain if r["failed"]]
    assert all(r["outcome"] in ("certificate", "verdict", "exhaustion", "value")
               for r in plain)
    digests = [r["digest"] for r in plain]
    assert all(digests)
    assert [r["digest"] for r in traced] == digests
    assert [r["digest"] for r in counted] == digests


def test_wrappers_are_removed(tiny_runs):
    targets = tracing.public_targets()
    assert "series.norms_at" in targets and "stems._RunStem.__init__" in targets
    for _, (_, owner, attr, original) in targets.items():
        assert vars(owner)[attr] is original
    import serieswitness.witnesses as witnesses
    assert witnesses.norms_at is targets["series.norms_at"][3]


def test_traced_metrics_cover_benchmark_json(tiny_runs):
    declared = {m["name"] for m in SPEC["per_layer"]}
    for workload, (_, _, _, layers, counts) in tiny_runs.items():
        emitted = set(layers) | set(counts) | {"trace.overhead_ratio"}
        assert emitted == declared, workload
    assert tiny_runs["stem-load"][4]["stems.runs_intersect.calls"] > 0
    assert tiny_runs["stem-load"][3]["stems.mask_bytes"] > 0
    assert tiny_runs["cli-evidence"][4]["spaces.vectors_built"] > 0
    assert tiny_runs["cli-evidence"][3]["ideals.intervals_scanned"] > 0


def test_known_exit_one_cells_are_probed(tmp_path):
    work = worker.Workload("cli-evidence", 3, str(tmp_path))
    probe_jobs = [_tiny(job) for job in joblib.sequence_probes(3)]
    probes = [work.execute(0, job, keep=f"probe{i}.json") for i, job in enumerate(probe_jobs)]
    runner.audit(probe_jobs, probes, work.kept_dir, {})
    assert len(probes) == len(joblib.SEQUENCE_PROBE_CELLS)
    for result in probes:
        assert result["outcome"] in ("error", "exhaustion", "certificate")


def test_audit_counts_a_tampered_document_as_failed(tmp_path):
    work = worker.Workload("stem-load", 3, str(tmp_path))
    job = _tiny(work.jobs[0])  # depth-1 rearrangement: partial-sum checkpoints
    result = work.execute(0, job, keep="doc.json")
    path = os.path.join(work.kept_dir, "doc.json")
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    checkpoint = next(c for c in doc["result"]["checkpoints"] if c["kind"] == "partial-sum")
    checkpoint["value"] += 1e-6
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    runner.audit([job], [result], work.kept_dir, {})
    assert result["failed"] == 1 and "partial sum" in result["check"][0]


def test_run_emits_every_declared_end_to_end_metric():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "stem-load",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH, name), bench / name)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "cli-evidence", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

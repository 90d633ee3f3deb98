"""serieswitness benchmark: seeded workloads timing `run` and `verify`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/`.  For one workload it

1. times SETUP_SAMPLES fresh interpreters that import `serieswitness.cli`
   and build the workload's shared inputs, and reports their median as
   `setup_s`;
2. starts one fresh worker process (perfbench/worker.py) that warms up
   with one untimed job, then runs the seeded job list in rounds for S
   seconds.  `run_s` and `verify_s` are sums over the job list of each
   job's median run (verify) time across the rounds; `peak_rss_mb` is the
   worker's peak resident memory;
3. with --trace 1, alternates untraced and traced rounds and reports the
   per-layer metrics of perfbench/tracing.py instead;
4. once the worker has exited, digests every document it kept, checks it
   independently (perfbench/checks.py) and writes the outcome ledger.

Metric units come from BENCHMARK.json.  It prints provenance, sample
counts and every metric as `name value unit` lines, then one JSON object
as the last line.  Documents, the ledger and the spans go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run ends well inside 180 s
BLAS_THREADS = "1"  # one thread in all: the worker runs one job at a time
OUTCOME = {"witness": "certificate", "verdict": "verdict", "exhaustion": "exhaustion"}


def declared_units(trace: int) -> dict[str, str]:
    """The metrics BENCHMARK.json declares for this pass, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    # The CLI always gets --horizon; drop the variables that could change
    # what the program does.
    env.pop("SERIESWITNESS_HORIZON", None)
    env.pop("SERIESWITNESS_LOG", None)
    return env


def commit() -> str:
    """HEAD of the checkout when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the package sources, so results name the code they timed."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "serieswitness"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("the run's time budget is spent")
    return subprocess.run([sys.executable, WORKER, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def audit(jobs: list[dict], results: list[dict], kept_dir: str, checked: dict) -> None:
    """Fill in the outcome class, exhaustion reason and digest of each result,
    and count a failed operation for every output the independent check
    rejects.  This runs after the worker has exited, so neither the checker
    nor the JSON parsing here is in the worker's peak RSS.  `checked` maps
    digests to issues: a payload identical to one already checked needs no
    second check."""
    from serieswitness.certificates import payload_without_timing

    for job, r in zip(jobs, results):
        issues = []
        if r["doc"] is not None:
            path = os.path.join(kept_dir, r["doc"])
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            os.remove(path)
            r["digest"] = sha256(payload_without_timing(doc))
            r["outcome"] = OUTCOME.get(doc.get("kind"), "unknown")
            if doc.get("kind") == "exhaustion":
                r["reason"] = doc["result"].get("reason")
            if r["digest"] not in checked:
                checked[r["digest"]] = checks.check_document(doc)
            issues = checked[r["digest"]]
        elif r["outcome"] == "value":
            r["digest"] = sha256(repr(r["value"]))
            exact, tol = checks.pattern_max(job["series"], job["n"], job["alphabet"])
            if abs(r["value"] - exact) > tol:
                issues = [f"pattern max {r['value']!r}, independent {exact!r}"]
        else:
            r["digest"] = None
        r["check"] = issues[:3]
        r["failed"] += int(bool(issues))


def median_sum(rounds: list[list[dict]], key: str) -> float:
    """Sum over the job list of each job's median `key` across rounds."""
    return sum(statistics.median(results[i][key] for results in rounds)
               for i in range(len(rounds[0])))


def measure(args: argparse.Namespace) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", out_dir]
    units = declared_units(args.trace)

    setup = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        proc = run_child(common + ["--setup-only"], deadline)
        setup.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")

    proc = run_child(common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])

    jobs, rounds = summary["jobs"], summary["rounds"]
    all_rounds = rounds + summary["other_rounds"]
    kept, checked = os.path.join(out_dir, "kept"), {}
    for results in all_rounds:
        audit(jobs, results, kept, checked)
    probes = summary["probes"]
    audit(summary["probe_jobs"], probes, kept, checked)

    ops = sum(r["ops"] for results in all_rounds for r in results)
    failed = sum(r["failed"] for results in all_rounds for r in results)
    probe_ops, probe_failed = sum(p["ops"] for p in probes), sum(p["failed"] for p in probes)
    first = [r["digest"] for r in all_rounds[0]]
    deterministic = summary["counts_repeat"] and all(
        [r["digest"] for r in results] == first for results in all_rounds)
    ledger = [{"job": job, "outcome": r["outcome"], "reason": r["reason"],
               "digest": r["digest"], "check": r["check"]}
              for job, r in zip(jobs, all_rounds[0])]
    ledger += [{"job": job, "probe": True, "outcome": p["outcome"], "reason": p["reason"],
                "digest": p["digest"], "check": p["check"]}
               for job, p in zip(summary["probe_jobs"], probes)]
    ledger_text = json.dumps(ledger, sort_keys=True, indent=1)
    with open(os.path.join(out_dir, "ledger.json"), "w", encoding="utf-8") as handle:
        handle.write(ledger_text + "\n")

    lines = [
        f"provenance.workload {args.workload}",
        f"provenance.seed {args.seed}",
        f"provenance.trace {args.trace}",
        f"provenance.commit {commit()}",
        f"provenance.src_sha256 {source_digest()}",
        f"provenance.nproc {len(os.sched_getaffinity(0))}",
        f"provenance.python {sys.version.split()[0]}",
        f"provenance.numpy {summary['numpy']}",
        f"provenance.blas_threads {BLAS_THREADS}",
        f"provenance.jobs {len(jobs)}",
        f"provenance.ledger_sha256 {sha256(ledger_text)}",
        f"provenance.deterministic {deterministic}",
        f"ops.attempted {ops} count",
        f"ops.failed {failed} count",
        f"probe.attempted {probe_ops} count",
        f"probe.failed {probe_failed} count",
        # Probe cells are known exit-1 cells run once, untimed, so they
        # count here instead of in the JSON result's `failed`.
        f"fail_ratio {(failed + probe_failed) / (ops + probe_ops):.6f} ratio",
    ]
    if args.trace:
        measured = summary["per_layer"]
        # A per-layer figure is the median (a count: the value) of the traced rounds.
        samples = dict.fromkeys(measured, summary["traced_rounds"])
    else:
        measured = {
            "setup_s": statistics.median(setup),
            "run_s": median_sum(rounds, "run_s"),
            "verify_s": median_sum(rounds, "verify_s"),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        samples = {"setup_s": len(setup), "run_s": len(rounds),
                   "verify_s": len(rounds), "peak_rss_mb": 1}
    metrics = {name: measured[name] for name in units}
    for name, value in sorted(metrics.items()):
        lines.append(f"samples.{name} {samples[name]}")
        lines.append(f"{name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"provenance": lines, "summary": summary, "setup_s": setup, "result": result}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="serieswitness benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "serieswitness", "__init__.py")):
        print(f"no serieswitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result, lines = measure(args)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

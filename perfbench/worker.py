"""One workload in one fresh process: set up, warm up, run the job list in
rounds, keep every output, and print a JSON summary as the last line.

A round runs the seeded job list once, one job after another (a closed
loop with one client).  A job is one `run` operation, then one `verify`
operation of the document that run wrote.  Only those two calls are
timed.  The worker never reads a document itself: after `verify` it moves
the document into DIR/kept/, and run.py digests and independently checks
the kept documents once this process has exited, so the checker's memory
stays out of this process's peak RSS.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out-dir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as joblib  # noqa: E402  (the benchmark's own modules)
import tracing  # noqa: E402


class Workload:
    """Shared inputs plus the execution of one job; no timing policy."""

    def __init__(self, name: str, seed: int, out_dir: str) -> None:
        import numpy
        import serieswitness
        import serieswitness.cli

        self.np = numpy
        self.sw = serieswitness
        self.cli = serieswitness.cli
        self.name, self.out_dir = name, out_dir
        self.kept_dir = os.path.join(out_dir, "kept")
        os.makedirs(self.kept_dir, exist_ok=True)
        self.jobs = joblib.make_jobs(name, seed)
        self.tracer = tracing.Tracer()
        self.shared = self._build_shared()

    def _build_shared(self):
        if all(job["kind"] != "open-set" for job in self.jobs):
            return None
        w = self.sw.witnesses
        series = self.sw.catalog_series(joblib.OPEN_SET_SERIES)
        p_cert = w.rearrangement_pipeline(series, joblib.OPEN_SET_DEPTH,
                                          joblib.OPEN_SET_HORIZON)
        return {
            "series": series,
            "p": p_cert.stem,
            "p_checkpoints": [(c.position, c.bound) for c in p_cert.checkpoints
                              if c.kind == "partial-sum"],
            "s": w.provision_candidate_stream(series, joblib.OPEN_SET_HORIZON),
        }

    # -- timed calls -------------------------------------------------------
    def _timed(self, call):
        """(seconds, result or None, error or None); the tracer records
        spans only inside this region."""
        sink = io.StringIO()
        self.tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                result, error = call(), None
        except Exception as exc:  # noqa: BLE001 - an uncaught exception is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:
            result, error = None, f"SystemExit({exc.code}): {sink.getvalue()[-200:]}"
        seconds = time.perf_counter() - start
        self.tracer.active = False
        self.tracer.root_time_ops += seconds
        self.last_output = sink.getvalue().strip()
        return seconds, result, error

    def _path(self, index: int) -> str:
        return os.path.join(self.out_dir, f"job{index:02d}.json")

    def execute(self, index: int, job: dict, keep: str | None = None) -> dict:
        """Run one job; returns its times, op counts and error, and the name
        under DIR/kept/ of the document it wrote (`keep`; None discards it).
        The outcome class and digest are filled in by run.py's audit."""
        path = self._path(index)
        if os.path.exists(path):
            os.remove(path)
        if job["kind"] == "pattern":
            return self._pattern(job)
        if job["kind"] == "cli":
            run_s, rc, error = self._timed(lambda: self.cli.main(joblib.cli_argv(job, path)))
            if error is None and rc == 1:
                error = f"run exited 1: {self.last_output[-200:]}"
        else:
            values = self._open_set_base(job)
            run_s, rc, error = self._timed(lambda: self._open_set_run(job, values, path))
        out = {"run_s": run_s, "verify_s": 0.0, "ops": 1, "failed": 0,
               "outcome": "crash" if error and rc is None else "error",
               "reason": error, "doc": None}
        if error is not None:
            out["failed"] = 1
            return out
        if not os.path.exists(path):
            out.update(failed=1, reason=f"run exited {rc} without a document")
            return out
        if job["kind"] == "cli":
            verify_s, vrc, verror = self._timed(lambda: self.cli.main(["verify", path]))
            verify_failed = verror is not None or vrc != 0
        else:
            verify_s, issues, verror = self._timed(lambda: self._open_set_verify(path))
            verify_failed = verror is not None or bool(issues)
        if keep is None:
            os.remove(path)
        else:
            os.replace(path, os.path.join(self.kept_dir, keep))
        out.update(
            verify_s=verify_s, ops=2, failed=int(verify_failed), outcome=None,
            reason=(verror or f"verify exited {vrc}: {self.last_output[-200:]}")
            if verify_failed else None,
            doc=keep,
        )
        return out

    def _open_set_base(self, job: dict):
        """The r distinct values of a random basic open set, in random order."""
        rng = self.np.random.default_rng(job["base_seed"])
        return rng.choice(self.np.arange(1, job["value_max"] + 1), size=job["r"],
                          replace=False)

    def _open_set_run(self, job: dict, values, path: str) -> None:
        sw, shared = self.sw, self.shared
        config = {k: job[k] for k in ("series", "m", "r", "value_max", "base_seed",
                                      "horizon")}
        started = time.perf_counter()
        try:
            if job["stem"] == "rearr":
                config["construction"] = "nowhere-dense-rearr"
                base = sw.stems.RearrStem.from_values(values)
                cert = sw.witnesses.nowhere_dense_witness_rearr(
                    shared["series"], shared["p"], job["m"], base, job["horizon"],
                    shared["p_checkpoints"])
            else:
                config["construction"] = "nowhere-dense-subseq"
                base = sw.stems.SubseqStem.from_values(self.np.sort(values))
                cert = sw.witnesses.nowhere_dense_witness_subseq(
                    shared["series"], shared["s"], job["m"], base, job["horizon"])
            doc = sw.certificates.document_for_certificate(
                cert, config, time.perf_counter() - started)
        except sw.witnesses.ScanExhausted as exc:
            doc = sw.certificates.document_for_exhaustion(
                exc, config, time.perf_counter() - started)
        sw.certificates.write_document(doc, path)

    def _open_set_verify(self, path: str) -> list[str]:
        certificates = self.sw.certificates
        doc = certificates.load_document(path)
        # Library configurations are not CLI configurations, so an
        # exhaustion document here cannot be replayed by `verify`.
        return certificates.verify_document(doc, rerun_exhaustion=False)

    def _pattern(self, job: dict) -> dict:
        series = self.sw.catalog_series(job["series"])
        run_s, value, error = self._timed(
            lambda: self.sw.witnesses.uniform_bound_bruteforce(
                series, job["n"], job["alphabet"]))
        out = {"run_s": run_s, "verify_s": 0.0, "ops": 1, "failed": 0,
               "outcome": "value", "reason": None, "doc": None, "value": value}
        if error is not None:
            out.update(failed=1, outcome="crash", reason=error)
        return out


def run_round(work: Workload, tag: str) -> list[dict]:
    """One pass over the job list; documents are kept as `<tag>-jobNN.json`."""
    return [work.execute(i, job, keep=f"{tag}-job{i:02d}.json")
            for i, job in enumerate(work.jobs)]


def round_seconds(results: list[dict]) -> float:
    return sum(r["run_s"] + r["verify_s"] for r in results)


def traced_round(work: Workload, tag: str) -> tuple[dict, list[dict]]:
    tracer = work.tracer
    tracer.reset()
    tracer.install_spans()
    try:
        results = run_round(work, tag)
    finally:
        tracer.uninstall()
    if not tracer.restored():
        raise RuntimeError("a traced function was not restored")
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.unattributed_s"] = tracer.root_time_ops - tracer.root_time
    return metrics, results


def counting_round(work: Workload, tag: str) -> tuple[dict, list[dict]]:
    tracer = work.tracer
    tracer.counts.clear()
    tracer.install_counters()
    try:
        results = run_round(work, tag)
    finally:
        tracer.uninstall()
    if not tracer.restored():
        raise RuntimeError("a counted function was not restored")
    return {metric: tracer.counts[metric] for metric in tracing.COUNTED.values()}, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    work = Workload(args.workload, args.seed, args.out_dir)
    if args.setup_only:
        return 0
    work.execute(0, work.jobs[0])  # warm-up, untimed and unrecorded

    probe_jobs = joblib.sequence_probes(args.seed) if args.workload == "cli-evidence" else []
    probes = [work.execute(0, job, keep=f"probe{i}.json") for i, job in enumerate(probe_jobs)]

    rounds = []  # results of the untraced rounds
    traced = []  # (per-layer metrics, results) of the traced rounds
    start = time.perf_counter()
    while True:
        rounds.append(run_round(work, f"r{len(rounds)}"))
        if args.trace:
            traced.append(traced_round(work, f"t{len(traced)}"))
        if time.perf_counter() - start >= args.seconds:
            break
    # Read before anything else runs: the peak of the program's own work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer, checked_rounds, counts_repeat = {}, [r for _, r in traced], True
    if args.trace:
        counts, counted_results = counting_round(work, "c0")
        checked_rounds.append(counted_results)
        layers = [t[0] for t in traced]
        for key in layers[0]:
            values = [m[key] for m in layers]
            per_layer[key] = values[0] if key in tracing.COUNT_METRICS \
                else statistics.median(values)
        per_layer.update(counts)
        per_layer["trace.overhead_ratio"] = (
            statistics.median(round_seconds(r) for _, r in traced)
            / statistics.median(round_seconds(r) for r in rounds))
        counts_repeat = all(
            m[k] == layers[0][k] for m in layers for k in tracing.COUNT_METRICS if k in m)
        with open(os.path.join(args.out_dir, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(work.tracer.spans, handle)

    summary = {
        "jobs": work.jobs,
        "rounds": rounds,
        "traced_rounds": len(traced),
        # Traced and counting rounds: checked like the others, never timed.
        "other_rounds": checked_rounds,
        "probe_jobs": probe_jobs,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "counts_repeat": counts_repeat,
        "numpy": work.np.__version__,
        "per_layer": per_layer,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

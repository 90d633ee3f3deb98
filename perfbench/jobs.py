"""Seeded job lists for the benchmark workloads.

Every workload is a fixed list of cells (construction, series and the
parameter that sets its cost class); the seed draws the free parameters of
each cell: horizons inside a narrow band around the cell's nominal value,
bounds M, targets, depths, levels m, word lengths and the random bases of
the open sets.  Keeping the cells fixed and the bands narrow makes the work
of one job list nearly the same for every seed, so different seeds measure
the same load on different inputs.

This module imports nothing from serieswitness: the program sees only the
generated inputs.
"""

from __future__ import annotations

import hashlib
import random

# Sequence-space cells that exited 1 when this benchmark was defined
# ("not enough candidate indices to seed the base stem").  They run once, untimed, as
# probes; their outcome is reported with the fail ratio, not hidden.
SEQUENCE_PROBE_CELLS = (
    ("decaying-signed-c0", "dense-open-bm"),
    ("decaying-signed-c0", "dense-open-cm"),
    ("unit-basis-c0", "dense-open-bm"),
    ("unit-basis-c0", "dense-open-cm"),
)

SEQUENCE_SERIES = ("decaying-signed-c0", "unit-basis-c0")
SEQUENCE_HORIZON = 30_000  # sup-norm scans run to the horizon: cost ~ horizon
SEQUENCE_CONSTRUCTIONS = (
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

# Shared inputs of the open-set jobs: the unbounded rearrangement p' and the
# unbounded subseries stream s' that the escape witnesses continue along.
OPEN_SET_SERIES = "alt-harmonic"
OPEN_SET_HORIZON = 3_000_000
OPEN_SET_DEPTH = 3


def seed_int(workload: str, seed: int) -> int:
    """Stable 64-bit seed for one workload, independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _band(rng: random.Random, nominal: int, rel: float = 0.02) -> int:
    return int(round(nominal * rng.uniform(1.0 - rel, 1.0 + rel)))


def _cli(series: str, construction: str, horizon: int, **flags) -> dict:
    job = {"kind": "cli", "series": series, "construction": construction,
           "horizon": horizon}
    job.update(flags)
    return job


def _deep_rearrangement(rng: random.Random) -> list[dict]:
    # depth 3 first crosses 3 at stem position 1,414,491 and closes at
    # 2,827,230, so every horizon band stays above that.
    def deep():
        return _band(rng, 3_000_000, 0.03)

    alt = "alt-harmonic"
    return [
        _cli(alt, "rearrangement", deep(), depth=1),
        _cli(alt, "rearrangement", deep(), depth=2),
        _cli(alt, "rearrangement", deep(), depth=3),
        _cli(alt, "grow-subseries", deep(), target=round(rng.uniform(3.0, 4.0), 3)),
        _cli(alt, "grow-subseries", deep(), target=round(rng.uniform(6.86, 6.9), 3)),
        _cli(alt, "nowhere-dense-subseq", deep(), m=rng.randint(1, 3)),
        _cli(alt, "nowhere-dense-rearr", deep(), m=1),
        _cli(alt, "nowhere-dense-rearr", deep(), m=2),
        _cli("growing-real", "rearrangement", _band(rng, 1_000_000),
             depth=rng.randint(1, 3)),
        _cli("growing-real", "limsup-subseries", _band(rng, 1_000_000),
             depth=rng.randint(8, 20)),
    ]


def _interval_evidence(rng: random.Random) -> list[dict]:
    alt, grow = "alt-harmonic", "growing-real"

    # M sets the exceedance set, so the document size and the verify cost:
    # its bands stay narrow.
    def m_bound(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 4)

    jobs = [
        _cli(alt, "i-bounded", _band(rng, 60_000), ideal="fin", M=m_bound(0.4, 0.45)),
        _cli(alt, "i-bounded", _band(rng, 120_000), ideal="density", M=m_bound(0.4, 0.45)),
        _cli(grow, "i-bounded", _band(rng, 40_000), ideal="fin", M=m_bound(800.0, 1000.0)),
        _cli(grow, "i-bounded", _band(rng, 120_000), ideal="density",
             M=m_bound(3000.0, 4000.0)),
    ]
    for m in (2, 3, 4, 5):
        jobs.append(_cli(alt, "dense-open-am", _band(rng, 1_000_000), m=m))
    for m in (2, 3, 4):
        jobs.append(_cli(alt, "dense-open-bm", _band(rng, 1_000_000), m=m))
    for m in (2, 3):
        jobs.append(_cli(alt, "dense-open-cm", _band(rng, 3_000_000, 0.03), m=m))
    return jobs


def _sequence_flags(rng: random.Random, construction: str) -> dict:
    if construction == "grow-subseries":
        return {"target": round(rng.uniform(1.5, 3.0), 3)}
    if construction == "rearrangement":
        return {"depth": rng.randint(2, 3)}
    if construction == "limsup-subseries":
        return {"depth": rng.randint(2, 6)}
    if construction == "i-bounded":
        # M >= 1 keeps both verdicts at bounded evidence (every norm is <= 1);
        # the JSON-heavy verdicts belong to interval-evidence.
        return {"M": round(rng.uniform(1.0, 1.5), 4)}
    return {"m": rng.randint(1, 2)}


def _sequence_space(rng: random.Random) -> list[dict]:
    jobs = []
    # The ideal is fixed per series: fin scans one interval per position,
    # density a few dozen, so drawing it would change the cost class.
    for series, ideal in zip(SEQUENCE_SERIES, ("fin", "density")):
        for construction in SEQUENCE_CONSTRUCTIONS:
            if (series, construction) in SEQUENCE_PROBE_CELLS:
                continue
            flags = _sequence_flags(rng, construction)
            if construction == "i-bounded":
                flags["ideal"] = ideal
            jobs.append(_cli(series, construction, _band(rng, SEQUENCE_HORIZON), **flags))
        jobs.append({"kind": "pattern", "series": series,
                     "n": rng.randint(10, 12), "alphabet": [0, 1]})
        jobs.append({"kind": "pattern", "series": series, "n": 12,
                     "alphabet": [-1, 0, 1]})
    return jobs


def sequence_probes(seed: int) -> list[dict]:
    """The known exit-1 cells, with seeded flags like the timed cells."""
    rng = random.Random(seed_int("sequence-space-probes", seed))
    return [
        _cli(series, construction, _band(rng, SEQUENCE_HORIZON), m=rng.randint(1, 2))
        for series, construction in SEQUENCE_PROBE_CELLS
    ]


def _random_open_sets(rng: random.Random) -> list[dict]:
    # Escape witnesses at level m = 1 along p' (rearrangements) and s'
    # (subseries).  Cost grows with the square of the base's run count, so
    # r stays within 0.5 % of its cell; the seed draws the values of each base.
    # value_max = 1,800 puts odd values above p''s depth-2 boundary (1,752)
    # into the base, so covering it walks deep into p'.
    cells = (
        ("rearr", 250, 500), ("rearr", 200, 1800),
        ("subseq", 900, 2700), ("subseq", 1500, 4500),
    )
    jobs = []
    for stem, r, value_max in cells:
        jobs.append({
            "kind": "open-set",
            "series": OPEN_SET_SERIES,
            "stem": stem,
            "m": 1,
            "r": _band(rng, r, 0.005),
            "value_max": value_max,
            "base_seed": rng.getrandbits(63),
            "horizon": OPEN_SET_HORIZON,
        })
    return jobs


def _cli_evidence(rng: random.Random) -> list[dict]:
    # Interval evidence and the sequence-space cells share one workload so
    # that each run can measure longer: on a noisy shared host, longer runs
    # are what keeps run-to-run spreads inside the bounds.
    return _interval_evidence(rng) + _sequence_space(rng)


def _stem_load(rng: random.Random) -> list[dict]:
    # Stems of a few long runs (deep rearrangements, 2.8e6-value masks) and
    # stems of hundreds of short runs (random open sets).  The run-heavy
    # pure-Python part slows down most when the shared host does, so it
    # stays under half of the workload's time.
    return _deep_rearrangement(rng) + _random_open_sets(rng)


_GENERATORS = {
    "cli-evidence": _cli_evidence,
    "stem-load": _stem_load,
}
# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = tuple(_GENERATORS)


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one workload for one seed, in run order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(seed_int(workload, seed)))


def cli_argv(job: dict, out_path: str) -> list[str]:
    """`serieswitness run` arguments for a CLI job; --horizon is always given."""
    argv = ["run", "--series", job["series"], "--construction", job["construction"],
            "--horizon", str(job["horizon"])]
    for key in ("m", "M", "target", "depth", "ideal"):
        if key in job:
            argv += [f"--{key}", str(job[key])]
    return argv + ["--out", out_path]

"""Independent checks of the documents and values the program produces.

Nothing here imports serieswitness.  Terms come from the catalog formulas
written out again below, stems are decoded from the JSON document, scalar
partial sums are accumulated in numpy's extended precision (long double)
and sup-norm partial sums of the sequence-space series by a plain
coordinate dictionary.

Tolerance.  The program sums float64 terms, each rounded once from its
exact value, in a running (chunked sequential) order.  With u = 2**-53
and A_n = sum |x_i| over the first n terms, its error at position n is at
most (n + 1) * u * A_n (summation bound gamma_n plus one rounding per
term; Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).
The extended-precision route errs by at most (n + 1) * eps_ld * A_n.  A
recorded value passes when it lies within the sum of both bounds, times
1.01 for the rounding of the bound itself, of the recomputed value.
"""

from __future__ import annotations

import math

import numpy as np

DELTA = 1e-9  # the program's documented comparison margin
_U64 = 2.0**-53
_ULD = float(np.finfo(np.longdouble).eps)

SCALAR_SERIES = ("alt-harmonic", "growing-real")
VECTOR_SERIES = ("unit-basis-c0", "decaying-signed-c0")


def scalar_terms(series: str, idx: np.ndarray) -> np.ndarray:
    """Catalog terms x_n in long double: (-1)^n / n or (-1)^n * n."""
    n = idx.astype(np.longdouble)
    sign = np.where(idx % 2 == 0, 1.0, -1.0).astype(np.longdouble)
    if series == "alt-harmonic":
        return sign / n
    if series == "growing-real":
        return sign * n
    raise ValueError(f"no scalar formula for {series!r}")


def vector_term(series: str, n: int) -> tuple[int, float]:
    """(coordinate, coefficient) of the single-entry term x_n."""
    if series == "unit-basis-c0":
        return n, 1.0
    if series == "decaying-signed-c0":
        c = (n + 1) // 2
        return c, (1.0 if n % 2 == 0 else -1.0) / c
    raise ValueError(f"no vector formula for {series!r}")


def stem_indices(stem: dict, length: int) -> tuple[np.ndarray, np.ndarray | None]:
    """First `length` series indices of a JSON stem, with 0-1 weights for
    selection words (None for index stems)."""
    if stem["kind"] == "selection":
        bits = np.concatenate(
            [np.full(int(c), int(b), dtype=np.int64) for b, c in stem["rle"]]
            or [np.empty(0, dtype=np.int64)]
        )[:length]
        return np.arange(1, bits.size + 1, dtype=np.int64), bits
    parts, taken = [], 0
    for start, step, count in stem["segments"]:
        if taken >= length:
            break
        take = min(int(count), length - taken)
        parts.append(int(start) + int(step) * np.arange(take, dtype=np.int64))
        taken += take
    idx = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return idx, None


def running_norms(series: str, idx: np.ndarray, weights: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Norms of the partial sums at every position, and the tolerance of
    each recorded float64 value against them (see the module docstring)."""
    if series in SCALAR_SERIES:
        terms = scalar_terms(series, idx)
        if weights is not None:
            terms = terms * weights
        norms = np.abs(np.cumsum(terms)).astype(np.float64)
        mass = np.cumsum(np.abs(terms).astype(np.float64))
    elif series in VECTOR_SERIES:
        coords: dict[int, float] = {}
        norms = np.empty(idx.size, dtype=np.float64)
        mass = np.empty(idx.size, dtype=np.float64)
        best, total = 0.0, 0.0
        for i, n in enumerate(idx.tolist()):
            if weights is None or weights[i]:
                c, a = vector_term(series, n)
                old = coords.pop(c, 0.0)
                if old + a != 0.0:
                    coords[c] = old + a
                total += abs(a)
                if abs(old + a) >= best:
                    best = abs(old + a)
                elif abs(old) == best:
                    best = max(map(abs, coords.values()), default=0.0)
            norms[i], mass[i] = best, total
    else:
        raise ValueError(f"unknown series {series!r}")
    count = np.arange(2, idx.size + 2, dtype=np.float64)
    return norms, 1.01 * count * (_U64 + _ULD) * mass + 1e-300


def _check_witness(result: dict) -> list[str]:
    series = result["series"]
    issues = []
    sums = [c for c in result["checkpoints"] if c["kind"] == "partial-sum"]
    terms = [c for c in result["checkpoints"] if c["kind"] == "term-norm"]
    last = max((c["position"] for c in sums + terms), default=0)
    idx, weights = stem_indices(result["stem"], last)
    if idx.size < last:
        return [f"stem has {idx.size} entries, checkpoints reach {last}"]
    if sums:
        norms, tol = running_norms(series, idx, weights)
        for c in sums:
            p = c["position"] - 1
            if abs(norms[p] - c["value"]) > tol[p]:
                issues.append(
                    f"partial sum at {c['position']}: recorded {c['value']!r}, "
                    f"independent {float(norms[p])!r} (tolerance {tol[p]:.3g})"
                )
    for c in terms:
        n = int(idx[c["position"] - 1])
        if series in SCALAR_SERIES:
            value = float(abs(scalar_terms(series, np.array([n]))[0]))
        else:
            value = abs(vector_term(series, n)[1])
        if abs(value - c["value"]) > 4 * _U64 * value:
            issues.append(f"term norm at {c['position']}: recorded {c['value']!r}, "
                          f"independent {value!r}")
    return issues


def _interval_starts(talagrand: dict, horizon: int) -> np.ndarray:
    """n_1 < n_2 < ... up to the first value past the horizon."""
    label = talagrand["label"]
    if label == "linear":
        return np.arange(1, horizon + 2, dtype=np.int64)
    if label == "geometric":
        return 2 ** np.arange(1, horizon.bit_length() + 2, dtype=np.int64)
    return np.asarray(talagrand["values"], dtype=np.int64)


def _contained(mask: np.ndarray, starts: np.ndarray) -> set[int]:
    """Interval indices k (1-based) whose whole [n_k, n_{k+1}) lies in mask."""
    horizon = mask.size
    lo, hi = starts[:-1], starts[1:] - 1
    keep = hi <= horizon
    prefix = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
    full = prefix[hi[keep]] - prefix[lo[keep] - 1] == hi[keep] - lo[keep] + 1
    return set((np.flatnonzero(keep)[full] + 1).tolist())


def _check_verdict(result: dict) -> list[str]:
    horizon, bound = int(result["horizon"]), float(result["bound"])
    idx, weights = stem_indices(result["indexer"], horizon)
    if idx.size < horizon:
        return [f"indexer has {idx.size} entries, horizon is {horizon}"]
    norms, tol = running_norms(result["series"], idx, weights)
    sure = norms - tol > bound + DELTA
    maybe = norms + tol > bound + DELTA
    recorded = np.zeros(horizon, dtype=bool)
    for start, step, count in result["exceed_runs"]:
        recorded[int(start) - 1 + int(step) * np.arange(int(count))] = True
    issues = []
    if (sure & ~recorded).any() or (recorded & ~maybe).any():
        issues.append("exceedance set does not match the independent recount")
    starts = _interval_starts(result["talagrand"], horizon)
    low, high = _contained(sure, starts), _contained(maybe, starts)
    listed = set(result["contained_intervals"])
    if not low <= listed <= high:
        issues.append(
            f"contained intervals: {len(listed)} listed, independent recount "
            f"gives between {len(low)} and {len(high)}"
        )
    if result["interval_count"] != len(listed):
        issues.append("interval_count does not match contained_intervals")
    if not recorded.any():
        status = "bounded-evidence"
    elif len(listed) >= int(result["threshold"]):
        status = "i-unbounded-evidence"
    else:
        status = "undecided"
    if status != result["status"]:
        issues.append(f"status {result['status']!r}, independent {status!r}")
    return issues


def check_document(doc: dict) -> list[str]:
    """Discrepancies between a document and the independent recount.
    Exhaustion documents carry no values; `verify` replays them."""
    kind = doc.get("kind")
    if kind == "witness":
        return _check_witness(doc["result"])
    if kind == "verdict":
        return _check_verdict(doc["result"])
    if kind == "exhaustion":
        return []
    return [f"unknown document kind {kind!r}"]


def pattern_max(series: str, n: int, alphabet: list[int]) -> tuple[float, float]:
    """Exact max over words t of ||sum t(i) x_i|| and its tolerance.

    Over {0,1} the best word takes every term of one sign (per coordinate
    for the sup norm); over {-1,0,1} it flips every term to one sign.
    """
    idx = np.arange(1, n + 1, dtype=np.int64)
    if series in SCALAR_SERIES:
        x = scalar_terms(series, idx).astype(np.float64).tolist()
        pos = math.fsum(v for v in x if v > 0)
        neg = -math.fsum(v for v in x if v < 0)
        best = pos + neg if alphabet == [-1, 0, 1] else max(pos, neg)
        mass = pos + neg
    else:
        by_coord: dict[int, list[float]] = {}
        for k in idx.tolist():
            c, a = vector_term(series, k)
            by_coord.setdefault(c, []).append(a)
        best, mass = 0.0, 0.0
        for values in by_coord.values():
            pos = math.fsum(v for v in values if v > 0)
            neg = -math.fsum(v for v in values if v < 0)
            best = max(best, pos + neg if alphabet == [-1, 0, 1] else max(pos, neg))
            mass = max(mass, pos + neg)
    return best, 1.01 * (n + 1) * _U64 * mass + 1e-300

"""Spans and counters recorded from outside the program.

The traced pass wraps the public functions and methods of each layer
(module) of serieswitness at every place the package binds them, so a
call through `witnesses.norms_at` is timed as well as one through
`series.norms_at`.  Spans stay in memory and are written out when the
benchmark ends.  Private helpers are not wrapped: their time is their
caller's self time.  Names called once per term, run, checkpoint or
interval are not spanned either (PER_ELEMENT): a span there would cost
more than the work.  The fine-grained counts (`runs_intersect` calls,
`FiniteSupportVector` constructions) come from a separate counting pass,
so the cost of counting never lands in a layer's self time.

Every wrapper is removed afterwards and `restored()` checks that each
binding holds its original object again.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "serieswitness"
LAYERS = ("cli", "runners", "witnesses", "series", "stems", "spaces",
          "ideals", "certificates")

# Acts on one vector, term, run, checkpoint or interval at a time.
PER_ELEMENT = {
    "witnesses.relation_holds", "witnesses.Checkpoint.holds",
    "witnesses.WitnessCertificate.detail", "witnesses.WitnessCertificate.final_norm",
    "series.SeriesOracle.term", "series.PartialSumTrace.is_contiguous",
    "stems.runs_intersect", "stems._RunStem.value_at",
    "stems.IndexRun.value_at", "stems.IndexRun.to_numpy", "stems.IndexRun.head",
    "ideals.interval", "ideals.TalagrandSequence.n", "ideals.TalagrandSequence.max_k",
    "certificates.checkpoint_to_json", "certificates.checkpoint_from_json",
}
PER_ELEMENT_LAYERS = {"spaces"}

# Stem constructors are the one place an __init__ is spanned: construction
# validates the stem (pairwise injectivity for rearrangements).
CONSTRUCTORS = {"stems._RunStem.__init__", "stems.SelectionStem.__init__"}
CONSTRUCT = "stems.construct"

COUNTED = {
    "stems.runs_intersect": "stems.runs_intersect.calls",
    "spaces.FiniteSupportVector.__init__": "spaces.vectors_built",
}

ENCODE = {"certificates.document_for_certificate", "certificates.document_for_exhaustion",
          "certificates.document_for_verdict", "certificates.certificate_to_json",
          "certificates.stem_to_json", "certificates.talagrand_to_json",
          "certificates.dumps_document", "certificates.write_document",
          "certificates.payload_without_timing"}
DECODE = {"certificates.load_document", "certificates.certificate_from_json",
          "certificates.stem_from_json", "certificates.talagrand_from_json"}
TOTALED = {"witnesses.provision_candidate_stream", "witnesses.verify_certificate",
           "witnesses.uniform_bound_bruteforce", "stems._RunStem.cover_position",
           "ideals.exceedance_report"}
BIJECTION = {"stems.extend_to_prefix_bijection", "stems.missing_below",
             "stems.RearrStem.is_prefix_bijection"}


def _modules():
    importlib.import_module(PACKAGE)
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def public_targets() -> dict[str, tuple[str, object, str, object]]:
    """name -> (site kind, owner, attribute, original) for every public
    function of each layer and every public method of its classes."""
    targets = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                targets[f"{layer}.{name}"] = ("module", mod, name, obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for klass in obj.__mro__:
                    if klass.__module__ != mod.__name__:
                        continue
                    for attr, raw in vars(klass).items():
                        key = f"{layer}.{klass.__name__}.{attr}"
                        if attr.startswith("_") and key not in CONSTRUCTORS | set(COUNTED):
                            continue
                        func = getattr(raw, "__func__", raw)
                        if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                            targets[key] = ("class", klass, attr, raw)
    return targets


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _observe(key, args, kwargs, result):
    """Work done by one call, read from its arguments and result."""
    if key == "series.norms_at":
        import numpy as np
        pos = np.asarray(_arg(args, kwargs, 2, "positions"))
        return {"positions": int(pos.size), "terms": int(pos.max()) if pos.size else 0,
                "scalar": bool(_arg(args, kwargs, 0, "series").is_scalar)}
    if key in ("series.SeriesOracle.scalar_terms", "series.SeriesOracle.term_norms"):
        return {"terms": int(len(_arg(args, kwargs, 1, "indices")))}
    if key == CONSTRUCT:
        runs = getattr(args[0], "runs", ())
        return {"runs": len(runs)}
    if key == "stems.missing_below":
        return {"mask": int(_arg(args, kwargs, 1, "bound")) + 1}
    if key == "stems.RearrStem.is_prefix_bijection":
        length = _arg(args, kwargs, 1, "length")
        return {"mask": (len(args[0]) if length is None else int(length)) + 1}
    if key == "ideals.exceedance_report":
        trace, seq = _arg(args, kwargs, 0, "trace"), _arg(args, kwargs, 2, "seq")
        return {"positions": trace.horizon, "intervals": _intervals(seq, trace.horizon)}
    if key == "witnesses.uniform_bound_bruteforce":
        n = int(_arg(args, kwargs, 1, "n"))
        alphabet = set(_arg(args, kwargs, 2, "alphabet"))
        return {"words": len(alphabet) ** n}
    if key == "certificates.write_document":
        doc, path = _arg(args, kwargs, 0, "doc"), _arg(args, kwargs, 1, "path")
        # The digits of the timing value vary from run to run; leave them out
        # so the byte count repeats exactly.
        return {"bytes": os.path.getsize(path) - len(repr(doc["timing"]["seconds"]))}
    if key.startswith("witnesses.") and hasattr(result, "checkpoints") \
            and hasattr(result, "stem"):
        return {"checkpoints": len(result.checkpoints), "stem": len(result.stem)}
    return None


def _intervals(seq, horizon: int) -> int:
    """Intervals [n_k, n_{k+1}) with n_k <= horizon that exceedance_report scans."""
    if seq.label == "linear":
        return horizon
    if seq.label == "geometric":
        return max(horizon.bit_length() - 1, 0)
    return sum(1 for k in range(1, seq.max_k() + 1) if seq.n(k) <= horizon)


class Tracer:
    """In-memory spans: [name, start, end, parent, child time, extra, error]."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.root_time = 0.0  # time covered by spans without a parent
        self.root_time_ops = 0.0  # time of the timed operations themselves
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, key: str, func):
        name = CONSTRUCT if key in CONSTRUCTORS else key
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else None, 0.0, None, None])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self._close(index, clock())
                spans[index][6] = type(exc).__name__
                raise
            self._close(index, clock())
            spans[index][5] = _observe(name, args, kwargs, result)
            return result

        return wrapper

    def _close(self, index: int, end: float) -> None:
        span = self.spans[index]
        span[2] = end
        self.stack.pop()
        duration = end - span[1]
        if span[3] is None:
            self.root_time += duration
        else:
            self.spans[span[3]][4] += duration

    def _count_wrapper(self, metric: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[metric] += 1
            return func(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, original, replacement) -> None:
        if isinstance(original, classmethod):
            replacement = classmethod(replacement)
        elif isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _install(self, make) -> None:
        modules = _modules()
        for key, (site, owner, attr, raw) in public_targets().items():
            func = getattr(raw, "__func__", raw)
            replacement = make(key, func)
            if replacement is None:
                continue
            if site == "class":
                self._patch(owner, attr, raw, replacement)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, raw, replacement)

    def install_spans(self) -> None:
        def make(key, func):
            layer = key.split(".", 1)[0]
            if key in PER_ELEMENT or layer in PER_ELEMENT_LAYERS or key in COUNTED:
                return None
            return self._span_wrapper(key, func)

        self._install(make)

    def install_counters(self) -> None:
        self._install(lambda key, func: self._count_wrapper(COUNTED[key], func)
                      if key in COUNTED else None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched binding holds its original object again."""
        ok = all(vars(owner).get(attr) is original
                 for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.root_time = 0.0
        self.root_time_ops = 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times, totals, counts and rates from one pass."""
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    work: Counter = Counter()

    def outermost(i: int, group) -> bool:
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] in group:
                return False
            parent = spans[parent][3]
        return True

    for i, (name, start, end, parent, child, extra, error) in enumerate(spans):
        duration = end - start
        layer = layer_of[i]
        self_s[layer] += duration - child
        top_level = parent is None or layer_of[parent] != layer
        if name in ENCODE and outermost(i, ENCODE):
            total["encode"] += duration
        if name in DECODE and outermost(i, DECODE):
            total["decode"] += duration
        if name in BIJECTION and outermost(i, BIJECTION):
            total["bijection"] += duration
        if name == CONSTRUCT and outermost(i, {CONSTRUCT}):
            total["construct"] += duration
        if name in ("series.SeriesOracle.scalar_terms", "series.SeriesOracle.term_norms"):
            total["term_rules"] += duration
        if name in TOTALED:
            total[name] += duration
        if layer == "witnesses" and top_level and error == "ScanExhausted":
            work["exhausted"] += 1
        if not extra:
            continue
        if name == "series.norms_at":
            work["norms_at"] += 1
            kind = "scalar" if extra["scalar"] else "vector"
            work["positions"] += extra["positions"]
            work["terms"] += extra["terms"]
            work[f"{kind}_terms"] += extra["terms"]
            total["norms_at"] += duration
            total[f"{kind}_norms_at"] += duration
        elif name in BIJECTION:
            work["mask"] += extra["mask"]
        elif "checkpoints" in extra:
            if top_level:
                work["checkpoints"] += extra["checkpoints"]
                work["stem"] += extra["stem"]
        else:
            for key, value in extra.items():
                work[f"{name}.{key}"] += value

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    words = work["witnesses.uniform_bound_bruteforce.words"]
    doc_bytes = work["certificates.write_document.bytes"]
    positions = work["ideals.exceedance_report.positions"]
    return {
        "cli.self_s": self_s["cli"],
        "runners.self_s": self_s["runners"],
        "witnesses.self_s": self_s["witnesses"],
        "witnesses.provision_s": total["witnesses.provision_candidate_stream"],
        "witnesses.verify_certificate_s": total["witnesses.verify_certificate"],
        "witnesses.pattern_words_per_s": rate(words, total["witnesses.uniform_bound_bruteforce"]),
        "witnesses.exhausted": work["exhausted"],
        "witnesses.checkpoints": work["checkpoints"],
        "witnesses.stem_entries": work["stem"],
        "series.self_s": self_s["series"],
        "series.norms_at.calls": work["norms_at"],
        "series.positions": work["positions"],
        "series.terms_streamed": work["terms"],
        "series.positions_per_s": rate(work["positions"], total["norms_at"]),
        "series.scalar_terms_per_s": rate(work["scalar_terms"], total["scalar_norms_at"]),
        "series.vector_terms_per_s": rate(work["vector_terms"], total["vector_norms_at"]),
        "series.term_rules_s": total["term_rules"],
        "series.term_rules_terms": (work["series.SeriesOracle.scalar_terms.terms"]
                                    + work["series.SeriesOracle.term_norms.terms"]),
        "stems.self_s": self_s["stems"],
        "stems.construct_s": total["construct"],
        "stems.runs_built": work[f"{CONSTRUCT}.runs"],
        "stems.cover_position_s": total["stems._RunStem.cover_position"],
        "stems.bijection_s": total["bijection"],
        "stems.mask_bytes": work["mask"],
        "ideals.self_s": self_s["ideals"],
        "ideals.intervals_scanned": work["ideals.exceedance_report.intervals"],
        "ideals.positions_per_s": rate(positions, total["ideals.exceedance_report"]),
        "certificates.encode_s": total["encode"],
        "certificates.decode_s": total["decode"],
        "certificates.self_s": self_s["certificates"],
        "certificates.doc_bytes": doc_bytes,
        "certificates.encode_mb_per_s": rate(doc_bytes / 1e6, total["encode"]),
    }


COUNT_METRICS = (
    "witnesses.exhausted", "witnesses.checkpoints", "witnesses.stem_entries",
    "series.norms_at.calls", "series.positions", "series.terms_streamed",
    "series.term_rules_terms", "spaces.vectors_built", "stems.runs_built",
    "stems.runs_intersect.calls", "stems.mask_bytes", "ideals.intervals_scanned",
    "certificates.doc_bytes",
)

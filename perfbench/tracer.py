"""Spans and counters recorded around gmlab's module-level functions and
ring methods, from outside the program.

`Tracer.install()` replaces each listed function by a wrapper in every gmlab
module that holds it (names bound by `from .linalg import rref` are
replaced in the importing module too; names imported inside a function body
are read at call time and so see the wrapper).  `uninstall()` puts the
originals back.  A span is `[name, start, end, parent, request]`; the
request is the benchmark operation that caused it.  Self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

MODULES = (
    "cli", "vfsearch", "gmlag", "linalg", "exact", "pluecker",
    "bott", "ledger", "lattice", "ckmotives", "suite", "weights",
)

RING_LABELS = {"PrimeField": "Fp", "GFExt": "Fq", "RationalField": "QQ", "IntegersModPK": "ZpK"}
RINGS = ("Fp", "Fq", "QQ", "ZpK")


def ring_label(obj) -> str:
    """Ring of a ring argument, or of a datum's `.ring`."""
    ring = getattr(obj, "ring", obj)
    return RING_LABELS.get(type(ring).__name__, "other")


# (module, function, span name); a name ending in "." gets the ring label
# of the first argument appended
SPANS = (
    ("vfsearch", "_batch_det5", "vfsearch.det5"),
    ("vfsearch", "_batch_adjugate", "vfsearch.adjugate"),
    ("vfsearch", "_scan_range", "vfsearch.scan_range"),
    ("vfsearch", "enumerate_hits", "vfsearch.enumerate"),
    ("vfsearch", "filter_hits", "vfsearch.filter"),
    ("vfsearch", "matches_pinned_classification", "vfsearch.classify"),
    ("vfsearch", "certify_family_singular", "vfsearch.certify"),
    ("vfsearch", "recheck_certificate_numeric", "vfsearch.recheck"),
    ("vfsearch", "verify_nilpotent_lift", "vfsearch.nilpotent"),
    ("vfsearch", "nilpotent_kernel_analysis", "vfsearch.nilpotent"),
    ("gmlag", "lagrangian_to_gm", "gmlag.lagrangian_to_gm"),
    ("gmlag", "gm_to_lagrangian", "gmlag.gm_to_lagrangian"),
    ("gmlag", "random_lagrangian", "gmlag.random_lagrangian"),
    ("gmlag", "contract", "gmlag.wedge.contract"),
    ("gmlag", "wedge_1_with", "gmlag.wedge.wedge_1_with"),
    ("gmlag", "wedge_vectors", "gmlag.wedge.wedge_vectors"),
    ("gmlag", "_eps_of_wedge", "gmlag.wedge.eps_of_wedge"),
    ("gmlag", "canonical_wq", "gmlag.canonical"),
    ("gmlag", "_row_span_canonical", "gmlag.canonical"),
    ("gmlag", "lift_lagrangian", "gmlag.lift"),
    ("gmlag", "scan_decomposables", "gmlag.scan."),
    ("gmlag", "find_opposite_V5", "gmlag.find_v5p"),
    ("linalg", "rref", "linalg.rref."),
    ("linalg", "kernel", "linalg.kernel."),
    ("linalg", "solve", "linalg.solve."),
    ("linalg", "mat_mul", "linalg.mat_mul."),
    ("exact", "smith_normal_form", "exact.smith"),
    ("exact", "hnf", "exact.hnf"),
    ("exact", "_rank_bareiss", "exact.rank_bareiss"),
    ("exact", "_rank_modp", "exact.rank_modp"),
    ("exact", "kernel_over", "exact.kernel_over"),
    ("pluecker", "action_matrix", "pluecker.action_matrix"),
    ("bott", "bundle_cohomology", "bott.bundle_cohomology"),
    ("ledger", "derive_diamond", "ledger.derive_diamond"),
    ("lattice", "verify_gm_lattice_facts", "lattice.verify"),
    ("ckmotives", "verify_chow_kunneth", "ckmotives.verify"),
    ("cli", "_emit", "cli.emit"),
)

RING_OPS = ("add", "sub", "mul", "neg")

# inclusive-time metrics: metric -> span names (nested spans of one group
# are counted once, through the outermost)
INCLUSIVE = {
    "vfsearch.filter.s": ("vfsearch.filter",),
    "vfsearch.certify.s": ("vfsearch.certify",),
    "vfsearch.recheck.s": ("vfsearch.recheck",),
    "vfsearch.nilpotent.s": ("vfsearch.nilpotent",),
    "gmlag.check.s": ("gmlag.check",),
    "gmlag.wedge.s": (
        "gmlag.wedge.contract", "gmlag.wedge.wedge_1_with",
        "gmlag.wedge.wedge_vectors", "gmlag.wedge.eps_of_wedge",
    ),
    "gmlag.canonical.s": ("gmlag.canonical",),
    "gmlag.find_v5p.s": ("gmlag.find_v5p",),
    "exact.smith.s": ("exact.smith",),
    "exact.hnf.s": ("exact.hnf",),
    "exact.rank_bareiss.s": ("exact.rank_bareiss",),
    "exact.rank_modp.s": ("exact.rank_modp",),
    "exact.kernel_over.s": ("exact.kernel_over",),
    "pluecker.action_matrix.s": ("pluecker.action_matrix",),
    "bott.bundle_cohomology.s": ("bott.bundle_cohomology",),
    "ledger.derive_diamond.s": ("ledger.derive_diamond",),
    "lattice.verify.s": ("lattice.verify",),
    "ckmotives.verify.s": ("ckmotives.verify",),
    "cli.emit.s": ("cli.emit",),
}

# self-time metrics: metric -> span name
SELF = {
    "vfsearch.det5.self_s": "vfsearch.det5",
    "vfsearch.adjugate.self_s": "vfsearch.adjugate",
    "vfsearch.scan_range.self_s": "vfsearch.scan_range",
    "vfsearch.enumerate.self_s": "vfsearch.enumerate",
    # a search's own time beyond the sweep, filter, classification and
    # output: reading or writing the cache file
    "vfsearch.cache_write.s": "bench.search.cold",
    "vfsearch.cache_read.s": "bench.search.warm",
    "gmlag.lagrangian_to_gm.self_s": "gmlag.lagrangian_to_gm",
    "gmlag.gm_to_lagrangian.self_s": "gmlag.gm_to_lagrangian",
    "gmlag.random_lagrangian.self_s": "gmlag.random_lagrangian",
    "gmlag.lift.self_s": "gmlag.lift",
    "gmlag.scan.self_s.Fp": "gmlag.scan.Fp",
    "gmlag.scan.self_s.Fq": "gmlag.scan.Fq",
}
for _fn in ("rref", "kernel", "solve", "mat_mul"):
    for _r in RINGS:
        SELF[f"linalg.{_fn}.self_s.{_r}"] = f"linalg.{_fn}.{_r}"

COUNTS = (
    ["vfsearch.adjugate.mats", "vfsearch.rank_checks", "vfsearch.cache.bytes",
     "gmlag.check.calls", "gmlag.merge_sign.calls", "gmlag.lift.hensel_steps",
     "linalg.det_nodiv.calls"]
    + [f"linalg.rref.calls.{r}" for r in RINGS]
    + [f"exact.ops.{r}" for r in RINGS]
    + [f"exact.inv.calls.{r}" for r in RINGS]
)

def metric_units() -> dict:
    """Unit of every per-layer metric `Tracer.metrics` returns."""
    units = {name: "s" for name in list(SELF) + list(INCLUSIVE)}
    units.update({name: "count" for name in COUNTS})
    units["vfsearch.cache.bytes"] = "bytes"
    for name in ("vfsearch.hit_ratio", "gmlag.sample.accept_ratio", "gmlag.check.repeat_ratio"):
        units[name] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


def _datum_key(obj):
    """Content of a GM or Lagrangian datum, so that re-checking an equal
    object counts as a repeat."""
    def tup(m):
        return tuple(tup(x) for x in m) if isinstance(m, list) else m

    fields = ("n", "v5", "a_rows", "w_rows", "q", "epsilon")
    return (type(obj).__name__, repr(obj.ring)) + tuple(tup(getattr(obj, f, None)) for f in fields)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self.prefix = ""
        self.request = ""
        self._requests = 0
        self._patches: list = []
        self._checked: set = set()
        self._modules = {m: importlib.import_module(f"gmlab.{m}") for m in MODULES}

    # -- recording ------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        """A benchmark operation; a top-level one starts a new request."""
        if not self.stack:
            self._requests += 1
            self.request = f"{self.prefix}#{self._requests}"
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- installing -----------------------------------------------------

    def _rebind(self, orig, wrapper):
        for mod in self._modules.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _span_wrapper(self, fn, name, after=None):
        by_ring = name.endswith(".")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name + ring_label(args[0]) if by_ring else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        hooks = {
            "_batch_adjugate": lambda a, kw, out: self.count("vfsearch.adjugate.mats", int(a[0].shape[0])),
            "_scan_range": lambda a, kw, out: self.count("vfsearch.rank_checks", out[1]["rank_checks"]),
            "random_lagrangian": lambda a, kw, out: self.count("gmlag.sample.accepted"),
            "lift_lagrangian": self._after_lift,
        }
        for mod_name, fn_name, span_name in SPANS:
            fn = getattr(self._modules[mod_name], fn_name, None)
            if fn is not None:
                self._rebind(fn, self._span_wrapper(fn, span_name, hooks.get(fn_name)))
        merge = getattr(self._modules["gmlag"], "_merge_sign", None)
        if merge is not None:
            self._rebind(merge, self._count_wrapper(merge, "gmlag.merge_sign.calls"))
        det = getattr(self._modules["linalg"], "det_nodiv", None)
        if det is not None:
            self._rebind(det, self._top_level_counter(det, "linalg.det_nodiv.calls"))
        gmlag = self._modules["gmlag"]
        for cls_name in ("GMDatum", "LagrangianDatum"):
            cls = getattr(gmlag, cls_name, None)
            if cls is not None and "check" in vars(cls):
                self._patch_method(cls, "check", self._check_wrapper(vars(cls)["check"]))
        exact = self._modules["exact"]
        for cls_name, label in RING_LABELS.items():
            cls = getattr(exact, cls_name, None)
            if cls is None:
                continue
            for op in RING_OPS:
                if op in vars(cls):
                    self._patch_method(cls, op, self._count_wrapper(vars(cls)[op], f"exact.ops.{label}"))
            if "inv" in vars(cls):
                self._patch_method(cls, "inv", self._count_wrapper(vars(cls)["inv"], f"exact.inv.calls.{label}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch_method(self, cls, name, wrapper):
        self._patches.append((cls, name, vars(cls)[name]))
        setattr(cls, name, wrapper)

    def count(self, key, n=1):
        self.counters[key] += n

    def _count_wrapper(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _top_level_counter(self, fn, key):
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not depth[0]:
                self.counters[key] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def _check_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            self.counters["gmlag.check.calls"] += 1
            if self.parent_name() == "gmlag.random_lagrangian":
                self.counters["gmlag.sample.candidates"] += 1
            key = _datum_key(obj)
            if key in self._checked:
                self.counters["gmlag.check.repeats"] += 1
            rec = self._open("gmlag.check")
            try:
                out = fn(obj, *args, **kwargs)
            finally:
                self._close(rec)
            self._checked.add(key)
            return out

        return wrapper

    def _after_lift(self, args, kwargs, out):
        inst = kwargs.get("instrument")
        if inst is not None:
            self.counters["gmlag.lift.hensel_steps"] += len(inst)

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_by_name: Counter = Counter()
        calls_by_name: Counter = Counter()
        for i, s in enumerate(spans):
            self_by_name[s[0]] += dur[i] - child[i]
            calls_by_name[s[0]] += 1
        out = {}
        for metric, name in SELF.items():
            out[metric] = self_by_name.get(name, 0.0)
        for metric, names in INCLUSIVE.items():
            group = set(names)
            total = 0.0
            for i, s in enumerate(spans):
                if s[0] not in group:
                    continue
                p = s[3]
                while p >= 0 and spans[p][0] not in group:
                    p = spans[p][3]
                if p < 0:
                    total += dur[i]
            out[metric] = total
        c = self.counters
        for key in COUNTS:
            out[key] = c.get(key, 0)
        for r in RINGS:
            out[f"linalg.rref.calls.{r}"] = calls_by_name.get(f"linalg.rref.{r}", 0)
        out["vfsearch.hit_ratio"] = _ratio(c["vfsearch.rank_checks"], c["vfsearch.adjugate.mats"])
        out["gmlag.sample.accept_ratio"] = _ratio(c["gmlag.sample.accepted"], c["gmlag.sample.candidates"])
        out["gmlag.check.repeat_ratio"] = _ratio(c["gmlag.check.repeats"], c["gmlag.check.calls"])
        return out

    def write(self, path, extra: dict):
        payload = dict(extra)
        payload["counters"] = dict(sorted(self.counters.items()))
        payload["span_fields"] = ["name", "start", "end", "parent", "request"]
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class NullTracer:
    """Stands in for Tracer in untraced runs."""

    @contextmanager
    def span(self, name):
        yield None

    def count(self, key, n=1):
        pass


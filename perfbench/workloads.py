"""The three workloads, their timed operations, and the metrics.

Each kind of work is a block: a list of units, each unit one or a few
program calls.  A run is

1. pass 0: one acceptance block; it gives `sweep_s` to the other two
   workloads and warms the acceptance workload up;
2. whole rounds of the workload's own block until `seconds` have passed,
   with units of the other kinds on fixed inputs (for acceptance: more warm
   searches and criteria on the pass-0 cache) run between its units for
   COMPANION_SHARE of the time, so that every workload reports every metric
   and no metric rests on one stretch of a few seconds of a machine whose
   speed drifts;
3. the checks of all kept outputs by `oracles`, after the peak memory is read.

A traced run replaces step 2 by one round of the workload's own block, run
untraced and then again traced on the same inputs; the per-layer metrics come
from the traced copy and the difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

import oracles
from tracer import NullTracer, Tracer, metric_units

from gmlab import cli, gmlag, lattice, suite, vfsearch
from gmlab.exact import GFExt, PrimeField, QQ

KINDS = ("acceptance", "roundtrip", "lift-scan")

F5, F7, F9 = PrimeField(5), PrimeField(7), GFExt(3, 2)
ROUNDTRIP_RINGS = (("Fp", F5), ("Fp", F7), ("Fq", F9), ("QQ", QQ))
LIFT_PRECISIONS = (2, 3, 4, 5, 6, 7, 8, 9)
FP_SCAN_BUDGET = 100_000  # inside the first echelon pattern (5^9 subspaces)
FQ_SCAN_BUDGET = 1_000
WARM_RERUNS = 3
EXHAUSTIVE_SEED = "perfbench/exhaustive"  # a fixed GF(3) datum, n = 4, with no decomposable vector
EXHAUSTIVE_BUDGET = 10**6  # above [6 3]_3, so the scan reports "exhausted"
COMPANION_SHARE = 0.4  # of a run's rounds, spent on the other kinds' units
PASS0 = "pass0"
# Inputs of the blocks run between another workload's units: fixed, so that
# these few operations give the same work in every run; a workload's own
# rounds draw theirs from the seed.
COMPANION = "companion"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_s": "s",
    "cached_search_s": "s",
    "criteria_s": "s",
    "roundtrips_per_s.Fp": "1/s",
    "roundtrips_per_s.Fq": "1/s",
    "roundtrips_per_s.QQ": "1/s",
    "lifts_per_s": "1/s",
    "scan_tests_per_s.Fp": "1/s",
    "scan_tests_per_s.Fq": "1/s",
}


def setup():
    """One-time tables a fresh process needs: the E matrix and the GF(9)
    log tables (the wedge Gram is built when gmlag is imported)."""
    vfsearch.build_E()
    F9.mul(F9.gen(), F9.gen())


class Samples:
    """Per-metric samples: seconds per operation for the times, work per
    second of each operation for the rates.  A metric is the mean of the
    middle half of its samples (their median when there are fewer than
    four), so an operation caught by a stall of the machine does not move
    it and the rest are averaged."""

    def __init__(self):
        self.samples = defaultdict(list)

    def time(self, metric, seconds):
        self.samples[metric].append(seconds)

    def rate(self, metric, work, seconds):
        self.samples[metric].append(work / seconds)

    def value(self, metric):
        xs = sorted(self.samples[metric])
        if len(xs) < 4:
            return statistics.median(xs)
        cut = len(xs) // 4
        return statistics.fmean(xs[cut : len(xs) - cut])


class Run:
    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        self.tr = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.searches: dict = {}  # input set -> cold/warm outputs, cache text, criteria results
        self.outputs = defaultdict(list)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: operation failed: {what}", file=sys.stderr)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _families(search_out):
    """FamilyClass records for the families a search printed."""
    fams = []
    for f in search_out.get("families", []):
        a = tuple(f["canonical_a"])
        fams.append(
            vfsearch.FamilyClass(
                p=f["p"], a=a, monomials=vfsearch.monomials_killed_by(f["p"], a),
                witness_count=f["witness_count"], representatives=(),
            )
        )
    return fams


# ----------------------------------------------------------------------
# acceptance
# ----------------------------------------------------------------------


def _search(run: Run, inputs: str, s: Samples, which: str):
    """`gmlab vf search` in-process; "cold" into a fresh cache file of this
    input set, "warm" reading it."""
    path = run.tmp / f"vfsearch-{inputs.replace('/', '-')}.json"
    rec = run.searches.setdefault(inputs, {"cold": [], "warm": [], "cache": "", "criteria": []})
    if which == "cold":
        path.unlink(missing_ok=True)
    with run.tr.span(f"bench.search.{which}"):
        t0 = time.perf_counter()
        rc, text = run_cli(["vf", "search", "--jobs", "1", "--cache", str(path)])
        s.time("sweep_s" if which == "cold" else "cached_search_s", time.perf_counter() - t0)
    run.op(rc == 0, f"vf search ({which}) exit {rc}")
    rec[which].append(json.loads(text) if text.strip() else {})
    if which == "cold" and path.exists():
        run.tr.count("vfsearch.cache.bytes", path.stat().st_size)
        rec["cache"] = path.read_text()


def _criteria(run: Run, inputs: str, s: Samples):
    """Criteria 1-4, 7 on the families the cold search printed, 8, 11, 12."""
    searched = run.searches[inputs]["cold"][0]
    results = {}
    with run.tr.span("bench.criteria"):
        t0 = time.perf_counter()
        for cid, fn in (
            (1, suite.criterion_1), (2, suite.criterion_2), (3, suite.criterion_3),
            (4, suite.criterion_4), (7, lambda: suite.criterion_7(_families(searched))),
            (8, suite.criterion_8), (11, suite.criterion_11), (12, suite.criterion_12),
        ):
            try:
                results[cid] = fn()
            except Exception as exc:  # a crashing criterion is a failed operation
                results[cid] = exc
        s.time("criteria_s", time.perf_counter() - t0)
    for cid, res in results.items():
        # criterion 8 fails by design; the checks decide whether it failed as documented
        ok = not isinstance(res, Exception) and (res.passed or cid == 8)
        run.op(ok, f"criterion {cid}: {getattr(res, 'detail', res)}")
    run.searches[inputs]["criteria"].append(results)


def acceptance_units(run: Run, inputs: str, s: Samples):
    """Cold search, warm reruns (short, so several, for a steadier median),
    then the criteria."""
    search = functools.partial(_search, run, inputs, s)
    return [lambda: search("cold")] + [lambda: search("warm")] * WARM_RERUNS + [
        functools.partial(_criteria, run, inputs, s)
    ]


def acceptance_companion(run: Run, s: Samples):
    """More samples of the short acceptance steps, on the pass-0 cache."""
    warm = functools.partial(_search, run, PASS0, s, "warm")
    return [warm, warm, functools.partial(_criteria, run, PASS0, s)] * 2


# ----------------------------------------------------------------------
# roundtrip
# ----------------------------------------------------------------------


def _roundtrip_trial(ring, n, rng):
    """The body of criterion 9: sample, convert there and back, compare."""
    D = gmlag.random_lagrangian(ring, n, rng)
    ok = len(gmlag.intersection_with_wedge3_v5(D)) == 5 - n
    gm = gmlag.lagrangian_to_gm(D)
    ok = ok and len(gm.w_rows) == n + 5
    D2 = gmlag.gm_to_lagrangian(gm)
    ok = ok and gmlag._row_span_canonical(ring, D.a_rows) == gmlag._row_span_canonical(ring, D2.a_rows)
    gm2 = gmlag.lagrangian_to_gm(D2)
    ok = ok and gmlag.canonical_wq(gm) == gmlag.canonical_wq(gm2)
    return ok, (D, gm, D2, gm2)


def _trial(run: Run, inputs: str, s: Samples, n: int, idx: int):
    label, ring = ROUNDTRIP_RINGS[idx]
    rng = random.Random(f"{inputs}/roundtrip/{n}/{idx}")
    with run.tr.span("bench.roundtrip"):
        t0 = time.perf_counter()
        try:
            ok, data = _roundtrip_trial(ring, n, rng)
        except Exception as exc:
            ok, data = False, exc
        s.rate(f"roundtrips_per_s.{label}", 1, time.perf_counter() - t0)
    run.op(ok, f"round trip {ring!r} n={n}: {data if not ok else ''}")
    if ok:
        run.outputs["roundtrip"].append(data)


def roundtrip_units(run: Run, inputs: str, s: Samples):
    """Twelve criterion-9 trials, for n = 3, 4, 5 in turn over GF(5), GF(7),
    GF(3^2) and QQ, each from its own seeded generator."""
    return [
        functools.partial(_trial, run, inputs, s, n, idx)
        for n in (3, 4, 5)
        for idx in range(len(ROUNDTRIP_RINGS))
    ]


# ----------------------------------------------------------------------
# lift-scan
# ----------------------------------------------------------------------


def _lifts(run: Run, s: Samples, data: dict, F, n: int):
    """Sample a datum over GF(p) (untimed) and lift it to every precision."""
    D = data["D"] = gmlag.random_lagrangian(F, n, data["rng"])
    for k in LIFT_PRECISIONS:
        steps: list = []
        with run.tr.span("bench.lift"):
            t0 = time.perf_counter()
            try:
                lifted = gmlag.lift_lagrangian(D, k, instrument=steps)
            except Exception as exc:
                lifted = exc
            s.rate("lifts_per_s", 1, time.perf_counter() - t0)
        ok = not isinstance(lifted, Exception)
        run.op(ok, f"lift {F!r} n={n} to k={k}: {lifted if not ok else ''}")
        if ok:
            run.outputs["lift"].append((D, lifted, F.p, k))


def _opposite(run: Run, data: dict):
    D = data["D"]
    with run.tr.span("bench.find_v5p"):
        res = gmlag.find_opposite_V5(D)
    run.op(res is not None, f"find_opposite_V5 {D.ring!r} n={D.n}")
    run.outputs["opposite"].append((D, res))


def _scan(run: Run, s: Samples, data: dict, sample=None, expect="budget"):
    """A budgeted scan of the unit's datum, or of a fresh one from `sample`."""
    if sample is not None:
        data["D"] = sample(data["rng"])
    D = data["D"]
    over_fq = isinstance(D.ring, GFExt)
    budget = FQ_SCAN_BUDGET if over_fq else FP_SCAN_BUDGET
    with run.tr.span("bench.scan"):
        t0 = time.perf_counter()
        res = gmlag.scan_decomposables(D, budget=budget, max_degree=1)
        s.rate("scan_tests_per_s.Fq" if over_fq else "scan_tests_per_s.Fp",
               res["tested"], time.perf_counter() - t0)
    run.op(True, "scan")
    run.outputs["scan"].append((D, res, budget, expect))


def liftscan_units(run: Run, inputs: str, s: Samples):
    """For p = 5, 7 and n = 3, 4, 5: a seeded datum lifted to Z/p^k for every
    k in LIFT_PRECISIONS, its opposite V5, a budgeted numpy scan; a GF(5)
    datum with decomposable vectors in A, scanned; six GF(3^2) data through
    the budgeted scalar scan.  The units share one generator, in order."""
    data = {"rng": random.Random(f"{inputs}/lift-scan")}
    units = []
    for F in (F5, F7):
        for n in (3, 4, 5):
            units += [
                functools.partial(_lifts, run, s, data, F, n),
                functools.partial(_opposite, run, data),
                functools.partial(_scan, run, s, data),
            ]

    def with_decomposables(rng):
        return gmlag.random_lagrangian(F5, rng.choice((3, 4)), rng, decomposable_free=False)

    units.append(functools.partial(_scan, run, s, data, with_decomposables, "witness"))
    for n in (3, 4, 5) * 2:
        units.append(functools.partial(_scan, run, s, data, functools.partial(gmlag.random_lagrangian, F9, n)))
    return units


def exhaustive_scan(run: Run):
    """One GF(3) scan through all [6 3]_3 subspaces, for the count check."""
    D = gmlag.random_lagrangian(PrimeField(3), 4, random.Random(EXHAUSTIVE_SEED))
    res = gmlag.scan_decomposables(D, budget=EXHAUSTIVE_BUDGET, max_degree=1)
    run.op(True, "exhaustive scan")
    run.outputs["scan"].append((D, res, EXHAUSTIVE_BUDGET, "exhausted"))


UNITS = {"acceptance": acceptance_units, "roundtrip": roundtrip_units, "lift-scan": liftscan_units}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check_outputs(run: Run) -> list[str]:
    problems = []
    if run.searches:
        rows = vfsearch.build_E().rows
        problems += oracles.check_weight_rows(rows)
        dets = oracles.SubsetDeterminants(rows)
        jumps = oracles.nilpotent_kernel_jumps()
        problems += oracles.check_lattice(
            lattice.gm_sixfold_vanishing_lattice().gram, lattice.verify_gm_lattice_facts()
        )
        for rec in run.searches.values():
            cold = rec["cold"][0]  # a traced round repeats its cold search
            problems += oracles.check_search_output(cold, dets)
            if any(out != cold for out in rec["cold"] + rec["warm"]):
                problems.append("a search output differs from the first cold one")
            try:
                res = vfsearch.search_result_from_cache(json.loads(rec["cache"]))
            except (ValueError, KeyError) as exc:
                problems.append(f"cache unreadable: {exc}")
            else:
                groups = [(g.p, g.a, g.witnesses) for g in res.groups.values()]
                problems += oracles.check_hits(groups, res.rank_checks, dets)
            for results in rec["criteria"]:
                c8 = results.get(8)
                if isinstance(c8, suite.CriterionResult):
                    problems += oracles.check_criterion_8(c8.passed, c8.payload, jumps)
    for D, gm, D2, gm2 in run.outputs["roundtrip"]:
        problems += oracles.check_roundtrip(D, gm, D2, gm2)
    for D, lifted, p, k in run.outputs["lift"]:
        problems += oracles.check_lift(D, lifted, p, k)
    for D, res in run.outputs["opposite"]:
        problems += oracles.check_opposite(D, res)
    for D, res, budget, expect in run.outputs["scan"]:
        problems += oracles.check_scan(D, res, budget, expect)
    return problems


# ----------------------------------------------------------------------
# a run
# ----------------------------------------------------------------------


def _companion_units(run: Run, kind: str, s: Samples):
    """Endless units of another kind: its blocks on fixed inputs, one after
    the other (for acceptance: warm searches and criteria on the pass-0 cache)."""
    for i in itertools.count(1):
        yield from acceptance_companion(run, s) if kind == "acceptance" else UNITS[kind](run, f"{COMPANION}/{i}", s)


def timed_rounds(run: Run, workload: str, seconds: float, samples: dict) -> int:
    """Rounds of the workload's own block until `seconds` have passed.  After
    each of its units, units of the other kinds run, the kind with less time
    so far first, until they have had COMPANION_SHARE of the time: so every
    workload reports every metric, from samples spread over the whole run."""
    feeds = {k: _companion_units(run, k, samples[k]) for k in KINDS if k != workload}
    spent = dict.fromkeys(feeds, 0.0)
    start, rnd = time.perf_counter(), 1
    while rnd == 1 or time.perf_counter() - start < seconds:
        for unit in UNITS[workload](run, f"{run.seed}/{rnd}", samples[workload]):
            unit()
            while sum(spent.values()) < COMPANION_SHARE * (time.perf_counter() - start):
                kind = min(spent, key=spent.get)
                t0 = time.perf_counter()
                next(feeds[kind])()
                spent[kind] += time.perf_counter() - t0
        rnd += 1
    return rnd - 1


def traced_round(run: Run, workload: str, path) -> dict:
    """Round 1 of the workload's block untraced, then the same round traced."""
    t0 = time.perf_counter()
    for unit in UNITS[workload](run, f"{run.seed}/1", Samples()):
        unit()
    untraced = time.perf_counter() - t0
    tr = Tracer()
    tr.prefix = f"{workload}/1"
    tr.install()
    run.tr = tr
    try:
        t0 = time.perf_counter()
        for unit in UNITS[workload](run, f"{run.seed}/1", Samples()):
            unit()
        traced = time.perf_counter() - t0
    finally:
        tr.uninstall()
        run.tr = NullTracer()
    values = tr.metrics()
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    tr.write(path, {"workload": workload, "seed": run.seed, "untraced_s": untraced, "traced_s": traced,
                    "metrics": values})
    return values


def execute(workload: str, seed: int, seconds: float, trace: bool, setup_s: float, out_dir) -> dict:
    tmp = out_dir / f"tmp-{workload}-{seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    phases = {}
    try:
        run = Run(seed, tmp)
        samples = {kind: Samples() for kind in KINDS}
        t0 = time.perf_counter()
        warmup = Samples() if workload == "acceptance" else samples["acceptance"]
        for unit in acceptance_units(run, PASS0, warmup):
            unit()
        phases["pass0"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        if trace:
            layer = traced_round(run, workload, out_dir / f"trace-{workload}-{seed}.json")
        else:
            if workload == "lift-scan":
                exhaustive_scan(run)
            phases["rounds_run"] = timed_rounds(run, workload, seconds, samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases["rounds"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        problems = check_outputs(run)
        phases["checks"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print("perfbench: phases " + json.dumps({k: round(v, 2) for k, v in phases.items()}), file=sys.stderr)
    if trace:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in metric_units().items()}
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        for kind in KINDS:
            for name in samples[kind].samples:
                values[name] = samples[kind].value(name)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": not problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

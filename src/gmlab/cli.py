"""Command-line front end: `gmlab <area> <command>`.

Areas: bott (weight tables, bundle cohomology), hodge (diamonds, tangent
report), vf (exhaustive search, certificates, rank lemma, nilpotent check),
gm (datum conversions, scans, lifting), lattice, ck, and `all` for the full
verification suite.  Exit code 0 means every check passed, 1 means a check
failed, 2 means a usage error.

Configuration: flags override a TOML config file (--config, default
gmlab.toml in the working directory if present), which overrides defaults.
The vf search cache is content-addressed by the weight-matrix hash and the
prime filter; GMLAB_CACHE_DIR or --cache chooses where it lives.  A cache
built for another prime filter, schema or weight matrix is recomputed and
overwritten.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import bott, ckmotives, gmlag, lattice, ledger, suite, vfsearch
from .bott import BundleSpec
from .exact import QQ

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_config(path: str | None) -> dict:
    candidates = [path] if path else ["gmlab.toml"]
    for cand in candidates:
        if cand and Path(cand).exists():
            return _read_toml(Path(cand))
    return {}


def _read_toml(path: Path) -> dict:
    text = path.read_text()
    try:
        import tomllib  # Python 3.11+

        return tomllib.loads(text)
    except ModuleNotFoundError:
        pass
    try:
        import tomli

        return tomli.loads(text)
    except ModuleNotFoundError:
        pass
    # minimal flat key = value reader, enough for the documented options
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("["):
            continue
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        value = value.strip().strip('"').strip("'")
        if value.isdigit():
            value = int(value)
        out[key.strip()] = value
    return out


def _emit(payload: dict, fmt: str, markdown: str | None = None) -> None:
    if fmt == "markdown" and markdown is not None:
        print(markdown)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _bundle_from_name(name: str, twist: int) -> BundleSpec:
    name = name.lower()
    try:
        if name in ("o", "structure"):
            return BundleSpec.structure(twist)
        if name in ("t", "tangent"):
            return BundleSpec.tangent(twist)
        if name.startswith("omega"):
            return BundleSpec.omega(int(name[5:]), twist)
    except ValueError as exc:
        print(f"gmlab: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc
    print(f"gmlab: unknown bundle {name!r}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _ring_from_name(name: str):
    name = name.upper()
    if name == "Q":
        return QQ
    if name.startswith("F"):
        q = int(name[1:])
        from .exact import finite_field

        return finite_field(q)
    raise SystemExit(EXIT_USAGE)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def cmd_bott(args) -> int:
    spec = _bundle_from_name(args.bundle, args.twist)
    if args.command == "table":
        md = bott.render_table_markdown(spec, args.p)
        _emit(json.loads(bott.table_as_json(spec, args.p)), args.emit, md)
        return EXIT_PASS
    table = bott.bundle_cohomology_with_duality(spec, args.p)
    payload = table.as_json()
    md_lines = [f"| degree | status | dim |", "|---|---|---|"] + [
        f"| {e['degree']} | {e['status']} | {e['dim']} |" for e in payload["entries"]
    ]
    _emit(payload, args.emit, "\n".join(md_lines))
    return EXIT_PASS


def cmd_hodge(args) -> int:
    if args.command == "diamond":
        diamond, trace = ledger.derive_diamond(args.variety, args.p)
        payload = diamond.as_json()
        payload["euler"] = diamond.topological_euler()
        if args.trace:
            payload["trace"] = trace
        _emit(payload, args.emit, diamond.render())
        return EXIT_PASS
    rep = ledger.tangent_report(args.p)
    payload = {"p": args.p, "report": rep["report"]}
    if args.trace:
        payload["trace"] = rep["trace"]
    _emit(payload, args.emit)
    expected = {"h1(Y,T_Y)": 25, "h1(X,T_X)": 25}
    ok = all(rep["report"][k] == v for k, v in expected.items())
    return EXIT_PASS if ok else EXIT_FAIL


def _parse_prime_arg(raw: str | None):
    """None, a prime p, or a range lo..hi; ValueError on anything else."""
    if raw is None:
        return None
    parts = raw.split("..")
    if len(parts) > 2 or not all(part.isdigit() for part in parts):
        raise ValueError("expected a prime p or a range lo..hi")
    p_filter = tuple(int(part) for part in parts) if len(parts) == 2 else int(raw)
    vfsearch._parse_prime_filter(p_filter)
    return p_filter


def _cache_path(args, p_filter) -> Path | None:
    explicit = getattr(args, "cache", None)
    if explicit:
        return Path(explicit)
    cache_dir = os.environ.get("GMLAB_CACHE_DIR")
    if not cache_dir:
        return None
    tag = "all" if p_filter is None else (
        str(p_filter) if isinstance(p_filter, int) else f"{p_filter[0]}-{p_filter[1]}"
    )
    e_hash = vfsearch.build_E().content_hash()
    return Path(cache_dir) / f"vfsearch-{e_hash}-{tag}.json"


def _write_atomically(path: Path, text: str) -> None:
    """Write via a temporary file in the same directory and os.replace, so a
    reader never sees a partly written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_vf(args) -> int:
    if args.command == "search":
        try:
            p_filter = _parse_prime_arg(args.p)
        except ValueError as exc:
            print(f"--p {args.p}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        cache = _cache_path(args, p_filter)
        result = None
        if cache and cache.exists():
            try:
                payload = json.loads(cache.read_text())
                result = vfsearch.search_result_from_cache(payload, p_filter)
            except (ValueError, KeyError, TypeError):
                result = None  # stale, foreign or damaged: recompute and overwrite
        if result is None:
            result = vfsearch.enumerate_hits(p_filter=p_filter, jobs=args.jobs)
            if cache:
                _write_atomically(
                    cache, json.dumps(vfsearch.search_cache_payload(result, p_filter), sort_keys=True)
                )
        families = vfsearch.filter_hits(result)
        problems = vfsearch.matches_pinned_classification(result, families, p_filter)
        payload = {
            "subsets_scanned": result.subsets_scanned,
            "hit_pairs": result.hit_pair_count(),
            "distinct_kernel_classes": result.distinct_class_count(),
            "prime_multiset": {str(k): v for k, v in sorted(result.prime_multiset.items())},
            "families": [
                {
                    "p": f.p,
                    "canonical_a": list(f.a),
                    "monomial_count": len(f.monomials),
                    "witness_count": f.witness_count,
                }
                for f in families
            ],
            "verdict": "PASS" if not problems else "FAIL",
            "problems": problems,
        }
        _emit(payload, args.emit)
        return EXIT_PASS if not problems else EXIT_FAIL
    if args.command == "certify":
        published = [f for f in vfsearch.PAPER_FAMILIES if args.family in (None, f["id"])]
        if not published:
            print(f"no family {args.family}", file=sys.stderr)
            return EXIT_USAGE
        payload = []
        ok = True
        for fam in published:
            canon = vfsearch.canonical_class(fam["p"], fam["a"])
            cls = vfsearch.FamilyClass(
                p=fam["p"],
                a=canon,
                monomials=vfsearch.monomials_killed_by(fam["p"], canon),
                witness_count=0,
                representatives=(canon,),
            )
            try:
                cert = vfsearch.certify_family_singular(cls)
                numeric = vfsearch.recheck_certificate_numeric(cls, samples=args.samples, seed=args.seed)
                entry = cert.as_json()
                entry["numeric_recheck"] = numeric
                ok = ok and numeric
            except vfsearch.CertificateFailed as exc:
                entry = {"family": fam["id"], "error": str(exc)}
                ok = False
            payload.append(entry)
        _emit({"certificates": payload, "verdict": "PASS" if ok else "FAIL"}, args.emit)
        return EXIT_PASS if ok else EXIT_FAIL
    if args.command == "lemma56":
        try:
            rep = vfsearch.verify_rank_lemma(jobs=args.jobs)
        except vfsearch.LemmaViolation as exc:
            _emit({"verdict": "FAIL", "error": str(exc)}, args.emit)
            return EXIT_FAIL
        rep["verdict"] = "PASS"
        _emit(rep, args.emit)
        return EXIT_PASS
    if args.command == "nilpotent":
        try:
            rep = vfsearch.verify_nilpotent_lift(args.p)
            rep["verdict"] = "PASS"
            _emit(rep, args.emit)
            return EXIT_PASS
        except vfsearch.LemmaViolation as exc:
            analysis = vfsearch.nilpotent_kernel_analysis(args.p)
            _emit(
                {
                    "verdict": "FAIL",
                    "error": str(exc),
                    "analysis": analysis,
                },
                args.emit,
            )
            return EXIT_FAIL
    raise SystemExit(EXIT_USAGE)


def cmd_gm(args) -> int:
    if args.command == "random":
        ring = _ring_from_name(args.ring)
        rng = random.Random(args.seed)
        D = gmlag.random_lagrangian(ring, args.n, rng)
        payload = gmlag.lagrangian_to_json(D)
        if args.out:
            Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
        _emit(payload, args.emit)
        return EXIT_PASS
    D = gmlag.load_lagrangian(args.data)
    if args.command == "convert":
        gm = gmlag.lagrangian_to_gm(D)
        payload = {
            "ring": gmlag.ring_to_json(D.ring),
            "n": gm.n,
            "W": [[str(v) for v in row] for row in gm.w_rows],
            "q": [[[str(v) for v in row] for row in m] for m in gm.q],
            "epsilon": str(gm.epsilon),
        }
        _emit(payload, args.emit)
        return EXIT_PASS
    if args.command == "roundtrip":
        gm = gmlag.lagrangian_to_gm(D)
        D2 = gmlag.gm_to_lagrangian(gm)
        same = gmlag._row_span_canonical(D.ring, D.a_rows) == gmlag._row_span_canonical(
            D.ring, D2.a_rows
        )
        gm2 = gmlag.lagrangian_to_gm(D2)
        same_wq = gmlag.canonical_wq(gm) == gmlag.canonical_wq(gm2)
        _emit(
            {"A_recovered": same, "Wq_recovered": same_wq, "verdict": "PASS" if same and same_wq else "FAIL"},
            args.emit,
        )
        return EXIT_PASS if same and same_wq else EXIT_FAIL
    if args.command == "find-v5p":
        res = gmlag.find_opposite_V5(D, max_degree=args.max_degree)
        _emit(
            res if res is not None else {"result": "NotFound", "max_degree": args.max_degree},
            args.emit,
        )
        return EXIT_PASS
    if args.command == "scan":
        res = gmlag.scan_decomposables(D, budget=args.budget, max_degree=args.max_degree)
        _emit(res, args.emit)
        return EXIT_PASS
    if args.command == "lift":
        lifted = gmlag.lift_lagrangian(D, args.k)
        payload = gmlag.lagrangian_to_json(lifted)
        if args.out:
            Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
        _emit(payload, args.emit)
        return EXIT_PASS
    raise SystemExit(EXIT_USAGE)


def cmd_lattice(args) -> int:
    try:
        rep = lattice.verify_gm_lattice_facts()
    except AssertionError as exc:
        _emit({"verdict": "FAIL", "error": str(exc)}, args.emit)
        return EXIT_FAIL
    rep["verdict"] = "PASS"
    _emit(rep, args.emit)
    return EXIT_PASS


def cmd_ck(args) -> int:
    variety = args.variety.upper()
    try:
        rep = ckmotives.verify_chow_kunneth(variety)
    except ckmotives.IdentityViolation as exc:
        _emit({"verdict": "FAIL", "error": str(exc)}, args.emit)
        return EXIT_FAIL
    rep["verdict"] = "PASS"
    _emit(rep, args.emit)
    return EXIT_PASS


def cmd_all(args) -> int:
    results = suite.run_all(jobs=args.jobs, trials_9=args.trials, trials_10=max(args.trials // 4, 1))
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    if not failed:
        print("all criteria PASS")
        return EXIT_PASS
    known_gap = all(r.cid == 8 for r in failed)
    if known_gap and args.allow_documented_gaps:
        print(
            "criterion 8 fails as documented (full Jordan block at p = 5); "
            "accepted via --allow-documented-gaps"
        )
        return EXIT_PASS
    print(f"{len(failed)} criterion(s) failed: {[r.cid for r in failed]}")
    return EXIT_FAIL


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gmlab", description=__doc__)
    ap.add_argument("--config", help="TOML config file")
    sub = ap.add_subparsers(dest="area", required=True)

    def common(p):
        p.add_argument("--emit", choices=("json", "markdown"), default="json")

    b = sub.add_parser("bott", help="weight tables and bundle cohomology")
    bs = b.add_subparsers(dest="command", required=True)
    for name in ("table", "cohomology"):
        pb = bs.add_parser(name)
        pb.add_argument("--bundle", required=True, help="omega1..omega6, T, or O")
        pb.add_argument("--twist", type=int, default=0)
        pb.add_argument("--p", type=int, default=5)
        common(pb)
    b.set_defaults(func=cmd_bott)

    h = sub.add_parser("hodge", help="Hodge diamonds and tangent dimensions")
    hs = h.add_subparsers(dest="command", required=True)
    pd = hs.add_parser("diamond")
    pd.add_argument("--variety", choices=("Gr", "Y", "X"), required=True)
    pd.add_argument("--p", type=int, default=5)
    pd.add_argument("--trace", action="store_true")
    common(pd)
    pt = hs.add_parser("tangent")
    pt.add_argument("--p", type=int, default=5)
    pt.add_argument("--trace", action="store_true")
    common(pt)
    h.set_defaults(func=cmd_hodge)

    v = sub.add_parser("vf", help="vector-field obstruction search")
    vs = v.add_subparsers(dest="command", required=True)
    ps = vs.add_parser("search")
    ps.add_argument("--p", help="a prime or a range lo..hi")
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--cache", help="cache file")
    common(ps)
    pc = vs.add_parser("certify")
    pc.add_argument("--family", type=int, help="1..5; default all")
    pc.add_argument("--samples", type=int, default=100)
    pc.add_argument("--seed", type=int, default=20240801)
    common(pc)
    pl = vs.add_parser("lemma56")
    pl.add_argument("--jobs", type=int, default=1)
    common(pl)
    pn = vs.add_parser("nilpotent")
    pn.add_argument("--p", type=int, required=True)
    common(pn)
    v.set_defaults(func=cmd_vf)

    g = sub.add_parser("gm", help="GM/Lagrangian data")
    gs = g.add_subparsers(dest="command", required=True)
    for name in ("convert", "roundtrip", "find-v5p", "scan", "lift"):
        pg = gs.add_parser(name)
        pg.add_argument("--data", required=True, help="Lagrangian datum JSON")
        if name == "find-v5p":
            pg.add_argument("--max-degree", type=int, default=3)
        if name == "scan":
            pg.add_argument("--budget", type=int, default=200000)
            pg.add_argument("--max-degree", type=int, default=1)
        if name == "lift":
            pg.add_argument("--k", type=int, required=True)
            pg.add_argument("--out")
        common(pg)
    pr = gs.add_parser("random")
    pr.add_argument("--ring", default="F5", help="F<q> or Q")
    pr.add_argument("--n", type=int, choices=(3, 4, 5), default=4)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out")
    common(pr)
    g.set_defaults(func=cmd_gm)

    lt = sub.add_parser("lattice", help="lattice facts")
    ls = lt.add_subparsers(dest="command", required=True)
    pv = ls.add_parser("verify")
    common(pv)
    lt.set_defaults(func=cmd_lattice)

    ck = sub.add_parser("ck", help="Chow-Kunneth projectors")
    cs = ck.add_subparsers(dest="command", required=True)
    pk = cs.add_parser("verify")
    pk.add_argument("--variety", choices=("gm4", "gm6", "GM4", "GM6"), required=True)
    common(pk)
    ck.set_defaults(func=cmd_ck)

    al = sub.add_parser("all", help="run the full verification suite")
    al.add_argument("--jobs", type=int, default=1)
    al.add_argument("--trials", type=int, default=200, help="round-trip trials per pair")
    al.add_argument(
        "--allow-documented-gaps",
        action="store_true",
        help="exit 0 even when only the documented nilpotent gap fails",
    )
    al.set_defaults(func=cmd_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # the config file sets the defaults of the chosen subcommand's flags, so
    # a flag given on the command line still wins; then parse again
    chosen = ap
    while chosen._subparsers is not None:
        action = chosen._subparsers._group_actions[0]
        chosen = action.choices[getattr(args, action.dest)]
    flags = {action.dest for action in chosen._actions}
    chosen.set_defaults(**{k: v for k, v in _load_config(args.config).items() if k in flags})
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

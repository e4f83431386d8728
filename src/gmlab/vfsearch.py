"""Exhaustive vector-field obstruction search over Gr(2,5) quadric sections.

The pipeline replays the computer search behind the no-global-vector-fields
theorem for the fivefold sections:

  1. `build_E`: the 45 x 5 integer matrix of monomial weight rows (squares
     halved, valid since p > 2).
  2. `enumerate_hits`: all C(45,5) = 1,221,759 five-row submatrices N; for
     every N of rank 5 over QQ and every prime p >= 5 dividing det(N), the
     one-dimensional kernel of N mod p gives a candidate diagonal matrix
     A = diag(-a); the monomials whose weight pairs to zero with a form M_A.
  3. `filter_hits`: the two geometric filters (every index pair must carry a
     square or a (2,1)-type monomial; the eigenvalues of A must collide),
     then canonicalization under S5 x scalar.
  4. `certify_family_singular`: for each surviving family, an exact symbolic
     certificate that the generic member of the family is singular at the
     recorded point (on the Grassmannian, on the quadric, Jacobian rank 3).
  5. `verify_nilpotent_lift`: the sixteen nilpotent Jordan patterns have
     equal kernel dimensions over QQ and GF(p), so mod-p solutions of those
     shapes lift to characteristic zero.

The determinant sweep is vectorized with numpy and exact in int64.  It
expands each determinant along the subset's first two rows (Laplace, 2+3)
into 10 products (signed 2x2 minor of the two rows) x (3x3 minor of the
other three on the complementary columns), from minors of all C(45,2) row
pairs and C(45,3) row triples tabulated once per sweep.  With entries
|e| <= c, a 2x2 minor is at most 2c^2, a 3x3 minor 6c^3, a product 12c^5 and
the sum 120c^5, below 2^63 for any c < 2^11; for E (c = 2, entries >= 0,
so a 2x2 minor is at most 4) they are 4, 48, 192 and 1920.  Hadamard bounds
the determinant by 88 (rows have norm at most sqrt 6), which the sweep
checks.  Everything downstream of the sweep is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exact import PrimeField, ZZ, is_prime, primes_upto, PolyRing, QuadExtRing
from .exact import _rank_bareiss, _rank_modp
from .linalg import det_nodiv
from . import pluecker
from .pluecker import MONOMIALS, QuadricForm, mono, mono_weight, pluecker_quadrics

N_ROWS = 45
SUBSET_COUNT = 1221759  # C(45, 5)
DET_BOUND = 88  # Hadamard: five rows of norm at most sqrt 6, 6^(5/2) < 89
PRIME_BOUND = 200  # the default prime range is 5..PRIME_BOUND
CACHE_SCHEMA = "gmlab/1"


class LemmaViolation(Exception):
    pass


class CertificateFailed(Exception):
    def __init__(self, which: str):
        self.which = which
        super().__init__(f"certificate check failed: {which}")


# ----------------------------------------------------------------------
# the E matrix
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EMatrix:
    rows: tuple  # 45 weight rows (tuples of 5 ints)
    row_monomials: tuple  # per row, tuple of monomials mapping to it

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)

    def content_hash(self) -> str:
        import hashlib

        return hashlib.sha256(repr(self.rows).encode()).hexdigest()[:16]


def build_E() -> EMatrix:
    """Deterministic row order: the ten halved square rows (1,1,0,0,0) in
    pair-lex order, the thirty (2,1,1,0,0) rows in monomial-lex order, the
    five (1,1,1,1,0) rows in vector-lex order (each standing for the three
    disjoint-pair monomials with that weight)."""
    rows: list[tuple[int, ...]] = []
    mono_lists: list[tuple] = []
    for (i, j) in pluecker.PAIRS:
        w = [0] * 5
        w[i - 1] = w[j - 1] = 1
        rows.append(tuple(w))
        mono_lists.append((mono((i, j), (i, j)),))
    mixed = [
        m
        for m in MONOMIALS
        if not pluecker.is_square(m) and len({*m[0], *m[1]}) == 3
    ]
    for m in mixed:
        rows.append(mono_weight(m))
        mono_lists.append((m,))
    disjoint: dict[tuple, list] = {}
    for m in MONOMIALS:
        if len({*m[0], *m[1]}) == 4:
            disjoint.setdefault(mono_weight(m), []).append(m)
    for w in sorted(disjoint):
        rows.append(w)
        mono_lists.append(tuple(sorted(disjoint[w])))
    if len(rows) != N_ROWS:
        raise RuntimeError(f"built {len(rows)} weight rows, expected {N_ROWS}")
    return EMatrix(tuple(rows), tuple(mono_lists))


# weight row of each of the 55 monomials, squares halved
_MONOMIAL_WEIGHTS = np.array(
    [
        tuple(v // 2 for v in mono_weight(m)) if pluecker.is_square(m) else mono_weight(m)
        for m in MONOMIALS
    ],
    dtype=np.int64,
)


# ----------------------------------------------------------------------
# search data structures
# ----------------------------------------------------------------------


@dataclass
class HitGroup:
    """All witnesses for one (p, kernel vector) pair."""

    p: int
    a: tuple
    monomials: frozenset
    witnesses: list


@dataclass
class SearchResult:
    groups: dict  # (p, a) -> HitGroup
    subsets_scanned: int
    rank_checks: int
    prime_multiset: dict  # p -> number of (N, p) pairs
    violations: list

    def distinct_class_count(self) -> int:
        classes = {(g.p, canonical_class(g.p, g.a)) for g in self.groups.values()}
        return len(classes)

    def hit_pair_count(self) -> int:
        return sum(len(g.witnesses) for g in self.groups.values())


@dataclass(frozen=True)
class FamilyClass:
    p: int
    a: tuple  # canonical representative under S5 x scalars
    monomials: frozenset  # M_A of the canonical representative
    witness_count: int
    representatives: tuple  # the distinct raw kernel vectors that merged


def canonical_class(p: int, a) -> tuple:
    """Lexicographically minimal sorted rescaling of a in GF(p)^5."""
    best = None
    for c in range(1, p):
        cand = tuple(sorted((c * int(v)) % p for v in a))
        if best is None or cand < best:
            best = cand
    return best


def monomials_killed_by(p: int, a) -> frozenset:
    """M_A: monomials whose (halved on squares) weight pairs to 0 with a."""
    killed = _MONOMIAL_WEIGHTS @ np.array([int(v) for v in a], dtype=np.int64) % p == 0
    return frozenset(m for m, k in zip(MONOMIALS, killed) if k)


# ----------------------------------------------------------------------
# vectorized determinant sweep
# ----------------------------------------------------------------------

# the 10 splits of the columns into a pair (a, b) and its complement triple,
# with the Laplace sign (-1)^(a + b + 1) of rows {0, 1} against columns {a, b}
_COL_PAIRS = np.array(list(itertools.combinations(range(5), 2)))
_COL_TRIPLES = np.array([[c for c in range(5) if c not in pair] for pair in _COL_PAIRS])
_SPLIT_SIGNS = np.where(_COL_PAIRS.sum(axis=1) % 2 == 0, -1, 1)


class _LaplaceTables(NamedTuple):
    """Minors of a k x 5 matrix for the 2+3 Laplace expansion of its
    5-subsets.  The subsets in lex order are, for each row pair in lex
    order, that pair followed by each row triple of `triples[suffix:]`."""

    pairs: np.ndarray  # (C(k,2), 2) row pairs, lex order
    triples: np.ndarray  # (C(k,3), 3) row triples, lex order
    m2: np.ndarray  # (C(k,2), 10) signed 2x2 minors, one column per split
    m3: np.ndarray  # (C(k,3), 10) complementary 3x3 minors
    suffix: np.ndarray  # per pair (i, j): index of the first triple above j


def _laplace_tables(rows: np.ndarray) -> _LaplaceTables:
    """The 2+3 Laplace tables of a k x 5 int64 matrix."""
    k = len(rows)
    pairs = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2)
    triples = np.array(list(itertools.combinations(range(k), 3)), dtype=np.intp).reshape(-1, 3)
    a, b = _COL_PAIRS.T
    r0, r1 = rows[pairs[:, 0]], rows[pairs[:, 1]]
    m2 = (r0[:, a] * r1[:, b] - r0[:, b] * r1[:, a]) * _SPLIT_SIGNS
    x, y, z = _COL_TRIPLES.T
    t0, t1, t2 = rows[triples[:, 0]], rows[triples[:, 1]], rows[triples[:, 2]]
    m3 = (
        t0[:, x] * (t1[:, y] * t2[:, z] - t1[:, z] * t2[:, y])
        - t0[:, y] * (t1[:, x] * t2[:, z] - t1[:, z] * t2[:, x])
        + t0[:, z] * (t1[:, x] * t2[:, y] - t1[:, y] * t2[:, x])
    )
    suffix = np.searchsorted(triples[:, 0], pairs[:, 1] + 1)
    return _LaplaceTables(pairs, triples, m2, m3, suffix)


def _batch_det5(m2: np.ndarray, m3: np.ndarray, suffix: np.ndarray) -> np.ndarray:
    """Exact determinants of the 5-subsets led by the given pairs, in lex
    order: for each pair, one product of its suffix of 3x3 minors with its
    signed 2x2 minors."""
    return np.concatenate([m3[s:] @ row for row, s in zip(m2, suffix)])


def _subsets_at(t: _LaplaceTables, lo: int, hi: int, pos: np.ndarray) -> np.ndarray:
    """Row indices (len(pos), 5) of the subsets at positions `pos` of the
    determinants that `_batch_det5` returns for pairs lo..hi-1."""
    suffix = t.suffix[lo:hi]
    counts = len(t.triples) - suffix
    ends = np.cumsum(counts)
    k = np.searchsorted(ends, pos, side="right")
    tri = suffix[k] + pos - (ends[k] - counts[k])
    return np.concatenate([t.pairs[lo + k], t.triples[tri]], axis=1)


def _batch_adjugate(mats: np.ndarray) -> np.ndarray:
    """Exact adjugates of a (B,5,5) int64 batch: adj[j,i] = (-1)^(i+j) M_ij.
    Faddeev-LeVerrier: M_1 = I, M_(k+1) = N M_k - (tr(N M_k) / k) I, the
    division exact, and adj N = M_5.  With entries |e| <= c the max row sum
    r = 5c gives |N M_k| <= 56 r^4 and |tr| <= 280 r^4 (k <= 4), exact in
    int64 for c < 2^11."""
    eye = np.eye(5, dtype=np.int64)
    m = np.broadcast_to(eye, mats.shape)
    for k in range(1, 5):
        nm = mats @ m
        m = nm - (np.trace(nm, axis1=1, axis2=2) // k)[:, None, None] * eye
    return m


def _parse_prime_filter(p_filter) -> list[int]:
    """Primes to consider: None means every prime in 5..PRIME_BOUND."""
    if p_filter is None:
        return [p for p in primes_upto(PRIME_BOUND) if p >= 5]
    if isinstance(p_filter, int):
        if not is_prime(p_filter):
            raise ValueError(f"prime filter {p_filter} is not a prime")
        if p_filter < 5:
            raise ValueError(f"prime filter {p_filter} is below 5, where the search is not defined")
        return [p_filter]
    lo, hi = p_filter
    return [p for p in primes_upto(hi) if lo <= p and p >= 5]


def _kernels_mod_p(adjs: np.ndarray, p: int):
    """Kernel vectors mod p: the first nonzero column of each adjugate mod p,
    scaled to a leading 1, and a mask that is False where the adjugate is
    0 mod p (rank below 4)."""
    adj = adjs % p
    nonzero_cols = adj.any(axis=1)
    ok = nonzero_cols.any(axis=1)
    cols = adj[np.arange(len(adj)), :, nonzero_cols.argmax(axis=1)][ok]
    lead = cols[np.arange(len(cols)), (cols != 0).argmax(axis=1)]
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    return cols * inverse[lead][:, None] % p, ok


def _scan_range(args):
    """Scan the subsets led by first pairs lo..hi-1.  Returns (groups, stats);
    groups maps (p, a) to its witnesses in lex order."""
    lo, hi, p_list = args
    E = build_E().as_array()
    t = _laplace_tables(E)
    dets = _batch_det5(t.m2[lo:hi], t.m3, t.suffix[lo:hi])
    absdet = np.abs(dets)
    max_det = int(absdet.max(initial=0))
    if max_det > DET_BOUND:
        raise RuntimeError(f"|det| = {max_det} exceeds the Hadamard bound {DET_BOUND}")
    divisible = np.zeros(max_det + 1, dtype=bool)  # index 0 stays False: det 0 is no hit
    for p in p_list:
        divisible[p::p] = True
    pos = np.nonzero(divisible[absdet])[0]
    subsets = _subsets_at(t, lo, hi, pos)
    hit_dets = dets[pos]
    adjs = _batch_adjugate(E[subsets])
    groups: dict = {}
    prime_multiset: dict = {}
    violations: list = []
    for p in p_list:
        on = hit_dets % p == 0
        if not on.any():
            continue
        prime_multiset[p] = int(on.sum())
        vectors, ok = _kernels_mod_p(adjs[on], p)
        on_subsets = subsets[on]
        violations += [{"N": tuple(n), "p": p} for n in on_subsets[~ok].tolist()]
        # group by the base-p digits of a; p divides some |det| <= DET_BOUND,
        # so p^5 fits in int64, and a stable sort keeps witnesses in lex order
        codes = vectors @ p ** np.arange(4, -1, -1)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        witnesses = np.split(on_subsets[ok][order], starts[1:])
        for a, ws in zip(vectors[order[starts]].tolist(), witnesses):
            groups[(p, tuple(a))] = [tuple(w) for w in ws.tolist()]
    return groups, {
        "scanned": len(dets),
        "rank_checks": sum(prime_multiset.values()),
        "prime_multiset": prime_multiset,
        "violations": violations,
    }


def enumerate_hits(p_filter=None, jobs: int = 1) -> SearchResult:
    """Scan all C(45,5) submatrices.  p_filter: None, a prime, or (lo, hi)."""
    p_list = _parse_prime_filter(p_filter)
    # contiguous ranges of first pairs (i, j), each leading about 1/jobs of
    # the subsets: (i, j) leads C(44 - j, 3)
    pairs = itertools.combinations(range(N_ROWS), 2)
    led = np.cumsum([math.comb(N_ROWS - 1 - j, 3) for _, j in pairs])
    bounds = [0, *np.searchsorted(led, led[-1] * np.arange(1, jobs) / jobs).tolist(), len(led)]
    tasks = [(lo, hi, p_list) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            results = pool.map(_scan_range, tasks)
    else:
        results = [_scan_range(t) for t in tasks]
    witnesses: dict = {}
    prime_multiset: dict = {}
    # ranges come back in lex order, so every witness list stays sorted
    for g, stats in results:
        for p, n in stats["prime_multiset"].items():
            prime_multiset[p] = prime_multiset.get(p, 0) + n
        for key, ws in g.items():
            witnesses.setdefault(key, []).extend(ws)
    scanned = sum(stats["scanned"] for _, stats in results)
    if scanned != SUBSET_COUNT:
        raise RuntimeError(f"scanned {scanned} subsets, expected {SUBSET_COUNT}")
    groups = {
        (p, a): HitGroup(p, a, monomials_killed_by(p, a), ws) for (p, a), ws in witnesses.items()
    }
    violations = [v for _, stats in results for v in stats["violations"]]
    return SearchResult(groups, scanned, sum(prime_multiset.values()), prime_multiset, violations)


# ----------------------------------------------------------------------
# filters and classification
# ----------------------------------------------------------------------


def _cond_singular_points(monos: frozenset) -> bool:
    """Every index pair (i,j) must carry its square, or a monomial pairing
    x_ij against x_ik or x_jk (the tangent-space condition at the
    coordinate point P_ij)."""
    for (i, j) in pluecker.PAIRS:
        if mono((i, j), (i, j)) in monos:
            continue
        others = [k for k in range(1, 6) if k not in (i, j)]
        if any(
            mono((i, j), tuple(sorted((i, k)))) in monos
            or mono((i, j), tuple(sorted((j, k)))) in monos
            for k in others
        ):
            continue
        return False
    return True


def _cond_repeated_eigenvalue(p: int, a) -> bool:
    return len(set(int(v) % p for v in a)) < 5


def filter_hits(result: SearchResult) -> list[FamilyClass]:
    """Apply the two geometric filters, then merge under S5 x scalars."""
    by_class: dict = {}
    for (p, a), grp in sorted(result.groups.items()):
        if not _cond_singular_points(grp.monomials):
            continue
        if not _cond_repeated_eigenvalue(p, a):
            continue
        canon = canonical_class(p, a)
        key = (p, canon)
        entry = by_class.setdefault(key, {"witnesses": 0, "reps": set()})
        entry["witnesses"] += len(grp.witnesses)
        entry["reps"].add(a)
    out = []
    for (p, canon), entry in sorted(by_class.items()):
        out.append(
            FamilyClass(
                p=p,
                a=canon,
                monomials=monomials_killed_by(p, canon),
                witness_count=entry["witnesses"],
                representatives=tuple(sorted(entry["reps"])),
            )
        )
    return out


# ----------------------------------------------------------------------
# Lemma: rank over GF(p) is exactly 4 on every witness
# ----------------------------------------------------------------------


def verify_rank_lemma(p_filter=None, jobs: int = 1) -> dict:
    """Re-verify that every rank-5-over-QQ five-row submatrix whose
    determinant is divisible by p >= 5 has rank exactly 4 over GF(p)."""
    result = enumerate_hits(p_filter=p_filter, jobs=jobs)
    if result.violations:
        raise LemmaViolation(f"rank dropped below 4: {result.violations[:3]}")
    return {
        "subsets": result.subsets_scanned,
        "rank_checks": result.rank_checks,
        "prime_multiset": dict(sorted(result.prime_multiset.items())),
        "violations": 0,
    }


# ----------------------------------------------------------------------
# the five exceptional families and their singularity certificates
# ----------------------------------------------------------------------


# Each family: the diagonal entries of A are -a; the monomial list is in the
# published t-variable order; the point is given by pair -> coefficient
# expression (an index n stands for t_n, ("neg", n) for -t_n, "lam" for the
# quadratic-extension generator, "one" for 1).
PAPER_FAMILIES = (
    {
        "id": 1,
        "p": 5,
        "a": (2, 0, 3, 4, 0),
        "monomials": (
            ((1, 4), (2, 4)),
            ((2, 3), (3, 4)),
            ((2, 5), (2, 5)),
            ((1, 5), (3, 5)),
            ((1, 4), (4, 5)),
            ((3, 4), (3, 5)),
            ((1, 2), (2, 3)),
            ((1, 2), (3, 5)),
            ((1, 3), (2, 5)),
            ((1, 5), (2, 3)),
            ((1, 3), (1, 3)),
        ),
        "point": {(2, 4): 5, (4, 5): ("neg", 1)},
    },
    {
        "id": 2,
        "p": 5,
        "a": (1, 3, 3, 4, 4),
        "monomials": (
            ((1, 4), (1, 4)),
            ((1, 5), (1, 5)),
            ((2, 4), (4, 5)),
            ((2, 5), (4, 5)),
            ((1, 4), (1, 5)),
            ((1, 2), (2, 3)),
            ((3, 4), (4, 5)),
            ((3, 5), (4, 5)),
            ((1, 3), (2, 3)),
        ),
        "point": {(1, 2): 9, (1, 3): ("neg", 6)},
    },
    {
        "id": 3,
        "p": 5,
        "a": (2, 3, 0, 4, 4),
        "monomials": (
            ((2, 3), (2, 4)),
            ((2, 3), (2, 5)),
            ((2, 4), (4, 5)),
            ((2, 5), (4, 5)),
            ((1, 3), (2, 3)),
            ((1, 3), (4, 5)),
            ((1, 4), (3, 5)),
            ((1, 5), (3, 4)),
            ((1, 2), (1, 2)),
            ((1, 4), (3, 4)),
            ((1, 5), (3, 5)),
        ),
        # lambda satisfies t10 lam^2 + (t7 + t8) lam + t11 = 0
        "quadratic": (10, (7, 8), 11),
        "point": {(1, 4): "lam", (1, 5): "one"},
    },
    {
        "id": 4,
        "p": 5,
        "a": (2, 3, 0, 2, 4),
        "monomials": (
            ((1, 4), (4, 5)),
            ((2, 4), (2, 4)),
            ((2, 3), (2, 5)),
            ((2, 3), (3, 4)),
            ((1, 4), (1, 5)),
            ((1, 2), (2, 4)),
            ((1, 3), (2, 3)),
            ((3, 5), (4, 5)),
            ((1, 2), (1, 2)),
            ((1, 5), (3, 5)),
        ),
        "point": {(1, 3): 4, (3, 4): ("neg", 7)},
    },
    {
        "id": 5,
        "p": 7,
        "a": (0, 1, 4, 1, 6),
        "monomials": (
            ((2, 4), (3, 4)),
            ((1, 2), (1, 5)),
            ((1, 3), (3, 5)),
            ((2, 5), (2, 5)),
            ((2, 5), (4, 5)),
            ((1, 4), (1, 5)),
            ((4, 5), (4, 5)),
            ((2, 3), (2, 4)),
        ),
        "point": {(1, 2): 6, (1, 4): ("neg", 2)},
    },
)


@dataclass
class SingularityCertificate:
    family_id: int
    p: int
    a: tuple
    nvars: int
    uses_quadratic_extension: bool
    point_label: str
    nonzero_coordinate: str
    zero_minor_count: int
    nonzero_minor: tuple  # (rows, cols)

    def as_json(self) -> dict:
        return {
            "family": self.family_id,
            "p": self.p,
            "A_diag": [-v for v in self.a],
            "parameters": self.nvars,
            "quadratic_extension": self.uses_quadratic_extension,
            "point": self.point_label,
            "checks": {
                "nonzero_point": self.nonzero_coordinate,
                "vanishing_4x4_minors": self.zero_minor_count,
                "nonzero_3x3_minor": {
                    "rows": list(self.nonzero_minor[0]),
                    "cols": list(self.nonzero_minor[1]),
                },
            },
        }


def paper_family_for(cls: FamilyClass) -> dict:
    """Match a search class to the published family (same S5 x scalar orbit)."""
    for fam in PAPER_FAMILIES:
        if fam["p"] == cls.p and canonical_class(fam["p"], fam["a"]) == cls.a:
            return fam
    raise CertificateFailed(f"class {cls.a} at p={cls.p} is not a published family")


def certify_family_singular(cls: FamilyClass) -> SingularityCertificate:
    """Exact singularity certificate at the published point of the family."""
    fam = paper_family_for(cls)
    p = fam["p"]
    monos = tuple(fam["monomials"])
    expected = monomials_killed_by(p, fam["a"])
    if frozenset(monos) != expected:
        raise CertificateFailed(
            f"published monomial list of family {fam['id']} differs from M_A"
        )
    base = PolyRing(PrimeField(p), [f"t{n}" for n in range(1, len(monos) + 1)])
    tvar = {n + 1: base.var(n) for n in range(len(monos))}

    if "quadratic" in fam:
        lead_n, mid_ns, const_n = fam["quadratic"]
        g2 = tvar[lead_n]
        g1 = base.add(tvar[mid_ns[0]], tvar[mid_ns[1]])
        g0 = tvar[const_n]
        ring = QuadExtRing(base, g2, g1, g0)
        lift = ring.inject
        lam = ring.gen()
    else:
        ring = base
        lift = lambda x: x
        lam = None

    def value(expr):
        if expr == "one":
            return ring.one
        if expr == "lam":
            return lam
        if isinstance(expr, tuple) and expr[0] == "neg":
            return ring.neg(lift(tvar[expr[1]]))
        return lift(tvar[expr])

    point = [ring.zero] * 10
    for pair, expr in fam["point"].items():
        point[pluecker.PAIR_POS[pair]] = value(expr)

    nonzero = next(
        (pair for pair, _ in fam["point"].items() if not ring.is_zero(point[pluecker.PAIR_POS[pair]])),
        None,
    )
    if nonzero is None:
        raise CertificateFailed("point is zero")

    quadric = QuadricForm(ring, {})
    for n, m in enumerate(monos, start=1):
        quadric.add_term(m, lift(tvar[n]))

    gr_quadrics = pluecker_quadrics(ring)
    for k, q in enumerate(gr_quadrics, start=1):
        if not ring.is_zero(q.evaluate(point)):
            raise CertificateFailed(f"q_{k} does not vanish at the point")
    if not ring.is_zero(quadric.evaluate(point)):
        raise CertificateFailed("the family quadric does not vanish at the point")

    jac = pluecker.jacobian_rows(gr_quadrics + [quadric], point)
    zero_count = 0
    for rows in itertools.combinations(range(6), 4):
        for cols in itertools.combinations(range(10), 4):
            sub = [[jac[r][c] for c in cols] for r in rows]
            if not ring.is_zero(det_nodiv(ring, sub)):
                raise CertificateFailed(
                    f"4x4 minor rows={rows} cols={cols} is nonzero"
                )
            zero_count += 1
    witness_minor = None
    for rows in itertools.combinations(range(6), 3):
        for cols in itertools.combinations(range(10), 3):
            sub = [[jac[r][c] for c in cols] for r in rows]
            if not ring.is_zero(det_nodiv(ring, sub)):
                witness_minor = (rows, cols)
                break
        if witness_minor:
            break
    if witness_minor is None:
        raise CertificateFailed("Jacobian rank below 3: no nonzero 3x3 minor")

    label = "(" + ":".join(
        _point_coord_label(fam, pair) for pair in pluecker.PAIRS
    ) + ")"
    return SingularityCertificate(
        family_id=fam["id"],
        p=p,
        a=fam["a"],
        nvars=len(monos),
        uses_quadratic_extension="quadratic" in fam,
        point_label=label,
        nonzero_coordinate=f"x{nonzero[0]}{nonzero[1]}",
        zero_minor_count=zero_count,
        nonzero_minor=witness_minor,
    )


def _point_coord_label(fam: dict, pair) -> str:
    expr = fam["point"].get(pair)
    if expr is None:
        return "0"
    if expr == "one":
        return "1"
    if expr == "lam":
        return "lam"
    if isinstance(expr, tuple):
        return f"-t{expr[1]}"
    return f"t{expr}"


def recheck_certificate_numeric(cls: FamilyClass, samples: int = 100, seed: int = 0) -> bool:
    """Independent numeric re-check: substitute random parameter values over
    GF(p^4) and confirm every certificate identity numerically.  The rank
    condition is re-established by Gaussian elimination rather than by the
    symbolic minor expansion, so the two routes are independent."""
    import random

    from .exact import GFExt
    from .linalg import rank as field_rank

    fam = paper_family_for(cls)
    p = fam["p"]
    F = GFExt(p, 4)
    rng = random.Random(seed)
    monos = tuple(fam["monomials"])
    n = len(monos)
    confirmed = 0
    while confirmed < samples:
        tval = {k + 1: tuple(rng.randrange(p) for _ in range(4)) for k in range(n)}
        if "quadratic" in fam:
            lead_n, mid_ns, const_n = fam["quadratic"]
            aa = tval[lead_n]
            if F.is_zero(aa):
                continue  # stay in the localization where the quadratic is honest
            bb = F.add(tval[mid_ns[0]], tval[mid_ns[1]])
            cc = tval[const_n]
            lam_val = _solve_quadratic(F, aa, bb, cc)
            if lam_val is None:
                continue  # no root in GF(p^4) for this sample; resample
        else:
            lam_val = None

        def value(expr):
            if expr == "one":
                return F.one
            if expr == "lam":
                return lam_val
            if isinstance(expr, tuple) and expr[0] == "neg":
                return F.neg(tval[expr[1]])
            return tval[expr]

        point = [F.zero] * 10
        for pair, expr in fam["point"].items():
            point[pluecker.PAIR_POS[pair]] = value(expr)
        if all(F.is_zero(x) for x in point):
            continue
        quadric = QuadricForm(F, {})
        for k, m in enumerate(monos, start=1):
            quadric.add_term(m, tval[k])
        qs = pluecker_quadrics(F)
        for q in qs:
            if not F.is_zero(q.evaluate(point)):
                return False
        if not F.is_zero(quadric.evaluate(point)):
            return False
        jac = pluecker.jacobian_rows(qs + [quadric], point)
        if field_rank(F, jac) > 3:
            return False
        confirmed += 1
    return True


def _solve_quadratic(F, a, b, c):
    """A root of a y^2 + b y + c in the finite field F, or None."""
    if F.is_zero(a):
        if F.is_zero(b):
            return None
        return F.neg(F.mul(F.inv(b), c))
    disc = F.sub(F.mul(b, b), F.mul(F.from_int(4), F.mul(a, c)))
    root = _sqrt_in_field(F, disc)
    if root is None:
        return None
    inv2a = F.inv(F.mul(F.from_int(2), a))
    return F.mul(inv2a, F.sub(root, b))


_NONRESIDUE_CACHE: dict = {}


def _sqrt_in_field(F, x):
    if F.is_zero(x):
        return F.zero
    q = F.order
    if F.pow(x, (q - 1) // 2) != F.one:
        return None
    if q % 4 == 3:
        return F.pow(x, (q + 1) // 4)
    # Tonelli-Shanks
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = _NONRESIDUE_CACHE.get(F)
    if z is None:
        for cand in F.elements():
            if not F.is_zero(cand) and F.pow(cand, (q - 1) // 2) != F.one:
                z = cand
                break
        _NONRESIDUE_CACHE[F] = z
    m, c, t, r = e, F.pow(z, s), F.pow(x, s), F.pow(x, (s + 1) // 2)
    while t != F.one:
        i, tt = 0, t
        while tt != F.one:
            tt = F.mul(tt, tt)
            i += 1
        b = c
        for _ in range(m - i - 1):
            b = F.mul(b, b)
        m, c = i, F.mul(b, b)
        t = F.mul(t, c)
        r = F.mul(r, b)
    return r


# ----------------------------------------------------------------------
# nilpotent lifting check
# ----------------------------------------------------------------------


def nilpotent_pattern_matrix(bits: tuple) -> list[list[int]]:
    """The 5x5 upper-Jordan nilpotent with the four superdiagonal slots."""
    A = [[0] * 5 for _ in range(5)]
    for i, b in enumerate(bits):
        A[i][i + 1] = int(b)
    return A


def verify_nilpotent_lift(p: int) -> dict:
    """For all sixteen patterns, the 55x55 action matrix has equal kernel
    dimension over QQ and GF(p) (no elementary divisor divisible by p)."""
    if p < 5:
        raise ValueError("the check applies for p >= 5")
    report = {}
    for bits in itertools.product((0, 1), repeat=4):
        A = nilpotent_pattern_matrix(bits)
        M = pluecker.action_matrix(ZZ, A)
        rank_q = _rank_bareiss(M)
        rank_p = _rank_modp(M, p)
        ker_q = 55 - rank_q
        ker_p = 55 - rank_p
        if ker_q != ker_p:
            raise LemmaViolation(f"kernel jump for pattern {bits} at p={p}")
        report["".join(map(str, bits))] = {"kernel_QQ": ker_q, "kernel_Fp": ker_p}
    return {"p": p, "patterns": report, "all_equal": True}


def nilpotent_kernel_analysis(p: int) -> dict:
    """Per-pattern kernel dimensions over QQ and GF(p), with the explicit
    extra mod-p solutions for every pattern whose kernel jumps.

    At p = 5 exactly one pattern jumps: the full Jordan block (1,1,1,1),
    whose action matrix has two elementary divisors equal to 10.  Its mod-5
    kernel is 11-dimensional while only a 9-dimensional subspace lifts to
    characteristic 0.  The quadrics returned under "extra" span complements
    of the liftable subspace; whether the generic member of the full kernel
    family cuts a singular fivefold section is exactly the verification the
    lifting criterion cannot certify (structured singular-point searches
    over 2- and 3-coordinate supports found no certificate)."""
    from .exact import kernel_over, integer_kernel_saturated
    from .linalg import rref as _rref

    F = PrimeField(p)
    out = {"p": p, "patterns": {}}
    for bits in itertools.product((0, 1), repeat=4):
        A = nilpotent_pattern_matrix(bits)
        M = pluecker.action_matrix(ZZ, A)
        ker_p = kernel_over(M, F)
        ker_z = integer_kernel_saturated(M)
        entry = {
            "kernel_QQ": len(ker_z),
            "kernel_Fp": len(ker_p),
            "extra": [],
        }
        if len(ker_p) > len(ker_z):
            reduced = [[v % p for v in vec] for vec in ker_z]
            R, piv = _rref(F, reduced)
            R = R[: len(piv)]
            extras = []
            for row in ker_p:
                r = [int(v) % p for v in row]
                for ri, ci in zip(R, piv):
                    c = r[ci]
                    if c:
                        r = [(x - c * y) % p for x, y in zip(r, ri)]
                for er, ec in extras:
                    c = r[ec]
                    if c:
                        r = [(x - c * y) % p for x, y in zip(r, er)]
                if any(r):
                    lead = next(i for i, v in enumerate(r) if v)
                    inv = pow(r[lead], p - 2, p)
                    r = [(v * inv) % p for v in r]
                    extras.append((r, lead))
            for r, _ in extras:
                terms = {}
                for k, c in enumerate(r):
                    if c:
                        m = MONOMIALS[k]
                        terms[f"{m[0][0]}{m[0][1]}.{m[1][0]}{m[1][1]}"] = c
                entry["extra"].append(terms)
        out["patterns"]["".join(map(str, bits))] = entry
    return out


# The pinned classification, established by the first audited full run and
# cross-checked against the published family matrices.
PINNED_CLASSIFICATION = {
    "subsets": SUBSET_COUNT,
    "hit_pairs": 28194,
    "distinct_kernel_classes": 19,
    "prime_multiset": {5: 22410, 7: 5280, 11: 384, 13: 120},
    "families": {
        5: [(0, 0, 1, 2, 3), (0, 1, 1, 2, 3), (0, 1, 1, 2, 4), (1, 1, 2, 2, 4)],
        7: [(0, 1, 1, 4, 6)],
    },
}


def matches_pinned_classification(result: SearchResult, families, p_filter=None) -> list[str]:
    """Mismatch descriptions against the pinned search outcome (empty = match).
    With a prime filter, only the filtered portion is compared."""
    problems = []
    p_list = set(_parse_prime_filter(p_filter))
    expect_counts = {
        p: n for p, n in PINNED_CLASSIFICATION["prime_multiset"].items() if p in p_list
    }
    got_counts = {p: n for p, n in result.prime_multiset.items()}
    if got_counts != expect_counts:
        problems.append(f"prime multiset {got_counts} != pinned {expect_counts}")
    if result.violations:
        problems.append(f"{len(result.violations)} rank-lemma violations")
    expected_fams = {
        p: sorted(v) for p, v in PINNED_CLASSIFICATION["families"].items() if p in p_list
    }
    got_fams: dict = {}
    for f in families:
        got_fams.setdefault(f.p, []).append(tuple(f.a))
    got_fams = {p: sorted(v) for p, v in got_fams.items()}
    if got_fams != expected_fams:
        problems.append(f"family classes {got_fams} != pinned {expected_fams}")
    if p_filter is None:
        if result.hit_pair_count() != PINNED_CLASSIFICATION["hit_pairs"]:
            problems.append(
                f"hit pairs {result.hit_pair_count()} != {PINNED_CLASSIFICATION['hit_pairs']}"
            )
        if result.distinct_class_count() != PINNED_CLASSIFICATION["distinct_kernel_classes"]:
            problems.append(
                f"distinct classes {result.distinct_class_count()} != "
                f"{PINNED_CLASSIFICATION['distinct_kernel_classes']}"
            )
    return problems


def _cache_filter(p_filter):
    """A prime filter as the cache stores it (JSON has no tuples)."""
    return p_filter if p_filter is None or isinstance(p_filter, int) else list(p_filter)


def search_cache_payload(result: SearchResult, p_filter) -> dict:
    e = build_E()
    groups = []
    for (p, a), grp in sorted(result.groups.items()):
        groups.append(
            {
                "p": p,
                "a": list(a),
                "canonical": list(canonical_class(p, a)),
                "witnesses": [list(w) for w in grp.witnesses],
                "monomials": sorted(
                    f"{m[0][0]}{m[0][1]}.{m[1][0]}{m[1][1]}" for m in grp.monomials
                ),
            }
        )
    return {
        "schema": CACHE_SCHEMA,
        "e_hash": e.content_hash(),
        "p_filter": _cache_filter(p_filter),
        "subsets_scanned": result.subsets_scanned,
        "rank_checks": result.rank_checks,
        "prime_multiset": {str(k): v for k, v in sorted(result.prime_multiset.items())},
        "groups": groups,
        "violations": [{"N": list(v["N"]), "p": v["p"]} for v in result.violations],
    }


def search_result_from_cache(payload: dict, p_filter=None) -> SearchResult:
    """The search a cache payload records; ValueError (or KeyError for a
    missing field) unless it is a complete sweep for this weight matrix and
    this prime filter (default: every prime) with consistent counts."""
    if payload.get("schema") != CACHE_SCHEMA:
        raise ValueError(f"cache schema {payload.get('schema')!r} is not {CACHE_SCHEMA!r}")
    if payload.get("e_hash") != build_E().content_hash():
        raise ValueError("cache was built against a different weight matrix")
    if payload["p_filter"] != _cache_filter(p_filter):
        raise ValueError(f"cache was built for prime filter {payload['p_filter']}, not {p_filter}")
    if payload["subsets_scanned"] != SUBSET_COUNT:
        raise ValueError(f"cache scanned {payload['subsets_scanned']} subsets, not {SUBSET_COUNT}")
    groups = {}
    for g in payload["groups"]:
        p, a = g["p"], tuple(g["a"])
        witnesses = [tuple(w) for w in g["witnesses"]]
        groups[(p, a)] = HitGroup(p, a, monomials_killed_by(p, a), witnesses)
    result = SearchResult(
        groups,
        payload["subsets_scanned"],
        payload["rank_checks"],
        {int(k): v for k, v in payload["prime_multiset"].items()},
        [{"N": tuple(v["N"]), "p": v["p"]} for v in payload["violations"]],
    )
    pairs = result.hit_pair_count() + len(result.violations)
    if not result.rank_checks == sum(result.prime_multiset.values()) == pairs:
        raise ValueError("cache counts disagree: rank checks, prime multiset, hits and violations")
    return result

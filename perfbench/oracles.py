"""Independent checks of gmlab's outputs.

Nothing here calls the routine whose output it checks.  The arithmetic is
the benchmark's own (Python ints, `fractions.Fraction`, numpy int64 with the
bounds noted where used), and sympy is the oracle for the integer normal
forms.  Each check returns a list of problem strings; an empty list means
the output is correct.

Ring elements are read through `ElementReader`, which learns the program's
encoding of GF(p^m) from the ring's public `from_int`, `gen`, `add` and `mul`
(q small computations), so a change of element encoding does not break the
checks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

N_ROWS = 45

# ----------------------------------------------------------------------
# own arithmetic
# ----------------------------------------------------------------------


class OwnField:
    """GF(p^m) with elements as coefficient tuples (low degree first) for
    m >= 2, plain residues for m = 1; `modulus` is monic, low degree first."""

    def __init__(self, p: int, m: int = 1, modulus=None):
        self.p, self.m = p, m
        self.modulus = tuple(modulus) if modulus is not None else None
        self.zero = 0 if m == 1 else (0,) * m
        self.one = 1 if m == 1 else (1,) + (0,) * (m - 1)

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(len(prod) - 1, self.m - 1, -1):
            c = prod[d] % self.p
            if c:
                for i in range(self.m + 1):
                    prod[d - self.m + i] -= c * self.modulus[i]
        return tuple(c % self.p for c in prod[: self.m])

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        result, base, e = self.one, a, self.p ** self.m - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_zero(self, a):
        return a == self.zero

    def from_int(self, n: int):
        return n % self.p if self.m == 1 else (n % self.p,) + (0,) * (self.m - 1)


class OwnQQ:
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def from_int(self, n: int):
        return Fraction(n)


def rank(F, rows) -> int:
    """Rank by Gaussian elimination over one of the fields above."""
    A = [list(r) for r in rows]
    if not A:
        return 0
    r = 0
    for c in range(len(A[0])):
        piv = next((i for i in range(r, len(A)) if not F.is_zero(A[i][c])), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = F.inv(A[r][c])
        A[r] = [F.mul(inv, v) for v in A[r]]
        for i in range(len(A)):
            if i != r and not F.is_zero(A[i][c]):
                f = A[i][c]
                A[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(A[i], A[r])]
        r += 1
        if r == len(A):
            break
    return r


def det3(F, m):
    return F.sub(
        F.add(
            F.mul(m[0][0], F.sub(F.mul(m[1][1], m[2][2]), F.mul(m[1][2], m[2][1]))),
            F.mul(m[0][2], F.sub(F.mul(m[1][0], m[2][1]), F.mul(m[1][1], m[2][0]))),
        ),
        F.mul(m[0][1], F.sub(F.mul(m[1][0], m[2][2]), F.mul(m[1][2], m[2][0]))),
    )


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# ----------------------------------------------------------------------
# reading the program's ring elements
# ----------------------------------------------------------------------


class ElementReader:
    """Maps elements of a gmlab ring to the benchmark's own arithmetic."""

    def __init__(self, ring):
        kind = type(ring).__name__
        self.kind = kind
        if kind == "RationalField":
            self.field = OwnQQ()
        elif kind == "PrimeField":
            self.field = OwnField(ring.p)
        elif kind == "GFExt":
            p, m = ring.p, ring.m
            gen = ring.gen()
            table = {}
            power = ring.one
            powers = []
            for _ in range(m + 1):
                powers.append(power)
                power = ring.mul(power, gen)
            for coeffs in itertools.product(range(p), repeat=m):
                x = ring.zero
                for c, g in zip(coeffs, powers):
                    x = ring.add(x, ring.mul(ring.from_int(c), g))
                table[x] = coeffs
            if len(table) != p ** m:
                raise ValueError(f"{ring!r}: powers of the generator do not span the field")
            top = table[powers[m]]  # gen^m = sum c_i gen^i, so f = x^m - sum c_i x^i
            self.field = OwnField(p, m, tuple((-c) % p for c in top) + (1,))
            self.table = table
        else:
            raise TypeError(f"no reader for {ring!r}")

    def elem(self, x):
        if self.kind == "RationalField":
            return x if isinstance(x, Fraction) else Fraction(str(x))
        if self.kind == "PrimeField":
            return int(x) % self.field.p
        return self.table[x]

    def matrix(self, rows):
        return [[self.elem(x) for x in row] for row in rows]


# ----------------------------------------------------------------------
# wedge^3 of a 6-space
# ----------------------------------------------------------------------

TRIPLES6 = list(itertools.combinations(range(1, 7), 3))


def _perm_sign(seq) -> int:
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def omega_from_signs() -> list[list[int]]:
    """The pairing wedge^3 x wedge^3 -> wedge^6 = Z: the sign of the
    permutation (s, t) of 1..6, zero when s and t meet."""
    out = [[0] * 20 for _ in range(20)]
    for i, s in enumerate(TRIPLES6):
        for j, t in enumerate(TRIPLES6):
            if not set(s) & set(t):
                out[i][j] = _perm_sign(s + t)
    return out


OMEGA = omega_from_signs()


def isotropy_defects(F, A) -> int:
    """Number of nonzero entries of A Omega A^T over F."""
    om = [[F.from_int(v) for v in row] for row in OMEGA]
    bad = 0
    for a in A:
        a_om = [F.zero] * 20
        for i, x in enumerate(a):
            if F.is_zero(x):
                continue
            for j, w in enumerate(om[i]):
                if w != F.zero:
                    a_om[j] = F.add(a_om[j], F.mul(x, w))
        for b in A:
            acc = F.zero
            for x, y in zip(a_om, b):
                acc = F.add(acc, F.mul(x, y))
            if not F.is_zero(acc):
                bad += 1
    return bad


def plucker_vector(F, rows3):
    """The 3x3 minors of a 3x6 matrix, against the lexicographic triples."""
    return [det3(F, [[row[c - 1] for c in t] for row in rows3]) for t in TRIPLES6]


def wedge3_of_kernel(F, u):
    """A basis of wedge^3 of ker(u) inside wedge^3 of the 6-space."""
    lead = next(i for i, v in enumerate(u) if not F.is_zero(v))
    inv = F.inv(u[lead])
    basis = []
    for j in range(6):
        if j == lead:
            continue
        vec = [F.zero] * 6
        vec[j] = F.one
        vec[lead] = F.sub(F.zero, F.mul(inv, u[j]))
        basis.append(vec)
    return [plucker_vector(F, [basis[a], basis[b], basis[c]]) for a, b, c in itertools.combinations(range(5), 3)]


# ----------------------------------------------------------------------
# acceptance: the weight rows and the C(45,5) determinants
# ----------------------------------------------------------------------


def weight_rows_by_definition() -> list[tuple]:
    """10 halved squares e_i + e_j, 30 rows 2e_i + e_j + e_k of the mixed
    monomials x_ij x_ik, 5 rows with one zero for the disjoint-pair ones."""
    rows = []
    for i, j in itertools.combinations(range(5), 2):
        w = [0] * 5
        w[i] = w[j] = 1
        rows.append(tuple(w))
    for i in range(5):
        for j, k in itertools.combinations([x for x in range(5) if x != i], 2):
            w = [0] * 5
            w[i], w[j], w[k] = 2, 1, 1
            rows.append(tuple(w))
    for z in range(5):
        rows.append(tuple(0 if x == z else 1 for x in range(5)))
    return rows


def check_weight_rows(program_rows) -> list[str]:
    rows = [tuple(int(v) for v in r) for r in program_rows]
    expected = weight_rows_by_definition()
    if len(rows) != N_ROWS or len(set(rows)) != N_ROWS:
        return [f"program uses {len(rows)} weight rows ({len(set(rows))} distinct), expected 45"]
    if sorted(rows) != sorted(expected):
        return ["program weight rows differ from the definition"]
    return []


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]


class SubsetDeterminants:
    """All C(45,5) determinants by Laplace expansion along the first two rows
    of each subset: 2x2 minors of the row pairs times complementary 3x3
    minors of the row triples.  Exact in int64: entries are at most 2, so a
    3x3 minor is at most 48 in size and each product at most 192."""

    def __init__(self, rows):
        E = np.array(rows, dtype=np.int64)
        self.E = E
        pairs = np.array(list(itertools.combinations(range(N_ROWS), 2)), dtype=np.int64)
        triples = np.array(list(itertools.combinations(range(N_ROWS), 3)), dtype=np.int64)
        col_pairs = list(itertools.combinations(range(5), 2))
        m2 = np.empty((len(pairs), 10), dtype=np.int64)
        m3 = np.empty((len(triples), 10), dtype=np.int64)
        for c, (a, b) in enumerate(col_pairs):
            r0, r1 = E[pairs[:, 0]], E[pairs[:, 1]]
            m2[:, c] = r0[:, a] * r1[:, b] - r0[:, b] * r1[:, a]
            x, y, z = [k for k in range(5) if k not in (a, b)]
            t0, t1, t2 = E[triples[:, 0]], E[triples[:, 1]], E[triples[:, 2]]
            m3[:, c] = (
                t0[:, x] * (t1[:, y] * t2[:, z] - t1[:, z] * t2[:, y])
                - t0[:, y] * (t1[:, x] * t2[:, z] - t1[:, z] * t2[:, x])
                + t0[:, z] * (t1[:, x] * t2[:, y] - t1[:, y] * t2[:, x])
            )
        # lexicographic 5-subsets: a pair (i, j), then every triple above j
        starts = np.searchsorted(triples[:, 0], pairs[:, 1] + 1, side="left")
        counts = len(triples) - starts
        self.count = int(counts.sum())
        pair_ids = np.repeat(np.arange(len(pairs)), counts)
        offsets = np.repeat(np.cumsum(counts) - counts - starts, counts)
        triple_ids = np.arange(self.count) - offsets
        det = np.zeros(self.count, dtype=np.int64)
        for c, (a, b) in enumerate(col_pairs):
            sign = -1 if (a + b) % 2 == 0 else 1  # (-1)^((1+2)+(a+1)+(b+1))
            det += sign * m2[pair_ids, c] * m3[triple_ids, c]
        self.det = det
        self.pairs, self.triples = pairs, triples
        self.pair_ids, self.triple_ids = pair_ids, triple_ids
        self.primes = _primes(5, 200)
        self.prime_multiset = {}
        self.hit_codes = {}
        nonzero = det != 0
        for p in self.primes:
            idx = np.nonzero(nonzero & (det % p == 0))[0]
            if len(idx):
                self.prime_multiset[p] = len(idx)
                self.hit_codes[p] = np.sort(self.codes_of(idx))

    def codes_of(self, idx):
        pr = self.pairs[self.pair_ids[idx]]
        tr = self.triples[self.triple_ids[idx]]
        subset = np.concatenate([pr, tr], axis=1)
        return subset_codes(subset)

    @property
    def rank_checks(self) -> int:
        return sum(self.prime_multiset.values())


def subset_codes(subsets) -> np.ndarray:
    s = np.asarray(subsets, dtype=np.int64).reshape(-1, 5)
    weights = np.array([N_ROWS ** 4, N_ROWS ** 3, N_ROWS ** 2, N_ROWS, 1], dtype=np.int64)
    return s @ weights


def check_search_output(out: dict, dets: SubsetDeterminants) -> list[str]:
    """The JSON printed by `gmlab vf search` against the recomputed determinants."""
    problems = []
    if dets.count != math.comb(45, 5):
        problems.append(f"oracle enumerated {dets.count} subsets")
    if out.get("subsets_scanned") != math.comb(45, 5):
        problems.append(f"subsets_scanned {out.get('subsets_scanned')} != C(45,5)")
    got = {int(k): v for k, v in out.get("prime_multiset", {}).items()}
    if got != dets.prime_multiset:
        problems.append(f"prime multiset {got} != recomputed {dets.prime_multiset}")
    if out.get("hit_pairs") != dets.rank_checks:
        problems.append(f"hit_pairs {out.get('hit_pairs')} != recomputed {dets.rank_checks}")
    if out.get("verdict") != "PASS" or out.get("problems"):
        problems.append(f"search verdict {out.get('verdict')}: {out.get('problems')}")
    return problems


def check_hits(groups, rank_checks, dets: SubsetDeterminants) -> list[str]:
    """Hits (p, a, witnesses) read back from the search cache: every witness
    N has N a = 0 mod p with a != 0, and the (N, p) pairs are exactly the
    subsets whose nonzero determinant p divides."""
    problems = []
    if rank_checks != dets.rank_checks:
        problems.append(f"rank checks {rank_checks} != recomputed {dets.rank_checks}")
    codes: dict = {}
    for p, a, witnesses in groups:
        a_vec = np.array([int(v) for v in a], dtype=np.int64)
        if not np.any(a_vec % p):
            problems.append(f"zero kernel vector at p={p}")
            continue
        w = np.array(witnesses, dtype=np.int64).reshape(-1, 5)
        if len(w) == 0:
            continue
        residues = (dets.E[w] @ a_vec) % p
        bad = int(np.count_nonzero(residues.any(axis=1)))
        if bad:
            problems.append(f"{bad} witnesses at p={p}, a={tuple(a)} with N a != 0")
        codes.setdefault(p, []).append(subset_codes(w))
    for p in sorted(set(codes) | set(dets.hit_codes)):
        got = np.sort(np.concatenate(codes[p])) if p in codes else np.zeros(0, dtype=np.int64)
        want = dets.hit_codes.get(p, np.zeros(0, dtype=np.int64))
        if len(got) != len(want) or not np.array_equal(got, want):
            problems.append(f"p={p}: {len(got)} hit subsets, recomputed {len(want)}")
    return problems


# ----------------------------------------------------------------------
# acceptance: criterion 8 and the lattice facts through sympy
# ----------------------------------------------------------------------

PAIRS5 = list(itertools.combinations(range(1, 6), 2))
MONOMIALS55 = [(PAIRS5[a], PAIRS5[b]) for a in range(10) for b in range(a, 10)]


def nilpotent_action_matrix(bits) -> list[list[int]]:
    """Derivation action of the upper-Jordan nilpotent with superdiagonal
    `bits` on quadratic monomials in the Pluecker coordinates x_ij, through
    the dual action x_ij -> -x_ij o A (columns: source monomials)."""
    A = [[0] * 5 for _ in range(5)]
    for i, b in enumerate(bits):
        A[i][i + 1] = int(b)

    def on_pair(pair):
        i, j = pair
        out: Counter = Counter()
        for t in range(1, 6):
            for a, b, c in ((t, j, -A[i - 1][t - 1]), (i, t, -A[j - 1][t - 1])):
                if a != b and c:
                    if a < b:
                        out[(a, b)] += c
                    else:
                        out[(b, a)] -= c
        return out

    pos = {m: k for k, m in enumerate(MONOMIALS55)}
    M = [[0] * 55 for _ in range(55)]
    for col, (p, q) in enumerate(MONOMIALS55):
        for moved, fixed in ((p, q), (q, p)):
            for r, v in on_pair(moved).items():
                M[pos[(r, fixed) if r <= fixed else (fixed, r)]][col] += v
    return M


def elementary_divisors(M) -> list[int]:
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    S = smith_normal_form(Matrix(M), domain=ZZ)
    return sorted(abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0)


def nilpotent_kernel_jumps(primes=(5, 7, 11)) -> dict:
    """{(p, bits): (kernel over QQ, kernel over GF(p))} for every pattern
    whose kernel jumps, from sympy's Smith forms."""
    jumps = {}
    for bits in itertools.product((0, 1), repeat=4):
        divisors = elementary_divisors(nilpotent_action_matrix(bits))
        for p in primes:
            rank_p = sum(1 for d in divisors if d % p)
            if rank_p != len(divisors):
                jumps[(p, "".join(map(str, bits)))] = (55 - len(divisors), 55 - rank_p)
    return jumps


DOCUMENTED_GAP = {(5, "1111"): (9, 11)}
DOCUMENTED_DIVISORS = Counter({1: 42, 2: 2, 10: 2})


def check_criterion_8(passed: bool, payload: dict, jumps: dict) -> list[str]:
    """Criterion 8 counts as succeeded when it fails by exactly the
    documented gap, and sympy confirms that gap."""
    problems = []
    if jumps != DOCUMENTED_GAP:
        problems.append(f"Smith forms give kernel jumps {jumps}, not the documented gap")
    divisors = Counter(elementary_divisors(nilpotent_action_matrix((1, 1, 1, 1))))
    if divisors != DOCUMENTED_DIVISORS:
        problems.append(f"full Jordan block divisors {dict(divisors)}")
    reported = {}
    for p, pats in (payload or {}).items():
        for bits, v in pats.items():
            reported[(int(p), bits)] = (v["kernel_QQ"], v["kernel_Fp"])
    if passed or reported != jumps:
        problems.append(f"criterion 8 reported passed={passed}, jumps {reported}; expected {jumps}")
    return problems


def check_lattice(gram, report: dict) -> list[str]:
    """|det Gram| = 4 and signature {20, 2}, by sympy, against the program's report."""
    from sympy import Matrix, symbols

    G = Matrix(gram)
    problems = []
    det = int(G.det())
    if abs(det) != 4:
        problems.append(f"|det Gram| = {abs(det)}, expected 4")
    x = symbols("x")
    coeffs = [int(c) for c in G.charpoly(x).all_coeffs()]
    # all roots are real, so Descartes' rule counts them exactly
    nonzero = [c for c in coeffs if c]
    pos = sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))
    alt = [c * (-1) ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs)]
    alt = [c for c in alt if c]
    neg = sum(1 for a, b in zip(alt, alt[1:]) if (a > 0) != (b > 0))
    if sorted((pos, neg)) != [2, 20]:
        problems.append(f"signature ({pos}, {neg}), expected {{20, 2}}")
    if sorted(report.get("signature_primitive", [])) != sorted((pos, neg)):
        problems.append(f"program signature {report.get('signature_primitive')} != ({pos}, {neg})")
    if math.prod(report.get("discriminant_invariants", [0])) != abs(det):
        problems.append(f"discriminant {report.get('discriminant_invariants')} != |det| {abs(det)}")
    return problems


# ----------------------------------------------------------------------
# roundtrip
# ----------------------------------------------------------------------


def check_roundtrip(D, gm, D2, gm2) -> list[str]:
    """A Omega A^T = 0, rank [A; A'] = 10, rank W = n+5, q(e_i) symmetric."""
    rd = ElementReader(D.ring)
    F = rd.field
    A, A2 = rd.matrix(D.a_rows), rd.matrix(D2.a_rows)
    problems = []
    for name, M in (("A", A), ("A'", A2)):
        if isotropy_defects(F, M):
            problems.append(f"{name} is not isotropic")
    if rank(F, A) != 10 or rank(F, A + A2) != 10:
        problems.append("A and A' do not span the same rank-10 space")
    for name, g in (("gm", gm), ("gm'", gm2)):
        if rank(F, rd.matrix(g.w_rows)) != D.n + 5:
            problems.append(f"{name}: rank W != n+5")
        for i, m in enumerate(g.q):
            qm = rd.matrix(m)
            if any(qm[a][b] != qm[b][a] for a in range(len(qm)) for b in range(a)):
                problems.append(f"{name}: q(e_{i + 1}) is not symmetric")
    return problems


# ----------------------------------------------------------------------
# lift-scan
# ----------------------------------------------------------------------


def check_lift(D, lifted, p: int, k: int) -> list[str]:
    """Isotropic mod p^k in plain integers, reduces to span(A) mod p, and
    has a 10x10 minor that is a unit mod p (rank 10 after reduction)."""
    problems = []
    if getattr(lifted.ring, "p", None) != p or getattr(lifted.ring, "k", None) != k:
        problems.append(f"lift to {lifted.ring!r}, expected Z/{p}^{k}")
    mod = p ** k
    A = [[int(v) % mod for v in row] for row in lifted.a_rows]
    if len(A) != 10:
        problems.append(f"lift has {len(A)} rows")
    for a in A:
        a_om = [sum(x * OMEGA[i][j] for i, x in enumerate(a)) for j in range(20)]
        if any(sum(x * y for x, y in zip(a_om, b)) % mod for b in A):
            problems.append(f"lift is not isotropic mod {p}^{k}")
            break
    Fp = OwnField(p)
    red = [[v % p for v in row] for row in A]
    base = ElementReader(D.ring).matrix(D.a_rows)
    if rank(Fp, red) != 10:
        problems.append("lift has no unit 10x10 minor")
    elif rank(Fp, red + base) != 10:
        problems.append("lift does not reduce to span(A) mod p")
    return problems


def check_opposite(D, res) -> list[str]:
    """The returned covector u has A cap wedge^3 ker(u) = 0."""
    if res is None:
        return ["find_opposite_V5 found nothing"]
    from gmlab.exact import GFExt  # ring object only, to read elements of the extension

    base = ElementReader(D.ring)
    e = res["degree"]
    if e == 1:
        rd = base
    else:
        rd = ElementReader(GFExt(D.ring.p, e))
    F = rd.field
    u = [rd.elem(x) for x in res["u"]]
    if all(F.is_zero(x) for x in u):
        return ["opposite covector is zero"]
    A = [[F.from_int(v) for v in row] for row in base.matrix(D.a_rows)]
    if rank(F, A + wedge3_of_kernel(F, u)) != 20:
        return [f"A meets wedge^3 of ker(u) for u = {res['u']}"]
    return []


def check_scan(D, res, budget: int, expect: str) -> list[str]:
    """expect: 'budget' (no witness: tested == budget), 'exhausted' (tested
    == [6 3]_p), or 'witness' (Pluecker vector of the witness in span(A));
    a witness, whenever one is reported, must be genuine."""
    rd = ElementReader(D.ring)
    F = rd.field
    problems = []
    rows = res.get("witness_rows")
    if rows is not None:
        if res.get("degree", 1) != 1:
            return [f"witness over a degree-{res.get('degree')} extension"]
        W = rd.matrix(rows)
        A = rd.matrix(D.a_rows)
        if rank(F, W) != 3:
            problems.append("witness rows do not span a 3-space")
        elif rank(F, A + [plucker_vector(F, W)]) != 10:
            problems.append("witness Pluecker vector is not in span(A)")
        if res.get("tested", 0) > budget:
            problems.append(f"tested {res.get('tested')} beyond budget {budget}")
    if expect == "witness" and rows is None:
        problems.append("no witness although A contains decomposable vectors")
    if expect == "budget" and rows is None and (res.get("tested") != budget or res.get("exhausted")):
        problems.append(f"budgeted scan reports tested={res.get('tested')}, budget {budget}")
    if expect == "exhausted" and rows is None:
        total = gaussian_binomial(6, 3, F.p ** F.m)
        if res.get("tested") != total or res.get("exhausted") is not True:
            problems.append(f"exhausted scan reports tested={res.get('tested')}, [6 3]_q = {total}")
    return problems

"""The correspondence between GM data and Lagrangian data over a field of odd
characteristic or over Z/p^k, with the opposite-space search, one batched
decomposable-vector scan for every finite field, and Hensel lifting.

Conventions.  V6 = R^6 with its standard basis; multivectors are stored as
coordinate vectors against the lexicographic basis of wedge^k V6 (tuples of
increasing indices, `TUPLES[k]`).  Spans (A, W, ...) are stored as ROW
matrices.  Every wedge product goes through one structure-constant table,
`WEDGE[a, b]`: for the a-tuple s at position i, `WEDGE[a, b][i]` lists
(j, k, sign) with e_s ^ e_t = sign * e_u, where t is the b-tuple at position
j, u the (a+b)-tuple at position k, and sign the parity of the shuffle that
sorts s followed by t.  Contraction is the transpose of `WEDGE[1, k-1]`, and
the wedge of k vectors (the k x k minors of their 6 x k matrix) is a fold of
`WEDGE[i, 1]`.  A datum carries an arbitrary rank-5 direct summand V5 (6x5
column matrix); nothing assumes V5 is a coordinate subspace.  epsilon is the
unit epsilon(b1 ^ ... ^ b5) against the stored V5 basis.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    GFExt,
    IntegersModPK,
    PrimeField,
    QQ,
    Ring,
    RationalField,
)
from . import linalg
from .linalg import kernel, mat_vec, rank, rref, solve, transpose


TUPLES = [list(itertools.combinations(range(1, 7), k)) for k in range(7)]
TRIPLES = TUPLES[3]  # 20, lexicographic


def _wedge_table(a: int, b: int) -> list[list[tuple]]:
    pos = {u: k for k, u in enumerate(TUPLES[a + b])}
    table = []
    for s in TUPLES[a]:
        row = []
        for j, t in enumerate(TUPLES[b]):
            if set(s).isdisjoint(t):
                inversions = sum(x > y for x in s for y in t)
                row.append((j, pos[tuple(sorted(s + t))], -1 if inversions % 2 else 1))
        table.append(row)
    return table


WEDGE = {(a, b): _wedge_table(a, b) for a in range(1, 7) for b in range(7 - a)}


def wedge(R: Ring, x: list, a: int, y: list, b: int) -> list:
    """x ^ y for an a-vector x and a b-vector y."""
    out = [R.zero] * len(TUPLES[a + b])
    for xi, row in zip(x, WEDGE[a, b]):
        if R.is_zero(xi):
            continue
        for j, k, sign in row:
            yj = y[j]
            if R.is_zero(yj):
                continue
            term = R.mul(xi, yj)
            out[k] = R.add(out[k], term) if sign > 0 else R.sub(out[k], term)
    return out


class RankDefect(Exception):
    pass


class CompatibilityViolation(Exception):
    pass


# ----------------------------------------------------------------------
# the ambient wedge space and its symplectic form
# ----------------------------------------------------------------------


def wedge_gram() -> list[list[int]]:
    """The 20x20 antisymmetric Gram of wedge: wedge^3 x wedge^3 -> wedge^6."""
    omega = [[0] * 20 for _ in range(20)]
    for i, row in enumerate(WEDGE[3, 3]):
        for j, _, sign in row:
            omega[i][j] = sign
    return omega


OMEGA_INT = wedge_gram()


def omega_over(ring: Ring) -> list[list]:
    return [[ring.from_int(v) for v in row] for row in OMEGA_INT]


def wedge_vectors(ring: Ring, vecs: list) -> list:
    """Wedge of k >= 1 column vectors of R^6, as coordinates against
    TUPLES[k]: the k x k minors of the 6 x k matrix with those columns."""
    out = list(vecs[0])
    for i, v in enumerate(vecs[1:], 1):
        out = wedge(ring, out, i, v, 1)
    return out


def contract(ring: Ring, phi: list, xi: list, k: int = 3) -> list:
    """Interior product of a covector (6 coordinates) with a k-vector:
    phi . e_s = sum of sign * phi_i * e_t over e_i ^ e_t = sign * e_s."""
    out = [ring.zero] * len(TUPLES[k - 1])
    for c, row in zip(phi, WEDGE[1, k - 1]):
        if ring.is_zero(c):
            continue
        for j, s, sign in row:
            coeff = xi[s]
            if ring.is_zero(coeff):
                continue
            term = ring.mul(coeff, c)
            out[j] = ring.add(out[j], term) if sign > 0 else ring.sub(out[j], term)
    return out


def wedge_1_with(ring: Ring, v: list, xi: list, k: int) -> list:
    """v ^ xi for a vector v (6 coords) and a k-vector xi."""
    return wedge(ring, v, 1, xi, k)


# ----------------------------------------------------------------------
# data
# ----------------------------------------------------------------------


@dataclass
class GMDatum:
    ring: Ring
    n: int
    v5: list  # 6x5, columns form the basis of V5
    w_rows: list  # (n+5) x 15, rows span W inside wedge^2 V6 (lying in wedge^2 V5)
    q: list  # 6 symmetric (n+5) x (n+5) matrices: q(e_i) against the W row basis
    epsilon: object  # unit: eps(b1 ^ ... ^ b5)

    def check(self):
        R = self.ring
        if self.n not in (3, 4, 5):
            raise ValueError("the dimension must be 3, 4 or 5")
        if rank(R, transpose(self.v5)) != 5:
            raise RankDefect("V5 basis is not of rank 5")
        if len(self.w_rows) != self.n + 5 or rank(R, self.w_rows) != self.n + 5:
            raise RankDefect("W must be a direct summand of rank n+5")
        if not R.is_unit(self.epsilon):
            raise ValueError("epsilon must be a unit")
        for i in range(6):
            m = self.q[i]
            for a in range(self.n + 5):
                for b in range(self.n + 5):
                    if not R.eq(m[a][b], m[b][a]):
                        raise CompatibilityViolation("q(v) is not symmetric")
        # the defining compatibility on the V5 directions
        cols = [[self.v5[r][c] for r in range(6)] for c in range(5)]
        base = _v5_wedge5(R, self.v5)
        for c in range(5):
            qv = _q_at_vector(self, cols[c])
            for a in range(self.n + 5):
                for b in range(a, self.n + 5):
                    lhs = qv[a][b]
                    rhs = _eps_of_wedge(self, cols[c], self.w_rows[a], self.w_rows[b], base)
                    if not R.eq(lhs, rhs):
                        raise CompatibilityViolation(
                            "q(v)(w.w') != eps(v ^ w ^ w') on V5"
                        )


@dataclass
class LagrangianDatum:
    ring: Ring
    n: int
    v5: list  # 6x5 columns
    a_rows: list  # 10 x 20 rows spanning A
    epsilon: object

    def check(self):
        R = self.ring
        if self.n not in (3, 4, 5):
            raise ValueError("the dimension must be 3, 4 or 5")
        if rank(R, transpose(self.v5)) != 5:
            raise RankDefect("V5 basis is not of rank 5")
        if len(self.a_rows) != 10 or rank(R, self.a_rows) != 10:
            raise RankDefect("A must be of rank 10")
        if not R.is_unit(self.epsilon):
            raise ValueError("epsilon must be a unit")
        om = omega_over(R)
        prod = linalg.mat_mul(R, self.a_rows, om)
        gram = linalg.mat_mul(R, prod, transpose(self.a_rows))
        for row in gram:
            for v in row:
                if not R.is_zero(v):
                    raise CompatibilityViolation("A is not isotropic")
        if len(intersection_with_wedge3_v5(self)) != 5 - self.n:
            raise RankDefect("rank(A cap wedge^3 V5) != 5 - n")


def wedge3_v5_rows(ring: Ring, v5: list) -> list:
    """The ten wedge triples of the V5 basis columns, as rows in wedge^3 V6."""
    cols = [[v5[r][c] for r in range(6)] for c in range(5)]
    rows = []
    for (a, b, c) in itertools.combinations(range(5), 3):
        rows.append(wedge_vectors(ring, [cols[a], cols[b], cols[c]]))
    return rows


def intersection_with_wedge3_v5(D: LagrangianDatum) -> list:
    """Basis (rows) of A cap wedge^3 V5."""
    R = D.ring
    w3 = wedge3_v5_rows(R, D.v5)
    # x in A-span and in W3-span:  [A^t | -W3^t] (20 x 20) kernel
    m = [[D.a_rows[j][i] for j in range(10)] + [R.neg(w3[j][i]) for j in range(10)] for i in range(20)]
    ker = kernel(R, m, unit_pivots_required=not R.is_field)
    rows = []
    for vec in ker:
        combo = [R.zero] * 20
        for j in range(10):
            if not R.is_zero(vec[j]):
                combo = [R.add(x, R.mul(vec[j], y)) for x, y in zip(combo, D.a_rows[j])]
        rows.append(combo)
    reduced, piv = rref(R, rows, unit_pivots_required=not R.is_field)
    return [reduced[i] for i in range(len(piv))]


def _choose_v0(ring: Ring, v5: list) -> list:
    """The first standard basis vector completing V5 to a basis of V6."""
    for i in range(6):
        cand = [ring.one if r == i else ring.zero for r in range(6)]
        cols = transpose(v5)
        if rank(ring, cols + [cand]) == 6:
            return cand
    raise RankDefect("V5 does not extend to a basis")


def _v5_wedge5(ring: Ring, v5: list) -> list:
    cols = [[v5[r][c] for r in range(6)] for c in range(5)]
    return wedge_vectors(ring, cols)


def _eps_scalar_vec(R: Ring, v5: list, epsilon, vec5: list, base=None):
    """Express a 5-vector (6 coordinates) lying in wedge^5 V5 as a multiple of
    the basis wedge, times epsilon."""
    if base is None:
        base = _v5_wedge5(R, v5)
    piv = next(i for i, v in enumerate(base) if R.is_unit(v))
    scalar = R.mul(R.inv(base[piv]), vec5[piv])
    for i in range(6):
        if not R.eq(vec5[i], R.mul(scalar, base[i])):
            raise CompatibilityViolation("5-vector does not lie on the V5 line")
    return R.mul(scalar, epsilon)


def _eps_of_wedge(D, v: list, w_row: list, w_row2: list, base=None):
    """eps(v ^ w ^ w') for w, w' stored as wedge^2 coordinates."""
    R = D.ring
    vww = wedge(R, wedge(R, v, 1, w_row, 2), 3, w_row2, 2)
    return _eps_scalar_vec(R, D.v5, D.epsilon, vww, base)


def _q_at_vector(D: GMDatum, v: list) -> list:
    """q(v) as a symmetric matrix, v given by 6 coordinates."""
    R = D.ring
    size = D.n + 5
    out = [[R.zero] * size for _ in range(size)]
    for i in range(6):
        c = v[i]
        if R.is_zero(c):
            continue
        for a in range(size):
            for b in range(size):
                out[a][b] = R.add(out[a][b], R.mul(c, D.q[i][a][b]))
    return out


# ----------------------------------------------------------------------
# the two constructions
# ----------------------------------------------------------------------


def gm_to_lagrangian(D: GMDatum, check_v0_independence: bool = True) -> LagrangianDatum:
    """A := ker( wedge^3 V5 + (v0 ^ W)  ->  W^vee )."""
    R = D.ring
    if not R.two_is_unit():
        raise ValueError("2 must be invertible")
    D.check()
    v0 = _choose_v0(R, D.v5)
    a_rows = _lagrangian_from_v0(D, v0)
    if check_v0_independence:
        cols = [[D.v5[r][c] for r in range(6)] for c in range(5)]
        shift = cols[0]
        v0b = [R.add(x, y) for x, y in zip(v0, shift)]
        alt = _lagrangian_from_v0(D, v0b)
        if _row_span_canonical(R, a_rows) != _row_span_canonical(R, alt):
            raise CompatibilityViolation("A depends on the choice of v0")
    out = LagrangianDatum(R, D.n, D.v5, a_rows, D.epsilon)
    out.check()
    return out


def _lagrangian_from_v0(D: GMDatum, v0: list) -> list:
    R = D.ring
    size = D.n + 5
    w3 = wedge3_v5_rows(R, D.v5)
    base5 = _v5_wedge5(R, D.v5)
    v0w = [wedge_1_with(R, v0, w, 2) for w in D.w_rows]
    qv0 = _q_at_vector(D, v0)
    # map (xi, v0^w) |-> [ w'_j -> eps(xi ^ w'_j) + q(v0)(w . w'_j) ]
    columns = []
    for xi in w3:
        # eps(xi ^ w'_j): xi is a 3-vector in wedge^3 V5
        columns.append(
            [_eps_scalar_vec(R, D.v5, D.epsilon, wedge(R, xi, 3, w, 2), base5) for w in D.w_rows]
        )
    for i in range(size):
        col = [qv0[i][j] for j in range(size)]
        columns.append(col)
    matrix = [[columns[c][r] for c in range(10 + size)] for r in range(size)]
    ker = kernel(R, matrix, unit_pivots_required=not R.is_field)
    if len(ker) != 10:
        raise RankDefect(f"kernel has rank {len(ker)}, expected 10")
    rows = []
    for vec in ker:
        combo = [R.zero] * 20
        for j in range(10):
            if not R.is_zero(vec[j]):
                combo = [R.add(x, R.mul(vec[j], y)) for x, y in zip(combo, w3[j])]
        for j in range(size):
            if not R.is_zero(vec[10 + j]):
                combo = [R.add(x, R.mul(vec[10 + j], y)) for x, y in zip(combo, v0w[j])]
        rows.append(combo)
    reduced, piv = rref(R, rows, unit_pivots_required=not R.is_field)
    if len(piv) != 10:
        raise RankDefect("A is not a rank-10 direct summand")
    return [reduced[i] for i in range(10)]


def _row_span_canonical(ring: Ring, rows: list):
    reduced, piv = rref(ring, rows, unit_pivots_required=not ring.is_field)
    return tuple(tuple(reduced[i]) for i in range(len(piv)))


def _primitive_annihilator(ring: Ring, v5: list) -> list:
    """A primitive covector with kernel V5, first unit coordinate scaled to 1."""
    ker = kernel(ring, transpose(v5), unit_pivots_required=not ring.is_field)
    if len(ker) != 1:
        raise RankDefect("V5 is not a corank-1 summand")
    lam = ker[0]
    piv = next(i for i, v in enumerate(lam) if not ring.is_zero(v))
    inv = ring.inv(lam[piv])
    return [ring.mul(inv, v) for v in lam]


def lagrangian_to_gm(D: LagrangianDatum, check_rescaling: bool = True) -> GMDatum:
    """W := image of A under contraction; q from the explicit formula."""
    R = D.ring
    if not R.two_is_unit():
        raise ValueError("2 must be invertible")
    D.check()
    lam = _primitive_annihilator(R, D.v5)
    W, q = _gm_from_lambda(D, lam)
    if check_rescaling:
        two = R.from_int(2)
        if R.is_unit(two):
            lam2 = [R.mul(two, v) for v in lam]
            W2, q2 = _gm_from_lambda(D, lam2)
            if W != W2 or not _q_equal(R, q, q2):
                raise CompatibilityViolation("the datum depends on the scaling of lambda")
    out = GMDatum(R, D.n, D.v5, W, q, D.epsilon)
    out.check()
    return out


def _q_equal(R, q1, q2) -> bool:
    for m1, m2 in zip(q1, q2):
        for r1, r2 in zip(m1, m2):
            for a, b in zip(r1, r2):
                if not R.eq(a, b):
                    return False
    return True


def _gm_from_lambda(D: LagrangianDatum, lam: list):
    R = D.ring
    contracted = [contract(R, lam, row, 3) for row in D.a_rows]
    reduced, piv = rref(R, contracted, unit_pivots_required=not R.is_field)
    W = [reduced[i] for i in range(len(piv))]
    if len(W) != D.n + 5:
        raise RankDefect(f"W has rank {len(W)}, expected {D.n + 5}")
    # preimages: xi_j in A-span with lam . xi_j = W_j
    pre = []
    for wrow in W:
        sol = solve(
            R,
            [[contracted[j][i] for j in range(10)] for i in range(15)],
            list(wrow),
            unit_pivots_required=not R.is_field,
        )
        if sol is None:
            raise RankDefect("contraction image inconsistent")
        xi = [R.zero] * 20
        for j in range(10):
            if not R.is_zero(sol[j]):
                xi = [R.add(x, R.mul(sol[j], y)) for x, y in zip(xi, D.a_rows[j])]
        pre.append(xi)
    size = D.n + 5
    base5 = _v5_wedge5(R, D.v5)
    qmats = []
    for i in range(6):
        e_i = [R.one if r == i else R.zero for r in range(6)]
        lam_v = lam[i]
        mat = [[R.zero] * size for _ in range(size)]
        for a in range(size):
            # eps( (v ^ (lam.xi_a) - lam(v) * xi_a) ^ (lam.xi_b) )
            x = wedge(R, e_i, 1, W[a], 2)
            if not R.is_zero(lam_v):
                x = [R.sub(u, R.mul(lam_v, y)) for u, y in zip(x, pre[a])]
            for b in range(a, size):
                val = _eps_scalar_vec(R, D.v5, D.epsilon, wedge(R, x, 3, W[b], 2), base5)
                mat[a][b] = val
                mat[b][a] = val
        qmats.append(mat)
    return W, qmats


def canonical_wq(D: GMDatum):
    """(W, q) in the canonical reduced basis of W, for exact comparisons."""
    R = D.ring
    reduced, piv = rref(R, D.w_rows, unit_pivots_required=not R.is_field)
    W = [reduced[i] for i in range(len(piv))]
    # change of basis: W_new = C * W_old
    C = []
    for wrow in W:
        sol = solve(
            R,
            [[D.w_rows[j][i] for j in range(len(D.w_rows))] for i in range(15)],
            list(wrow),
            unit_pivots_required=not R.is_field,
        )
        if sol is None:
            raise RankDefect("reduced basis escapes the span")
        C.append(sol)
    qmats = []
    for i in range(6):
        m = linalg.mat_mul(R, C, linalg.mat_mul(R, D.q[i], transpose(C)))
        qmats.append(tuple(tuple(row) for row in m))
    return tuple(tuple(r) for r in W), tuple(qmats)


# ----------------------------------------------------------------------
# opposite V5 search
# ----------------------------------------------------------------------


def _field_tower(base: Ring, e: int) -> tuple[Ring, callable]:
    """GF(q^e) over GF(q) with the embedding map."""
    if e == 1:
        return base, lambda x: x
    if isinstance(base, PrimeField):
        big = GFExt(base.p, e)
        return big, lambda x: big.from_int(x)
    if isinstance(base, GFExt):
        big = GFExt(base.p, base.m * e)
        # embed by sending the generator to a root of the base modulus
        root = None
        for cand in big.elements():
            acc = big.zero
            for c in reversed(base.modulus):
                acc = big.add(big.mul(acc, cand), big.from_int(c))
            if big.is_zero(acc):
                root = cand
                break
        if root is None:
            raise CompatibilityViolation(f"the modulus of {base!r} has no root in {big!r}")

        def embed(x):
            acc = big.zero
            for c in reversed(x):
                acc = big.add(big.mul(acc, root), big.from_int(c))
            return acc

        return big, embed
    raise TypeError(f"unsupported base field {base!r}")


def _projective_covectors(F: Ring):
    """All of P(V6^vee)(F), first nonzero coordinate normalized to 1,
    in a fixed deterministic order."""
    elements = list(F.elements())
    for lead in range(6):
        free = 6 - lead - 1
        for tail in itertools.product(elements, repeat=free):
            yield [F.zero] * lead + [F.one] + list(tail)


def find_opposite_V5(D: LagrangianDatum, max_degree: int = 3):
    """First u in P(V6^vee)(F_{q^e}), e = 1..max_degree, whose kernel V5'
    satisfies A cap wedge^3 V5' = 0; None if the search is exhausted.
    The covector cutting the datum's own V5 is tested first."""
    base = D.ring
    if not base.is_field:
        raise TypeError("the search runs over a finite field")

    def hits(F, a_rows, u):
        v5 = transpose(kernel(F, [list(u)]))
        return rank(F, a_rows + wedge3_v5_rows(F, v5)) == 20

    own = _primitive_annihilator(base, D.v5)
    if hits(base, D.a_rows, own):
        return {"degree": 1, "u": own, "field": repr(base)}
    for e in range(1, max_degree + 1):
        F, embed = _field_tower(base, e)
        a_rows = [[embed(v) for v in row] for row in D.a_rows]
        for u in _projective_covectors(F):
            if hits(F, a_rows, u):
                return {"degree": e, "u": u, "field": repr(F)}
    return None


# ----------------------------------------------------------------------
# decomposable-vector scan
# ----------------------------------------------------------------------


def scan_decomposables(D: LagrangianDatum, budget: int = 200000, max_degree: int = 2):
    """Scan 3-dimensional subspaces (reduced echelon representatives) of
    F_{q^e}^6, e = 1..max_degree, for one whose wedge lies in A.  Exact
    witness or an explicitly partial 'none found within budget'.  GF(p) and
    GF(p^m) share one batched scan: a value is m int64 coefficient planes,
    minors and residues are polynomial products reduced mod p and the
    modulus, and a field where their bounds (`_plucker_block`, `_scan`) reach
    2^63 is a ValueError.  `tested` is the 1-based enumeration position of
    the witness (summed over the degrees), else the subspaces tested."""
    base = D.ring
    tested = 0
    for e in range(1, max_degree + 1):
        F, embed = _field_tower(base, e)
        a_rows = [[embed(v) for v in row] for row in D.a_rows]
        hit, tested = _scan(F, kernel(F, a_rows), budget, tested)
        if hit is not None:
            return {"witness_rows": hit, "degree": e, "tested": tested}
        if tested >= budget:
            return {"witness_rows": None, "tested": tested, "exhausted": False}
    return {"witness_rows": None, "tested": tested, "exhausted": True}


def _echelon_patterns():
    return list(itertools.combinations(range(6), 3))


def _pattern_matrix(pattern, free_vals, zero, one):
    """The reduced echelon 3x6 matrix with the given pivots and free values."""
    rows = [[zero] * 6 for _ in range(3)]
    it = iter(free_vals)
    for r, pcol in enumerate(pattern):
        rows[r][pcol] = one
        for c in range(pcol + 1, 6):
            if c in pattern:
                continue
            rows[r][c] = next(it)
    return rows


def _free_count(pattern) -> int:
    return sum(1 for r, pcol in enumerate(pattern) for c in range(pcol + 1, 6) if c not in pattern)


def _pmul(x, y):
    """Polynomials: coefficient planes (arrays or ints), x^0 first; None is 0."""
    if x is None or y is None:
        return None
    out = [None] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = a * b if out[i + j] is None else out[i + j] + a * b
    return out


def _psub(x, y):
    # the terms of an echelon minor share their pivot factors: equal lengths
    if x is None or y is None:
        return x if y is None else [-b for b in y]
    return [a - b for a, b in zip(x, y, strict=True)]


def _plucker_block(F: Ring, pattern, digits):
    """The Plücker vectors of a block of echelon matrices over GF(p^m) as
    (20 m, count) int64 coefficient planes, reduced.  Row s m + i of `digits`
    is coefficient i (x^0 first, as `GFExt` stores it) of free slot s; the
    3x3 minors are polynomials in x (Laplace along row 0, the 2x2 minors of
    rows 1, 2 shared, zeros skipped) whose coefficients are at most
    6 m^2 (p-1)^3 in absolute value before reduction mod p and the modulus."""
    import numpy as np

    p, m, count = F.p, getattr(F, "m", 1), digits.shape[1]
    row0, row1, row2 = _pattern_matrix(pattern, digits.reshape(-1, m, count), None, [1])
    minors2 = {
        (c, d): _psub(_pmul(row1[c], row2[d]), _pmul(row1[d], row2[c]))
        for c, d in itertools.combinations(range(6), 2)
    }
    plk = np.zeros((20, 3 * m - 2, count), dtype=np.int64)
    for j, (a, b, c) in enumerate(itertools.combinations(range(6), 3)):
        rest = _psub(_pmul(row0[b], minors2[a, c]), _pmul(row0[c], minors2[a, b]))
        for i, plane in enumerate(_psub(_pmul(row0[a], minors2[b, c]), rest) or ()):
            plk[j, i] = plane
    plk %= p
    for k in range(3 * m - 3, m - 1, -1):  # x^m = -(f_0 + ... + f_{m-1} x^{m-1})
        plk[:, k - m:k] -= np.array(F.modulus[:m], dtype=np.int64)[:, None] * plk[:, k, None]
        plk[:, k - m:k] %= p
    return plk[:, :m].reshape(20 * m, count)


def _scan(F: Ring, ann, budget, tested):
    """First echelon subspace of F^6, F = GF(p^m), with ann . wedge = 0: pivot
    patterns in lex order, then free values base q, first slot most
    significant, a value's code being its index in `F.elements()`.  Residues
    are one product per block; a coefficient is at most 20 m (p-1)^2."""
    import numpy as np

    if not isinstance(F, (PrimeField, GFExt)):
        raise TypeError(f"the scan runs over a finite field, not {F!r}")
    ext = isinstance(F, GFExt)
    p, m = F.p, getattr(F, "m", 1)
    q = p ** m
    if max(6 * m * m * (p - 1) ** 3, 20 * m * (p - 1) ** 2) >= 2 ** 63:
        raise ValueError(f"the scan over {F!r} overflows int64")
    # row (t, i), column (k, l): coefficient l of x^i * ann[k][t]
    xs = [tuple(int(i == j) for j in range(m)) for i in range(m)] if ext else [F.one]
    res_mat = np.array([[F.mul(x, row[t]) for row in ann] for t in range(20) for x in xs], dtype=np.int64)
    res_mat = res_mat.reshape(20 * m, -1).T
    block = 200000 // (3 * m - 2)
    for pattern in _echelon_patterns():
        nfree = _free_count(pattern)
        total = q ** nfree
        start = 0
        while start < total:
            if tested >= budget:
                return None, tested
            count = min(block, total - start, budget - tested)
            rem = np.arange(start, start + count, dtype=np.int64)
            digits = np.empty((nfree * m, count), dtype=np.int64)
            for k in range(nfree * m - 1, -1, -1):
                digits[k] = rem % p
                rem //= p
            good = np.flatnonzero(~((res_mat @ _plucker_block(F, pattern, digits)) % p).any(axis=0))
            if len(good):
                k = int(good[0])
                free = [tuple(d) if ext else d[0] for d in digits[:, k].reshape(nfree, m).tolist()]
                return _pattern_matrix(pattern, free, F.zero, F.one), tested + k + 1
            tested += count
            start += count
    return None, tested


# ----------------------------------------------------------------------
# random data for the property suites
# ----------------------------------------------------------------------


def _standard_v5(ring: Ring) -> list:
    return [[ring.one if r == c else ring.zero for c in range(5)] for r in range(6)]


def _random_element(ring: Ring, rng):
    if isinstance(ring, PrimeField):
        return rng.randrange(ring.p)
    if isinstance(ring, GFExt):
        return tuple(rng.randrange(ring.p) for _ in range(ring.m))
    if isinstance(ring, RationalField):
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    if isinstance(ring, IntegersModPK):
        return rng.randrange(ring.modulus)
    raise TypeError(f"no sampler for {ring!r}")


def is_decomposable(ring: Ring, xi: list) -> bool:
    """Is a nonzero 3-vector of the form u ^ v ^ w?  The contraction map
    V6^vee -> wedge^2 V6 has rank 3 exactly on decomposables."""
    rows = []
    for i in range(6):
        phi = [ring.one if j == i else ring.zero for j in range(6)]
        rows.append(contract(ring, phi, xi, 3))
    return rank(ring, rows) == 3


def _base_sublattice(ring: Ring, v5: list, n: int, decomposable_free: bool) -> list:
    """A (5-n)-row starter inside wedge^3 V5.  The decomposable-free choice
    dualizes a pencil of rank-4 two-forms on V5 (e12+e34 and e23+e45), so no
    member of its span is decomposable; the plain choice takes wedge-triple
    basis vectors (each of them decomposable)."""
    w3 = wedge3_v5_rows(ring, v5)
    if not decomposable_free:
        return [list(w3[i]) for i in range(5 - n)]
    pos = {t: i for i, t in enumerate(itertools.combinations(range(5), 3))}

    def triple_combo(terms):
        out = [ring.zero] * 20
        for (a, b, c), coeff in terms:
            row = w3[pos[(a, b, c)]]
            s = ring.from_int(coeff)
            out = [ring.add(x, ring.mul(s, y)) for x, y in zip(out, row)]
        return out

    # duals (within V5) of e12+e34 and e23+e45
    candidates = [
        triple_combo([((2, 3, 4), 1), ((0, 1, 4), 1)]),
        triple_combo([((0, 3, 4), 1), ((0, 1, 2), 1)]),
    ]
    chosen = candidates[: 5 - n]
    if 0 < len(chosen):
        for coeffs in itertools.product(range(2) if len(chosen) == 1 else range(3), repeat=len(chosen)):
            if not any(coeffs):
                continue
            combo = [ring.zero] * 20
            for c, row in zip(coeffs, chosen):
                s = ring.from_int(c)
                combo = [ring.add(x, ring.mul(s, y)) for x, y in zip(combo, row)]
            if is_decomposable(ring, combo):
                raise CompatibilityViolation("starter sublattice has a decomposable")
    return chosen


def random_lagrangian(
    ring: Ring,
    n: int,
    rng,
    max_tries: int = 200,
    decomposable_free: bool = True,
    scan_budget: int = 0,
) -> LagrangianDatum:
    """A random Lagrangian datum: symplectic transvections fixing a chosen
    (5-n)-dimensional L0 inside wedge^3 V5, applied to the standard Lagrangian
    wedge^3 V5, rejected until the intersection is exactly L0's rank; with
    `scan_budget` > 0, also rejected while a small decomposable scan finds a
    witness.  This is sampling, not a smoothness guarantee."""
    R = ring
    v5 = _standard_v5(R)
    w3 = wedge3_v5_rows(R, v5)
    L0 = _base_sublattice(R, v5, n, decomposable_free)
    om = omega_over(R)
    for _ in range(max_tries):
        rows = [list(r) for r in w3]
        # transvection directions must pair trivially with L0
        if L0:
            pairing_rows = linalg.mat_mul(R, L0, om)
            perp = kernel(R, pairing_rows)
        else:
            perp = [
                [R.one if i == j else R.zero for j in range(20)] for i in range(20)
            ]
        for _ in range(30):
            v = [R.zero] * 20
            for _ in range(3):
                coeff = _random_element(R, rng)
                pick = perp[rng.randrange(len(perp))]
                v = [R.add(x, R.mul(coeff, y)) for x, y in zip(v, pick)]
            c = _random_element(R, rng)
            omv = mat_vec(R, om, v)
            for i in range(10):
                factor = R.mul(
                    c, sum_dot(R, rows[i], omv)
                )
                if not R.is_zero(factor):
                    rows[i] = [R.add(x, R.mul(factor, y)) for x, y in zip(rows[i], v)]
        try:
            cand = LagrangianDatum(R, n, v5, _normalize_rows(R, rows), R.one)
            cand.check()
        except (RankDefect, CompatibilityViolation, ValueError):
            continue
        if scan_budget and R.is_field and not isinstance(R, RationalField):
            hit = scan_decomposables(cand, budget=scan_budget, max_degree=1)
            if hit["witness_rows"] is not None:
                continue
        return cand
    raise RuntimeError("could not sample a Lagrangian datum")


def sum_dot(R: Ring, a, b):
    acc = R.zero
    for x, y in zip(a, b):
        if not R.is_zero(x) and not R.is_zero(y):
            acc = R.add(acc, R.mul(x, y))
    return acc


def _normalize_rows(R: Ring, rows):
    reduced, piv = rref(R, rows, unit_pivots_required=not R.is_field)
    return [reduced[i] for i in range(len(piv))]


# ----------------------------------------------------------------------
# lifting over Z/p^k
# ----------------------------------------------------------------------


def lift_lagrangian(D: LagrangianDatum, k: int, instrument: list | None = None) -> LagrangianDatum:
    """Hensel-lift a Lagrangian datum over GF(p) to Z/p^k, following the
    smoothness of the Lagrangian Grassmannian: lift L = A cap wedge^3 V5
    inside wedge^3 of the lifted V5, pass to L-perp / L, correct the isotropy
    defect with precision doubling, and pull back."""
    Fp = D.ring
    if not isinstance(Fp, PrimeField) or Fp.p == 2:
        raise TypeError("lifting starts from a datum over GF(p), p odd")
    p = Fp.p
    D.check()
    if k == 1:
        return D
    Rk = IntegersModPK(p, k)
    v5_lift = [[int(v) % Rk.modulus for v in row] for row in D.v5]
    w3_p = wedge3_v5_rows(Fp, D.v5)
    w3_k = wedge3_v5_rows(Rk, v5_lift)
    om_k = omega_over(Rk)

    # L in wedge^3 V5 coordinates, lifted inside wedge^3 of the lift
    L_rows_p = intersection_with_wedge3_v5(D)
    L_coords = []
    for row in L_rows_p:
        sol = solve(Fp, [[w3_p[j][i] for j in range(10)] for i in range(20)], list(row))
        if sol is None:
            raise RankDefect("A cap wedge^3 V5 does not lie in wedge^3 V5")
        L_coords.append([int(v) % Rk.modulus for v in sol])
    L_rows = [
        _combo(Rk, coords, w3_k) for coords in L_coords
    ]
    r = len(L_rows)
    if r != 5 - D.n:
        raise RankDefect(f"A cap wedge^3 V5 has rank {r}, not 5 - n = {5 - D.n}")

    # L-perp over Z/p^k and a complement C of L inside it
    if r:
        B = linalg.mat_mul(Rk, L_rows, om_k)
        perp = kernel(Rk, B, unit_pivots_required=True)
    else:
        perp = [[Rk.one if i == j else Rk.zero for j in range(20)] for i in range(20)]
    reduced_L, pivL = rref(Rk, L_rows, unit_pivots_required=True) if r else ([], [])
    C_rows = []
    work = [list(x) for x in reduced_L[:r]]
    pivots = list(pivL)
    for cand in perp:
        vec = list(cand)
        for wrow, pc in zip(work, pivots):
            c = vec[pc]
            if not Rk.is_zero(c):
                vec = [Rk.sub(x, Rk.mul(c, y)) for x, y in zip(vec, wrow)]
        lead = next((i for i, v in enumerate(vec) if Rk.is_unit(v)), None)
        if lead is None:
            continue
        inv = Rk.inv(vec[lead])
        vec = [Rk.mul(inv, v) for v in vec]
        work.append(vec)
        pivots.append(lead)
        C_rows.append(vec)
    t_dim = 10 + 2 * D.n
    if len(C_rows) != t_dim:
        raise RankDefect("complement of L inside L-perp has the wrong rank")
    psi = linalg.mat_mul(
        Rk, linalg.mat_mul(Rk, C_rows, om_k), transpose(C_rows)
    )

    # the reduction of A in quotient coordinates
    abar_p = []
    basis_p = [[v % p for v in row] for row in (L_rows + C_rows)]
    for row in D.a_rows:
        sol = solve(
            Fp,
            [[basis_p[j][i] for j in range(len(basis_p))] for i in range(20)],
            list(row),
        )
        if sol is None:
            raise RankDefect("A does not lie in L-perp modulo p")
        abar_p.append(sol[r:])
    red, pivA = rref(Fp, abar_p)
    abar = [red[i] for i in range(len(pivA))]
    if len(abar) != 5 + D.n:
        raise RankDefect("A/L has the wrong rank")

    # Hensel iteration on the (10+2n) x (5+n) column matrix M
    M = [[int(abar[j][i]) % Rk.modulus for j in range(5 + D.n)] for i in range(t_dim)]
    s = 1
    two_inv = Rk.inv(Rk.from_int(2))
    while s < k:
        Mt_psi = linalg.mat_mul(Rk, transpose(M), psi)
        defect = linalg.mat_mul(Rk, Mt_psi, M)
        if instrument is not None:
            val = min(
                (Rk.valuation(v) for row in defect for v in row), default=k
            )
            instrument.append(val)
        if all(Rk.is_zero(v) for row in defect for v in row):
            break
        # solve (M^t psi) P = I
        size = 5 + D.n
        P_cols = []
        ident = [[Rk.one if i == j else Rk.zero for j in range(size)] for i in range(size)]
        for j in range(size):
            col = solve(Rk, Mt_psi, [ident[i][j] for i in range(size)], unit_pivots_required=True)
            if col is None:
                raise RankDefect("pairing against the Lagrangian is degenerate")
            P_cols.append(col)
        P = [[P_cols[j][i] for j in range(size)] for i in range(t_dim)]
        # N = P * (-defect / 2); the defect is already divisible by p^s
        corr = [[Rk.mul(two_inv, Rk.neg(v)) for v in row] for row in defect]
        N = linalg.mat_mul(Rk, P, corr)
        M = [
            [Rk.add(M[i][j], N[i][j]) for j in range(size)]
            for i in range(t_dim)
        ]
        s *= 2
    Mt_psi = linalg.mat_mul(Rk, transpose(M), psi)
    defect = linalg.mat_mul(Rk, Mt_psi, M)
    if not all(Rk.is_zero(v) for row in defect for v in row):
        raise CompatibilityViolation("isotropy not exact after the Hensel steps")

    a_rows = [list(row) for row in L_rows]
    for j in range(5 + D.n):
        vec = [Rk.zero] * 20
        for i in range(t_dim):
            if not Rk.is_zero(M[i][j]):
                vec = [Rk.add(x, Rk.mul(M[i][j], y)) for x, y in zip(vec, C_rows[i])]
        a_rows.append(vec)
    out = LagrangianDatum(Rk, D.n, v5_lift, _normalize_rows(Rk, a_rows), Rk.from_int(int(D.epsilon)))
    out.check()
    # the reduction modulo p must equal the input
    red_rows = [[int(v) % p for v in row] for row in out.a_rows]
    if _row_span_canonical(Fp, red_rows) != _row_span_canonical(Fp, D.a_rows):
        raise RankDefect("reduction modulo p does not recover the input")
    return out


def _combo(R: Ring, coords, rows):
    out = [R.zero] * len(rows[0])
    for c, row in zip(coords, rows):
        if not R.is_zero(c):
            out = [R.add(x, R.mul(c, y)) for x, y in zip(out, row)]
    return out


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------


def ring_to_json(ring: Ring) -> dict:
    if isinstance(ring, RationalField):
        return {"kind": "rational"}
    if isinstance(ring, PrimeField):
        return {"kind": "prime-field", "p": ring.p}
    if isinstance(ring, GFExt):
        return {"kind": "field-extension", "p": ring.p, "m": ring.m}
    if isinstance(ring, IntegersModPK):
        return {"kind": "mod-prime-power", "p": ring.p, "k": ring.k}
    raise TypeError(f"unsupported ring {ring!r}")


def ring_from_json(data: dict) -> Ring:
    kind = data["kind"]
    if kind == "rational":
        return QQ
    if kind == "prime-field":
        return PrimeField(data["p"])
    if kind == "field-extension":
        return GFExt(data["p"], data["m"])
    if kind == "mod-prime-power":
        return IntegersModPK(data["p"], data["k"])
    raise ValueError(f"unknown ring kind {kind!r}")


def _elem_to_str(ring: Ring, x) -> str:
    if isinstance(ring, GFExt):
        return ",".join(str(v) for v in x)
    return str(x)


def _elem_from_str(ring: Ring, s: str):
    if isinstance(ring, GFExt):
        return tuple(int(v) for v in s.split(","))
    if isinstance(ring, RationalField):
        return Fraction(s)
    return int(s)


def lagrangian_to_json(D: LagrangianDatum) -> dict:
    return {
        "schema": "gmlab/1",
        "ring": ring_to_json(D.ring),
        "n": D.n,
        "V5": [[_elem_to_str(D.ring, v) for v in row] for row in D.v5],
        "A": [[_elem_to_str(D.ring, v) for v in row] for row in D.a_rows],
        "epsilon": _elem_to_str(D.ring, D.epsilon),
    }


def lagrangian_from_json(data: dict) -> LagrangianDatum:
    ring = ring_from_json(data["ring"])
    D = LagrangianDatum(
        ring,
        data["n"],
        [[_elem_from_str(ring, v) for v in row] for row in data["V5"]],
        [[_elem_from_str(ring, v) for v in row] for row in data["A"]],
        _elem_from_str(ring, data["epsilon"]),
    )
    D.check()
    return D


def load_lagrangian(path: str) -> LagrangianDatum:
    with open(path) as fh:
        return lagrangian_from_json(json.load(fh))

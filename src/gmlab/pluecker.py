"""Multilinear algebra on Sym^2(wedge^2 V5*): the 55 monomials, the five
Plücker quadrics, the gl5 derivation action A o Q, the mu-splitting into
the Plücker ideal and its complement, and Jacobian rows at a point.

Index conventions: Plücker coordinates x_ij, 1 <= i < j <= 5, in lex order
x12, x13, x14, x15, x23, x24, x25, x34, x35, x45.  A degree-two monomial is
an unordered pair of index pairs, stored with the lex-smaller pair first.
The sign convention for the induced action on the dual (phi -> -phi o A) is
pinned by the diagonal formula: diag(-a1..-a5) acts on x_ij x_lm by
(a_i + a_j + a_l + a_m), and the identity acts by -4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .exact import Ring

PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(1, 6) for j in range(i + 1, 6)
)
PAIR_POS = {pair: k for k, pair in enumerate(PAIRS)}

MONOMIALS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    (PAIRS[a], PAIRS[b]) for a in range(10) for b in range(a, 10)
)
MONO_POS = {m: k for k, m in enumerate(MONOMIALS)}

Monomial = tuple  # ((i,j),(l,m)) with (i,j) <=lex (l,m)


def mono(p1: tuple[int, int], p2: tuple[int, int]) -> Monomial:
    return (p1, p2) if p1 <= p2 else (p2, p1)


def mono_weight(m: Monomial) -> tuple[int, ...]:
    """Exponent-sum weight in Z^5; a square x_ij^2 contributes 2 at i and j
    (stored unscaled; the halving happens in the search where p > 2)."""
    w = [0] * 5
    for i, j in m:
        w[i - 1] += 1
        w[j - 1] += 1
    return tuple(w)


def is_square(m: Monomial) -> bool:
    return m[0] == m[1]


class ZeroPoint(Exception):
    pass


class NonInvertibleScalar(Exception):
    pass


@dataclass
class QuadricForm:
    """Sparse element of Sym^2(wedge^2 V5*) over a ring."""

    ring: Ring
    coeffs: dict

    @staticmethod
    def zero(ring: Ring) -> "QuadricForm":
        return QuadricForm(ring, {})

    @staticmethod
    def from_terms(ring: Ring, terms) -> "QuadricForm":
        q = QuadricForm(ring, {})
        for m, c in terms:
            q.add_term(m, c)
        return q

    def add_term(self, m: Monomial, c):
        if self.ring.is_zero(c):
            return
        cur = self.coeffs.get(m)
        s = self.ring.add(cur, c) if cur is not None else c
        if self.ring.is_zero(s):
            self.coeffs.pop(m, None)
        else:
            self.coeffs[m] = s

    def add(self, other: "QuadricForm") -> "QuadricForm":
        out = QuadricForm(self.ring, dict(self.coeffs))
        for m, c in other.coeffs.items():
            out.add_term(m, c)
        return out

    def scaled(self, c) -> "QuadricForm":
        out = QuadricForm(self.ring, {})
        for m, v in self.coeffs.items():
            out.add_term(m, self.ring.mul(c, v))
        return out

    def neg(self) -> "QuadricForm":
        return QuadricForm(self.ring, {m: self.ring.neg(c) for m, c in self.coeffs.items()})

    def sub(self, other: "QuadricForm") -> "QuadricForm":
        return self.add(other.neg())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, QuadricForm) and self.sub(other).is_zero()

    def evaluate(self, point: Sequence):
        """Value at a 10-vector of Plücker coordinates (ring elements)."""
        R = self.ring
        acc = R.zero
        for (p1, p2), c in self.coeffs.items():
            acc = R.add(acc, R.mul(c, R.mul(point[PAIR_POS[p1]], point[PAIR_POS[p2]])))
        return acc

    def gradient(self, point: Sequence) -> list:
        """The 10 partial derivatives at the point."""
        R = self.ring
        grad = [R.zero] * 10
        for (p1, p2), c in self.coeffs.items():
            a, b = PAIR_POS[p1], PAIR_POS[p2]
            if a == b:
                term = R.mul(c, R.add(point[a], point[a]))
                grad[a] = R.add(grad[a], term)
            else:
                grad[a] = R.add(grad[a], R.mul(c, point[b]))
                grad[b] = R.add(grad[b], R.mul(c, point[a]))
        return grad

    def as_json(self) -> dict:
        out = {}
        for (p1, p2), c in sorted(self.coeffs.items()):
            key = f"{p1[0]}{p1[1]}.{p2[0]}{p2[1]}"
            out[key] = str(c)
        return out

    def render(self) -> str:
        return json.dumps(self.as_json(), sort_keys=True)


def pluecker_quadrics(ring: Ring) -> list[QuadricForm]:
    """q_1..q_5; q_k is the Laplace-type relation omitting index k, signs as
    in q5 = x12 x34 - x13 x24 + x14 x23."""
    out = []
    one = ring.one
    for k in range(1, 6):
        i1, i2, i3, i4 = [t for t in range(1, 6) if t != k]
        q = QuadricForm(ring, {})
        q.add_term(mono((i1, i2), (i3, i4)), one)
        q.add_term(mono((i1, i3), (i2, i4)), ring.neg(one))
        q.add_term(mono((i1, i4), (i2, i3)), one)
        out.append(q)
    return out


# ----------------------------------------------------------------------
# the gl5 action
# ----------------------------------------------------------------------


def _dual_action_on_pair(ring: Ring, A, pair: tuple[int, int]) -> dict:
    """A acting on x_ij = e_i* ^ e_j* through phi -> -phi o A, as a
    combination of basis 2-forms: returns {pair: coeff}."""
    i, j = pair
    out: dict = {}

    def add2(a: int, b: int, c):
        if a == b or ring.is_zero(c):
            return
        key, sign = ((a, b), 1) if a < b else ((b, a), -1)
        val = c if sign == 1 else ring.neg(c)
        cur = out.get(key)
        s = ring.add(cur, val) if cur is not None else val
        if ring.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s

    for t in range(1, 6):
        add2(t, j, ring.neg(A[i - 1][t - 1]))  # (-A^t e_i*) ^ e_j*
        add2(i, t, ring.neg(A[j - 1][t - 1]))  # e_i* ^ (-A^t e_j*)
    return out


def act(A, Q: QuadricForm) -> QuadricForm:
    """Derivation action of gl5 on Sym^2(wedge^2 V5*)."""
    R = Q.ring
    out = QuadricForm(R, {})
    cache: dict = {}
    for (p1, p2), c in Q.coeffs.items():
        for fixed, moved in ((p2, p1), (p1, p2)):
            if moved not in cache:
                cache[moved] = _dual_action_on_pair(R, A, moved)
            for pair, coeff in cache[moved].items():
                out.add_term(mono(pair, fixed), R.mul(c, coeff))
    return out


def diag_gl5(ring: Ring, diag_entries: Sequence):
    """The matrix diag(d1..d5) over the ring."""
    return [
        [diag_entries[i] if i == j else ring.zero for j in range(5)]
        for i in range(5)
    ]


def action_matrix(ring: Ring, A) -> list[list]:
    """The 55x55 matrix of Q -> A o Q in the monomial basis (columns indexed
    by source monomials in lex order)."""
    cols = []
    for m in MONOMIALS:
        q = QuadricForm(ring, {m: ring.one})
        img = act(A, q)
        col = [ring.zero] * 55
        for mm, c in img.coeffs.items():
            col[MONO_POS[mm]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(55)] for i in range(55)]


# ----------------------------------------------------------------------
# the mu-splitting
# ----------------------------------------------------------------------


def _wedge4(m: Monomial) -> tuple[int, int]:
    """mu on a monomial: the wedge of its two 2-forms, as (missing index,
    sign), or (0, 0) when the indices overlap."""
    (i, j), (l, mm) = m
    idx = (i, j, l, mm)
    if len(set(idx)) < 4:
        return (0, 0)
    missing = next(t for t in range(1, 6) if t not in idx)
    # sign of the permutation sorting (i, j, l, mm)
    perm = list(idx)
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return (missing, sign)


def mu(Q: QuadricForm) -> list:
    """mu(Q) in the basis e1*^..^ek-hat^..^e5* of wedge^4 V5*."""
    R = Q.ring
    out = [R.zero] * 5
    for m, c in Q.coeffs.items():
        k, sign = _wedge4(m)
        if k:
            v = c if sign == 1 else R.neg(c)
            out[k - 1] = R.add(out[k - 1], v)
    return out


def mu_split(Q: QuadricForm) -> tuple[QuadricForm, QuadricForm]:
    """Unique decomposition Q = Q_I + Q_perp with Q_I in span(q1..q5) and
    mu(Q_perp) = 0.  Needs 6 invertible (mu(q_k) = 3 * basis vector)."""
    R = Q.ring
    if not R.is_unit(R.from_int(6)):
        raise NonInvertibleScalar("mu-splitting needs 6 invertible")
    third = R.inv(R.from_int(3))
    image = mu(Q)
    quadrics = pluecker_quadrics(R)
    q_part = QuadricForm(R, {})
    for k in range(5):
        coeff = R.mul(third, image[k])
        if not R.is_zero(coeff):
            q_part = q_part.add(quadrics[k].scaled(coeff))
    perp = Q.sub(q_part)
    return q_part, perp


# ----------------------------------------------------------------------
# points on the Grassmannian
# ----------------------------------------------------------------------


def gr_membership(ring: Ring, point: Sequence) -> bool:
    """Is the 10-vector of Plücker coordinates on Gr(2,5)?"""
    if all(ring.is_zero(x) for x in point):
        raise ZeroPoint("the zero vector is not a projective point")
    return all(ring.is_zero(q.evaluate(point)) for q in pluecker_quadrics(ring))


def jacobian_rows(quadrics: Sequence[QuadricForm], point: Sequence) -> list[list]:
    """Row k = gradient of quadrics[k] at the point (10 entries each)."""
    return [q.gradient(point) for q in quadrics]

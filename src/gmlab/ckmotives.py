"""The tautological correspondence algebra for GM four- and sixfolds: exact
intersection numbers of the hyperplane class H and the rank-2-bundle class
e2, the explicit Chow-Kunneth projectors, composition of product
correspondences, and the idempotence / orthogonality / completeness checks.

Tautological classes are Q-linear combinations of monomials H^a e2^b (b = 0
on the fourfold), stored as {(a, b): Fraction}.  A correspondence is a formal
sum of products alpha x beta of complementary codimension plus a rational
multiple of the diagonal; the diagonal is never expanded, which is enough
because every printed identity reduces to degree pairings of tautological
classes.  Composition follows first-apply-f-then-g:
(a x b) o (c x d) = deg(d . a) * (c x b), pinned by act(pi^0, 1) = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


class WrongCodimension(Exception):
    pass


class IdentityViolation(Exception):
    pass


DIMENSION = {"GM4": 4, "GM6": 6}

# degrees of the top-codimension monomials
DEGREES = {
    "GM4": {(4, 0): Fraction(10)},
    "GM6": {
        (6, 0): Fraction(10),
        (4, 1): Fraction(4),
        (2, 2): Fraction(2),
        (0, 3): Fraction(2),
    },
}


def _codim(mono: tuple[int, int]) -> int:
    a, b = mono
    return a + 2 * b


@dataclass(frozen=True)
class TautClass:
    variety: str
    terms: tuple  # sorted ((a, b), Fraction) pairs

    @staticmethod
    def make(variety: str, coeffs: dict) -> "TautClass":
        dim = DIMENSION[variety]
        clean = {}
        for mono, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            a, b = mono
            if variety == "GM4" and b:
                raise ValueError("e2 lives only on the sixfold")
            if _codim(mono) > dim:
                continue  # codimension beyond the dimension vanishes
            clean[mono] = clean.get(mono, Fraction(0)) + c
        return TautClass(variety, tuple(sorted((m, c) for m, c in clean.items() if c)))

    @staticmethod
    def monomial(variety: str, a: int, b: int = 0, coeff=1) -> "TautClass":
        return TautClass.make(variety, {(a, b): Fraction(coeff)})

    @staticmethod
    def one(variety: str) -> "TautClass":
        return TautClass.monomial(variety, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "TautClass") -> "TautClass":
        assert other.variety == self.variety
        out = dict(self.terms)
        for m, c in other.terms:
            out[m] = out.get(m, Fraction(0)) + c
        return TautClass.make(self.variety, out)

    def scaled(self, c) -> "TautClass":
        return TautClass.make(self.variety, {m: Fraction(c) * v for m, v in self.terms})

    def mul(self, other: "TautClass") -> "TautClass":
        assert other.variety == self.variety
        out: dict = {}
        for (m1, c1), (m2, c2) in itertools.product(self.terms, other.terms):
            m = (m1[0] + m2[0], m1[1] + m2[1])
            out[m] = out.get(m, Fraction(0)) + c1 * c2
        return TautClass.make(self.variety, out)

    def pure_codim(self):
        cods = {_codim(m) for m, _ in self.terms}
        if len(cods) > 1:
            return None
        return cods.pop() if cods else None

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in self.terms:
            mono = "*".join(
                [f"H^{a}" if a > 1 else "H"] * (a > 0)
                + [f"e2^{b}" if b > 1 else "e2"] * (b > 0)
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


def taut_degree(x: TautClass, degree_table: dict | None = None) -> Fraction:
    """Integral of a top-codimension tautological class."""
    dim = DIMENSION[x.variety]
    table = degree_table if degree_table is not None else DEGREES[x.variety]
    total = Fraction(0)
    for m, c in x.terms:
        if _codim(m) != dim:
            raise WrongCodimension(f"monomial {m} is not of top codimension")
        total += c * table[m]
    return total


def _pairing_degree(variety: str, m1, m2, table) -> Fraction:
    """deg of the product of two monomials; zero off the top codimension."""
    m = (m1[0] + m2[0], m1[1] + m2[1])
    if _codim(m) != DIMENSION[variety]:
        return Fraction(0)
    tab = table if table is not None else DEGREES[variety]
    return tab[m]


# ----------------------------------------------------------------------
# correspondences
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Correspondence:
    variety: str
    products: tuple  # sorted ((m_left, m_right), Fraction)
    delta: Fraction = Fraction(0)

    @staticmethod
    def make(variety: str, products: dict, delta=0) -> "Correspondence":
        dim = DIMENSION[variety]
        clean = {}
        for (ml, mr), c in products.items():
            c = Fraction(c)
            if c == 0:
                continue
            if _codim(ml) + _codim(mr) != dim:
                raise WrongCodimension(
                    f"product {ml} x {mr} is not of middle codimension"
                )
            clean[(ml, mr)] = clean.get((ml, mr), Fraction(0)) + c
        return Correspondence(
            variety,
            tuple(sorted((k, v) for k, v in clean.items() if v)),
            Fraction(delta),
        )

    @staticmethod
    def of_classes(a: TautClass, b: TautClass) -> "Correspondence":
        assert a.variety == b.variety
        products: dict = {}
        for (ma, ca), (mb, cb) in itertools.product(a.terms, b.terms):
            key = (ma, mb)
            products[key] = products.get(key, Fraction(0)) + ca * cb
        return Correspondence.make(a.variety, products)

    @staticmethod
    def diagonal(variety: str) -> "Correspondence":
        return Correspondence.make(variety, {}, 1)

    def add(self, other: "Correspondence") -> "Correspondence":
        assert other.variety == self.variety
        products = dict(self.products)
        for k, v in other.products:
            products[k] = products.get(k, Fraction(0)) + v
        return Correspondence.make(self.variety, products, self.delta + other.delta)

    def scaled(self, c) -> "Correspondence":
        c = Fraction(c)
        return Correspondence.make(
            self.variety,
            {k: c * v for k, v in self.products},
            c * self.delta,
        )

    def sub(self, other: "Correspondence") -> "Correspondence":
        return self.add(other.scaled(-1))

    def is_zero(self) -> bool:
        return not self.products and self.delta == 0

    def transpose(self) -> "Correspondence":
        return Correspondence.make(
            self.variety,
            {(mr, ml): c for (ml, mr), c in self.products},
            self.delta,
        )

    def render(self) -> str:
        parts = []
        if self.delta:
            parts.append(f"{self.delta}*Delta")
        for (ml, mr), c in self.products:
            parts.append(f"{c}*({ml} x {mr})")
        return " + ".join(parts) if parts else "0"


def compose(g: Correspondence, f: Correspondence, degree_table=None) -> Correspondence:
    """g o f: first apply f, then g."""
    assert g.variety == f.variety
    v = g.variety
    out = Correspondence.make(v, {}, g.delta * f.delta)
    if f.delta:
        out = out.add(
            Correspondence.make(v, {k: f.delta * c for k, c in g.products})
        )
    if g.delta:
        out = out.add(
            Correspondence.make(v, {k: g.delta * c for k, c in f.products})
        )
    products: dict = {}
    for (mc, md), cf in f.products:  # f = c x d
        for (ma, mb), cg in g.products:  # g = a x b
            w = _pairing_degree(v, md, ma, degree_table)
            if w:
                key = (mc, mb)
                products[key] = products.get(key, Fraction(0)) + cf * cg * w
    return out.add(Correspondence.make(v, products))


def act_on(c: Correspondence, x: TautClass, degree_table=None) -> TautClass:
    """The action on tautological classes: Delta acts as the identity, and
    a x b sends x to deg(x . a) * b."""
    assert c.variety == x.variety
    out = x.scaled(c.delta) if c.delta else TautClass.make(x.variety, {})
    for (ma, mb), coeff in c.products:
        acc = Fraction(0)
        for mx, cx in x.terms:
            acc += cx * _pairing_degree(x.variety, mx, ma, degree_table)
        if acc:
            out = out.add(TautClass.make(x.variety, {mb: coeff * acc}))
    return out


# ----------------------------------------------------------------------
# the printed projectors
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# the honest tautological ring: Schubert calculus on Gr(2,5)
# ----------------------------------------------------------------------


def _pieri_sigma1(part: tuple[int, int]) -> list[tuple[int, int]]:
    a, b = part
    out = []
    if a + 1 <= 3:
        out.append((a + 1, b))
    if b + 1 <= a:
        out.append((a, b + 1))
    return out


def _pieri_sigma11(part: tuple[int, int]) -> list[tuple[int, int]]:
    a, b = part
    return [(a + 1, b + 1)] if a + 1 <= 3 else []


def schubert_expand(a: int, b: int) -> dict:
    """sigma_1^a * sigma_11^b in the Schubert basis of Gr(2,5)."""
    vec = {(0, 0): Fraction(1)}
    for _ in range(a):
        nxt: dict = {}
        for part, c in vec.items():
            for q in _pieri_sigma1(part):
                nxt[q] = nxt.get(q, Fraction(0)) + c
        vec = nxt
    for _ in range(b):
        nxt = {}
        for part, c in vec.items():
            for q in _pieri_sigma11(part):
                nxt[q] = nxt.get(q, Fraction(0)) + c
        vec = nxt
    return vec


def schubert_normal_form(x: TautClass) -> tuple:
    """The class in the Schubert basis of the tautological ring.  On the
    sixfold H = gamma^* sigma_1 and e2 = gamma^* sigma_11, and gamma^* is
    injective with rational coefficients; on the fourfold only powers of H
    occur and the monomials are already a basis."""
    if x.variety == "GM4":
        return x.terms
    acc: dict = {}
    for (a, b), c in x.terms:
        for part, w in schubert_expand(a, b).items():
            acc[part] = acc.get(part, Fraction(0)) + c * w
    return tuple(sorted((k, v) for k, v in acc.items() if v))


def taut_equal(x: TautClass, y: TautClass) -> bool:
    """Equality in the actual tautological ring, not just formally."""
    return schubert_normal_form(x) == schubert_normal_form(y)


def schubert_degree(a: int, b: int) -> Fraction:
    """Degree of H^a e2^b on the sixfold from the Schubert oracle: twice the
    sigma_33 coefficient (the covering map onto the Grassmannian has degree 2)."""
    if a + 2 * b != 6:
        raise WrongCodimension("not a top-codimension monomial")
    return 2 * schubert_expand(a, b).get((3, 3), Fraction(0))


def projectors(variety: str) -> dict[int, Correspondence]:
    """The even Chow-Kunneth projectors, exactly as printed; the odd ones
    vanish.  The middle projector carries the diagonal."""
    tenth = Fraction(1, 10)
    if variety == "GM4":
        H = lambda k: (k, 0)
        pi = {
            0: Correspondence.make("GM4", {(H(4), H(0)): tenth}),
            2: Correspondence.make("GM4", {(H(3), H(1)): tenth}),
            6: Correspondence.make("GM4", {(H(1), H(3)): tenth}),
            8: Correspondence.make("GM4", {(H(0), H(4)): tenth}),
        }
        rest = pi[0].add(pi[2]).add(pi[6]).add(pi[8])
        pi[4] = Correspondence.diagonal("GM4").sub(rest)
        return dict(sorted(pi.items()))
    if variety == "GM6":
        e1 = (2, 0)
        e2 = (0, 1)
        f1 = {(4, 0): Fraction(1, 2), (2, 1): Fraction(-1)}
        f2 = {(4, 0): Fraction(-1), (2, 1): Fraction(5, 2)}
        f1c = TautClass.make("GM6", f1)
        f2c = TautClass.make("GM6", f2)
        e1c = TautClass.monomial("GM6", 2, 0)
        e2c = TautClass.monomial("GM6", 0, 1)
        pi = {
            0: Correspondence.make("GM6", {((6, 0), (0, 0)): tenth}),
            2: Correspondence.make("GM6", {((5, 0), (1, 0)): tenth}),
            4: Correspondence.of_classes(f1c, e1c).add(
                Correspondence.of_classes(f2c, e2c)
            ),
            8: Correspondence.of_classes(e1c, f1c).add(
                Correspondence.of_classes(e2c, f2c)
            ),
            10: Correspondence.make("GM6", {((1, 0), (5, 0)): tenth}),
            12: Correspondence.make("GM6", {((0, 0), (6, 0)): tenth}),
        }
        rest = pi[0]
        for k in (2, 4, 8, 10, 12):
            rest = rest.add(pi[k])
        pi[6] = Correspondence.diagonal("GM6").sub(rest)
        return dict(sorted(pi.items()))
    raise ValueError(f"unknown variety {variety!r}")


def taut_monomials(variety: str) -> list[TautClass]:
    dim = DIMENSION[variety]
    out = []
    max_b = 3 if variety == "GM6" else 0
    for b in range(max_b + 1):
        for a in range(dim - 2 * b + 1):
            out.append(TautClass.monomial(variety, a, b))
    return out


def verify_chow_kunneth(variety: str, degree_table=None) -> dict:
    """Idempotence, mutual orthogonality, completeness, and the
    degree-selection action on all tautological monomials; exact arithmetic
    throughout.  Raises IdentityViolation on the first failure."""
    pi = projectors(variety)
    report = {"variety": variety, "projectors": sorted(pi)}
    for i, p in pi.items():
        if not compose(p, p, degree_table).sub(p).is_zero():
            raise IdentityViolation(f"pi^{i} o pi^{i} != pi^{i}")
    for i, j in itertools.permutations(sorted(pi), 2):
        if not compose(pi[i], pi[j], degree_table).is_zero():
            raise IdentityViolation(f"pi^{i} o pi^{j} != 0")
    total = None
    for p in pi.values():
        total = p if total is None else total.add(p)
    if not total.sub(Correspondence.diagonal(variety)).is_zero():
        raise IdentityViolation("the projectors do not sum to the diagonal")
    for x in taut_monomials(variety):
        cod = x.pure_codim()
        for i, p in pi.items():
            image = act_on(p, x, degree_table)
            expect = x if i == 2 * cod else TautClass.make(variety, {})
            # equality is taken in the actual tautological ring: formal
            # monomials of equal codimension can name proportional classes
            if schubert_normal_form(image) != schubert_normal_form(expect):
                raise IdentityViolation(
                    f"pi^{i} acts incorrectly on {x.render()}"
                )
    for i in pi:
        n2 = 2 * DIMENSION[variety]
        if not pi[i].transpose().sub(pi[n2 - i]).is_zero():
            raise IdentityViolation(f"transpose of pi^{i} is not pi^{n2 - i}")
    report["idempotent"] = True
    report["orthogonal"] = True
    report["complete"] = True
    report["degree_selection"] = True
    report["transpose_symmetry"] = True
    return report


def perturbed_degree_table(variety: str, mono: tuple[int, int], value) -> dict:
    """A degree table with one intersection number altered (negative control)."""
    table = dict(DEGREES[variety])
    table[mono] = Fraction(value)
    return table

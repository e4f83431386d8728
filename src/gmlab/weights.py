"""Root datum of SL5: weights modulo (1,...,1), the dot action of S5,
dominance, and the closed p-alcove test.

A weight is stored by its canonical representative [a1..a5] with min = 0, so
structural equality is the right equality on X*(T) = Z^5 / Z*(1,...,1).
rho = [2,1,0,-1,-2] is the half-sum of the positive roots; all pairings with
coroots are differences of entries and therefore representative independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

RHO = (2, 1, 0, -1, -2)

Vec5 = tuple  # raw length-5 integer vectors, any representative


def _normalize(v: Sequence[int]) -> tuple[int, ...]:
    m = min(v)
    return tuple(x - m for x in v)


@dataclass(frozen=True)
class Weight:
    """Element of Z^5 / Z*(1,...,1) in canonical (min = 0) representative."""

    rep: tuple[int, ...]

    def __init__(self, entries: Sequence[int]):
        if len(entries) != 5:
            raise ValueError("a weight needs 5 entries")
        object.__setattr__(self, "rep", _normalize(tuple(int(x) for x in entries)))

    def __iter__(self):
        return iter(self.rep)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.rep, other.rep)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.rep))

    def scaled(self, c: int) -> "Weight":
        return Weight(tuple(c * a for a in self.rep))

    def is_dominant(self) -> bool:
        r = self.rep
        return all(r[i] >= r[i + 1] for i in range(4))

    def __repr__(self):
        return f"Weight{self.rep}"


class WeylElem:
    """Permutation of {1..5}, stored in one-line notation (images of 1..5),
    with its length = inversion count."""

    __slots__ = ("img", "length")

    def __init__(self, img: Sequence[int]):
        img = tuple(img)
        if sorted(img) != [1, 2, 3, 4, 5]:
            raise ValueError(f"not a permutation of 1..5: {img}")
        self.img = img
        self.length = sum(
            1
            for i in range(5)
            for j in range(i + 1, 5)
            if img[i] > img[j]
        )

    def __call__(self, i: int) -> int:
        return self.img[i - 1]

    def apply(self, v: Sequence) -> tuple:
        """Permute entries: the entry at position i moves to position w(i)."""
        out = [None] * 5
        for i in range(5):
            out[self.img[i] - 1] = v[i]
        return tuple(out)

    def compose(self, other: "WeylElem") -> "WeylElem":
        """(self*other)(i) = self(other(i))."""
        return WeylElem(tuple(self.img[other.img[i] - 1] for i in range(5)))

    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def is_identity(self) -> bool:
        return self.img == (1, 2, 3, 4, 5)

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(1, 6):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]]) -> "WeylElem":
        img = list(range(1, 6))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                img[a - 1] = cyc[(i + 1) % len(cyc)]
        return WeylElem(img)

    @staticmethod
    def identity() -> "WeylElem":
        return WeylElem((1, 2, 3, 4, 5))

    def __eq__(self, other):
        return isinstance(other, WeylElem) and other.img == self.img

    def __hash__(self):
        return hash(self.img)

    def __repr__(self):
        return f"WeylElem{self.img}"


def all_weyl_elements() -> list[WeylElem]:
    import itertools

    return [WeylElem(p) for p in itertools.permutations(range(1, 6))]


# ----------------------------------------------------------------------
# pairings and the dot action
# ----------------------------------------------------------------------


def pairing(lam: Weight, root: tuple[int, int]) -> int:
    """<lambda, alpha^vee> for the positive root alpha = e_i - e_j, i < j."""
    i, j = root
    if not (1 <= i < j <= 5):
        raise ValueError(f"not a positive root index: {root}")
    return lam.rep[i - 1] - lam.rep[j - 1]


def simple_pairing(lam: Weight, i: int) -> int:
    """Pairing with the simple coroot alpha_i = e_i - e_{i+1}, 1 <= i <= 4."""
    return pairing(lam, (i, i + 1))


def dot_act(w: WeylElem, lam: Weight) -> Weight:
    """w . lambda = w(lambda + rho) - rho."""
    shifted = tuple(a + r for a, r in zip(lam.rep, RHO))
    moved = w.apply(shifted)
    return Weight(tuple(a - r for a, r in zip(moved, RHO)))


def sorting_word(lam: Weight) -> tuple[WeylElem, tuple[int, ...]]:
    """The minimal-length w with v = w(lambda+rho) weakly decreasing.

    The stable descending sort realizes the minimal length; ties keep their
    original order, which makes table reproduction deterministic.
    """
    shifted = tuple(a + r for a, r in zip(lam.rep, RHO))
    order = sorted(range(5), key=lambda i: (-shifted[i], i))
    # order[k] = original position landing at sorted position k, i.e. w^{-1}
    img = [0] * 5
    for new_pos, old_pos in enumerate(order):
        img[old_pos] = new_pos + 1
    w = WeylElem(img)
    v = tuple(shifted[i] for i in order)
    return w, v


def weyl_dim(mu: Weight) -> int:
    """Weyl dimension formula for a dominant weight; exact integer."""
    if not mu.is_dominant():
        raise ValueError(f"{mu} is not dominant")
    m = [a + r for a, r in zip(mu.rep, RHO)]
    num = reduce(
        lambda acc, pair: acc * (m[pair[0]] - m[pair[1]]),
        [(i, j) for i in range(5) for j in range(i + 1, 5)],
        1,
    )
    den = reduce(
        lambda acc, pair: acc * (RHO[pair[0]] - RHO[pair[1]]),
        [(i, j) for i in range(5) for j in range(i + 1, 5)],
        1,
    )
    q = Fraction(num, den)
    assert q.denominator == 1
    return int(q)

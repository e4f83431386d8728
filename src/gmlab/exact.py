"""Exact arithmetic substrate: coefficient rings and integer matrix normal forms.

Conventions used throughout the package:

- Integers are plain Python ``int`` (arbitrary precision), rationals are
  ``fractions.Fraction`` (normalized, denominator > 0).  No floating point
  anywhere.
- A *ring* is an object implementing the small protocol of :class:`Ring`;
  ring *elements* are plain immutable data (ints, Fractions, tuples, dicts
  frozen by convention) and all arithmetic goes through the ring object.
- Matrices over ZZ are lists of row lists; the normal-form routines
  (`hnf`, `smith_normal_form`, `det_bareiss`, `rank_over`, `kernel_over`)
  are deterministic: identical input gives identical output.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence


# ----------------------------------------------------------------------
# primality
# ----------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond anything used here."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(bound + 1) if sieve[i]]


# ----------------------------------------------------------------------
# ring protocol
# ----------------------------------------------------------------------


class Ring:
    """Minimal ring protocol.  Elements are opaque immutable values."""

    zero = 0
    one = 1
    is_field = False

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def from_int(self, n: int):
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # hooks used by generic code
    def two_is_unit(self) -> bool:
        return self.is_unit(self.from_int(2))


class RationalField(Ring):
    """QQ with Fraction elements."""

    zero = Fraction(0)
    one = Fraction(1)
    is_field = True

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, n):
        return Fraction(n)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class IntegerRing(Ring):
    """ZZ with plain int elements."""

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, n):
        return int(n)

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in ZZ")
        return a

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


class PrimeField(Ring):
    """GF(p) with elements the residues 0 <= a < p.  p is verified prime."""

    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def from_int(self, n):
        return n % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


# ----------------------------------------------------------------------
# finite field extensions GF(p^m)
# ----------------------------------------------------------------------


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    # remainder of num by monic den, coefficients mod p, low degree first
    num = [c % p for c in num]
    d = len(den) - 1
    while len(num) >= len(den):
        c = num[-1]
        if c:
            shift = len(num) - len(den)
            for i in range(len(den)):
                num[shift + i] = (num[shift + i] - c * den[i]) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, mod, p)


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(list(a), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        lead_inv = pow(b[-1], p - 2, p)
        monic_b = [(c * lead_inv) % p for c in b]
        a, b = b, _poly_mod(a, monic_b, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    # Rabin test; f monic, low degree first, deg >= 1
    m = len(f) - 1
    x = [0, 1]
    xp = _poly_powmod(x, p ** m, f, p)
    if _poly_mod([(a - b) % p for a, b in itertools.zip_longest(xp, x, fillvalue=0)], f, p):
        return False
    for q in {d for d in range(2, m + 1) if is_prime(d) and m % d == 0}:
        xq = _poly_powmod(x, p ** (m // q), f, p)
        diff = _poly_trim(
            [(a - b) % p for a, b in itertools.zip_longest(xq, x, fillvalue=0)]
        )
        g = _poly_gcd(f, diff, p)
        if not g or len(g) - 1 > 0:
            return False
    return True


def conway_like_modulus(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over GF(p) in lexicographic order
    of the low coefficients.  Deterministic, so field tags are reproducible."""
    for tail in itertools.product(range(p), repeat=m):
        f = list(tail) + [1]
        if f[0] == 0:
            continue
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class GFExt(Ring):
    """GF(p^m) as GF(p)[x]/(f).  Elements are coefficient tuples of length m."""

    is_field = True

    def __init__(self, p: int, m: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("degree must be >= 1")
        self.p = p
        self.m = m
        self.modulus = tuple(modulus) if modulus is not None else conway_like_modulus(p, m)
        if len(self.modulus) != m + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        self.zero = (0,) * m
        self.one = tuple([1] + [0] * (m - 1)) if m > 1 else (1 % p,)
        self.order = p ** m

    def _wrap(self, coeffs: list[int]) -> tuple[int, ...]:
        coeffs = coeffs[: self.m] + [0] * max(0, self.m - len(coeffs))
        return tuple(c % self.p for c in coeffs)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _build_log_tables(self):
        """Discrete-log tables over a multiplicative generator; worthwhile
        for the small fields used here (q up to a few thousand)."""
        q = self.order
        for gen in self.elements():
            if self.is_zero(gen):
                continue
            seen = {}
            exp = []
            x = self.one
            for k in range(q - 1):
                if x in seen:
                    break
                seen[x] = k
                exp.append(x)
                x = self._wrap(_poly_mulmod(list(x), list(gen), list(self.modulus), self.p))
            if len(exp) == q - 1:
                self._log = seen
                self._exp = exp
                return
        raise RuntimeError("no multiplicative generator found")  # unreachable

    def mul(self, a, b):
        if self.order <= 4096:
            if not hasattr(self, "_log"):
                self._build_log_tables()
            la = self._log.get(a)
            lb = self._log.get(b)
            if la is None or lb is None:
                return self.zero
            return self._exp[(la + lb) % (self.order - 1)]
        return self._wrap(_poly_mulmod(list(a), list(b), list(self.modulus), self.p))

    def from_int(self, n):
        return self._wrap([n % self.p])

    def is_zero(self, a):
        return all(c == 0 for c in a)

    def is_unit(self, a):
        return not self.is_zero(a)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0 in GF(p^m)")
        if self.order <= 4096:
            if not hasattr(self, "_log"):
                self._build_log_tables()
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def pow(self, a, e: int):
        if self.order <= 4096 and not self.is_zero(a):
            if not hasattr(self, "_log"):
                self._build_log_tables()
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def gen(self):
        """Image of x, a root of the modulus."""
        if self.m == 1:
            return self.one
        return self._wrap([0, 1])

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.m):
            yield tup

    def __repr__(self):
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, GFExt)
            and other.p == self.p
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("GFExt", self.p, self.m, self.modulus))


def finite_field(q: int) -> Ring:
    """GF(q) for a prime power q, with the deterministic modulus."""
    for p in primes_upto(max(3, int(q ** 0.5) + 1)) + [q]:
        if q % p == 0:
            m = 0
            qq = q
            while qq % p == 0:
                qq //= p
                m += 1
            if qq != 1:
                raise ValueError(f"{q} is not a prime power")
            return PrimeField(p) if m == 1 else GFExt(p, m)
    raise ValueError(f"{q} is not a prime power")


class IntegersModPK(Ring):
    """ZZ/p^k, the truncated discrete valuation ring used for lifting."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.k = k
        self.modulus = p ** k
        self.zero = 0
        self.one = 1 % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def from_int(self, n):
        return n % self.modulus

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in Z/{self.p}^{self.k}")
        return pow(a, -1, self.modulus)

    def valuation(self, a) -> int:
        """p-adic valuation, capped at k."""
        a %= self.modulus
        if a == 0:
            return self.k
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def __repr__(self):
        return f"Z/{self.p}^{self.k}"

    def __eq__(self, other):
        return isinstance(other, IntegersModPK) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("ZPK", self.p, self.k))


# ----------------------------------------------------------------------
# sparse multivariate polynomials
# ----------------------------------------------------------------------


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), tuple(-e for e in exp))


class PolyRing(Ring):
    """Sparse multivariate polynomials over a coefficient ring.

    Elements are dicts {exponent tuple: nonzero coefficient}.  The monomial
    order is graded lexicographic, fixed globally so that printed certificates
    are byte-reproducible.
    """

    def __init__(self, coeff_ring: Ring, names: Sequence[str]):
        self.coeff = coeff_ring
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.zero = {}
        self.one = {(0,) * self.nvars: coeff_ring.one}

    # construction helpers
    def var(self, i: int):
        exp = [0] * self.nvars
        exp[i] = 1
        return {tuple(exp): self.coeff.one}

    def const(self, c):
        if self.coeff.is_zero(c):
            return {}
        return {(0,) * self.nvars: c}

    def from_int(self, n):
        return self.const(self.coeff.from_int(n))

    # arithmetic
    def add(self, a, b):
        out = dict(a)
        for e, c in b.items():
            s = self.coeff.add(out.get(e, self.coeff.zero), c)
            if self.coeff.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return out

    def neg(self, a):
        return {e: self.coeff.neg(c) for e, c in a.items()}

    def mul(self, a, b):
        if not a or not b:
            return {}
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = self.coeff.add(out.get(e, self.coeff.zero), self.coeff.mul(ca, cb))
                if self.coeff.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return out

    def scale(self, c, a):
        if self.coeff.is_zero(c):
            return {}
        out = {}
        for e, x in a.items():
            s = self.coeff.mul(c, x)
            if not self.coeff.is_zero(s):
                out[e] = s
        return out

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return a == b

    def is_unit(self, a):
        return len(a) == 1 and sum(next(iter(a))) == 0 and self.coeff.is_unit(next(iter(a.values())))

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError("only nonzero constants are units in a polynomial ring")
        return self.const(self.coeff.inv(next(iter(a.values()))))

    def evaluate(self, a, point: Sequence):
        """Evaluate at a point with coordinates in the coefficient ring."""
        acc = self.coeff.zero
        for e, c in a.items():
            term = c
            for i, k in enumerate(e):
                for _ in range(k):
                    term = self.coeff.mul(term, point[i])
            acc = self.coeff.add(acc, term)
        return acc

    def terms_sorted(self, a):
        return sorted(a.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    def render(self, a) -> str:
        if not a:
            return "0"
        parts = []
        for e, c in self.terms_sorted(a):
            mono = "*".join(
                f"{self.names[i]}^{k}" if k > 1 else self.names[i]
                for i, k in enumerate(e)
                if k
            )
            cs = str(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"{self.coeff}[{','.join(self.names)}]"


class QuadExtRing(Ring):
    """Quadratic extension R[y]/(g) of a polynomial ring R, with
    g = g2*y^2 + g1*y + g0 and g2 != 0, localized at g2.

    Elements are triples (a, b, s) representing (a + b*y) / g2^s with a, b
    in R.  Multiplication uses g2*y^2 = -(g1*y + g0), so products pick up one
    power of g2 in the denominator; equality and zero tests are denominator
    free, which is all the singularity certificates need (identities over the
    fraction field are equivalent to the cleared polynomial identities).
    """

    def __init__(self, base: PolyRing, g2, g1, g0):
        if base.is_zero(g2):
            raise ValueError("leading coefficient of the quadratic must be nonzero")
        self.base = base
        self.g2 = g2
        self.g1 = g1
        self.g0 = g0
        self.zero = (base.zero, base.zero, 0)
        self.one = (base.one, base.zero, 0)

    def inject(self, a):
        return (a, self.base.zero, 0)

    def gen(self):
        return (self.base.zero, self.base.one, 0)

    def from_int(self, n):
        return self.inject(self.base.from_int(n))

    def _align(self, x, y):
        a1, b1, s1 = x
        a2, b2, s2 = y
        R = self.base
        if s1 < s2:
            f = R.one
            for _ in range(s2 - s1):
                f = R.mul(f, self.g2)
            a1, b1, s1 = R.mul(f, a1), R.mul(f, b1), s2
        elif s2 < s1:
            f = R.one
            for _ in range(s1 - s2):
                f = R.mul(f, self.g2)
            a2, b2, s2 = R.mul(f, a2), R.mul(f, b2), s1
        return (a1, b1, s1), (a2, b2, s2)

    def add(self, x, y):
        (a1, b1, s), (a2, b2, _) = self._align(x, y)
        R = self.base
        return self._trim((R.add(a1, a2), R.add(b1, b2), s))

    def neg(self, x):
        a, b, s = x
        return (self.base.neg(a), self.base.neg(b), s)

    def mul(self, x, y):
        a1, b1, s1 = x
        a2, b2, s2 = y
        R = self.base
        bb = R.mul(b1, b2)
        # (a1 + b1 y)(a2 + b2 y) = a1 a2 + (a1 b2 + a2 b1) y + b1 b2 y^2
        # multiply through by g2 and substitute g2 y^2 = -(g1 y + g0):
        a = R.sub(R.mul(self.g2, R.mul(a1, a2)), R.mul(bb, self.g0))
        b = R.sub(
            R.mul(self.g2, R.add(R.mul(a1, b2), R.mul(a2, b1))),
            R.mul(bb, self.g1),
        )
        return self._trim((a, b, s1 + s2 + 1))

    def _trim(self, x):
        a, b, s = x
        if not a and not b:
            return (self.base.zero, self.base.zero, 0)
        return (a, b, s)

    def is_zero(self, x):
        a, b, _ = x
        return self.base.is_zero(a) and self.base.is_zero(b)

    def eq(self, x, y):
        (a1, b1, _), (a2, b2, _) = self._align(x, y)
        return a1 == a2 and b1 == b2

    def is_unit(self, x):
        raise NotImplementedError("unit testing is not needed in the localization")

    def render(self, x) -> str:
        a, b, s = x
        body = f"({self.base.render(a)}) + ({self.base.render(b)})*y"
        return body if s == 0 else f"[{body}] / lc^{s}"

    def __repr__(self):
        return f"{self.base}[y]/(g), localized at lc(g)"


# ----------------------------------------------------------------------
# integer matrices
# ----------------------------------------------------------------------

Matrix = list  # list of row lists


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hnf(M: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U*M, U unimodular, pivots positive, and entries
    above each pivot reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    H = [list(map(int, row)) for row in M]
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity_matrix(m)
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if H[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        # clear the column below the first nonzero using extended gcd
        for j in range(pivot_row + 1, m):
            if H[j][c] == 0:
                continue
            a, b = H[pivot_row][c], H[j][c]
            g, x, y = _xgcd(a, b)
            a_, b_ = a // g, b // g
            row_p, row_j = H[pivot_row], H[j]
            up, uj = U[pivot_row], U[j]
            H[pivot_row] = [x * p + y * q for p, q in zip(row_p, row_j)]
            H[j] = [-b_ * p + a_ * q for p, q in zip(row_p, row_j)]
            U[pivot_row] = [x * p + y * q for p, q in zip(up, uj)]
            U[j] = [-b_ * p + a_ * q for p, q in zip(up, uj)]
        if pivot_row != r:
            H[r], H[pivot_row] = H[pivot_row], H[r]
            U[r], U[pivot_row] = U[pivot_row], U[r]
        if H[r][c] < 0:
            H[r] = [-v for v in H[r]]
            U[r] = [-v for v in U[r]]
        piv = H[r][c]
        for i in range(r):
            q = H[i][c] // piv
            if q:
                H[i] = [p - q * v for p, v in zip(H[i], H[r])]
                U[i] = [p - q * v for p, v in zip(U[i], U[r])]
        r += 1
    return H, U


def det_bareiss(M: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    A = [list(map(int, row)) for row in M]
    n = len(A)
    if n == 0:
        return 1
    assert all(len(row) == n for row in A), "determinant needs a square matrix"
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def rank_over(M: Sequence[Sequence[int]], field) -> int:
    """Rank of an integer matrix after reduction into `field`.

    `field` is QQ (rank over the rationals, computed fraction-free over ZZ)
    or a PrimeField.
    """
    if isinstance(field, RationalField):
        return _rank_bareiss(M)
    if isinstance(field, PrimeField):
        return _rank_modp(M, field.p)
    raise TypeError(f"unsupported field {field!r}")


def _rank_bareiss(M) -> int:
    A = [list(map(int, row)) for row in M]
    if not A:
        return 0
    m, n = len(A), len(A[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        for i in range(row + 1, m):
            for j in range(col + 1, n):
                A[i][j] = (A[i][j] * A[row][col] - A[i][col] * A[row][j]) // prev
            A[i][col] = 0
        prev = A[row][col]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def _rank_modp(M, p: int) -> int:
    A = [[v % p for v in row] for row in M]
    if not A:
        return 0
    m, n = len(A), len(A[0])
    rank = 0
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if A[i][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = pow(A[row][col], p - 2, p)
        A[row] = [(v * inv) % p for v in A[row]]
        for i in range(m):
            if i != row and A[i][col]:
                c = A[i][col]
                A[i] = [(v - c * w) % p for v, w in zip(A[i], A[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def kernel_over(M: Sequence[Sequence[int]], field) -> list[list]:
    """Echelonized basis of the right null space of M over `field`.

    Basis vectors are indexed by the free columns of the reduced row echelon
    form, in increasing column order; each has a 1 in its free position.
    """
    if isinstance(field, RationalField):
        A = [[Fraction(v) for v in row] for row in M]
        ring: Ring = QQ
    elif isinstance(field, PrimeField):
        A = [[v % field.p for v in row] for row in M]
        ring = field
    else:
        raise TypeError(f"unsupported field {field!r}")
    if not A:
        return []
    m, n = len(A), len(A[0])
    pivots: list[int] = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if not ring.is_zero(A[i][col])), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = ring.inv(A[row][col])
        A[row] = [ring.mul(inv, v) for v in A[row]]
        for i in range(m):
            if i != row and not ring.is_zero(A[i][col]):
                c = A[i][col]
                A[i] = [ring.sub(v, ring.mul(c, w)) for v, w in zip(A[i], A[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [ring.zero] * n
        vec[f] = ring.one
        for r_i, c_i in enumerate(pivots):
            vec[c_i] = ring.neg(A[r_i][f])
        basis.append(vec)
    return basis


def smith_normal_form(
    M: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over ZZ: returns (D, S, T) with D = S*M*T,
    S and T unimodular, D diagonal with d1 | d2 | ... and di >= 0."""
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    S = identity_matrix(m)
    T = identity_matrix(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in T:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]

    def addmul_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in T:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        # find a nonzero entry of minimal absolute value in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    addmul_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    addmul_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
            S[t] = [-v for v in S[t]]
        t += 1
    # enforce divisibility d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a and b % a != 0:
                addmul_col(i, i + 1, 1)
                # re-clear the 2x2 block
                g, x, y = _xgcd(A[i][i], A[i + 1][i])
                a_, b_ = A[i][i] // g, A[i + 1][i] // g
                ri, rj = A[i], A[i + 1]
                si, sj = S[i], S[i + 1]
                A[i] = [x * p + y * q for p, q in zip(ri, rj)]
                A[i + 1] = [-b_ * p + a_ * q for p, q in zip(ri, rj)]
                S[i] = [x * p + y * q for p, q in zip(si, sj)]
                S[i + 1] = [-b_ * p + a_ * q for p, q in zip(si, sj)]
                q = A[i][i + 1] // A[i][i]
                addmul_col(i + 1, i, -q)
                if A[i + 1][i + 1] < 0:
                    A[i + 1] = [-v for v in A[i + 1]]
                    S[i + 1] = [-v for v in S[i + 1]]
                changed = True
    D = [[A[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return D, S, T


def elementary_divisors(M: Sequence[Sequence[int]]) -> list[int]:
    D, _, _ = smith_normal_form(M)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0]


def integer_kernel_saturated(M: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the saturated kernel lattice {x in ZZ^n : M x = 0}."""
    m = len(M)
    n = len(M[0]) if m else 0
    D, _, T = smith_normal_form(M)
    rank = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    cols = []
    for j in range(rank, n):
        cols.append([T[i][j] for i in range(n)])
    return cols

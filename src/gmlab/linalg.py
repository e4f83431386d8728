"""Generic linear algebra over a ring object from :mod:`gmlab.exact`.

Matrices are lists of row lists of ring elements.  Over a field any nonzero
pivot works; over ZZ/p^k the elimination insists on unit pivots, which is
the correct behaviour for the direct-summand computations done here (if no
unit pivot exists where one is required, the input violated an invariant and
we raise rather than guess).
"""

from __future__ import annotations

from .exact import Ring


def mat_mul(ring: Ring, A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    out = [[ring.zero] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            a = A[i][t]
            if ring.is_zero(a):
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] = ring.add(row[j], ring.mul(a, Bt[j]))
    return out


def mat_vec(ring: Ring, A, v):
    out = []
    for row in A:
        acc = ring.zero
        for a, x in zip(row, v):
            if not ring.is_zero(a) and not ring.is_zero(x):
                acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def rref(ring: Ring, M, unit_pivots_required: bool | None = None):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Over a field, any nonzero entry can be a pivot.  Over ZZ/p^k (the
    default there), a unit entry is searched for in each column; nonzero
    non-unit leftovers below the profile raise ValueError, since they mean
    the input was not the direct summand the caller promised.
    """
    if unit_pivots_required is None:
        unit_pivots_required = not ring.is_field
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    pivots: list[int] = []
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if ring.is_zero(A[i][col]):
                continue
            if not unit_pivots_required or ring.is_unit(A[i][col]):
                piv = i
                break
        if piv is None:
            # over ZZ/p^k a column may hold only non-unit entries; a later
            # column can still supply this row's pivot, so just move on
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
    if unit_pivots_required:
        for i in range(row, m):
            if any(not ring.is_zero(v) for v in A[i]):
                raise ValueError(
                    f"nonzero non-unit residue left in row {i}; "
                    f"matrix is not split over {ring!r}"
                )
    return A, pivots


def rank(ring: Ring, M) -> int:
    _, pivots = rref(ring, M)
    return len(pivots)


def kernel(ring: Ring, M, unit_pivots_required: bool | None = None):
    """Echelonized right-kernel basis (list of vectors), free columns ascending."""
    m = len(M)
    n = len(M[0]) if m else 0
    R, pivots = rref(ring, M, unit_pivots_required)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [ring.zero] * n
        vec[f] = ring.one
        for r_i, c_i in enumerate(pivots):
            vec[c_i] = ring.neg(R[r_i][f])
        basis.append(vec)
    return basis


def solve(ring: Ring, M, b, unit_pivots_required: bool | None = None):
    """One solution x of M x = b, or None if inconsistent."""
    m = len(M)
    n = len(M[0]) if m else 0
    aug = [list(M[i]) + [b[i]] for i in range(m)]
    R, pivots = rref(ring, aug, unit_pivots_required)
    for r_i in range(len(pivots), m):
        if not ring.is_zero(R[r_i][n]):
            return None
    if n in pivots:
        return None
    x = [ring.zero] * n
    for r_i, c_i in enumerate(pivots):
        x[c_i] = R[r_i][n]
    return x


def det_nodiv(ring: Ring, M):
    """Determinant by cofactor expansion; fine for the small sizes used here."""
    n = len(M)
    if n == 0:
        return ring.one
    if n == 1:
        return M[0][0]
    if n == 2:
        return ring.sub(ring.mul(M[0][0], M[1][1]), ring.mul(M[0][1], M[1][0]))
    acc = ring.zero
    for j in range(n):
        a = M[0][j]
        if ring.is_zero(a):
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = ring.mul(a, det_nodiv(ring, minor))
        acc = ring.add(acc, term) if j % 2 == 0 else ring.sub(acc, term)
    return acc

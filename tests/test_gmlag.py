"""The GM/Lagrangian correspondence, scans, and lifting."""

import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation

import gmlab
from gmlab.exact import GFExt, IntegersModPK, PrimeField, QQ, ZZ
from gmlab.gmlag import (
    CompatibilityViolation,
    GMDatum,
    LagrangianDatum,
    OMEGA_INT,
    RankDefect,
    TRIPLES,
    _echelon_patterns,
    _field_tower,
    _free_count,
    _pattern_matrix,
    _plucker_block,
    _random_element,
    _row_span_canonical,
    _scan,
    _standard_v5,
    canonical_wq,
    contract,
    find_opposite_V5,
    gm_to_lagrangian,
    intersection_with_wedge3_v5,
    is_decomposable,
    lagrangian_from_json,
    lagrangian_to_gm,
    lagrangian_to_json,
    lift_lagrangian,
    omega_over,
    random_lagrangian,
    scan_decomposables,
    sum_dot,
    wedge,
    wedge3_v5_rows,
    wedge_gram,
    wedge_vectors,
)
from gmlab.exact import det_bareiss
from gmlab.linalg import det_nodiv, kernel, mat_mul, mat_vec, rank, solve, transpose

F5 = PrimeField(5)
F7 = PrimeField(7)
F9 = GFExt(3, 2)


class TestWedgeMachinery:
    def test_contract_kills_wedge3_v5(self):
        phi = [QQ.zero] * 5 + [QQ.one]  # e6 dual
        xi = [QQ.zero] * 20
        xi[TRIPLES.index((1, 2, 3))] = QQ.one
        assert all(QQ.is_zero(v) for v in contract(QQ, phi, xi, 3))

    def test_leading_contraction(self):
        phi = [QQ.zero] * 5 + [QQ.one]
        xi = [QQ.zero] * 20
        xi[TRIPLES.index((1, 2, 6))] = QQ.one  # e6^e1^e2 = +e1^e2^e6
        out = contract(QQ, phi, xi, 3)
        pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
        assert out[pairs.index((1, 2))] == 1
        assert sum(1 for v in out if v != 0) == 1

    def test_derivation_identity(self):
        # phi . (xi ^ v) = (phi . xi) ^ v - xi * phi(v) for a 3-vector xi
        # and a 1-vector v (the graded Leibniz rule)
        from gmlab.gmlag import wedge_1_with

        rng = random.Random(2)
        for _ in range(15):
            phi = [F5.from_int(rng.randrange(5)) for _ in range(6)]
            xi = [F5.from_int(rng.randrange(5)) for _ in range(20)]
            v = [F5.from_int(rng.randrange(5)) for _ in range(6)]
            # xi ^ v = (-1)^3 v ^ xi
            xi_wedge_v = [F5.neg(x) for x in wedge_1_with(F5, v, xi, 3)]
            lhs = contract(F5, phi, xi_wedge_v, 4)
            # (phi . xi) ^ v = v ^ (phi . xi) for a 2-vector
            rhs = wedge_1_with(F5, v, contract(F5, phi, xi, 3), 2)
            phiv = F5.zero
            for a, b in zip(phi, v):
                phiv = F5.add(phiv, F5.mul(a, b))
            rhs = [F5.sub(r, F5.mul(phiv, x)) for r, x in zip(rhs, xi)]
            assert lhs == rhs

    def test_gram_is_antisymmetric_unimodular(self):
        om = wedge_gram()
        assert all(om[i][j] == -om[j][i] for i in range(20) for j in range(20))
        assert det_bareiss(om) == 1  # Pfaffian is therefore +-1

    def test_omega_entries_are_permutation_signs(self):
        for i, s in enumerate(TRIPLES):
            for j, t in enumerate(TRIPLES):
                if set(s) & set(t):
                    assert OMEGA_INT[i][j] == 0
                else:
                    assert OMEGA_INT[i][j] == Permutation([x - 1 for x in s + t]).signature()

    def test_wedge_vectors_are_sympy_minors(self):
        rng = random.Random(21)
        for k in range(2, 6):
            for _ in range(4):
                cols = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(k)]
                m = sympy.Matrix(6, k, lambda r, c: cols[c][r])
                minors = [
                    int(m.extract(list(rows), list(range(k))).det())
                    for rows in itertools.combinations(range(6), k)
                ]
                assert wedge_vectors(ZZ, cols) == minors

    def test_wedge_is_associative_and_graded_commutative(self):
        rng = random.Random(22)

        def vec(a):
            return [rng.randrange(7) for _ in range(math.comb(6, a))]

        for a in range(1, 6):
            for b in range(1, 7 - a):
                x, y = vec(a), vec(b)
                xy, yx = wedge(F7, x, a, y, b), wedge(F7, y, b, x, a)
                assert xy == (yx if a * b % 2 == 0 else [F7.neg(v) for v in yx])
                for c in range(1, 7 - a - b):
                    z = vec(c)
                    assert wedge(F7, xy, a + b, z, c) == wedge(F7, x, a, wedge(F7, y, b, z, c), b + c)


class TestDataValidation:
    def test_full_wedge3_v5_is_rejected(self):
        v5 = _standard_v5(F5)
        D = LagrangianDatum(F5, 3, v5, wedge3_v5_rows(F5, v5), F5.one)
        with pytest.raises(RankDefect):
            D.check()

    def test_non_isotropic_rejected(self):
        v5 = _standard_v5(F5)
        rows = wedge3_v5_rows(F5, v5)
        rows = rows[:9] + [[F5.one if t == TRIPLES.index((4, 5, 6)) else F5.zero for t in range(20)]]
        D = LagrangianDatum(F5, 5, v5, rows, F5.one)
        with pytest.raises((CompatibilityViolation, RankDefect)):
            D.check()


@pytest.mark.parametrize("ring,name", [(F5, "F5"), (F7, "F7"), (F9, "F9"), (QQ, "Q")])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_round_trip(ring, name, n):
    rng = random.Random(hash((name, n)) & 0xFFFF)
    for _ in range(3):
        D = random_lagrangian(ring, n, rng)
        assert len(intersection_with_wedge3_v5(D)) == 5 - n
        gm = lagrangian_to_gm(D)
        assert len(gm.w_rows) == n + 5
        D2 = gm_to_lagrangian(gm)
        assert _row_span_canonical(ring, D.a_rows) == _row_span_canonical(ring, D2.a_rows)
        gm2 = lagrangian_to_gm(D2)
        assert canonical_wq(gm) == canonical_wq(gm2)


class TestOppositeSearch:
    def test_own_v5_tested_first(self):
        rng = random.Random(12)
        D = random_lagrangian(F5, 5, rng)  # A cap wedge^3 V5 = 0 already
        res = find_opposite_V5(D, max_degree=1)
        assert res is not None and res["degree"] == 1
        # kernel of the returned covector is the datum's own V5
        u = res["u"]
        assert u == [0, 0, 0, 0, 0, 1]

    def test_finds_some_u_for_n4(self):
        rng = random.Random(13)
        D = random_lagrangian(F5, 4, rng)
        res = find_opposite_V5(D, max_degree=1)
        assert res is not None
        # independent re-check with a different elimination order: stack and
        # rank the reversed matrix
        from gmlab.linalg import kernel as ker

        F = D.ring
        u = res["u"]
        v5_cols = ker(F, [list(u)])
        import itertools

        w3 = [
            wedge_vectors(F, [v5_cols[a], v5_cols[b], v5_cols[c]])
            for (a, b, c) in itertools.combinations(range(5), 3)
        ]
        stacked = [list(reversed(r)) for r in (list(D.a_rows) + w3)]
        assert rank(F, stacked) == 20


def reference_scan(F, ann, budget, tested=0):
    """The scan one subspace at a time, in the same enumeration order."""
    elements = list(F.elements())
    for pattern in _echelon_patterns():
        for free in itertools.product(elements, repeat=_free_count(pattern)):
            if tested >= budget:
                return None, tested
            rows = _pattern_matrix(pattern, free, F.zero, F.one)
            tested += 1
            if all(F.is_zero(x) for x in mat_vec(F, ann, wedge_vectors(F, rows))):
                return rows, tested
    return None, tested


class TestDecomposableScan:
    def test_planted_decomposable_found(self):
        rng = random.Random(3)
        D = random_lagrangian(F5, 4, rng, decomposable_free=False)
        res = scan_decomposables(D, budget=300000, max_degree=1)
        rows = res["witness_rows"]
        assert rows is not None
        # the witness subspace really wedges into A
        F = D.ring
        plk = []
        for t in TRIPLES:
            sub = [[rows[r][c - 1] for c in t] for r in range(3)]
            plk.append(det_nodiv(F, sub))
        assert rank(F, list(D.a_rows) + [plk]) == 10

    def test_scan_budget_is_respected(self):
        rng = random.Random(4)
        D = random_lagrangian(F5, 5, rng)
        res = scan_decomposables(D, budget=500, max_degree=1)
        assert res["tested"] <= 500
        if res["witness_rows"] is None:
            assert res["exhausted"] is False

    def test_pattern_matrix_is_reduced_echelon(self):
        v = [1, 2, 3, 4, 0, 1]
        assert _pattern_matrix((0, 2, 4), v, 0, 1) == [
            [1, v[0], 0, v[1], 0, v[2]],
            [0, 0, 1, v[3], 0, v[4]],
            [0, 0, 0, 0, 1, v[5]],
        ]

    @pytest.mark.parametrize(
        "ring,pattern_no,combo_no",
        [(PrimeField(3), 4, 100), (F9, 0, 40), (F5, 0, 250_000), (_field_tower(F9, 2)[0], 0, 60_000)],
    )
    def test_scans_find_the_planted_subspace_in_enumeration_order(self, ring, pattern_no, combo_no):
        # the annihilator of one Plücker line: the first hit of the scan is
        # that subspace, at its position in the enumeration
        patterns = _echelon_patterns()
        pattern = patterns[pattern_no]
        elements = list(ring.elements())
        free = itertools.product(elements, repeat=_free_count(pattern))
        target = _pattern_matrix(pattern, next(itertools.islice(free, combo_no, None)), ring.zero, ring.one)
        ann = kernel(ring, [wedge_vectors(ring, target)])
        position = sum(len(elements) ** _free_count(p) for p in patterns[:pattern_no]) + combo_no + 1
        assert _scan(ring, ann, 10**6, 0) == (target, position)

    @pytest.mark.parametrize("ring", [PrimeField(3), F5, F9, _field_tower(F9, 2)[0]], ids=repr)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.sampled_from(["random", "planted"]), st.integers(0, 2**32 - 1), st.integers(1, 700))
    def test_scan_agrees_with_the_reference_scan(self, ring, kind, seed, budget):
        # planted: the wedge of a plane at position <= 600, with up to three
        # random vectors; the budgets end inside the scan's first batch
        rng = random.Random(seed)
        if kind == "planted":
            pattern = _echelon_patterns()[0]
            elements, code = list(ring.elements()), rng.randrange(600)
            free = [elements[code // len(elements) ** (8 - s) % len(elements)] for s in range(9)]
            a_rows = [wedge_vectors(ring, _pattern_matrix(pattern, free, ring.zero, ring.one))]
        else:
            a_rows = []
        a_rows += [[_random_element(ring, rng) for _ in range(20)] for _ in range(rng.randrange(4) if a_rows else 10)]
        ann = kernel(ring, a_rows)
        assert _scan(ring, ann, budget, 0) == reference_scan(ring, ann, budget)

    @pytest.mark.parametrize(
        "ring", [PrimeField(3), F7, PrimeField(1149991), F9, _field_tower(F9, 2)[0]], ids=repr
    )
    def test_plucker_block_matches_wedge_vectors(self, ring):
        # 30 echelon matrices per pivot pattern, their digits uniform or in
        # {0, p - 1} (the largest minors before reduction)
        rng = random.Random(repr(ring))
        m = getattr(ring, "m", 1)
        for pattern in _echelon_patterns():
            nfree = _free_count(pattern)
            draws = [[rng.randrange(ring.p) for _ in range(15)] + [rng.choice((0, ring.p - 1)) for _ in range(15)]
                     for _ in range(nfree * m)]
            digits = np.array(draws, dtype=np.int64).reshape(nfree * m, 30)
            planes = _plucker_block(ring, pattern, digits).tolist()
            for k in range(30):
                free = [tuple(d) if m > 1 else d[0] for d in digits[:, k].reshape(nfree, m).tolist()]
                want = wedge_vectors(ring, _pattern_matrix(pattern, free, ring.zero, ring.one))
                assert [row[k] for row in planes] == [c for v in want for c in (v if m > 1 else (v,))]

    def test_planted_decomposable_found_over_gf9(self):
        rng = random.Random(3)
        D = random_lagrangian(F9, 4, rng, decomposable_free=False)
        res = scan_decomposables(D, budget=1000, max_degree=1)
        assert res["degree"] == 1
        plk = wedge_vectors(F9, res["witness_rows"])
        assert rank(F9, list(D.a_rows) + [plk]) == 10

    def test_budget_reaches_the_degree_two_scan(self):
        # a GF(3) datum with no decomposable vector: degree 1 is exhausted
        # ([6 3]_3 = 33880 subspaces), then the scan over GF(9) runs until
        # the budget is spent
        D = random_lagrangian(PrimeField(3), 4, random.Random("perfbench/exhaustive"))
        res = scan_decomposables(D, budget=33880 + 40, max_degree=2)
        assert res == {"witness_rows": None, "tested": 33920, "exhausted": False}
        res = scan_decomposables(D, budget=10**6, max_degree=1)
        assert res == {"witness_rows": None, "tested": 33880, "exhausted": True}

    def test_scan_rejects_fields_beyond_int64(self):
        # 6 (p-1)^3 < 2^63 <= 6 (p'-1)^3 for these neighbouring primes
        assert _scan(PrimeField(1149991), [[1] * 20], 10, 0) == (None, 10)
        with pytest.raises(ValueError, match="int64"):
            _scan(PrimeField(1200007), [[1] * 20], 10, 0)
        with pytest.raises(TypeError, match="finite field"):
            _scan(QQ, [[QQ.one] * 20], 10, 0)

    def test_field_tower_over_gf9_embeds_a_subfield(self):
        big, embed = _field_tower(F9, 2)
        assert big.p == 3 and big.m == 4
        elements = list(F9.elements())
        images = [embed(x) for x in elements]
        assert len(set(images)) == 9
        for x, ex in zip(elements, images):
            for y, ey in zip(elements, images):
                assert embed(F9.add(x, y)) == big.add(ex, ey)
                assert embed(F9.mul(x, y)) == big.mul(ex, ey)

    def test_gaussian_binomial_counts_echelon_cells(self):
        # sum over pivot patterns of q^(free cells) = the Gaussian binomial
        for q in (2, 3, 5):
            total = sum(q ** _free_count(p) for p in _echelon_patterns())
            gauss = 1
            for i in range(3):
                gauss = gauss * (q ** (6 - i) - 1) // (q ** (i + 1) - 1)
            assert total == gauss

    def test_perp_duality_of_coordinate_functional(self):
        # if the 123 coordinate functional kills A, then e456 lies in A
        rng = random.Random(6)
        om = omega_over(F5)
        pos123 = TRIPLES.index((1, 2, 3))
        pos456 = TRIPLES.index((4, 5, 6))
        start = [
            [F5.one if t == k else F5.zero for t in range(20)]
            for k, trip in enumerate(TRIPLES)
            if 6 in trip
        ]
        for _ in range(20):
            rows = [list(r) for r in start]
            for _ in range(15):
                v = [F5.from_int(rng.randrange(5)) for _ in range(20)]
                v[pos123] = F5.zero  # preserves the vanishing of x123
                omv = mat_vec(F5, om, v)
                c = F5.from_int(rng.randrange(1, 5))
                for i in range(10):
                    factor = F5.mul(c, sum_dot(F5, rows[i], omv))
                    if not F5.is_zero(factor):
                        rows[i] = [F5.add(x, F5.mul(factor, y)) for x, y in zip(rows[i], v)]
            assert all(F5.is_zero(r[pos123]) for r in rows)
            e456 = [F5.one if t == pos456 else F5.zero for t in range(20)]
            assert rank(F5, rows + [e456]) == rank(F5, rows)


class TestLifting:
    @pytest.mark.parametrize("p,k", [(5, 4), (7, 3)])
    def test_lift_contract(self, p, k):
        rng = random.Random(p * k)
        for n in (3, 4, 5):
            D = random_lagrangian(PrimeField(p), n, rng)
            instr = []
            lifted = lift_lagrangian(D, k, instrument=instr)
            assert isinstance(lifted.ring, IntegersModPK)
            assert lifted.ring.modulus == p ** k
            # defect valuations double each step
            for step, val in enumerate(instr):
                assert val >= 2 ** step
            # isotropy and reduction are asserted inside; re-check the rank
            red = [[v % p for v in row] for row in lifted.a_rows]
            assert rank(PrimeField(p), red) == 10

    def test_k1_returns_input(self):
        rng = random.Random(9)
        D = random_lagrangian(F5, 4, rng)
        assert lift_lagrangian(D, 1) is D

    def test_intersection_with_lifted_v5(self):
        rng = random.Random(10)
        D = random_lagrangian(F5, 3, rng)
        lifted = lift_lagrangian(D, 3)
        assert len(intersection_with_wedge3_v5(lifted)) == 2


    def test_isotropy_check_holds_under_python_O(self):
        # doubled Hensel corrections leave the isotropy defect in place
        code = """
import random
import gmlab.gmlag as g
from gmlab.exact import IntegersModPK, PrimeField
solve = g.solve
def doubled(R, A, b, **kw):
    x = solve(R, A, b, **kw)
    return [R.add(v, v) for v in x] if isinstance(R, IntegersModPK) and x is not None else x
g.solve = doubled
g.lift_lagrangian(g.random_lagrangian(PrimeField(5), 4, random.Random(1)), 3)
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmlab.__file__)))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "CompatibilityViolation: isotropy not exact" in proc.stderr, proc.stderr


class TestSerialization:
    @pytest.mark.parametrize("ring", [F5, F9, QQ])
    def test_json_round_trip(self, ring):
        rng = random.Random(8)
        D = random_lagrangian(ring, 4, rng)
        back = lagrangian_from_json(lagrangian_to_json(D))
        assert back.a_rows == D.a_rows and back.v5 == D.v5

    def test_lifted_datum_round_trip(self):
        rng = random.Random(8)
        D = random_lagrangian(F5, 4, rng)
        lifted = lift_lagrangian(D, 3)
        back = lagrangian_from_json(lagrangian_to_json(lifted))
        assert back.a_rows == lifted.a_rows


class TestDecomposability:
    def test_wedge_basis_vectors_are_decomposable(self):
        xi = [F5.zero] * 20
        xi[TRIPLES.index((1, 2, 3))] = F5.one
        assert is_decomposable(F5, xi)

    def test_pencil_dual_is_not(self):
        # dual of e12 + e34 within V5: e345 + e125 (up to sign convention)
        xi = [F5.zero] * 20
        xi[TRIPLES.index((3, 4, 5))] = F5.one
        xi[TRIPLES.index((1, 2, 5))] = F5.one
        assert not is_decomposable(F5, xi)


def _random_gl6(ring, rng):
    while True:
        g = [[_random_element(ring, rng) for _ in range(6)] for _ in range(6)]
        if rank(ring, g) == 6:
            return g


def _wedge_power(ring, g, k):
    """The matrix of wedge^k g against the lexicographic k-tuples: its
    columns are the wedges of the columns of g."""
    cols = [[g[r][c] for r in range(6)] for c in range(6)]
    images = [wedge_vectors(ring, [cols[i - 1] for i in t]) for t in itertools.combinations(range(1, 7), k)]
    return transpose(images)


class TestTransport:
    """The correspondence commutes with GL(V6): transporting a datum by g
    moves V5 to g V5, A to wedge^3 g A and keeps epsilon; the GM datum then
    moves W to wedge^2 g W and q to q'(e_i) = sum_j (g^-1)_{ji} q(e_j).  The
    transported V5 is not a coordinate subspace, so the basis wedge of V5 is
    not a unit vector."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        st.sampled_from([F5, F7, F9, QQ]),
        st.sampled_from([3, 4, 5]),
        st.integers(0, 2**32 - 1),
    )
    def test_lagrangian_to_gm_commutes_with_gl6(self, ring, n, seed):
        rng = random.Random(seed)
        D = random_lagrangian(ring, n, rng)
        g = _random_gl6(ring, rng)
        g2, g3 = _wedge_power(ring, g, 2), _wedge_power(ring, g, 3)
        gD = LagrangianDatum(
            ring, n, mat_mul(ring, g, D.v5), [mat_vec(ring, g3, row) for row in D.a_rows], D.epsilon
        )
        gm, g_gm = lagrangian_to_gm(D), lagrangian_to_gm(gD)
        ident = [[ring.one if i == j else ring.zero for j in range(6)] for i in range(6)]
        g_inv = transpose([solve(ring, g, col) for col in ident])
        q_moved = []
        for i in range(6):
            m = [[ring.zero] * (n + 5) for _ in range(n + 5)]
            for j in range(6):
                c = g_inv[j][i]
                m = [[ring.add(x, ring.mul(c, y)) for x, y in zip(mr, qr)] for mr, qr in zip(m, gm.q[j])]
            q_moved.append(m)
        moved = GMDatum(
            ring, n, gD.v5, [mat_vec(ring, g2, row) for row in gm.w_rows], q_moved, gm.epsilon
        )
        assert canonical_wq(g_gm) == canonical_wq(moved)
        back = gm_to_lagrangian(g_gm)
        assert _row_span_canonical(ring, back.a_rows) == _row_span_canonical(ring, gD.a_rows)

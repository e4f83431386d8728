"""The exhaustive search, its filters, the certificates, and the nilpotent
lifting check (including the genuine p = 5 gap)."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gmlab.exact import PrimeField, ZZ, elementary_divisors
from gmlab.pluecker import QuadricForm, act, action_matrix, diag_gl5
from gmlab import vfsearch
from gmlab.vfsearch import (
    FamilyClass,
    LemmaViolation,
    CertificateFailed,
    PAPER_FAMILIES,
    PINNED_CLASSIFICATION,
    build_E,
    canonical_class,
    certify_family_singular,
    enumerate_hits,
    filter_hits,
    matches_pinned_classification,
    monomials_killed_by,
    nilpotent_kernel_analysis,
    nilpotent_pattern_matrix,
    recheck_certificate_numeric,
    search_cache_payload,
    search_result_from_cache,
    verify_nilpotent_lift,
)


class TestEMatrix:
    def test_row_types(self):
        E = build_E()
        types = Counter(tuple(sorted(r, reverse=True)) for r in E.rows)
        assert types == {(1, 1, 0, 0, 0): 10, (2, 1, 1, 0, 0): 30, (1, 1, 1, 1, 0): 5}

    def test_square_and_mixed_rows(self):
        E = build_E()
        assert E.rows[0] == (1, 1, 0, 0, 0)
        assert E.row_monomials[0] == (((1, 2), (1, 2)),)
        assert E.rows[10] == (2, 1, 1, 0, 0)
        assert E.row_monomials[10] == (((1, 2), (1, 3)),)

    def test_quadruple_rows_carry_three_monomials(self):
        E = build_E()
        for row, monos in zip(E.rows[40:], E.row_monomials[40:]):
            assert sorted(row, reverse=True) == [1, 1, 1, 1, 0]
            assert len(monos) == 3

    def test_matrix_is_45_by_5(self):
        arr = build_E().as_array()
        assert arr.shape == (45, 5)


@pytest.fixture(scope="module")
def full_search():
    return enumerate_hits(p_filter=None, jobs=1)


class TestEnumeration:
    def test_scans_every_subset(self, full_search):
        assert full_search.subsets_scanned == 1221759

    def test_pinned_regression_constants(self, full_search):
        assert full_search.hit_pair_count() == PINNED_CLASSIFICATION["hit_pairs"]
        assert (
            full_search.distinct_class_count()
            == PINNED_CLASSIFICATION["distinct_kernel_classes"]
        )
        assert dict(full_search.prime_multiset) == PINNED_CLASSIFICATION["prime_multiset"]

    def test_rank_lemma_holds_everywhere(self, full_search):
        assert full_search.violations == []
        assert {5, 7} <= set(full_search.prime_multiset)

    def test_family_one_kernel_vector(self, full_search):
        # some hit at p = 5 has kernel class proportional to (2,0,3,4,0)
        target = canonical_class(5, (2, 0, 3, 4, 0))
        assert any(
            g.p == 5 and canonical_class(5, g.a) == target
            for g in full_search.groups.values()
        )

    def test_filters_leave_the_published_classification(self, full_search):
        families = filter_hits(full_search)
        assert matches_pinned_classification(full_search, families) == []
        by_p = Counter(f.p for f in families)
        assert by_p == {5: 4, 7: 1}
        assert all(f.p < 11 for f in families)

    def test_filtered_monomial_counts(self, full_search):
        families = filter_hits(full_search)
        sizes = {(f.p, f.a): len(f.monomials) for f in families}
        assert sizes[(5, canonical_class(5, (2, 0, 3, 4, 0)))] == 11
        assert sizes[(7, canonical_class(7, (0, 1, 4, 1, 6)))] == 8

    def test_every_witness_contains_its_kernel(self, full_search):
        # spot check: witness rows are orthogonal to a modulo p
        E = build_E()
        import random

        rng = random.Random(0)
        groups = list(full_search.groups.values())
        for g in rng.sample(groups, 25):
            for witness in g.witnesses[:2]:
                for row_idx in witness:
                    row = E.rows[row_idx]
                    assert sum(r * v for r, v in zip(row, g.a)) % g.p == 0

    def test_cache_round_trip(self, full_search):
        payload = search_cache_payload(full_search, None)
        back = search_result_from_cache(payload)
        assert back.hit_pair_count() == full_search.hit_pair_count()
        assert back.prime_multiset == full_search.prime_multiset
        assert matches_pinned_classification(back, filter_hits(back)) == []

    def test_parallel_merge_is_identical(self):
        seq = enumerate_hits(p_filter=7, jobs=1)
        par = enumerate_hits(p_filter=7, jobs=2)
        assert seq.prime_multiset == par.prime_multiset
        assert {
            k: g.witnesses for k, g in seq.groups.items()
        } == {k: g.witnesses for k, g in par.groups.items()}


@pytest.fixture(scope="module")
def e_sweep():
    """Laplace tables of E and the determinants of all its 5-subsets."""
    t = vfsearch._laplace_tables(build_E().as_array())
    return t, vfsearch._batch_det5(t.m2, t.m3, t.suffix)


class TestLaplaceKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(-2, 2), min_size=5, max_size=5), min_size=5, max_size=5))
    def test_random_matrices_match_sympy(self, rows):
        X = np.array(rows, dtype=np.int64)
        t = vfsearch._laplace_tables(X)  # five rows: one subset, led by the pair (0, 1)
        M = sympy.Matrix(rows)
        assert vfsearch._batch_det5(t.m2, t.m3, t.suffix).tolist() == [M.det()]
        assert vfsearch._batch_adjugate(X[None])[0].tolist() == M.adjugate().tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, math.comb(45, 5) - 1))
    def test_subsets_of_E_match_sympy(self, e_sweep, pos):
        t, dets = e_sweep
        rows = vfsearch._subsets_at(t, 0, len(t.pairs), np.array([pos]))[0]
        N = build_E().as_array()[rows]
        M = sympy.Matrix(N.tolist())
        assert dets[pos] == M.det()
        assert vfsearch._batch_adjugate(N[None])[0].tolist() == M.adjugate().tolist()

    def test_subsets_cover_C45_5_in_lex_order(self, e_sweep):
        t, dets = e_sweep
        subsets = vfsearch._subsets_at(t, 0, len(t.pairs), np.arange(len(dets)))
        assert len(subsets) == math.comb(45, 5) == vfsearch.SUBSET_COUNT
        assert subsets.min() >= 0 and subsets.max() < 45
        assert np.all(np.diff(subsets, axis=1) > 0)
        codes = subsets @ 45 ** np.arange(4, -1, -1)
        assert np.all(np.diff(codes) > 0)

    @pytest.mark.parametrize(
        "corrupt, call",
        [
            ("v.SUBSET_COUNT += 1", "v.enumerate_hits(p_filter=13)"),
            ("v.DET_BOUND = 40", "v.enumerate_hits(p_filter=13)"),
            ("v.N_ROWS = 44", "v.build_E()"),
        ],
    )
    def test_sweep_checks_hold_under_python_O(self, corrupt, call):
        code = f"import gmlab.vfsearch as v\n{corrupt}\n{call}\n"
        env = dict(os.environ, PYTHONPATH=str(Path(vfsearch.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 1
        assert "RuntimeError" in proc.stderr, proc.stderr


class TestCanonicalization:
    def test_orbit_invariance(self):
        import random

        rng = random.Random(5)
        for _ in range(50):
            p = rng.choice([5, 7, 11])
            a = tuple(rng.randrange(p) for _ in range(5))
            if not any(a):
                continue
            canon = canonical_class(p, a)
            perm = list(range(5))
            rng.shuffle(perm)
            c = rng.randrange(1, p)
            b = tuple((c * a[perm[i]]) % p for i in range(5))
            assert canonical_class(p, b) == canon

    def test_diag_action_kills_class_monomials(self):
        # cross-module check: diag(-a) annihilates every monomial of M_A
        for fam in PAPER_FAMILIES:
            p, a = fam["p"], fam["a"]
            F = PrimeField(p)
            A = diag_gl5(F, [F.neg(F.from_int(v)) for v in a])
            for m in monomials_killed_by(p, a):
                q = QuadricForm(F, {m: F.one})
                assert act(A, q).is_zero(), (fam["id"], m)

    def test_published_matrices_match_search_classes(self):
        expected = {
            (5, canonical_class(5, (2, 0, 3, 4, 0))),
            (5, canonical_class(5, (1, 3, 3, 4, 4))),
            (5, canonical_class(5, (2, 3, 0, 4, 4))),
            (5, canonical_class(5, (2, 3, 0, 2, 4))),
            (7, canonical_class(7, (0, 1, 4, 1, 6))),
        }
        pinned = {
            (p, tuple(a))
            for p, alist in PINNED_CLASSIFICATION["families"].items()
            for a in alist
        }
        assert expected == pinned


def _class_for(fam):
    canon = canonical_class(fam["p"], fam["a"])
    return FamilyClass(
        p=fam["p"],
        a=canon,
        monomials=monomials_killed_by(fam["p"], canon),
        witness_count=0,
        representatives=(canon,),
    )


class TestCertificates:
    @pytest.mark.parametrize("fam", PAPER_FAMILIES, ids=lambda f: f"family{f['id']}")
    def test_symbolic_certificate(self, fam):
        cert = certify_family_singular(_class_for(fam))
        assert cert.zero_minor_count == 3150  # all 4x4 minors of the 6x10 Jacobian
        assert cert.nonzero_minor is not None
        assert cert.p == fam["p"]
        assert cert.uses_quadratic_extension == ("quadratic" in fam)

    @pytest.mark.parametrize("fam", PAPER_FAMILIES, ids=lambda f: f"family{f['id']}")
    def test_numeric_recheck(self, fam):
        assert recheck_certificate_numeric(_class_for(fam), samples=100, seed=2024)

    def test_published_monomial_lists_equal_m_a(self):
        for fam in PAPER_FAMILIES:
            assert monomials_killed_by(fam["p"], fam["a"]) == frozenset(fam["monomials"])

    def test_family_one_point_label(self):
        cert = certify_family_singular(_class_for(PAPER_FAMILIES[0]))
        assert cert.point_label == "(0:0:0:0:0:t5:0:0:0:-t1)"
        assert cert.nonzero_coordinate == "x24"

    def test_unknown_class_rejected(self):
        bogus = FamilyClass(
            p=5, a=(0, 1, 2, 3, 4), monomials=frozenset(), witness_count=0, representatives=()
        )
        with pytest.raises(CertificateFailed):
            certify_family_singular(bogus)

    def test_wrong_point_fails(self, monkeypatch):
        fam = dict(PAPER_FAMILIES[0])
        fam["point"] = {(2, 4): 5, (4, 5): 1}  # drop the sign: Q no longer vanishes
        monkeypatch.setattr(vfsearch, "PAPER_FAMILIES", (fam,))
        with pytest.raises(CertificateFailed):
            certify_family_singular(_class_for(fam))


class TestNilpotent:
    def test_all_sixteen_at_7_and_11(self):
        for p in (7, 11):
            rep = verify_nilpotent_lift(p)
            assert rep["all_equal"]
            assert len(rep["patterns"]) == 16
            assert rep["patterns"]["0000"]["kernel_QQ"] == 55

    def test_full_jordan_block_jumps_at_5(self):
        with pytest.raises(LemmaViolation):
            verify_nilpotent_lift(5)

    def test_snf_oracle_on_the_jumping_pattern(self):
        A = nilpotent_pattern_matrix((1, 1, 1, 1))
        M = action_matrix(ZZ, A)
        divs = Counter(elementary_divisors(M))
        assert divs == {1: 42, 2: 2, 10: 2}

    def test_fifteen_of_sixteen_at_5(self):
        analysis = nilpotent_kernel_analysis(5)
        jumping = {
            bits: v
            for bits, v in analysis["patterns"].items()
            if v["kernel_QQ"] != v["kernel_Fp"]
        }
        assert set(jumping) == {"1111"}
        entry = jumping["1111"]
        assert entry["kernel_QQ"] == 9 and entry["kernel_Fp"] == 11
        assert len(entry["extra"]) == 2
        # the two extra mod-5 solutions, echelonized and frozen
        assert entry["extra"][0] == {
            "12.25": 1, "12.34": 4, "13.15": 3, "13.24": 1,
            "14.14": 1, "14.23": 2, "23.23": 1,
        }
        assert entry["extra"][1] == {
            "13.45": 1, "14.35": 4, "15.25": 3, "15.34": 3,
            "23.35": 4, "24.25": 2,
        }

    def test_extra_solutions_really_solve(self):
        analysis = nilpotent_kernel_analysis(5)
        F = PrimeField(5)
        A = nilpotent_pattern_matrix((1, 1, 1, 1))
        AF = [[F.from_int(v) for v in row] for row in A]
        for terms in analysis["patterns"]["1111"]["extra"]:
            q = QuadricForm(F, {})
            for key, c in terms.items():
                a, b = key.split(".")
                m = ((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))
                q.add_term(m, F.from_int(c))
            assert act(AF, q).is_zero()

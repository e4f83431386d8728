"""The benchmark's checks accept gmlab's genuine outputs and reject
deliberately corrupted ones.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import copy
import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from gmlab import gmlag, lattice, vfsearch  # noqa: E402
from gmlab.exact import QQ, GFExt, PrimeField  # noqa: E402

F5 = PrimeField(5)


@pytest.fixture(scope="module")
def search(tmp_path_factory):
    """One cold search through the CLI: printed JSON, cache text, determinants."""
    path = tmp_path_factory.mktemp("cache") / "vfsearch.json"
    rc, text = workloads.run_cli(["vf", "search", "--jobs", "1", "--cache", str(path)])
    assert rc == 0
    dets = oracles.SubsetDeterminants(vfsearch.build_E().rows)
    return json.loads(text), path.read_text(), dets


def _groups(cache_text):
    res = vfsearch.search_result_from_cache(json.loads(cache_text))
    return [(g.p, g.a, list(g.witnesses)) for g in res.groups.values()], res.rank_checks


# -- acceptance -----------------------------------------------------------


def test_weight_rows_match_definition():
    assert oracles.check_weight_rows(vfsearch.build_E().rows) == []
    rows = list(vfsearch.build_E().rows)
    rows[44] = (1, 1, 1, 1, 1)
    assert oracles.check_weight_rows(rows)


def test_search_output_accepted(search):
    out, cache_text, dets = search
    assert dets.count == 1221759
    assert oracles.check_search_output(out, dets) == []
    assert oracles.check_hits(*_groups(cache_text), dets) == []


def test_wrong_prime_count_rejected(search):
    out, _, dets = search
    bad = copy.deepcopy(out)
    bad["prime_multiset"]["7"] += 1
    assert any("prime multiset" in p for p in oracles.check_search_output(bad, dets))


def test_dropped_hit_rejected(search):
    _, cache_text, dets = search
    groups, rank_checks = _groups(cache_text)
    p, a, witnesses = groups[0]
    groups[0] = (p, a, witnesses[1:])
    assert oracles.check_hits(groups, rank_checks, dets)


def test_altered_cache_entry_rejected(search):
    _, cache_text, dets = search
    payload = json.loads(cache_text)
    w = payload["groups"][3]["witnesses"][0]
    w[4] = next(x for x in range(w[3] + 1, 45) if x != w[4])
    groups, rank_checks = _groups(json.dumps(payload))
    assert oracles.check_hits(groups, rank_checks, dets)


def test_criterion_8_gap_and_lattice():
    jumps = oracles.nilpotent_kernel_jumps()
    payload = {5: {"1111": {"kernel_QQ": 9, "kernel_Fp": 11}}}
    assert oracles.check_criterion_8(False, payload, jumps) == []
    assert oracles.check_criterion_8(True, {}, jumps)
    assert oracles.check_criterion_8(False, {5: {"1111": {"kernel_QQ": 9, "kernel_Fp": 10}}}, jumps)
    gram = lattice.gm_sixfold_vanishing_lattice().gram
    report = {"signature_primitive": [2, 20], "discriminant_invariants": [2, 2]}
    assert oracles.check_lattice(gram, report) == []
    assert oracles.check_lattice(gram, dict(report, signature_primitive=[3, 19]))
    assert oracles.check_lattice(gram, dict(report, discriminant_invariants=[2]))


# -- roundtrip ------------------------------------------------------------


@pytest.mark.parametrize("ring", [F5, GFExt(3, 2), QQ], ids=repr)
def test_sign_flip_in_A_rejected(ring):
    ok, (D, gm, D2, gm2) = workloads._roundtrip_trial(ring, 4, random.Random(7))
    assert ok
    assert oracles.check_roundtrip(D, gm, D2, gm2) == []
    rows = [list(r) for r in D.a_rows]
    j = next(j for j, v in enumerate(rows[0]) if not ring.is_zero(v) and j > 0)
    rows[0][j] = ring.neg(rows[0][j])
    bad = dataclasses.replace(D, a_rows=rows)
    assert oracles.check_roundtrip(bad, gm, D2, gm2)


# -- lift-scan ------------------------------------------------------------


def test_lift_off_by_p_to_k_minus_1_rejected():
    D = gmlag.random_lagrangian(F5, 3, random.Random(3))
    k = 4
    lifted = gmlag.lift_lagrangian(D, k)
    assert oracles.check_lift(D, lifted, 5, k) == []
    rows = [list(r) for r in lifted.a_rows]
    rows[2][7] = (rows[2][7] + 5 ** (k - 1)) % 5 ** k
    assert oracles.check_lift(D, dataclasses.replace(lifted, a_rows=rows), 5, k)


def test_scan_and_opposite_checks():
    D = gmlag.random_lagrangian(F5, 4, random.Random(11))
    res = gmlag.scan_decomposables(D, budget=5000, max_degree=1)
    assert oracles.check_scan(D, res, 5000, "budget") == []
    assert oracles.check_scan(D, dict(res, tested=4999), 5000, "budget")
    assert oracles.check_scan(D, res, 5000, "witness")
    opp = gmlag.find_opposite_V5(D)
    assert oracles.check_opposite(D, opp) == []
    own = gmlag._primitive_annihilator(F5, D.v5)  # A meets wedge^3 V5 for n < 5
    assert oracles.check_opposite(D, {"degree": 1, "u": own})
    Dw = gmlag.random_lagrangian(F5, 3, random.Random(5), decomposable_free=False)
    hit = gmlag.scan_decomposables(Dw, budget=5000, max_degree=1)
    assert oracles.check_scan(Dw, hit, 5000, "witness") == []
    fake = [[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0]]
    assert oracles.check_scan(Dw, dict(hit, witness_rows=fake), 5000, "witness")


def test_gaussian_binomial():
    assert oracles.gaussian_binomial(6, 3, 5) == 2558556

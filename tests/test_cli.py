"""Command-line surface: subcommands, exit codes, determinism, caching."""

import json
import subprocess
import sys

import pytest

from gmlab import vfsearch
from gmlab.cli import main


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "gmlab.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=240)


class TestExitCodes:
    def test_lattice_verify_passes(self):
        r = run_cli("lattice", "verify")
        assert r.returncode == 0
        assert json.loads(r.stdout)["verdict"] == "PASS"

    def test_ck_verify_passes(self):
        for variety in ("gm4", "gm6"):
            r = run_cli("ck", "verify", "--variety", variety)
            assert r.returncode == 0

    def test_usage_error_is_2(self):
        assert main(["bott", "table", "--bundle", "omega9", "--p", "5"]) == 2

    def test_nilpotent_gap_exits_1_at_5(self):
        r = run_cli("vf", "nilpotent", "--p", "5")
        assert r.returncode == 1
        payload = json.loads(r.stdout)
        assert payload["verdict"] == "FAIL"
        assert "1111" in json.dumps(payload["analysis"])

    def test_nilpotent_passes_at_7(self):
        r = run_cli("vf", "nilpotent", "--p", "7")
        assert r.returncode == 0


class TestBottCommands:
    def test_table_markdown_has_12_rows(self):
        r = run_cli("bott", "table", "--bundle", "omega2", "--twist", "-3", "--p", "5",
                    "--emit", "markdown")
        assert r.returncode == 0
        assert len(r.stdout.strip().splitlines()) == 14  # header + rule + 12

    def test_cohomology_json(self):
        r = run_cli("bott", "cohomology", "--bundle", "omega2", "--twist", "-3", "--p", "5")
        payload = json.loads(r.stdout)
        nonzero = [e for e in payload["entries"] if e["dim"]]
        assert nonzero == [{"degree": 5, "status": "exact", "dim": 5}]


class TestHodgeCommands:
    def test_diamond_x(self):
        r = run_cli("hodge", "diamond", "--variety", "X", "--p", "5")
        payload = json.loads(r.stdout)
        assert payload["h"][3][3] == 22
        assert payload["euler"] == 32

    def test_tangent(self):
        r = run_cli("hodge", "tangent", "--p", "5")
        assert r.returncode == 0
        assert json.loads(r.stdout)["report"]["h1(X,T_X)"] == 25


class TestGmCommands:
    def test_random_roundtrip_lift_scan(self, tmp_path):
        data = tmp_path / "datum.json"
        r = run_cli("gm", "random", "--ring", "F5", "--n", "4", "--seed", "7",
                    "--out", str(data))
        assert r.returncode == 0
        r = run_cli("gm", "roundtrip", "--data", str(data))
        assert r.returncode == 0 and json.loads(r.stdout)["verdict"] == "PASS"
        out = tmp_path / "lifted.json"
        r = run_cli("gm", "lift", "--data", str(data), "--k", "3", "--out", str(out))
        assert r.returncode == 0
        lifted = json.loads(out.read_text())
        assert lifted["ring"] == {"kind": "mod-prime-power", "p": 5, "k": 3}
        r = run_cli("gm", "convert", "--data", str(data))
        assert r.returncode == 0 and len(json.loads(r.stdout)["W"]) == 9
        r = run_cli("gm", "scan", "--data", str(data), "--budget", "5000")
        assert r.returncode == 0
        r = run_cli("gm", "find-v5p", "--data", str(data), "--max-degree", "1")
        assert r.returncode == 0

    def test_seeded_output_is_byte_identical(self):
        a = run_cli("gm", "random", "--ring", "F5", "--n", "3", "--seed", "11")
        b = run_cli("gm", "random", "--ring", "F5", "--n", "3", "--seed", "11")
        assert a.stdout == b.stdout


class TestSearchCommand:
    def test_filtered_search_and_cache(self, tmp_path):
        cache = tmp_path / "hits.json"
        r = run_cli("vf", "search", "--p", "7", "--cache", str(cache))
        assert r.returncode == 0, r.stdout
        payload = json.loads(r.stdout)
        assert payload["verdict"] == "PASS"
        assert [f["p"] for f in payload["families"]] == [7]
        assert cache.exists()
        # second run reads the cache and agrees byte for byte
        r2 = run_cli("vf", "search", "--p", "7", "--cache", str(cache))
        assert r2.returncode == 0
        assert r2.stdout == r.stdout

    def test_cache_for_another_prime_filter_is_recomputed(self, tmp_path, capsys):
        cache = tmp_path / "hits.json"
        assert main(["vf", "search", "--p", "7", "--cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["vf", "search", "--p", "5", "--cache", str(cache)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PASS"
        assert payload["prime_multiset"] == {"5": 22410}
        assert json.loads(cache.read_text())["p_filter"] == 5

    def test_range_cache_is_reused(self, tmp_path, capsys, monkeypatch):
        # a range is stored as a JSON list but parsed as a tuple
        cache = tmp_path / "hits.json"
        assert main(["vf", "search", "--p", "11..13", "--cache", str(cache)]) == 0
        first = capsys.readouterr().out

        def no_sweep(**kwargs):
            raise AssertionError("the cache should have been read")

        monkeypatch.setattr(vfsearch, "enumerate_hits", no_sweep)
        assert main(["vf", "search", "--p", "11..13", "--cache", str(cache)]) == 0
        assert capsys.readouterr().out == first

    def test_cached_violations_are_reported(self, tmp_path, capsys):
        cache = tmp_path / "hits.json"
        assert main(["vf", "search", "--p", "13", "--cache", str(cache)]) == 0
        payload = json.loads(cache.read_text())
        assert payload["violations"] == []
        # record one witness as a violation instead; the counts still agree
        group = payload["groups"][0]
        payload["violations"] = [{"N": group["witnesses"].pop(), "p": group["p"]}]
        cache.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["vf", "search", "--p", "13", "--cache", str(cache)]) == 1
        assert json.loads(capsys.readouterr().out)["problems"] == ["1 rank-lemma violations"]

    @pytest.mark.parametrize(
        "field, value",
        [("violations", None), ("schema", "gmlab/0"), ("subsets_scanned", 5), ("rank_checks", 119)],
    )
    def test_invalid_cache_is_recomputed(self, tmp_path, capsys, field, value):
        cache = tmp_path / "hits.json"
        assert main(["vf", "search", "--p", "13", "--cache", str(cache)]) == 0
        good = cache.read_text()
        payload = json.loads(good)
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        cache.write_text(json.dumps(payload))
        assert main(["vf", "search", "--p", "13", "--cache", str(cache)]) == 0
        assert cache.read_text() == good
        assert list(tmp_path.iterdir()) == [cache]

    def test_composite_prime_filter_is_a_usage_error(self):
        assert main(["vf", "search", "--p", "9"]) == 2

    @pytest.mark.parametrize("raw", ["abc", "5..", "7..x", "..11", "5..7..11", "-5"])
    def test_malformed_prime_filter_is_a_usage_error(self, raw, capsys):
        assert main(["vf", "search", "--p", raw]) == 2
        err = capsys.readouterr().err
        assert "expected a prime p or a range lo..hi" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw", ["2", "3"])
    def test_prime_below_5_is_a_usage_error(self, raw, capsys):
        assert main(["vf", "search", "--p", raw]) == 2
        assert "below 5" in capsys.readouterr().err

    def test_prime_below_5_is_rejected_by_the_search(self):
        with pytest.raises(ValueError, match="below 5"):
            vfsearch._parse_prime_filter(3)

    def test_search_range_11_to_200_is_empty(self):
        r = run_cli("vf", "search", "--p", "11..200")
        assert r.returncode == 0, r.stdout
        payload = json.loads(r.stdout)
        assert payload["families"] == []
        assert payload["verdict"] == "PASS"

    def test_certify_single_family(self):
        r = run_cli("vf", "certify", "--family", "1", "--samples", "20")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["certificates"][0]["checks"]["vanishing_4x4_minors"] == 3150


class TestConfigFile:
    """`--config` values reach the flags of the chosen subcommand, and a flag
    given on the command line still wins."""

    @pytest.fixture
    def gf9_datum(self, tmp_path, capsys):
        data = tmp_path / "datum.json"
        assert main(["gm", "random", "--ring", "F9", "--n", "4", "--seed", "3", "--out", str(data)]) == 0
        capsys.readouterr()
        return str(data)

    @pytest.mark.parametrize("flags, tested", [([], 7), (["--budget", "11"], 11)])
    def test_scan_budget_from_config(self, tmp_path, capsys, gf9_datum, flags, tested):
        config = tmp_path / "g.toml"
        config.write_text("budget = 7\n")
        assert main(["--config", str(config), "gm", "scan", "--data", gf9_datum, *flags]) == 0
        assert json.loads(capsys.readouterr().out) == {"witness_rows": None, "tested": tested, "exhausted": False}

    @pytest.mark.parametrize("flags, samples", [([], 3), (["--samples", "4"], 4), (["--samples", "100"], 100)])
    def test_certify_samples_and_seed_from_config(self, tmp_path, capsys, monkeypatch, flags, samples):
        config = tmp_path / "g.toml"
        config.write_text("samples = 3\nseed = 5\n")
        calls = []
        monkeypatch.setattr(
            vfsearch, "recheck_certificate_numeric", lambda cls, samples, seed: calls.append((samples, seed)) or True
        )
        assert main(["--config", str(config), "vf", "certify", "--family", "1", *flags]) == 0
        assert calls == [(samples, 5)]

import json
import math
from pathlib import Path

import numpy as np
import pytest

from permqmc.cli import EXIT_CONFIG, EXIT_OK, main
from permqmc.lattice import load_cubature, load_lattice


@pytest.fixture
def cfg_path(tmp_path) -> Path:
    cfg = {
        "space": {"alpha": 1.0, "beta0": 1.0, "beta1": 1.0,
                  "generator": {"kind": "korobov_linear"}, "c_R": 1.0},
        "structure": {"d": 2, "invariant": [1, 2]},
        "params": {"n": 13, "trials": 16, "seed": 3},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


class TestCbcCommand:
    def test_writes_rule_and_json(self, cfg_path, tmp_path):
        rule = tmp_path / "rule.txt"
        out = tmp_path / "out.json"
        code = main(["cbc", "--config", str(cfg_path), "--out", str(rule), "--json", str(out)])
        assert code == EXIT_OK
        lat = load_lattice(rule)
        assert lat.n == 13 and lat.z[0] == 1 and lat.shift is not None
        payload = json.loads(out.read_text())
        assert payload["achieved_E2"] < payload["certified_bound"]

    def test_deterministic_outputs(self, cfg_path, tmp_path):
        outs = []
        for tag in ("a", "b"):
            rule = tmp_path / f"rule_{tag}.txt"
            out = tmp_path / f"out_{tag}.json"
            assert main(["cbc", "--config", str(cfg_path), "--out", str(rule),
                         "--json", str(out)]) == EXIT_OK
            outs.append((rule.read_bytes(), out.read_bytes()))
        assert outs[0] == outs[1]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["cbc", "--config", str(bad), "--n", "13"]) == EXIT_CONFIG

    def test_missing_n(self, cfg_path, tmp_path):
        cfg = json.loads(cfg_path.read_text())
        del cfg["params"]["n"]
        p = tmp_path / "c2.json"
        p.write_text(json.dumps(cfg))
        assert main(["cbc", "--config", str(p)]) == EXIT_CONFIG


class TestPipelines:
    def test_shift_search_and_error_eval(self, cfg_path, tmp_path):
        rule = tmp_path / "rule.txt"
        main(["cbc", "--config", str(cfg_path), "--out", str(rule),
              "--json", str(tmp_path / "o.json")])
        shifted = tmp_path / "shifted.txt"
        sj = tmp_path / "s.json"
        code = main(["shift-search", "--config", str(cfg_path), "--rule", str(rule),
                     "--trials", "32", "--out", str(shifted), "--json", str(sj)])
        assert code == EXIT_OK
        payload = json.loads(sj.read_text())
        assert payload["certified"]
        assert payload["e2_shifted"] <= payload["E2"] + payload["E2_certificate"] + payload["e2_certificate"]

        ej = tmp_path / "e.json"
        code = main(["error-eval", "--config", str(cfg_path), "--rule", str(shifted),
                     "--method", "both", "--json", str(ej)])
        assert code == EXIT_OK
        rep = json.loads(ej.read_text())
        assert abs(rep["mean_shifted"]["value"] - rep["mean_shifted_spectral"]["value"]) <= (
            rep["mean_shifted"]["certificate"] + rep["mean_shifted_spectral"]["certificate"]
        )

    def test_approx_build_and_integrate(self, cfg_path, tmp_path):
        qw = tmp_path / "rule.qw"
        aj = tmp_path / "a.json"
        code = main(["approx-build", "--config", str(cfg_path), "--N", "32",
                     "--tau", "1.5", "--seed", "2", "--out", str(qw), "--json", str(aj)])
        assert code == EXIT_OK
        cub = load_cubature(qw)
        assert cub.n <= 32
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"family": "symmetrized_cosine",
                                    "coefficients": {"0": 1.0, "3": 0.4}}))
        ij = tmp_path / "i.json"
        code = main(["integrate", "--config", str(cfg_path), "--rule", str(qw),
                     "--integrand", str(spec), "--json", str(ij)])
        assert code == EXIT_OK
        rep = json.loads(ij.read_text())
        assert rep["abs_error"] <= rep["apriori_bound"] * (1 + 1e-9)
        assert "warning" not in rep

    def test_integrate_dimension_mismatch(self, cfg_path, tmp_path):
        rule = tmp_path / "r3.txt"
        rule.write_text("5 3\n1 2 3\n")
        assert main(["integrate", "--config", str(cfg_path), "--rule", str(rule)]) == EXIT_CONFIG

    def test_two_point_shifted_lattice_file(self, cfg_path, tmp_path):
        # three lines = n + 1 lines: must still load as a lattice
        rule = tmp_path / "two.txt"
        rule.write_text("2 2\n1 1\n0.3 0.7\n")
        outs = []
        for tag in ("a", "b"):
            ej = tmp_path / f"e_{tag}.json"
            assert main(["error-eval", "--config", str(cfg_path), "--rule", str(rule),
                         "--json", str(ej)]) == EXIT_OK
            outs.append(ej.read_bytes())
        assert outs[0] == outs[1]
        rep = json.loads(outs[0])
        assert rep["worst_case"]["route"] == "lattice"
        assert rep["worst_case"]["pairs"] == 4
        assert "mean_shifted" in rep
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"family": "symmetrized_cosine",
                                 "coefficients": {"0": 1.0, "1": 0.4}}))
        ij = tmp_path / "i.json"
        assert main(["integrate", "--config", str(cfg_path), "--rule", str(rule),
                     "--integrand", str(f), "--json", str(ij)]) == EXIT_OK
        out = json.loads(ij.read_text())
        assert out["e_wor"] ** 2 == pytest.approx(rep["worst_case"]["value"], rel=1e-12)
        assert out["abs_error"] <= out["apriori_bound"] * (1 + 1e-9)

    def test_rule_file_with_wrong_column_count(self, cfg_path, tmp_path):
        rule = tmp_path / "bad.txt"
        rule.write_text("5 2\n1 2 3 4\n")
        for cmd in ("error-eval", "integrate"):
            assert main([cmd, "--config", str(cfg_path), "--rule", str(rule)]) == EXIT_CONFIG

    def test_convergence_study(self, cfg_path, tmp_path):
        csv = tmp_path / "conv.csv"
        cj = tmp_path / "conv.json"
        code = main(["convergence", "--config", str(cfg_path), "--n-list", "17,31,61",
                     "--trials", "8", "--csv", str(csv), "--json", str(cj), "--threads", "2"])
        assert code == EXIT_OK
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "n,E2,e2,bound,ratio,flagged"
        assert len(rows) == 4
        payload = json.loads(cj.read_text())
        assert payload["slope"] < -1.3
        for r in payload["rows"]:
            assert r["bound"] >= r["E2"]

    def test_convergence_empty_list(self, cfg_path, tmp_path):
        cj = tmp_path / "c.json"
        code = main(["convergence", "--config", str(cfg_path), "--n-list", "",
                     "--json", str(cj)])
        assert code == EXIT_OK
        assert json.loads(cj.read_text())["rows"] == []

    def test_convergence_row_failure_is_soft(self, cfg_path, tmp_path):
        # a non-prime entry fails its row; the study continues and exits 3
        from permqmc.cli import EXIT_FLAGGED

        cj = tmp_path / "c.json"
        csv = tmp_path / "c.csv"
        code = main(["convergence", "--config", str(cfg_path), "--n-list", "17,21",
                     "--trials", "8", "--csv", str(csv), "--json", str(cj)])
        assert code == EXIT_FLAGGED
        payload = json.loads(cj.read_text())
        assert "error" in payload["rows"][1]
        assert payload["rows"][0]["E2"] > 0
        assert len(csv.read_text().strip().splitlines()) == 3

    def test_convergence_determinism_across_threads(self, cfg_path, tmp_path):
        outs = []
        for threads in ("1", "3"):
            csv = tmp_path / f"conv{threads}.csv"
            main(["convergence", "--config", str(cfg_path), "--n-list", "17,31",
                  "--trials", "8", "--csv", str(csv), "--json", str(tmp_path / f"j{threads}.json"),
                  "--threads", threads])
            outs.append(csv.read_bytes())
        assert outs[0] == outs[1]

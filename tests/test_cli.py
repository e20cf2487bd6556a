import argparse
import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import permqmc.cbc
import permqmc.cli
from permqmc import KernelSpec, PermStructure, SpectralWeight, shift_search
from permqmc.cli import EXIT_CONFIG, EXIT_FLAGGED, EXIT_OK, main
from permqmc.lattice import LatticeRule, load_cubature, load_lattice


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
        payload = json.loads(outs[0][1])
        assert len(payload["per_step_certificate"]) == len(payload["z"])
        assert all(c > 0 for c in payload["per_step_certificate"])

    def test_json_keeps_the_shift_search(self, cfg_path, tmp_path):
        # the search's certificate and trial count reach the JSON; without a
        # search both are null
        out = tmp_path / "out.json"
        assert main(["cbc", "--config", str(cfg_path), "--json", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        spec = KernelSpec(SpectralWeight(), PermStructure.full(2))
        sh = shift_search(LatticeRule(13, tuple(payload["z"])), spec, trials=16, seed=3)
        assert payload["achieved_e2_shifted"] == sh.e2_shifted
        assert payload["achieved_e2_shifted_certificate"] == sh.e2_certificate > 0
        assert payload["shift_trials_used"] == sh.trials_used >= 16
        assert main(["cbc", "--config", str(cfg_path), "--trials", "0",
                     "--json", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["achieved_e2_shifted_certificate"] is None
        assert payload["shift_trials_used"] is None

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["cbc", "--config", str(bad), "--n", "13"]) == EXIT_CONFIG

    @pytest.mark.parametrize("cfg, message", [
        ([1, 2], "config {path} must be a JSON object, got list"),
        ({"space": [1]}, "block 'space' of {path} must be a JSON object, got list"),
        ({"structure": [3]}, "block 'structure' of {path} must be a JSON object, got list"),
        ({"params": [3]}, "block 'params' of {path} must be a JSON object, got list"),
        ({"space": {"generator": [1]}},
         "block 'generator' must be a JSON object or a kind name, got list"),
        ({"integrand": [1]}, "block 'integrand' of {path} must be a JSON object, got list"),
    ])
    def test_config_block_that_is_not_an_object(self, tmp_path, capsys, cfg, message):
        # every subcommand that reads a config exits 2 with one line naming the block
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rule = tmp_path / "rule.txt"
        rule.write_text("13 2\n1 5\n")
        for argv in (["cbc", "--n", "13"], ["shift-search", "--rule", str(rule)], ["error-eval"],
                     ["approx-build", "--N", "16"], ["convergence", "--n-list", "13"],
                     ["integrate", "--rule", str(rule)]):
            assert main(argv + ["--d", "2", "--config", str(path)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("cfg, message", [
        ({"space": {"alpah": 2}},
         "unknown key 'alpah' in block 'space' of {path}; the nearest known key is 'alpha'"),
        ({"structure": {"d": 3, "invariantt": [1, 2]}},
         "unknown key 'invariantt' in block 'structure' of {path}; "
         "the nearest known key is 'invariant'"),
        ({"params": {"trails": 4}},
         "unknown key 'trails' in block 'params' of {path}; the nearest known key is 'trials'"),
        ({"spaces": {"alpha": 2}},
         "unknown key 'spaces' in config {path}; the nearest known key is 'space'"),
        ({"space": {"generator": {"knd": "plain_linear"}}},
         "unknown key 'knd' in block 'generator' of {path}; the nearest known key is 'kind'"),
        ({"integrand": {"n_mode": 4}},
         "unknown key 'n_mode' in block 'integrand' of {path}; "
         "the nearest known key is 'n_modes'"),
        ({"structure": {"d": 3.7}},
         "'d' in block 'structure' of {path} must be an integer, got 3.7"),
        ({"structure": {"d": True}},
         "'d' in block 'structure' of {path} must be an integer, got true"),
        ({"params": {"n": 61.9}}, "'n' in block 'params' of {path} must be an integer, got 61.9"),
        ({"params": {"seed": 1.5}},
         "'seed' in block 'params' of {path} must be an integer, got 1.5"),
        ({"space": {"alpha": True}},
         "'alpha' in block 'space' of {path} must be a number, got true"),
        ({"params": {"tol": False}},
         "'tol' in block 'params' of {path} must be a number, got false"),
        ({"structure": {"invariant": [1, 2.5]}},
         "'invariant' in block 'structure' of {path} must be a string or a list of integers, "
         "got [1, 2.5]"),
        ({"structure": {"invariant": "full "}},
         "invariant 'full ' is not 'full', 'none' or a comma-separated list of coordinates"),
        ({"integrand": {"coefficients": {"3": "0.5"}}},
         "coefficient '3' of the integrand must be a number, got \"0.5\""),
        ({"params": {"method": "spectal"}},
         "'method' in block 'params' of {path} must be one of 'fixed_point', 'spectral', "
         "'both', got \"spectal\""),
        ({"params": {"mode": "minimise"}},
         "'mode' in block 'params' of {path} must be one of 'minimize', "
         "'better_than_average', got \"minimise\""),
    ])
    def test_config_that_could_be_misread(self, tmp_path, capsys, cfg, message):
        # a misspelled key or a lossy value exits 2 with one line naming it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["cbc", "--n", "13", "--d", "2", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"

    def test_one_config_for_every_subcommand(self, tmp_path):
        # every key that some subcommand reads is allowed in every config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "space": {"alpha": 1, "beta0": 1.0, "beta1": 1.0, "c_R": 1.0,
                      "generator": {"kind": "korobov_linear", "table": [], "slope": 0}},
            "structure": {"d": 2, "invariant": "1,2"},
            "params": {"n": 13, "N": 16, "trials": 4, "seed": 1, "budget": 4, "tol": 1e-10,
                       "lam": 1.0, "tau": 1.5, "delta": 0.5, "mode": "minimize",
                       "method": "fixed_point", "n_list": [13, 17]},
            "integrand": {"family": "spectral_sample", "n_modes": 4, "norm": 1.0, "seed": 2,
                          "constant": 0.0, "coefficients": {"0": 1}},
        }))
        rule = tmp_path / "rule.txt"
        assert main(["cbc", "--config", str(cfg), "--out", str(rule),
                     "--json", str(tmp_path / "c.json")]) in (EXIT_OK, EXIT_FLAGGED)
        for argv in (["shift-search", "--rule", str(rule)], ["error-eval", "--rule", str(rule)],
                     ["approx-build"], ["convergence"], ["integrate", "--rule", str(rule)]):
            assert main(argv + ["--config", str(cfg), "--json", str(tmp_path / "o.json")]) in (
                EXIT_OK, EXIT_FLAGGED), argv

    @pytest.mark.parametrize("integrand, message", [
        ([1], "config {path} must be a JSON object, got list"),
        ({"coefficients": [1, 2]},
         "block 'coefficients' of the integrand must be a JSON object, got list"),
        ({"family": "symmetrized_cosine", "coefficients": [1, 2]},
         "block 'coefficients' of the integrand must be a JSON object, got list"),
    ])
    def test_integrand_that_is_not_an_object(self, tmp_path, capsys, integrand, message):
        # from an --integrand file, and from the config's integrand block
        path = tmp_path / "f.json"
        path.write_text(json.dumps(integrand))
        rule = tmp_path / "rule.txt"
        rule.write_text("13 2\n1 5\n")
        assert main(["integrate", "--d", "2", "--rule", str(rule),
                     "--integrand", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"
        if isinstance(integrand, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"integrand": integrand}))
            assert main(["integrate", "--d", "2", "--rule", str(rule),
                         "--config", str(cfg)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["error-eval", "--d", "0"], "dimension d missing or invalid"),
        (["cbc", "--tol", "0"], "tol must be finite and > 0"),
        (["cbc", "--tol", "-1"], "tol must be finite and > 0"),
        (["cbc", "--tol", "nan"], "tol must be finite and > 0"),
        (["cbc", "--tol", "inf"], "tol must be finite and > 0"),
    ])
    def test_bad_flag_exit_code(self, cfg_path, capsys, argv, message):
        # a flag that is given overrides the config, even when it is 0
        assert main(argv + ["--config", str(cfg_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_nonprime_n_exit_code(self, cfg_path, capsys):
        assert main(["cbc", "--config", str(cfg_path), "--n", "9"]) == EXIT_CONFIG
        assert "not prime" in capsys.readouterr().err

    def test_unreachable_series_tolerance_exit_code(self, tmp_path, capsys):
        # alpha = 1.5 has no closed form: the series cannot certify 1e-20
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"alpha": 1.5}, "structure": {"d": 3}}))
        t0 = time.perf_counter()
        code = main(["cbc", "--config", str(cfg), "--n", "13", "--tol", "1e-20"])
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: series tolerance tol=1e-20 is out of reach")

    def test_oversized_step_exit_code(self, cfg_path, capsys):
        # a step's DP runs over the exchangeable coordinates before it: the
        # config's two make d = 20 small, full invariance makes it 19
        argv = ["cbc", "--config", str(cfg_path), "--n", "1009", "--d", "20", "--trials", "0"]
        assert main(argv) == 0
        assert main(argv + ["--invariant", "full"]) == EXIT_CONFIG
        assert "GiB" in capsys.readouterr().err

    def test_lambda_box_at_d8(self, cfg_path, capsys):
        # bound_constant at lambda = 1.5 ran out of memory here before the
        # first step
        argv = ["cbc", "--config", str(cfg_path), "--n", "127", "--d", "8",
                "--invariant", "full", "--trials", "0", "--lam", "1.5"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("lam", ["0", "0.5", "2", "-1"])
    def test_lambda_refused_before_any_step(self, cfg_path, capsys, monkeypatch, lam):
        # alpha = 1: lambda must lie in [1, 2), checked before step 1
        def no_step(*args, **kwargs):
            raise AssertionError("a CBC step ran")

        monkeypatch.setattr(permqmc.cbc, "cbc_step_objectives", no_step)
        assert main(["cbc", "--config", str(cfg_path), "--mode", "better_than_average",
                     "--lam", lam]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: lambda must lie in [1, 2*alpha) = [1, 2.0)\n"

    def test_threads_refused_by_every_subcommand(self, cfg_path, capsys):
        # the rows of a convergence study run in order in one thread
        for argv in (["cbc"], ["shift-search", "--rule", "r.lat"], ["error-eval"],
                     ["approx-build"], ["convergence"], ["integrate", "--rule", "r.lat"]):
            assert main(argv + ["--config", str(cfg_path), "--threads", "2"]) == EXIT_CONFIG
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_one_parser_per_process(self, monkeypatch, capsys):
        # main builds its parser tree (the top parser and one per
        # subcommand) on its first call and parses every later call with it
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        monkeypatch.setattr(permqmc.cli, "_parser", functools.cache(permqmc.cli.build_parser))
        for _ in range(2):
            assert main(["error-eval", "--d", "3"]) == EXIT_OK
        assert capsys.readouterr().out.count('"bound_constant"') == 2
        assert len(built) == 1 + 6

    def test_flags_of_each_subcommand(self):
        # argparse takes a flag's prefix: an added flag can make a working
        # abbreviation ambiguous, so each subcommand's set is pinned
        common = {"-h", "--help", "--config", "--d", "--invariant", "--seed", "--tol", "--json"}
        flags = {"cbc": {"--n", "--mode", "--lam", "--trials", "--out"},
                 "shift-search": {"--rule", "--trials", "--out"},
                 "error-eval": {"--rule", "--method", "--half-width", "--lam"},
                 "approx-build": {"--N", "--tau", "--budget", "--delta", "--out"},
                 "convergence": {"--n-list", "--trials", "--lam", "--csv"},
                 "integrate": {"--rule", "--integrand"}}
        sub = next(a for a in permqmc.cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(flags)
        for name, parser in sub.choices.items():
            options = {s for action in parser._actions for s in action.option_strings}
            assert options == common | flags[name], name
            required = {s for action in parser._actions if action.required
                        for s in action.option_strings}
            assert required == ({"--rule"} if name in ("shift-search", "integrate") else set())

    def test_flag_beats_its_config_key(self, cfg_path, tmp_path, monkeypatch):
        # an int (trials), a float (lam) and a choice (method): the config's
        # value holds until the flag is given
        calls = []
        construct = permqmc.cli.construct_shifted

        def recording(spec, n, **kwargs):
            calls.append((kwargs["trials"], kwargs["lam"]))
            return construct(spec, n, **kwargs)

        monkeypatch.setattr(permqmc.cli, "construct_shifted", recording)
        cfg = json.loads(cfg_path.read_text())
        cfg["params"].update(lam=1.5, method="spectral", half_width=4)
        cfg_path.write_text(json.dumps(cfg))
        assert main(["cbc", "--config", str(cfg_path), "--json", str(tmp_path / "a.json")]) in (
            EXIT_OK, EXIT_FLAGGED)
        assert main(["cbc", "--config", str(cfg_path), "--trials", "4", "--lam", "1.25",
                     "--json", str(tmp_path / "b.json")]) in (EXIT_OK, EXIT_FLAGGED)
        assert calls == [(16, 1.5), (4, 1.25)]
        rule = tmp_path / "rule.txt"
        rule.write_text("13 2\n1 5\n0.3 0.7\n")
        out = tmp_path / "e.json"
        argv = ["error-eval", "--config", str(cfg_path), "--rule", str(rule), "--json", str(out)]
        assert main(argv) == EXIT_OK
        assert set(json.loads(out.read_text())) == {
            "worst_case", "mean_shifted_spectral", "worst_case_spectral", "bound_constant"}
        assert main(argv + ["--method", "both"]) == EXIT_OK
        assert set(json.loads(out.read_text())) == {
            "worst_case", "mean_shifted", "mean_shifted_spectral", "worst_case_spectral",
            "bound_constant"}

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

    def test_oversized_spectral_box_exit_code(self, tmp_path, capsys):
        cfg = {"space": {"alpha": 1.0}, "structure": {"d": 8, "invariant": list(range(1, 9))}}
        cfg_file = tmp_path / "c8.json"
        cfg_file.write_text(json.dumps(cfg))
        rule = tmp_path / "r8.txt"
        rule.write_text("127 8\n1 2 3 4 5 6 7 8\n")
        assert main(["error-eval", "--config", str(cfg_file), "--rule", str(rule),
                     "--method", "spectral", "--half-width", "6"]) == EXIT_CONFIG
        assert "frequency box [-6, 6]^8 needs about" in capsys.readouterr().err

    def test_spectral_routes_at_the_default_half_width(self, tmp_path):
        # d = 5 at the default H = 12: the routes agree within their
        # certificates, and the JSON says that each spectral certificate
        # exceeds its value
        cfg = {"space": {"alpha": 1.0}, "structure": {"d": 5, "invariant": [1, 2, 3, 4, 5]}}
        cfg_file = tmp_path / "c5.json"
        cfg_file.write_text(json.dumps(cfg))
        rule = tmp_path / "r5.txt"
        rule.write_text("251 5\n1 33 85 44 197\n0.1 0.7 0.3 0.55 0.9\n")
        ej = tmp_path / "e.json"
        assert main(["error-eval", "--config", str(cfg_file), "--rule", str(rule),
                     "--method", "both", "--json", str(ej)]) == EXIT_OK
        rep = json.loads(ej.read_text())
        for kernel, spectral in (("worst_case", "worst_case_spectral"),
                                 ("mean_shifted", "mean_shifted_spectral")):
            a, b = rep[kernel], rep[spectral]
            assert b["half_width"] == 12
            assert abs(a["value"] - b["value"]) <= a["certificate"] + b["certificate"]
            assert b["cert_exceeds_value"] is True

    def test_negative_half_width_exit_code(self, cfg_path, tmp_path, capsys):
        rule = tmp_path / "rule.txt"
        rule.write_text("13 2\n1 5\n0.3 0.7\n")
        assert main(["error-eval", "--config", str(cfg_path), "--rule", str(rule),
                     "--method", "spectral", "--half-width", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: half_width must be >= 0, got -1\n"

    @pytest.mark.parametrize("flags", [["--method", "spectral"], ["--method", "both"],
                                       ["--half-width", "-1"], ["--half-width", "6"],
                                       ["--method", "fixed_point", "--half-width", "6"]])
    def test_spectral_flags_on_weighted_rule_exit_code(self, cfg_path, tmp_path, capsys, flags):
        # a weighted rule has no spectral route: the flags are refused, not dropped
        rule = tmp_path / "w.qw"
        rule.write_text("2 2\n1 0.1 0.2\n1 0.6 0.7\n")
        out = tmp_path / "e.json"
        assert main(["error-eval", "--config", str(cfg_path), "--rule", str(rule),
                     "--json", str(out)] + flags) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: the spectral routes (--method spectral|both, --half-width) "
            f"need a lattice rule; {rule} is a weighted rule\n")
        assert not out.exists()
        assert main(["error-eval", "--config", str(cfg_path), "--rule", str(rule),
                     "--method", "fixed_point", "--json", str(out)]) == EXIT_OK
        assert set(json.loads(out.read_text())) == {"worst_case", "bound_constant"}

    @pytest.mark.parametrize("flags, params", [
        (["--half-width", "6"], {}),
        (["--method", "fixed_point", "--half-width", "6"], {}),
        ([], {"half_width": 6}),
        (["--method", "fixed_point"], {"half_width": 6}),
        (["--half-width", "6"], {"method": "fixed_point"}),
    ])
    def test_half_width_on_fixed_point_route_exit_code(self, cfg_path, tmp_path, capsys,
                                                       flags, params):
        # the fixed-point route has no box: a half-width without a spectral
        # route is refused, not dropped
        cfg = json.loads(cfg_path.read_text())
        cfg["params"].update(params)
        cfg_path.write_text(json.dumps(cfg))
        rule = tmp_path / "rule.txt"
        rule.write_text("13 2\n1 5\n0.3 0.7\n")
        out = tmp_path / "e.json"
        assert main(["error-eval", "--config", str(cfg_path), "--rule", str(rule),
                     "--json", str(out)] + flags) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: --half-width sets the spectral routes' box; "
            "give it with --method spectral|both\n")
        assert not out.exists()
        assert main(["error-eval", "--config", str(cfg_path), "--rule", str(rule),
                     "--method", "both", "--json", str(out)]
                    + (flags[-2:] if "--half-width" in flags else [])) == EXIT_OK
        assert json.loads(out.read_text())["worst_case_spectral"]["half_width"] == 6

    @pytest.mark.parametrize("budget", ["0", "-2"])
    def test_search_budget_below_one_exit_code(self, cfg_path, tmp_path, capsys, budget):
        # N = 4 stops at a zero level (kappa <= K_p), N = 32 draws a level;
        # with no draw to keep, both refuse the budget up front
        for N in ("4", "32"):
            assert main(["approx-build", "--config", str(cfg_path), "--N", N, "--tau", "1.5",
                         "--budget", budget, "--out", str(tmp_path / "r.qw")]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: search_budget must be >= 1, got {budget}\n"
        assert not (tmp_path / "r.qw").exists()

    def test_permanent_cap_exit_code(self, tmp_path, capsys):
        # d = 25 with full invariance: the message says how to get under the cap
        cfg = tmp_path / "c25.json"
        cfg.write_text(json.dumps({"space": {"alpha": 1.0}, "structure": {"d": 25}}))
        rule = tmp_path / "two.qw"
        rule.write_text("2 25\n" + "\n".join("1 " + " ".join(["0.5"] * 25) for _ in range(2)) + "\n")
        assert main(["error-eval", "--config", str(cfg), "--rule", str(rule)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: invariant block of size 25 exceeds the permanent cap 24; "
            "shrink the invariant set to at most 24 coordinates\n")

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
        # z_1 = z_2: both exchanges are direct sums, no FFT and no pair permanent
        assert rep["worst_case"]["route"] == "lattice-fft"
        assert rep["worst_case"]["ffts"] == 0
        assert rep["worst_case"]["pairs"] == 0
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

    @pytest.mark.parametrize("text, message", [
        ("5 2\n", "rule file {}: expected a header 'n d' and at least one more line"),
        ("5 2 1\n1 2\n", "rule file {}: expected a header 'n d' and at least one more line"),
        ("\n5 2\n\n1 2 3 4\n", "rule file {}: line 2 has 4 columns; "
                                 "expected 2 (lattice) or 3 (node/weight)"),
    ])
    def test_rule_file_detection_messages(self, cfg_path, tmp_path, capsys, text, message):
        rule = tmp_path / "bad.txt"
        rule.write_text(text)
        for cmd in ("error-eval", "integrate"):
            assert main([cmd, "--config", str(cfg_path), "--rule", str(rule)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {message.format(rule)}\n"

    def test_rule_file_read_once(self, cfg_path, tmp_path, monkeypatch):
        # the format is picked from the lines that the loader then parses:
        # the file is read once
        from permqmc import lattice

        rule = tmp_path / "rule.qw"
        rows = "".join(f"1 {0.001 * k:.3f} {0.5 + 0.0004 * k:.4f}\n" for k in range(500))
        rule.write_text("\n500 2\n\n" + rows)
        reads = []
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        rule_obj = lattice.load_rule(str(rule))
        assert rule_obj.n == 500
        assert reads == [rule]
        reads.clear()
        assert main(["integrate", "--config", str(cfg_path), "--rule", str(rule)]) == EXIT_OK
        assert reads.count(rule) == 1

    def test_rule_file_lines_as_splitlines(self, tmp_path):
        from permqmc.lattice import _split_lines

        rule = tmp_path / "rule.txt"
        text = "3 2\x0c1 2\r\n\n0.25 0.5\x1c\x0b\r7 8\n"
        rule.write_text(text)
        expect = [ln.split() for ln in rule.read_text().splitlines() if ln.strip()]
        assert _split_lines(str(rule)) == expect == [
            ["3", "2"], ["1", "2"], ["0.25", "0.5"], ["7", "8"]]

    @pytest.mark.parametrize("text", ["5 2\n1 2\nnan 0.5\n", "1 2\n1 0.5 inf\n"])
    def test_non_finite_rule_file_exit_code(self, cfg_path, tmp_path, capsys, text):
        rule = tmp_path / "bad.txt"
        rule.write_text(text)
        for cmd in ("error-eval", "integrate"):
            assert main([cmd, "--config", str(cfg_path), "--rule", str(rule)]) == EXIT_CONFIG
            assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("13 2.0\n1 5\n", "line 1: '2.0' is not an integer"),
        ("\n13 2\n\n1 x\n", "line 4: 'x' is not an integer"),
        ("13 2\n1 5\n0.5 abc\n", "line 3: 'abc' is not a number"),
        ("2 2\n1 0.5 0.5\n1 abc 0.5\n", "line 3: 'abc' is not a number"),
        ("13 -1\n1\n", "line 1: the header gives d = -1; expected d >= 1"),
        ("13 0\n1\n", "line 1: the header gives d = 0; expected d >= 1"),
    ])
    def test_rule_file_token_messages(self, cfg_path, tmp_path, capsys, text, message):
        # the file, the 1-based line (blank lines counted) and the token
        rule = tmp_path / "bad.txt"
        rule.write_text(text)
        for cmd in ("error-eval", "integrate"):
            assert main([cmd, "--config", str(cfg_path), "--rule", str(rule)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: rule file {rule}, {message}\n"

    def test_lattice_command_on_node_weight_file(self, cfg_path, tmp_path, capsys):
        rule = tmp_path / "rule.qw"
        rule.write_text("\n2 2\n1 0.1 0.2\n1 0.3 0.4\n")
        assert main(["shift-search", "--config", str(cfg_path), "--rule", str(rule)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: lattice file {rule}: line 3 has d + 1 = 3 columns, a node/weight row: "
            "this is a node/weight file\n")

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "error: out of memory (allocation refused)"),
        (MemoryError("Unable to allocate 74.5 GiB"),
         "error: out of memory (Unable to allocate 74.5 GiB)"),
    ])
    def test_refused_allocation_exit_code(self, cfg_path, tmp_path, capsys, monkeypatch,
                                          exc, message):
        import permqmc.cli

        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(permqmc.cli, "worst_case_error_sq", refuse)
        rule = tmp_path / "rule.txt"
        rule.write_text("13 2\n1 5\n")
        assert main(["error-eval", "--config", str(cfg_path), "--rule", str(rule)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.strip() == message
        assert "Traceback" not in err

    def test_no_tail_offset_needed(self, tmp_path, capsys):
        # beta1 = 1e12 leaves no tail offset U <= 100000 with rho(U) < 1; the
        # chain reads no offset, and N = 16 has only zero levels
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"alpha": 1, "beta0": 1, "beta1": 1e12},
                                   "structure": {"d": 2}}))
        out = tmp_path / "a.json"
        code = main(["approx-build", "--config", str(cfg), "--N", "16", "--tau", "1.9",
                     "--json", str(out)])
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert json.loads(out.read_text())["level_m"] == 0

    @pytest.mark.parametrize("tau", ["1.9", "1.95"])
    def test_approx_build_near_two_alpha(self, tmp_path, tau):
        # tau in [1.8306, 2) at alpha = 1 has no certified tail offset
        # U <= 100000, which the chain does not need
        out = tmp_path / "a.json"
        assert main(["approx-build", "--d", "3", "--N", "256", "--tau", tau, "--seed", "1",
                     "--json", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["certified"] is True

    def test_approx_build_refused_by_predicted_size(self, tmp_path):
        # at tau = 1.99 the first level has m = 237733 modes and the next
        # would hold m x m_prev doubles: refused before it starts, under an
        # address-space cap so that a missing refusal fails in the child
        code = ("import resource, sys\n"
                "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, hard))\n"
                "from permqmc.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run(
            [sys.executable, "-c", code, "approx-build", "--d", "3", "--N", "256", "--tau", "1.99",
             "--seed", "1", "--json", str(tmp_path / "a.json")],
            capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == EXIT_CONFIG
        assert out.stderr.startswith("error: approximation level 6 (basis size m = 2679 at "
                                     "tau = 1.99, N >= 128) needs about 4.7 GiB")
        assert out.stderr.endswith("; lower tau or N\n") and out.stderr.count("\n") == 1

    def test_convergence_study(self, cfg_path, tmp_path):
        csv = tmp_path / "conv.csv"
        cj = tmp_path / "conv.json"
        code = main(["convergence", "--config", str(cfg_path), "--n-list", "17,31,61",
                     "--trials", "8", "--csv", str(csv), "--json", str(cj)])
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

    def test_convergence_refuses_a_repeated_n(self, cfg_path, tmp_path, capsys):
        # two identical rows fit no slope: refused before any row runs
        cj = tmp_path / "c.json"
        code = main(["convergence", "--config", str(cfg_path), "--n-list", "61,17,61",
                     "--json", str(cj)])
        assert code == EXIT_CONFIG and not cj.exists()
        err = capsys.readouterr().err
        assert err == "config error: n_list repeats n = 61: each row needs its own n\n"

    @pytest.mark.parametrize("beta0, beta1, d", [
        (1e-300, 1.0, 3), (1e-120, 1.0, 3), (1e120, 1.0, 3), (1.0, 1e300, 3), (1.0, 1e50, 8)])
    @pytest.mark.parametrize("command", [["cbc", "--n", "61"], ["error-eval"],
                                         ["approx-build", "--N", "16"]])
    def test_extreme_space_exits_2_with_one_line(self, tmp_path, beta0, beta1, d, command):
        # a beta0^d or a power of rho = beta1/beta0 out of the double range
        # is refused when the spec is built: one line naming the space
        cfg = tmp_path / "space.json"
        cfg.write_text(json.dumps({"space": {"beta0": beta0, "beta1": beta1},
                                   "structure": {"d": d}}))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "permqmc", *command, "--config", str(cfg),
                              "--json", str(tmp_path / "o.json")],
                             capture_output=True, text=True, env=env, timeout=20)
        assert time.perf_counter() - start < 10.0
        assert out.returncode == EXIT_CONFIG, out.stderr
        assert "Traceback" not in out.stderr and out.stderr.count("\n") == 1
        assert f"(beta0, beta1) = ({beta0!r}, {beta1!r}) at d = {d}" in out.stderr

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

    def test_convergence_row_defect_is_raised(self, cfg_path, tmp_path, monkeypatch):
        # only the refusals that main maps to exit 2 become a flagged row
        construct = permqmc.cli.construct_shifted

        def defective(spec, n, **kwargs):
            if n == 31:
                raise ZeroDivisionError("defect in row 31")
            return construct(spec, n, **kwargs)

        monkeypatch.setattr(permqmc.cli, "construct_shifted", defective)
        with pytest.raises(ZeroDivisionError, match="defect in row 31"):
            main(["convergence", "--config", str(cfg_path), "--n-list", "17,31",
                  "--trials", "8", "--json", str(tmp_path / "c.json")])

    @staticmethod
    def _alpha_2_study(tmp_path, n_list):
        cfg = tmp_path / "a2.json"
        cfg.write_text(json.dumps({"space": {"alpha": 2.0},
                                   "structure": {"d": 3, "invariant": "full"}}))
        cj = tmp_path / "c.json"
        code = main(["convergence", "--config", str(cfg), "--n-list", n_list,
                     "--trials", "4", "--json", str(cj)])
        return code, json.loads(cj.read_text())

    def test_convergence_row_below_its_certificate(self, tmp_path):
        # alpha = 2, d = 3: at n = 10007 E2 (about 1.2e-19) does not exceed
        # its certificate (3.4e-16), so the row is marked and left out of
        # the fit; one row is left, no slope is fitted, and the study exits 3
        from permqmc.cli import EXIT_FLAGGED

        code, payload = self._alpha_2_study(tmp_path, "127,10007")
        assert code == EXIT_FLAGGED
        assert [r["below_certificate"] for r in payload["rows"]] == [False, True]
        assert 0.0 < payload["rows"][1]["E2"] < 1e-17
        assert payload["slope"] is None

    def test_convergence_at_alpha_2_above_certificates(self, tmp_path):
        # at n = 1009 E2 (2.05e-15) is certified to about 3.4e-16: no row is
        # marked, and the slope is fitted
        code, payload = self._alpha_2_study(tmp_path, "127,1009")
        assert code == EXIT_OK
        assert [r["below_certificate"] for r in payload["rows"]] == [False, False]
        assert math.isfinite(payload["slope"]) and payload["slope"] < 0

    def test_convergence_is_deterministic_across_runs(self, cfg_path, tmp_path):
        outs = []
        for run in ("1", "2"):
            csv = tmp_path / f"conv{run}.csv"
            main(["convergence", "--config", str(cfg_path), "--n-list", "17,31",
                  "--trials", "8", "--csv", str(csv), "--json", str(tmp_path / f"j{run}.json")])
            outs.append(csv.read_bytes())
        assert outs[0] == outs[1]

"""Command-line front end.

Subcommands: cbc, shift-search, error-eval, approx-build, convergence,
integrate.  Structured inputs come from a JSON config file; flags override
config values, and ``main`` reads both and builds the space once per call.
Tables are emitted as CSV, structured results as JSON with sorted keys, so
identical configs and seeds produce byte-identical outputs.

Exit codes: 0 success, 2 configuration or input error (including a search
that runs out of budget and a refused allocation), 3 result carries an
uncertified (flagged) component.
"""
from __future__ import annotations

import argparse
import difflib
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .approx import assemble_rule
from .cbc import cbc_construct, construct_shifted, shift_search
from .errors import (
    BOX_HALF_WIDTH,
    bound_constant,
    mean_sq_error,
    worst_case_error_sq,
    worst_case_error_sq_spectral,
)
from .integrands import integrand_from_config, invariance_defect
from .kernels import KernelSpec
from .lattice import (
    LatticeRule,
    RuleFormatError,
    load_lattice,
    load_rule,
    save_cubature,
    save_lattice,
)
from .symmetry import PermStructure
from .weights import weight_from_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FLAGGED = 3


class ConfigError(Exception):
    pass


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


# Every key a config may hold, per block, with a test of its JSON value and
# what the test asks for.  A key that any subcommand reads is allowed in
# every config, so that one file can serve a whole study.  An --integrand
# file holds the keys of the "integrand" block.  "generator" (an object or a
# kind name) and "coefficients" (an object of numbers) are checked apart.
_INT = (lambda v: type(v) is int, "an integer")
_NUM = (lambda v: type(v) in (int, float), "a number")
_STR = (lambda v: isinstance(v, str), "a string")
_INTS = (lambda v: isinstance(v, str) or isinstance(v, list) and all(type(x) is int for x in v),
         "a string or a list of integers")
_NUMS = (lambda v: isinstance(v, list) and all(type(x) in (int, float) for x in v),
         "a list of numbers")
_APART = (lambda v: True, "")


def _one_of(choices: tuple) -> tuple:
    return (lambda v: v in choices, "one of " + ", ".join(map(repr, choices)))


# Every parameter once: (JSON test, flag type, flag choices, help, the
# subcommands whose parser takes the flag, None for every one).  A key with
# choices has them as its test.  The flag is --key with "-" for "_"; each
# subcommand reads its own default where it reads the value.
_PARAMS = {
    "n": (_INT, int, None, "prime node count", ("cbc",)),
    "N": (_INT, int, None, "node budget", ("approx-build",)),
    "n_list": (_INTS, None, None, "comma-separated primes", ("convergence",)),
    "mode": (None, None, ("minimize", "better_than_average"), "CBC objective", ("cbc",)),
    "method": (None, None, ("fixed_point", "spectral", "both"), "error routes", ("error-eval",)),
    "half_width": (_INT, int, None, "frequency box of the spectral routes", ("error-eval",)),
    "tau": (_NUM, float, None, "approximation exponent", ("approx-build",)),
    "budget": (_INT, int, None, "search budget per point set", ("approx-build",)),
    "delta": (_NUM, float, None, "acceptance slack", ("approx-build",)),
    "trials": (_INT, int, None, "shift-search trials (cbc: 0, its default, runs no search)",
               ("cbc", "shift-search", "convergence")),
    "lam": (_NUM, float, None, "exponent of the bound constant and of cbc's averaging mode",
            ("cbc", "error-eval", "convergence")),
    "seed": (_INT, int, None, "RNG seed", None),
    "tol": (_NUM, float, None, "spectral certificate target", None),
}
_KEYS = {
    "config": {"space": _APART, "structure": _APART, "params": _APART, "integrand": _APART},
    "space": {"alpha": _NUM, "beta0": _NUM, "beta1": _NUM, "c_R": _NUM, "generator": _APART},
    "generator": {"kind": _STR, "table": _NUMS, "slope": _NUM},
    "structure": {"d": _INT, "invariant": _INTS},
    "params": {key: test or _one_of(choices) for key, (test, _, choices, *_) in _PARAMS.items()},
    "integrand": {"family": _STR, "n_modes": _INT, "norm": _NUM, "seed": _INT,
                  "constant": _NUM, "coefficients": _APART},
}


def _check_keys(obj: dict, block: str, where: str) -> None:
    """Refuse a key of ``obj`` that ``_KEYS[block]`` does not hold, naming the
    nearest one it does, and a value of the wrong JSON type."""
    known = _KEYS[block]
    for key, value in obj.items():
        if key not in known:
            near = difflib.get_close_matches(key, list(known), n=1, cutoff=0.0)[0]
            raise ConfigError(f"unknown key {key!r} in {where}; the nearest known key is {near!r}")
        test, what = known[key]
        if not test(value):
            raise ConfigError(f"{key!r} in {where} must be {what}, got {json.dumps(value)}")


def _load_config(path: str | None, integrand: bool = False) -> dict:
    """The JSON object in ``path`` ({} for None), a config or, with
    ``integrand``, an integrand file, with every block checked by
    ``_check_keys``."""
    if path is None:
        return {}
    try:
        cfg = _object(json.loads(Path(path).read_text()), f"config {path}")
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if integrand:
        blocks = {"integrand": cfg}
    else:
        _check_keys(cfg, "config", f"config {path}")
        blocks = {block: _object(cfg.get(block, {}), f"block {block!r} of {path}")
                  for block in ("space", "structure", "params", "integrand")}
    for block, obj in blocks.items():
        _check_keys(obj, block, f"block {block!r} of {path}")
    if isinstance(blocks.get("space", {}).get("generator"), dict):
        _check_keys(blocks["space"]["generator"], "generator", f"block 'generator' of {path}")
    coefficients = _object(blocks["integrand"].get("coefficients", {}),
                           "block 'coefficients' of the integrand")
    for mode, value in coefficients.items():
        if not _NUM[0](value):
            raise ConfigError(f"coefficient {mode!r} of the integrand must be a number, "
                              f"got {json.dumps(value)}")
    return cfg


def _build_spec(cfg: dict, args, params: dict) -> KernelSpec:
    structure = cfg.get("structure", {})
    try:
        w = weight_from_config(cfg.get("space", {}))
        d = args.d if args.d is not None else int(structure.get("d", 0))
        if d < 1:
            raise ConfigError("dimension d missing or invalid")
        inv = structure.get("invariant", "full") if args.invariant is None else args.invariant
        if inv == "full":
            perm = PermStructure.full(d)
        elif inv in ("none", "empty"):
            perm = PermStructure.empty(d)
        else:
            if isinstance(inv, str):
                try:
                    inv = [int(v) for v in inv.split(",") if v.strip()]
                except ValueError:
                    raise ConfigError(f"invariant {inv!r} is not 'full', 'none' or a "
                                      "comma-separated list of coordinates") from None
            perm = PermStructure(d, tuple(int(v) for v in inv))
        return KernelSpec(w, perm, tol=float(params.get("tol", 1e-10)))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_cbc(args, cfg: dict, spec: KernelSpec, params: dict) -> tuple[dict, int]:
    n = int(params.get("n", 0))
    if n < 2:
        raise ConfigError("prime n required")
    mode = params.get("mode", "minimize")
    lam = float(params.get("lam", 1.0))
    trials = int(params.get("trials", 0))
    seed = int(params.get("seed", 0))
    if trials:
        res = construct_shifted(spec, n, trials=trials, seed=seed, mode=mode, lam=lam)
    else:
        res = cbc_construct(spec, n, mode=mode, lam=lam)
    if args.out:
        save_lattice(res.rule, args.out)
    return res.to_json(), EXIT_FLAGGED if res.shift_flagged else EXIT_OK


def _cmd_shift_search(args, cfg: dict, spec: KernelSpec, params: dict) -> tuple[dict, int]:
    rule = load_lattice(args.rule)
    res = shift_search(rule, spec, trials=int(params.get("trials", 64)),
                       seed=int(params.get("seed", 0)))
    if args.out:
        save_lattice(res.rule, args.out)
    out = {k: v for k, v in vars(res).items() if k != "rule"}
    return {**out, "shift": list(res.rule.shift)}, EXIT_OK if res.certified else EXIT_FLAGGED


def _cmd_error_eval(args, cfg: dict, spec: KernelSpec, params: dict) -> tuple[dict, int]:
    out: dict = {}
    if args.rule:
        rule = load_rule(args.rule)
        method = params.get("method", "fixed_point")
        hw = params.get("half_width", None)
        lattice = isinstance(rule, LatticeRule)
        if not lattice and (method in ("spectral", "both") or hw is not None):
            raise ConfigError("the spectral routes (--method spectral|both, --half-width) "
                              f"need a lattice rule; {args.rule} is a weighted rule")
        if method == "fixed_point" and hw is not None:
            raise ConfigError("--half-width sets the spectral routes' box; "
                              "give it with --method spectral|both")
        out["worst_case"] = worst_case_error_sq(rule, spec).to_json()
        if lattice:  # also report the shift average
            if method in ("fixed_point", "both"):
                out["mean_shifted"] = mean_sq_error(rule, spec, "fixed_point").to_json()
            if method in ("spectral", "both"):
                hw = int(BOX_HALF_WIDTH if hw is None else hw)
                out["mean_shifted_spectral"] = mean_sq_error(
                    rule, spec, "spectral", half_width=hw).to_json()
                out["worst_case_spectral"] = worst_case_error_sq_spectral(
                    rule, spec, half_width=hw).to_json()
    lam = float(params.get("lam", 1.0))
    c = bound_constant(spec, lam)
    out["bound_constant"] = {"lambda": lam, "lo": c.lo, "hi": c.hi}
    return out, EXIT_OK


def _cmd_approx_build(args, cfg: dict, spec: KernelSpec, params: dict) -> tuple[dict, int]:
    N = int(params.get("N", 0))
    if N < 2:
        raise ConfigError("N >= 2 required")
    tau = float(params.get("tau", min(2.0, spec.weight.alpha + 0.5)))
    res = assemble_rule(
        spec, tau, N,
        search_budget=int(params.get("budget", 32)),
        delta=float(params.get("delta", 0.5)),
        seed=int(params.get("seed", 0)),
    )
    if args.out:
        save_cubature(res.cubature, args.out)
    side = {**res.to_json(), "bound_value": res.bound_value()}
    return side, EXIT_OK if res.certified else EXIT_FLAGGED


def _convergence_row(spec: KernelSpec, n: int, trials: int, seed: int, lam: float) -> dict:
    try:
        res = construct_shifted(spec, n, trials=trials, seed=seed, lam=lam)
        return {
            "n": n,
            "E2": res.achieved_E2,
            "e2": res.achieved_e2_shifted,
            "bound": res.certified_bound,
            "ratio": res.achieved_E2 / res.certified_bound,
            "flagged": res.shift_flagged,
            "below_certificate": res.achieved_E2 <= res.achieved_E2_certificate,
        }
    except (ValueError, RuntimeError, MemoryError) as exc:  # a refusal: keep the study going
        return {"n": n, "error": str(exc)}


def _cmd_convergence(args, cfg: dict, spec: KernelSpec, params: dict) -> tuple[dict, int]:
    n_list = params.get("n_list", [])
    if isinstance(n_list, str):
        n_list = [int(v) for v in n_list.split(",") if v.strip()]
    repeated = next((n for i, n in enumerate(n_list) if n in n_list[:i]), None)
    if repeated is not None:
        raise ConfigError(f"n_list repeats n = {repeated}: each row needs its own n")
    trials = int(params.get("trials", 32))
    seed = int(params.get("seed", 0))
    lam = float(params.get("lam", 1.0))
    rows = [_convergence_row(spec, int(n), trials, seed, lam) for n in n_list]
    ok_rows = [r for r in rows if "error" not in r]
    # an E2 within its rounding certificate has no significant digit to fit
    fit_rows = [r for r in ok_rows if not r["below_certificate"]]
    slope = None
    if len(fit_rows) >= 2:
        xs = np.log([r["n"] for r in fit_rows])
        ys = np.log([r["E2"] for r in fit_rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    if args.csv:
        header = "n,E2,e2,bound,ratio,flagged"
        lines = [header]
        for r in rows:
            if "error" in r:
                lines.append(f"{r['n']},error,,,,{json.dumps(r['error'])}")
            else:
                lines.append(
                    f"{r['n']},{r['E2']:.17g},{r['e2']:.17g},"
                    f"{r['bound']:.17g},{r['ratio']:.17g},{int(r['flagged'])}"
                )
        Path(args.csv).write_text("\n".join(lines) + "\n")
    flagged = any(r.get("flagged") for r in ok_rows) or len(fit_rows) < len(rows)
    return {"rows": rows, "slope": slope}, EXIT_FLAGGED if flagged else EXIT_OK


def _cmd_integrate(args, cfg: dict, spec: KernelSpec, params: dict) -> tuple[dict, int]:
    rule = load_rule(args.rule)
    if rule.d != spec.d:
        raise ConfigError(f"rule dimension {rule.d} != space dimension {spec.d}")
    integrand_cfg = (_load_config(args.integrand, integrand=True) if args.integrand
                     else cfg.get("integrand", {}))
    f = integrand_from_config(integrand_cfg, spec)
    cub = rule.cubature() if isinstance(rule, LatticeRule) else rule
    value = cub.apply(f)
    rep = worst_case_error_sq(rule, spec)
    e_wor = math.sqrt(max(rep.value, 0.0))
    defect = invariance_defect(f, spec)
    out = {
        "value": value,
        "exact": f.exact_integral,
        "abs_error": abs(value - f.exact_integral),
        "norm": f.norm,
        "e_wor": e_wor,
        "e_wor_certificate": rep.truncation_certificate,
        "apriori_bound": f.norm * math.sqrt(rep.value + rep.truncation_certificate),
        "invariance_defect": defect,
    }
    if defect > 1e-8 * (1.0 + f.norm):
        out["warning"] = "integrand is not exchange-invariant"
    return out, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# subcommand: (handler, help, its flags besides the common ones and the params)
_COMMANDS = {
    "cbc": (_cmd_cbc, "component-by-component lattice construction",
            {"--out": {"help": "write the lattice file here"}}),
    "shift-search": (_cmd_shift_search, "randomized shift certification",
                     {"--rule": {"required": True, "help": "lattice file"},
                      "--out": {"help": "write the shifted lattice file here"}}),
    "error-eval": (_cmd_error_eval, "certified error quantities",
                   {"--rule": {"help": "lattice or cubature file"}}),
    "approx-build": (_cmd_approx_build, "assemble the approximation-driven rule",
                     {"--out": {"help": "write the node/weight file here"}}),
    "convergence": (_cmd_convergence, "error-versus-n study",
                    {"--csv": {"help": "write the CSV table here"}}),
    "integrate": (_cmd_integrate, "apply a rule file to a test integrand",
                  {"--rule": {"required": True},
                   "--integrand": {"help": "integrand spec JSON file"}}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="permqmc",
                                 description="cubature for exchange-invariant periodic integrands")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--d", type=int, help="dimension override")
        p.add_argument("--invariant", help="invariant set: 'full', 'none', or e.g. '1,2'")
        p.add_argument("--json", help="write JSON result here (default: stdout)")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        for key, (_, kind, choices, text, commands) in _PARAMS.items():
            if commands is None or name in commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                               choices=choices, help=text)
    return ap


# main's parser, built on its first call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
        given = {key: v for key in _PARAMS if (v := getattr(args, key, None)) is not None}
        params = {**cfg.get("params", {}), **given}
        out, code = args.func(args, cfg, _build_spec(cfg, args, params), params)
        text = json.dumps(out, sort_keys=True, indent=2) + "\n"
        if args.json:
            Path(args.json).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except (ConfigError, RuleFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        why = str(exc)
        if isinstance(exc, MemoryError):  # a refused allocation may say nothing
            why = f"out of memory ({why or 'allocation refused'})"
        print(f"error: {why}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

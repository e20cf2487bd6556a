"""Command-line front end.

Subcommands: cbc, shift-search, error-eval, approx-build, convergence,
integrate.  Structured inputs come from a JSON config file; flags override
config values.  Tables are emitted as CSV, structured results as JSON with
sorted keys, so identical configs and seeds produce byte-identical outputs.

Exit codes: 0 success, 2 configuration or input error (including a search
that runs out of budget and a refused allocation), 3 result carries an
uncertified (flagged) component.
"""
from __future__ import annotations

import argparse
import difflib
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
_KEYS = {
    "config": {"space": _APART, "structure": _APART, "params": _APART, "integrand": _APART},
    "space": {"alpha": _NUM, "beta0": _NUM, "beta1": _NUM, "c_R": _NUM, "generator": _APART},
    "generator": {"kind": _STR, "table": _NUMS, "slope": _NUM},
    "structure": {"d": _INT, "invariant": _INTS},
    "params": {"n": _INT, "N": _INT, "trials": _INT, "seed": _INT, "budget": _INT,
               "half_width": _INT, "tol": _NUM, "lam": _NUM, "tau": _NUM, "delta": _NUM,
               "mode": _STR, "method": _STR, "n_list": _INTS},
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


def _build_spec(cfg: dict, args) -> KernelSpec:
    space = cfg.get("space", {})
    structure = cfg.get("structure", {})
    try:
        w = weight_from_config(space)
        d = getattr(args, "d", None)
        if d is None:
            d = int(structure.get("d", 0))
        if d < 1:
            raise ConfigError("dimension d missing or invalid")
        inv = structure.get("invariant", "full")
        if getattr(args, "invariant", None) is not None:
            inv = args.invariant
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
        return KernelSpec(w, perm, tol=float(_param(cfg, args, "tol", 1e-10)))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _param(cfg: dict, args, name: str, default):
    val = getattr(args, name, None)
    if val is not None:
        return val
    return cfg.get("params", {}).get(name, default)


def _emit_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_cbc(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
    n = int(_param(cfg, args, "n", 0))
    if n < 2:
        raise ConfigError("prime n required")
    mode = _param(cfg, args, "mode", "minimize")
    lam = float(_param(cfg, args, "lam", 1.0))
    trials = int(_param(cfg, args, "trials", 0))
    seed = int(_param(cfg, args, "seed", 0))
    if trials:
        res = construct_shifted(spec, n, trials=trials, seed=seed, mode=mode, lam=lam)
    else:
        res = cbc_construct(spec, n, mode=mode, lam=lam)
    if args.out:
        save_lattice(res.rule, args.out)
    _emit_json(res.to_json(), args.json)
    return EXIT_FLAGGED if res.shift_flagged else EXIT_OK


def _cmd_shift_search(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
    rule = load_lattice(args.rule)
    res = shift_search(rule, spec, trials=int(_param(cfg, args, "trials", 64)),
                       seed=int(_param(cfg, args, "seed", 0)))
    if args.out:
        save_lattice(res.rule, args.out)
    out = {k: v for k, v in vars(res).items() if k != "rule"}
    _emit_json({**out, "shift": list(res.rule.shift)}, args.json)
    return EXIT_OK if res.certified else EXIT_FLAGGED


def _cmd_error_eval(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
    out: dict = {}
    if args.rule:
        rule = load_rule(args.rule)
        method = _param(cfg, args, "method", "fixed_point")
        hw = _param(cfg, args, "half_width", None)
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
    lam = float(_param(cfg, args, "lam", 1.0))
    c = bound_constant(spec, lam)
    out["bound_constant"] = {"lambda": lam, "lo": c.lo, "hi": c.hi}
    _emit_json(out, args.json)
    return EXIT_OK


def _cmd_approx_build(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
    N = int(_param(cfg, args, "N", 0))
    if N < 2:
        raise ConfigError("N >= 2 required")
    tau = float(_param(cfg, args, "tau", min(2.0, spec.weight.alpha + 0.5)))
    res = assemble_rule(
        spec, tau, N,
        search_budget=int(_param(cfg, args, "budget", 32)),
        delta=float(_param(cfg, args, "delta", 0.5)),
        seed=int(_param(cfg, args, "seed", 0)),
    )
    if args.out:
        save_cubature(res.cubature, args.out)
    side = res.to_json()
    side["bound_value"] = res.bound_value()
    _emit_json(side, args.json)
    return EXIT_OK if res.certified else EXIT_FLAGGED


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


def _cmd_convergence(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
    n_list = _param(cfg, args, "n_list", [])
    if isinstance(n_list, str):
        n_list = [int(v) for v in n_list.split(",") if v.strip()]
    repeated = next((n for i, n in enumerate(n_list) if n in n_list[:i]), None)
    if repeated is not None:
        raise ConfigError(f"n_list repeats n = {repeated}: each row needs its own n")
    trials = int(_param(cfg, args, "trials", 32))
    seed = int(_param(cfg, args, "seed", 0))
    lam = float(_param(cfg, args, "lam", 1.0))
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
    _emit_json({"rows": rows, "slope": slope}, args.json)
    flagged = any(r.get("flagged") for r in ok_rows) or len(fit_rows) < len(rows)
    return EXIT_FLAGGED if flagged else EXIT_OK


def _cmd_integrate(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
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
    _emit_json(out, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--d", type=int, help="dimension override")
    p.add_argument("--invariant", help="invariant set: 'full', 'none', or e.g. '1,2'")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--tol", type=float, help="spectral certificate target")
    p.add_argument("--json", help="write JSON result here (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="permqmc",
                                 description="cubature for exchange-invariant periodic integrands")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cbc", help="component-by-component lattice construction")
    _add_common(p)
    p.add_argument("--n", type=int, help="prime node count")
    p.add_argument("--mode", choices=["minimize", "better_than_average"])
    p.add_argument("--lam", type=float, help="exponent for the averaging mode")
    p.add_argument("--trials", type=int, help="also run the shift search with this budget")
    p.add_argument("--out", help="write the lattice file here")
    p.set_defaults(func=_cmd_cbc)

    p = sub.add_parser("shift-search", help="randomized shift certification")
    _add_common(p)
    p.add_argument("--rule", required=True, help="lattice file")
    p.add_argument("--trials", type=int)
    p.add_argument("--out", help="write the shifted lattice file here")
    p.set_defaults(func=_cmd_shift_search)

    p = sub.add_parser("error-eval", help="certified error quantities")
    _add_common(p)
    p.add_argument("--rule", help="lattice or cubature file")
    p.add_argument("--method", choices=["fixed_point", "spectral", "both"])
    p.add_argument("--half-width", dest="half_width", type=int)
    p.add_argument("--lam", type=float)
    p.set_defaults(func=_cmd_error_eval)

    p = sub.add_parser("approx-build", help="assemble the approximation-driven rule")
    _add_common(p)
    p.add_argument("--N", type=int, help="node budget")
    p.add_argument("--tau", type=float)
    p.add_argument("--budget", type=int, help="search budget per point set")
    p.add_argument("--delta", type=float, help="acceptance slack")
    p.add_argument("--out", help="write the node/weight file here")
    p.set_defaults(func=_cmd_approx_build)

    p = sub.add_parser("convergence", help="error-versus-n study")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", help="comma-separated primes")
    p.add_argument("--trials", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--csv", help="write the CSV table here")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("integrate", help="apply a rule file to a test integrand")
    _add_common(p)
    p.add_argument("--rule", required=True)
    p.add_argument("--integrand", help="integrand spec JSON file")
    p.set_defaults(func=_cmd_integrate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
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

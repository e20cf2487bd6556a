"""Command-line front end.

Subcommands: cbc, shift-search, error-eval, approx-build, convergence,
integrate.  Structured inputs come from a JSON config file; flags override
config values.  Tables are emitted as CSV, structured results as JSON with
sorted keys, so identical configs and seeds produce byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 result carries an
uncertified (flagged) component.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .approx import assemble_rule, gaussian_average_error_sq
from .cbc import cbc_construct, construct_shifted, shift_search
from .errors import (
    bound_constant,
    mean_sq_error,
    worst_case_error_sq,
    worst_case_error_sq_spectral,
)
from .integrands import integrand_from_config, invariance_defect
from .kernels import KernelSpec
from .lattice import (
    LatticeRule,
    WeightedCubature,
    load_cubature,
    load_lattice,
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


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _build_spec(cfg: dict, args) -> KernelSpec:
    space = cfg.get("space", {})
    structure = cfg.get("structure", {})
    try:
        w = weight_from_config(space)
        d = int(structure.get("d", getattr(args, "d", None) or 0))
        if getattr(args, "d", None):
            d = args.d
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
                inv = [int(v) for v in inv.split(",") if v.strip()]
            perm = PermStructure(d, tuple(int(v) for v in inv))
        tol = getattr(args, "tol", None) or cfg.get("params", {}).get("tol", 1e-10)
        return KernelSpec(w, perm, tol=float(tol))
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


def _load_rule_file(path: str) -> LatticeRule | WeightedCubature:
    """Load a lattice or a node/weight file, told apart by line 2's columns.

    Both formats start with "n d"; line 2 holds the d generators of a lattice
    or the d + 1 values "w t_1 ... t_d" of a node/weight row.
    """
    lines = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) < 2 or len(lines[0]) != 2:
        raise ConfigError(f"rule file {path}: expected a header 'n d' and at least one more line")
    d = int(lines[0][1])
    if len(lines[1]) == d:
        return load_lattice(path)
    if len(lines[1]) == d + 1:
        return load_cubature(path)
    raise ConfigError(f"rule file {path}: line 2 has {len(lines[1])} columns; "
                      f"expected {d} (lattice) or {d + 1} (node/weight)")


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
    _emit_json({
        "e2_shifted": res.e2_shifted,
        "e2_certificate": res.e2_certificate,
        "E2": res.E2,
        "E2_certificate": res.E2_certificate,
        "certified": res.certified,
        "trials_used": res.trials_used,
        "seed": res.seed,
        "shift": list(res.rule.shift),
    }, args.json)
    return EXIT_OK if res.certified else EXIT_FLAGGED


def _cmd_error_eval(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
    out: dict = {}
    if args.rule:
        rule = _load_rule_file(args.rule)
        out["worst_case"] = worst_case_error_sq(rule, spec).to_json()
        if isinstance(rule, LatticeRule):  # also report the shift average
            method = _param(cfg, args, "method", "fixed_point")
            if method in ("fixed_point", "both"):
                out["mean_shifted"] = mean_sq_error(rule, spec, "fixed_point").to_json()
            if method in ("spectral", "both"):
                hw = int(_param(cfg, args, "half_width", 12))
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
        }
    except Exception as exc:  # record the failure, keep the study going
        return {"n": n, "error": str(exc)}


def _cmd_convergence(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
    n_list = _param(cfg, args, "n_list", [])
    if isinstance(n_list, str):
        n_list = [int(v) for v in n_list.split(",") if v.strip()]
    trials = int(_param(cfg, args, "trials", 32))
    seed = int(_param(cfg, args, "seed", 0))
    lam = float(_param(cfg, args, "lam", 1.0))
    threads = max(1, int(getattr(args, "threads", None) or 1))
    if n_list:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            rows = list(ex.map(
                lambda n: _convergence_row(spec, int(n), trials, seed, lam), n_list))
    else:
        rows = []
    ok_rows = [r for r in rows if "error" not in r]
    slope = None
    if len(ok_rows) >= 2:
        xs = np.log([r["n"] for r in ok_rows])
        ys = np.log([r["E2"] for r in ok_rows])
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
    flagged = any(r.get("flagged") for r in ok_rows) or len(ok_rows) < len(rows)
    return EXIT_FLAGGED if flagged else EXIT_OK


def _cmd_integrate(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(cfg, args)
    rule = _load_rule_file(args.rule)
    if rule.d != spec.d:
        raise ConfigError(f"rule dimension {rule.d} != space dimension {spec.d}")
    integrand_cfg = _load_config(args.integrand) if args.integrand else cfg.get("integrand", {})
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
    p.add_argument("--threads", type=int, help="worker threads for studies")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

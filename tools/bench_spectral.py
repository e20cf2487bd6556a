"""Time both spectral routes, one fresh child process per run.

The space is the README quick start's: alpha = 1, the Korobov generator,
full invariance.  Each run evaluates one route, ``worst_case_error_sq_spectral``
("worst") or ``mean_sq_error(method="spectral")`` ("mean"), on one shifted
Korobov lattice at one (d, n, H).  It reports its wall time, its peak
resident set (``ru_maxrss``), the sha256 of the report's JSON and the
refusal message if the route refused the box.  The hash leaves out the
``cert_exceeds_value`` flag, which the report records next to it, so that
equal hashes across checkouts mean equal values and certificates.

The package is imported from ``PYTHONPATH``.  To compare checkouts, name
each one's ``src`` with ``--checkout LABEL=DIR``; the runs then alternate
between them, run by run, so that drift in the machine's load falls on
both alike:

    python tools/bench_spectral.py --checkout parent=../parent/src \\
        --checkout change=src --out BENCH_15.json
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

CASES = ((4, 503, 12), (5, 251, 6), (5, 251, 12), (6, 1009, 6), (7, 1009, 6), (8, 1009, 6))
ROUTES = ("worst", "mean")
# Korobov multiplier a per n, z = (1, a, a^2, ...) mod n (those of n = 251 and
# 503 are the benchmark's); the shift is drawn from a fixed seed per d
MULTIPLIER = {251: 53, 503: 286, 1009: 76}


def _child(d: int, n: int, H: int, route: str) -> dict:
    """Run one measurement in this process and return its record."""
    from permqmc import KernelSpec, PermStructure, SpectralWeight
    from permqmc.errors import mean_sq_error, worst_case_error_sq_spectral
    from permqmc.lattice import LatticeRule

    a = MULTIPLIER[n]
    z = tuple(pow(a, j, n) for j in range(d))
    shift = tuple(float(v) for v in np.random.default_rng(d).random(d))
    rule = LatticeRule(n, z, shift=shift)
    spec = KernelSpec(SpectralWeight(), PermStructure.full(d))
    rec = {"d": d, "n": n, "H": H, "route": route}
    t0 = time.perf_counter()
    try:
        if route == "worst":
            rep = worst_case_error_sq_spectral(rule, spec, half_width=H).to_json()
        else:
            rep = mean_sq_error(rule, spec, "spectral", half_width=H).to_json()
    except ValueError as exc:
        rep, refused = None, str(exc)
    else:
        refused = None
    rec["wall_s"] = time.perf_counter() - t0
    rec["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec["refused"] = refused
    if rep is not None:
        rec["cert_exceeds_value"] = rep.pop("cert_exceeds_value", None)
        rec["report_sha256"] = hashlib.sha256(
            json.dumps(rep, sort_keys=True).encode()).hexdigest()
        rec["value"], rec["certificate"] = rep["value"], rep["certificate"]
    return rec


def _spawn(src: str | None, d: int, n: int, H: int, route: str) -> dict:
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, __file__, "--child", str(d), str(n), str(H), route],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        d, n, H = map(int, sys.argv[2:5])
        print(json.dumps(_child(d, n, H, sys.argv[5])))
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR",
                   help="a checkout's src directory; repeat to alternate between several")
    p.add_argument("--repeats", type=int, default=1, help="runs per case, route and checkout")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    checkouts = [tuple(c.split("=", 1)) for c in args.checkout] or [("current", None)]
    runs: dict[str, list] = {label: [] for label, _ in checkouts}
    for d, n, H in CASES:
        for route in ROUTES:
            for _ in range(args.repeats):
                for label, src in checkouts:
                    rec = _spawn(src, d, n, H, route)
                    runs[label].append(rec)
                    print(label, json.dumps(rec), file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"machine": {"cpu": platform.machine(), "cores": os.cpu_count(),
                               "python": platform.python_version(), "numpy": np.__version__},
                   "runs": runs}, fh, indent=1)


if __name__ == "__main__":
    main()

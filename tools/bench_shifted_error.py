"""Time one shifted lattice error per route, and ``cbc --trials``, at d = 3.

Every measurement runs in a fresh child process, which reports its wall
time, its page faults (``ru_minflt``) and its peak resident set
(``ru_maxrss``).  The FFT route is also repeated in the same process, to
separate its work from the first touch of fresh memory.  The generating
vectors are the CBC rules of the fully invariant space at alpha = 1 (the
README quick start's space), built before the timed children start.  The
pair route is O(n^2): at n = 100003 it takes about 17 minutes.  ``cbc
--trials`` runs once for each ``--cbc-n`` and keeps the per-step objective
certificates.  The package is imported from ``PYTHONPATH``, so pointing it
at another checkout's ``src`` measures that checkout.

    PYTHONPATH=src python tools/bench_shifted_error.py --n 1009 10007 100003 \
        --pair-max-n 10007 --cbc-n 1009 10007 20011 100003 --trials 64 --out bench.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

D = 3
SHIFT = (0.3, 0.71, 0.05)
WARM_REPEATS = 5


def _spec():
    from permqmc import KernelSpec, PermStructure, SpectralWeight
    return KernelSpec(SpectralWeight(), PermStructure.full(D))


def _child(argv: list[str]) -> dict:
    """Run one measurement in this process and return its record."""
    from permqmc.kernels import _lattice_gram_mean_fft, lattice_gram_mean
    from permqmc.lattice import LatticeRule

    kind = argv[0]
    if kind == "route":
        route, n = argv[1], int(argv[2])
        z = tuple(int(v) for v in argv[3].split(","))
        spec = _spec()
        rule = LatticeRule(n, z, SHIFT)
        mean_fn = _lattice_gram_mean_fft if route == "lattice-fft" else lattice_gram_mean
        rec = {"route": route, "d": D, "n": n, "z": list(z)}
        # the first call in a fresh process, then (FFT route only) repeats in
        # the same process; minflt counts the page faults of each call
        walls, faults = [], []
        for _ in range(1 + (WARM_REPEATS if route == "lattice-fft" else 0)):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            mean, cert, count = mean_fn(rule, spec)
            walls.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        rec.update({"value": mean - spec.weight.beta0 ** D, "certificate": cert,
                    "ffts" if route == "lattice-fft" else "pairs": count,
                    "wall_s": walls[0], "minflt": faults[0]})
        if len(walls) > 1:
            rec.update({"warm_wall_s_median": statistics.median(walls[1:]),
                        "warm_wall_s_min": min(walls[1:]),
                        "warm_minflt_median": statistics.median(faults[1:])})
    else:
        from permqmc.cli import main
        t0 = time.perf_counter()
        code = main(argv[1:])
        rec = {"argv": argv[1:], "exit_code": code, "wall_s": time.perf_counter() - t0}
    rec["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec


def _spawn(argv: list[str]) -> dict:
    out = subprocess.run([sys.executable, __file__, "--child", *argv],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(sys.argv[2:])))
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, nargs="+", default=[1009, 10007, 100003])
    p.add_argument("--pair-max-n", type=int, default=10007,
                   help="largest n for the O(n^2) pair route")
    p.add_argument("--cbc-n", type=int, nargs="+", default=[100003])
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    from permqmc.cbc import cbc_construct

    records = []
    for n in args.n:
        z = ",".join(map(str, cbc_construct(_spec(), n).rule.z))
        for route in ("lattice-fft", "lattice"):
            if route == "lattice" and n > args.pair_max_n:
                continue
            records.append(_spawn(["route", route, str(n), z]))
            print(json.dumps(records[-1]), file=sys.stderr)
    e2e_rows = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg, res = Path(tmp) / "cfg.json", Path(tmp) / "cbc.json"
        cfg.write_text(json.dumps({"space": {"alpha": 1.0},
                                   "structure": {"d": D, "invariant": "full"}}))
        for n in args.cbc_n:
            e2e = _spawn(["cli", "cbc", "--config", str(cfg), "--n", str(n),
                          "--trials", str(args.trials), "--seed", "1", "--json", str(res)])
            e2e["argv"] = ["cbc", "--n", str(n), "--trials", str(args.trials), "--seed", "1"]
            out = json.loads(res.read_text())
            e2e.update({k: out[k] for k in ("z", "shift", "achieved_E2", "achieved_e2_shifted",
                                             "achieved_e2_shifted_certificate",
                                             "per_step_certificate", "shift_trials_used",
                                             "shift_flagged")})
            e2e_rows.append(e2e)
            print(json.dumps(e2e), file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"machine": {"cpu": platform.machine(), "cores": os.cpu_count(),
                               "python": platform.python_version(), "numpy": np.__version__},
                   "shift": SHIFT, "one_shifted_error": records,
                   "cbc_trials_end_to_end": e2e_rows}, fh, indent=1)


if __name__ == "__main__":
    main()

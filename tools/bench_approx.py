"""Time ``assemble_rule`` end to end, one fresh child process per run.

The space is the README quick start's: alpha = 1, the Korobov generator,
full invariance, tau = 1.5.  Each run builds the approximation chain and
the weighted rule at one (d, N, seed) and reports its wall time, its peak
resident set (``ru_maxrss``) and the sha256 of the ``.qw`` rule file that
``permqmc approx-build --out`` would write.  Equal hashes across checkouts
mean byte-identical rules.

The package is imported from ``PYTHONPATH``.  To compare checkouts, name
each one's ``src`` with ``--checkout LABEL=DIR``; the runs then alternate
between them, run by run, so that drift in the machine's load falls on
both alike:

    python tools/bench_approx.py --checkout parent=../parent/src \\
        --checkout change=src --out BENCH_14.json
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
import tempfile
import time
from pathlib import Path

import numpy as np

TAU = 1.5
CASES = ((3, 1024), (3, 4096), (5, 512), (5, 2048))
SEEDS = (1, 2)


def _child(d: int, N: int, seed: int) -> dict:
    """Run one measurement in this process and return its record."""
    from permqmc import KernelSpec, PermStructure, SpectralWeight
    from permqmc.approx import assemble_rule
    from permqmc.lattice import save_cubature

    spec = KernelSpec(SpectralWeight(), PermStructure.full(d))
    t0 = time.perf_counter()
    res = assemble_rule(spec, TAU, N, seed=seed)
    wall = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        qw = Path(tmp) / "rule.qw"
        save_cubature(res.cubature, qw)
        digest = hashlib.sha256(qw.read_bytes()).hexdigest()
    return {"d": d, "N": N, "seed": seed, "wall_s": wall,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "qw_sha256": digest, "nodes": res.cubature.n, "level_m": res.algorithm.m,
            "certified": res.certified}


def _spawn(src: str | None, d: int, N: int, seed: int) -> dict:
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, __file__, "--child", str(d), str(N), str(seed)],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(*map(int, sys.argv[2:5]))))
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR",
                   help="a checkout's src directory; repeat to alternate between several")
    p.add_argument("--repeats", type=int, default=1, help="runs per (d, N, seed) and checkout")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    checkouts = [tuple(c.split("=", 1)) for c in args.checkout] or [("current", None)]
    runs: dict[str, list] = {label: [] for label, _ in checkouts}
    for d, N in CASES:
        for seed in SEEDS:
            for _ in range(args.repeats):
                for label, src in checkouts:
                    rec = _spawn(src, d, N, seed)
                    runs[label].append(rec)
                    print(label, json.dumps(rec), file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"machine": {"cpu": platform.machine(), "cores": os.cpu_count(),
                               "python": platform.python_version(), "numpy": np.__version__},
                   "tau": TAU, "runs": runs}, fh, indent=1)


if __name__ == "__main__":
    main()

"""permqmc benchmark: times the public ``permqmc`` CLI on four workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cbc-build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Load model: one client, closed loop.  A single worker process (a fresh
interpreter, BLAS/OpenMP pinned to one thread, address space capped, see
worker.py) runs the workload's ops one after another, each starting when the
previous one returns.  Before it, ``SETUP_PROBES`` further fresh processes
time set-up alone; ``setup_s`` is the median of all set-up samples.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``solve_s`` (one
pass of the op list, as the sum of per-op medians over the passes; the pass
count is ``--seconds`` over the workload's nominal pass time, see
workloads.py), ``peak_rss_mb`` and ``cert_rel`` (see checks.py).
``fail_frac`` (failed / attempted ops) is printed in the summary and given by
the ``attempted`` and ``failed`` fields of the last line; it is 0 at the
seed commit, so it is not a bounded metric.  ``--trace 1`` runs the op list
untraced, traced and untraced again (see worker.py) and prints the
per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A record with the environment, the seed and the sample count per metric is
written to ``.perfbench-out/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"), ("cert_rel", "ratio"))


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _worker(args: list[str], root: Path, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=timeout, check=False)


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """One benchmark run of one workload; raises RuntimeError if the worker
    does not produce a result."""
    workload = WORKLOADS[name]
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    workdir = root / ".perfbench-work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    result_path = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    setups = []
    try:
        for _ in range(SETUP_PROBES):
            proc = _worker(["--workload", name, "--setup-only"], root, 60)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        proc = _worker(["--workload", name, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--workdir", str(workdir), "--result", str(result_path)],
                       root, WORKER_TIMEOUT_S)
        sys.stderr.write(proc.stdout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed with exit code {proc.returncode}")
        res = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out after {exc.timeout} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(res["setup"])
    records = res["records"]
    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])
    res.update(workload=name, seed=seed, trace=trace,
               setup_samples=setups, attempted=attempted, failed=failed)
    median = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    if trace:
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = median["import_s"]
        metrics["setup.closed_form_s"] = median["closed_form_s"]
        units = per_layer_units()
        res["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        res["samples"] = {k: 1 for k in units}
        res["samples"].update({"setup.import_s": len(setups), "setup.closed_form_s": len(setups)})
    else:
        ratios = [r["cert_ratio"] for r in records if "cert_ratio" in r]
        values = {
            "setup_s": median["setup_s"],
            "solve_s": res["solve_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "cert_rel": max(ratios, default=math.inf),
        }
        # JSON has no infinity: a run where no op yielded a finite ratio
        # (all failed, or a zero value) reports the largest finite float
        res["metrics"] = {k: {"value": min(values[k], sys.float_info.max), "unit": u}
                          for k, u in END_TO_END}
        res["samples"] = {"setup_s": len(setups), "solve_s": len(res["op_times"]), "peak_rss_mb": 1,
                          "cert_rel": len(ratios), "fail_frac": attempted}
    res["fail_frac"] = failed / attempted if attempted else 1.0
    res["correct"] = failed == 0 and attempted > 0
    result_path.write_text(json.dumps(res, indent=1, sort_keys=True))
    return res


def print_summary(res: dict) -> None:
    name = res["workload"]
    print(f"# {name}: seed {res['seed']} (instances {res['instances']}), "
          f"{res['attempted']} ops, fail_frac {res['fail_frac']:.4g} ratio"
          + ("" if res["correct"] else "  CHECK FAILED"))
    for r in res["records"]:
        if r["failures"]:
            print(f"#   {r['op']}: " + "; ".join(r["failures"]))
    if res["trace"]:
        top = sorted(res["self_time_shares"].items(), key=lambda kv: -kv[1])[:6]
        print("#   self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
        print(f"#   trace overhead {res['layers']['trace.overhead']:+.2%}")
    else:
        raw = max((r.get("cert_ratio_raw", 0.0) for r in res["records"]), default=0.0)
        for k, m in res["metrics"].items():
            print(f"#   {k:<12} {m['value']:.6g} {m['unit']}  (n={res['samples'][k]})")
        print(f"#   certificate/value max {raw:.3g} (raw)")
    env = res["env"]
    print(f"# env: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, sympy {env['sympy']}, "
          f"BLAS threads {env['blas_threads']}, cap {env['mem_cap_mb']} MB")


def print_table(results: list[dict]) -> None:
    """One row per workload: the end-to-end metrics and fail_frac."""
    cols = [(k, u) for k, u in END_TO_END] + [("fail_frac", "ratio")]
    print("# " + "".join(f"{f'{k} [{u}]':>20}" for k, u in [("workload", "-")] + cols))
    for r in results:
        vals = [r["metrics"][k]["value"] for k, _ in END_TO_END] + [r["fail_frac"]]
        print("# " + f"{r['workload']:>20}" + "".join(f"{v:>20.6g}" for v in vals))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "permqmc" / "cli.py").is_file():
        print(f"error: {root} holds no permqmc source tree (src/permqmc); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, root)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_summary(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
        if not args.trace:
            print_table(results)
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

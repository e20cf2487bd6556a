"""Benchmark worker: one fresh process per workload run (started by run.py).

Order of work, so that each figure measures one thing:

1. cap the process's address space (``MEM_CAP_MB``);
2. time set-up: ``import permqmc``, then the first closed-form
   ``power_kernel`` call for every order c the workload uses;
3. write each pass's inputs and build its op list;
4. untraced: run the op list back to back (one client, closed loop),
   ``Workload.passes(--seconds)`` times, each pass on its own instance,
   timing each op; or traced: run it untraced, traced and untraced again,
   and compare the traced outputs with the first pass's byte for byte;
5. check every op's outputs, then write one JSON result file.

With ``--setup-only`` it stops after step 2 and prints the set-up times.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Address-space cap of the worker.  The largest workloads (shift-search,
# approx-build) peak near 0.48 GB resident and 0.65 GB of address space;
# 3 GiB leaves over 4x headroom for legitimate growth, while a runaway
# allocation fails as a MemoryError in one op (counted in ``failed``)
# instead of exhausting a 7 GB machine shared with other jobs.
MEM_CAP_MB = 3072


def cap_memory() -> None:
    cap = MEM_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def time_setup(orders) -> dict:
    t0 = time.perf_counter()
    import permqmc  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    from permqmc.kernels import power_kernel
    from permqmc.weights import weight_from_config
    from workloads import SPACE

    w = weight_from_config(SPACE)
    grid = [g / 8 for g in range(8)]
    for c in orders:
        power_kernel(w, c, grid)
    t2 = time.perf_counter()
    if not Path(permqmc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"permqmc imported from {permqmc.__file__}, not from {SRC}")
    return {"import_s": t1 - t0, "closed_form_s": t2 - t1, "setup_s": t2 - t0}


def run_op(op) -> tuple[int, float, str]:
    """Run one CLI op in-process; returns (exit code, seconds, error)."""
    from permqmc import cli

    gc.collect()
    t0 = time.perf_counter()
    try:
        rc, err = cli.main(list(op.argv)), ""
    except Exception as exc:   # a crashing op is a failed op, not a crashed run
        rc, err = -1, f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - t0, err


def check_op(op, rc: int, err: str, out: Path, workload, instance: int, refs) -> dict:
    import checks

    rec = {"op": op.name, "rc": rc}
    if rc != 0:
        rec["failures"] = [err or f"exit code {rc}"]
        return rec
    try:
        h = checks.headline(op, out)
        ref = refs[checks.ref_key(workload, instance)][op.name]
        rec["failures"] = checks.check(op, h, ref)
        rec["cert_ratio"] = checks.cert_ratio(h, ref)
        rec["cert_ratio_raw"] = checks.raw_cert_ratio(h)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        rec["failures"] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return rec


def run_pass(workload, instance: int, workdir: Path, out_name: str, refs, tracer=None):
    """One pass of the op list on one instance: per-op times and check records."""
    from workloads import write_inputs

    inputs = workdir / f"inputs-{instance}"
    if not inputs.exists():
        write_inputs(workload.name, instance, inputs)
    out = workdir / out_name
    out.mkdir(parents=True, exist_ok=True)
    ops = workload.ops(instance, inputs, out)
    times, records = {}, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = i
        rc, times[op.name], err = run_op(op)
        records.append(check_op(op, rc, err, out, workload, instance, refs))
    return ops, times, records



def solve_time(passes: list[dict]) -> float:
    """Wall time of one pass of the op list: the sum of per-op medians."""
    return sum(statistics.median(p[name] for p in passes) for name in passes[0])


def traced_run(workload, instance, workdir, refs, spans_path):
    """Untraced, traced, untraced passes on one instance.  The first pass's
    outputs are the byte-for-byte reference of the traced pass; the
    overhead compares the traced pass with the last one, both warm."""
    from tracer import Tracer

    ops, _, records = run_pass(workload, instance, workdir, "out", refs)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_times, traced_records = run_pass(workload, instance, workdir, "out-traced",
                                                   refs, tracer)
    finally:
        tracer.uninstall()
    _, plain_times, plain_records = run_pass(workload, instance, workdir, "out-again", refs)
    for op, rec in zip(ops, traced_records):
        for name in op.outputs:
            if not _same_bytes(workdir / "out" / name, workdir / "out-traced" / name):
                rec["failures"].append(f"traced output differs from untraced: {name}")
    tracer.dump(spans_path)
    layers = tracer.layer_metrics()
    layers["trace.overhead"] = solve_time([traced_times]) / solve_time([plain_times]) - 1.0
    return {"records": records + traced_records + plain_records, "layers": layers,
            "self_time_shares": tracer.self_time_shares()}


def _same_bytes(a: Path, b: Path) -> bool:
    return a.exists() and b.exists() and a.read_bytes() == b.read_bytes()


def environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": ver("numpy"), "scipy": ver("scipy"), "sympy": ver("sympy"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "mem_cap_mb": MEM_CAP_MB,
    }


def vm_peak_mb() -> float | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmPeak:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cap_memory()
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup = time_setup(workload.orders)
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import checks

    refs = checks.load_refs(workload)
    passes = 1 if args.trace else workload.passes(args.seconds)
    instances = workload.instances(args.seed, passes)
    result = {"setup": setup, "env": environment(), "instances": instances}
    if args.trace:
        result.update(traced_run(workload, instances[0], args.workdir, refs,
                                 args.result.with_suffix(".spans.jsonl")))
    else:
        times, records = [], []
        for instance in instances:
            _, t, r = run_pass(workload, instance, args.workdir, "out", refs)
            times.append(t)
            records += r
        result.update(op_times=times, records=records, solve_s=solve_time(times))
    result.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  vm_peak_mb=vm_peak_mb())
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

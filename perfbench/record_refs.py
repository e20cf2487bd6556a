"""Record the reference headline values the output checks compare against.

Run from the root of a checkout, at the commit whose outputs define
correctness (the references in ``refs/`` were recorded at the commit that
introduced this benchmark):

    python3 perfbench/record_refs.py --workload shift-search

It runs every op of every instance (``POOL`` of them; one for a workload
whose outputs ignore the seed) with the same thread pinning as the
benchmark, and writes ``refs/<workload>.json``.  For shift searches it also
records the certificate of the best shifted error, which the CLI does not
print, by evaluating the written rule file.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    args = ap.parse_args(argv)

    from run import PINNED

    os.environ.update(PINNED)   # before numpy loads BLAS: same threads as the benchmark
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import checks
    from permqmc import (KernelSpec, PermStructure, load_lattice, worst_case_error_sq)
    from permqmc.weights import weight_from_config
    from worker import run_op
    from workloads import POOL, SPACE, WORKLOADS, write_inputs

    for name in args.workload:
        workload = WORKLOADS[name]
        refs = {}
        for instance in range(POOL if workload.seeded else 1):
            work = Path.cwd() / ".perfbench-work" / f"refs-{name}-{instance}-{os.getpid()}"
            inputs, out = work / "inputs", work / "out"
            out.mkdir(parents=True)
            write_inputs(name, instance, inputs)
            entry = {}
            for op in workload.ops(instance, inputs, out):
                rc, dt, err = run_op(op)
                if rc != 0:
                    raise SystemExit(f"{name} instance {instance} {op.name}: exit {rc} {err}")
                h = checks.headline(op, out)
                if "e2_shifted" in h:
                    rule = load_lattice(out / op.outputs[0])
                    spec = KernelSpec(weight_from_config(SPACE), PermStructure.full(rule.d))
                    rep = worst_case_error_sq(rule.cubature(), spec)
                    if rep.value != h["e2_shifted"]:
                        raise SystemExit(f"{op.name}: re-evaluated shifted error differs")
                    h["e2_shifted"] = [rep.value, rep.truncation_certificate]
                entry[op.name] = h
                print(f"{name} {instance} {op.name} {dt:.2f}s", flush=True)
            refs[checks.ref_key(workload, instance)] = entry
            shutil.rmtree(work)
        (checks.REFS_DIR / f"{name}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

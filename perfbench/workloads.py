"""Workload table: the CLI op lists the benchmark times, and the seeded
input generator of the read-path workload.

Every op is one ``permqmc`` CLI invocation.  An op list is built from an
*instance* number in ``range(POOL)``; every instance has reference outputs
recorded in ``refs/`` (see checks.py).  The instance is passed to the CLI
as its ``--seed``.  A run makes ``passes`` passes over the op list, each on
its own instance drawn from the run's seed, so that instance-to-instance
differences in work (redraws in the randomized searches) average out
within a run instead of spreading the runs.

This module uses only the standard library: the worker imports it before
timing ``import permqmc``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL = 32

# alpha = 1, beta0 = beta1 = 1, linear Korobov generator: the closed-form
# kernel route, as in the README quick start.
SPACE = {"alpha": 1.0, "beta0": 1.0, "beta1": 1.0,
         "generator": {"kind": "korobov_linear"}, "c_R": 1.0}

# Korobov multipliers of the read-path lattices: the a in z = (1, a, a^2, ...)
# minimising the shift-averaged error over all a (searched once, offline).
# Fixed so that the input files do not depend on the CBC code under test.
KOROBOV_A = {(4, 503): 286, (5, 251): 53}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``kind`` selects the output check."""

    name: str
    kind: str          # "cbc", "approx", "eval" or "integrate"
    argv: tuple[str, ...]
    outputs: tuple[str, ...]   # files the op writes, relative to its out dir


@dataclass(frozen=True)
class Workload:
    """A named op list; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    orders: tuple[int, ...]    # power-kernel orders c the ops evaluate
    seeded: bool               # whether outputs depend on the instance
    pass_s: float              # nominal seconds per pass at the seed commit

    def ops(self, instance: int, inputs: Path, out: Path) -> list[Op]:
        return _OPS[self.name](instance, inputs, out)

    def passes(self, seconds: float) -> int:
        """Pass count for a run of ``seconds``: fixed by the nominal pass
        time, not measured, so that every commit runs the same work."""
        return max(1, int(seconds // self.pass_s))

    def instances(self, seed: int, passes: int) -> list[int]:
        if not self.seeded:
            return [0] * passes
        return [(seed * passes + j) % POOL for j in range(passes)]


def config_path(inputs: Path, d: int) -> Path:
    return inputs / f"space-d{d}.json"


def write_inputs(workload: str, instance: int, inputs: Path) -> None:
    """Write every input file the workload's ops read."""
    inputs.mkdir(parents=True, exist_ok=True)
    for d in (3, 4, 5, 8):
        config_path(inputs, d).write_text(json.dumps(
            {"space": SPACE, "structure": {"d": d, "invariant": "full"}},
            sort_keys=True))
    if workload == "certify":
        write_certify_inputs(instance, inputs)


def write_certify_inputs(instance: int, inputs: Path) -> None:
    """Shifted Korobov lattices, a weighted node file and an integrand spec,
    all drawn from ``random.Random(instance)``."""
    rng = random.Random(instance)
    for (d, n), a in KOROBOV_A.items():
        z = [pow(a, k, n) for k in range(d)]
        shift = [rng.random() for _ in range(d)]
        (inputs / f"lattice-d{d}.txt").write_text(
            f"{n} {d}\n" + " ".join(map(str, z)) + "\n"
            + " ".join(f"{x:.17g}" for x in shift) + "\n")
    nodes, d = 500, 3
    weights = [rng.uniform(0.5, 1.5) for _ in range(nodes)]
    scale = nodes / sum(weights)   # the rule is (1/N) sum w_j f(t_j)
    rows = [f"{nodes} {d}"]
    for w in weights:
        rows.append(" ".join(f"{x:.17g}" for x in [w * scale] + [rng.random() for _ in range(d)]))
    (inputs / "weighted-d3.qw").write_text("\n".join(rows) + "\n")
    (inputs / "integrand.json").write_text(json.dumps(
        {"family": "spectral_sample", "n_modes": 8, "norm": 1.0, "seed": instance},
        sort_keys=True))


def cbc_op(d: int, n: int, trials: int, instance: int, inputs: Path, out: Path) -> Op:
    tag = f"d{d}-n{n}" + (f"-t{trials}" if trials else "")
    argv = ["cbc", "--config", str(config_path(inputs, d)), "--n", str(n),
            "--seed", str(instance), "--out", str(out / f"cbc-{tag}.txt"),
            "--json", str(out / f"cbc-{tag}.json")]
    if trials:
        argv += ["--trials", str(trials)]
    return Op(f"cbc-{tag}", "cbc", tuple(argv), (f"cbc-{tag}.txt", f"cbc-{tag}.json"))


def approx_op(d: int, N: int, tau: float, instance: int, inputs: Path, out: Path) -> Op:
    tag = f"d{d}-N{N}"
    argv = ["approx-build", "--config", str(config_path(inputs, d)), "--N", str(N),
            "--tau", str(tau), "--seed", str(instance),
            "--out", str(out / f"approx-{tag}.qw"), "--json", str(out / f"approx-{tag}.json")]
    return Op(f"approx-{tag}", "approx", tuple(argv), (f"approx-{tag}.qw", f"approx-{tag}.json"))


def eval_op(d: int, rule: str, half_width: int | None, instance: int,
            inputs: Path, out: Path) -> Op:
    tag = f"d{d}-{Path(rule).stem}"
    argv = ["error-eval", "--config", str(config_path(inputs, d)),
            "--rule", str(inputs / rule), "--seed", str(instance),
            "--json", str(out / f"eval-{tag}.json")]
    if half_width is not None:
        argv += ["--method", "both", "--half-width", str(half_width)]
    return Op(f"eval-{tag}", "eval", tuple(argv), (f"eval-{tag}.json",))


def integrate_op(d: int, rule: str, instance: int, inputs: Path, out: Path) -> Op:
    tag = f"d{d}-{Path(rule).stem}"
    argv = ["integrate", "--config", str(config_path(inputs, d)),
            "--rule", str(inputs / rule), "--integrand", str(inputs / "integrand.json"),
            "--seed", str(instance), "--json", str(out / f"integrate-{tag}.json")]
    return Op(f"integrate-{tag}", "integrate", tuple(argv), (f"integrate-{tag}.json",))


_OPS = {
    "cbc-build": lambda i, inp, out: [
        cbc_op(5, 1009, 0, i, inp, out),
        cbc_op(8, 127, 0, i, inp, out),
    ],
    "shift-search": lambda i, inp, out: [
        cbc_op(5, 251, 16, i, inp, out),
        cbc_op(3, 1009, 8, i, inp, out),
    ],
    "approx-build": lambda i, inp, out: [
        approx_op(3, 1024, 1.5, i, inp, out),
        approx_op(5, 512, 1.5, i, inp, out),
    ],
    "certify": lambda i, inp, out: [
        eval_op(4, "lattice-d4.txt", 12, i, inp, out),
        eval_op(5, "lattice-d5.txt", 6, i, inp, out),
        eval_op(3, "weighted-d3.qw", None, i, inp, out),
        integrate_op(3, "weighted-d3.qw", i, inp, out),
    ],
}

WORKLOADS = {w.name: w for w in (
    Workload("cbc-build", orders=tuple(range(1, 9)), seeded=False, pass_s=5.5),
    Workload("shift-search", orders=tuple(range(1, 6)), seeded=True, pass_s=16.0),
    Workload("approx-build", orders=(1,), seeded=True, pass_s=6.0),
    Workload("certify", orders=tuple(range(1, 6)), seeded=True, pass_s=7.5),
)}

"""Time the package's engines, one fresh child process per run.

Every run reports its wall time and its peak resident set (``ru_maxrss``),
plus what its case checks.  The space is the README quick start's: alpha = 1,
the Korobov generator, full invariance (``cbc-partial`` sets its own).  Each
case's grid is fixed below:

  approx         ``assemble_rule`` at tau = 1.5, d = 3 (N = 1024, 2048, 4096)
                 and d = 5 (N = 512, 1024, 2048), seeds 1 and 2, with the
                 sha256 of the ``.qw`` file that ``approx-build --out`` would
                 write, and its work: the Gram pairs (``kernels._ryser``
                 batch entries), the eigenfunction values of Phi blocks and
                 those of the sampler (``_pair_values`` (mode, point) pairs)
  gram           the two per-pair engines alone on seeded uniform points:
                 ``kernel_perminv_gram(X, X)`` and ``eval_matrix(X, GRAM_MODES)``
                 at full invariance, (d, N) = (3, 1024), (5, 512), (8, 512),
                 (12, 256), and at (6, invariant (1, 2, 3), 512): the time of
                 each one's first call and the best of ``GRAM_CALLS`` more,
                 the sha256 of the Gram's and of Phi's bytes, and the Gram
                 certificate
  spectral       ``worst_case_error_sq_spectral`` and
                 ``mean_sq_error(method="spectral")`` on shifted Korobov
                 lattices, d = 4...8, with the sha256 of the report (less its
                 ``cert_exceeds_value`` flag, recorded beside it) or the
                 refusal message
  shifted-error  one shifted lattice error per route: ``lattice-fft`` at
                 d = 3 and n = 1009, 10007, 100003 and at d = 2 and n = 1009,
                 100003 (its FFT count and time), and the O(n^2) pair route
                 ``lattice`` at (3, 1009); the pair route also at (d, n) =
                 (4, 2003), (4, 4001) and (5, 2003), where it is the only
                 kernel route; on fixed CBC generating vectors, and
                 ``lattice-fft`` on the degenerate d = 3 vector (1, -1, 635)
                 at n = 1009, whose transposition (1 2) spans two lines;
                 ``lattice-fft`` at alpha = 2 and (d, n) = (3, 251), (3, 1009), (2, 1009),
                 shift linspace(0.1, 0.7, d), with the long-double sum over
                 all node pairs and exchanges (``tests/oracles.py``) as its
                 reference (its maxrss includes the reference's arrays); and
                 ``permqmc cbc --trials 64 --seed 1`` at d = 3, n = 1009...100003,
                 and ``--trials 16`` at (d, n) = (5, 251) and (4, 2003), whose
                 shift searches take the pair route
  e2             the fixed-point ``mean_sq_error`` (its raw value, certificate
                 and time) at alpha = 1, 2, 3 and (d, n) = (3, 1009), (4, 1009),
                 (5, 1009), (8, 127), (3, 10007), on the CBC generating vector
                 of each space: the first call, power-kernel tables included,
                 and the median of ``E2_CALLS`` more
  cbc-full       ``cbc_construct`` at full invariance on (d, n) = (5, 1009),
                 (8, 127), (3, 1009), (5, 251), (10, 1009), (12, 1009),
                 (12, 61), (13, 61), (14, 61), (16, 61): the first call's
                 wall time (its mask plans and tables included), the median
                 of up to ``CBC_CALLS`` more within ``CBC_SECONDS`` (one at
                 least), one sha256 of z, the step objectives, E2 and its
                 certificate, and one of the step certificates
  cbc-partial    ``cbc_construct`` at n = 1009 with the first s of d
                 coordinates exchangeable, (d, s) = (8, 2), (16, 2), (17, 2),
                 (18, 2), (12, 4), (24, 4), (10, 0): its largest step
                 certificate, E2 and E2's certificate, or the refusal message
  bound-constant ``bound_constant`` at lambda = 1.5, alpha = 1 and H = 16 on
                 d = 3...8 and 12 at full invariance, and on d = 8 with
                 invariant (1, 2, 3, 4): its lo and hi, or a MemoryError
                 under a 2 GiB address-space cap (``AS_CAP``), which the
                 child sets for itself and records as a result
  approx-tau     ``assemble_rule`` at d = 3, N = 1024, seed 1 and
                 tau = 1.5, 1.8, 1.9, 1.95 (alpha = 1, so tau < 2), under
                 the same cap: the basis size m of the rule's level and
                 ``certified``, or the refusal message
  stream         the eigenvalue stream at invariant (1, 2, 3, 4): ``assemble_rule``
                 at N = 256, seed 1 and d = 12, 16, 24, with e_wor_sq, its
                 certificate, m and the sha256 of the ``.qw`` file, and the
                 stream alone at d = 24 to ``STREAM_ENTRIES`` entries, with the
                 sha256 of its values and canonical labels; each with the
                 stream's pops and pushes (pops plus the heap's length)
  ryser          ``permanent_batch`` on (8192, s, s) stacks of kernel-like
                 entries in [0.9, 1.1] and of unit-modulus entries, s = 3, 5,
                 8 (best and median of 10 calls); and one sha256 of its
                 values on seeded float and complex stacks, s = 0...8
  cli            ``cli.main`` in one process, default space: the first call
                 (the parser built) and the median of ``CLI_CALLS`` more, of
                 ``cbc`` at (d, n) = (3, 61), ``error-eval`` without a rule
                 at d = 3 (the bound constant alone, so mostly the front
                 end) and ``approx-build`` at (d, N) = (3, 16), each with its
                 exit code and the sha256 of its JSON

Equal hashes across checkouts mean bitwise-equal results.  The package is
imported from ``PYTHONPATH``.  To compare checkouts, name each one's ``src``
with ``--checkout LABEL=DIR``; the runs then alternate between them, run by
run, so that drift in the machine's load falls on both alike:

    python tools/bench.py ryser shifted-error --checkout parent=../parent/src \\
        --checkout change=src --repeats 3 --out bench.json
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
# Korobov multiplier a per n, z = (1, a, a^2, ...) mod n (those of n = 251 and
# 503 are the benchmark's); the shift is drawn from a fixed seed per d
MULTIPLIER = {251: 53, 503: 286, 1009: 76}
# the CBC generating vectors of the space at (d, n), fixed so that the inputs
# do not depend on the checkout under test
CBC_Z = {(2, 1009): (1, 282), (2, 100003): (1, 38763),
         (3, 1009): (1, 282, 635), (3, 10007): (1, 3822, 2827),
         (3, 100003): (1, 38763, 75699), (4, 2003): (1, 765, 699, 1375),
         (4, 4001): (1, 1478, 823, 1769), (5, 2003): (1, 765, 699, 1375, 824)}
SHIFT = (0.3, 0.71, 0.05, 0.42, 0.88)
# the CBC generating vectors of the alpha = 2 space, whose lattice-fft rows
# carry a long-double reference
ALPHA2_Z = {(3, 251): (1, 70, 154), (3, 1009): (1, 282, 635), (2, 1009): (1, 282)}
# the CBC generating vectors of the spaces of the e2 case, by (alpha, d, n)
E2_Z = {(1, 3, 1009): (1, 282, 635), (1, 4, 1009): (1, 282, 635, 660),
        (1, 5, 1009): (1, 282, 635, 660, 464), (1, 8, 127): (1, 29, 79, 27, 74, 66, 70, 68),
        (2, 3, 1009): (1, 282, 635), (2, 4, 1009): (1, 282, 635, 153),
        (2, 5, 1009): (1, 282, 635, 153, 135), (2, 8, 127): (1, 29, 93, 19, 60, 24, 61, 13),
        (1, 3, 10007): (1, 3822, 2827), (2, 3, 10007): (1, 3822, 2827),
        (3, 3, 1009): (1, 271, 188), (3, 4, 1009): (1, 226, 149, 462),
        (3, 5, 1009): (1, 132, 592, 777, 304), (3, 8, 127): (1, 29, 93, 19, 67, 24, 56, 22),
        (3, 3, 10007): (1, 220, 2059)}
E2_CALLS = 10
# warm calls of a cbc-full run, and the seconds they may take after the first
CBC_CALLS, CBC_SECONDS = 5, 20.0
# address-space cap of a bound-constant or approx-tau child, in bytes
AS_CAP = 2 << 30
RYSER_BATCH = 8192
RYSER_CALLS = 10
# entries of the stream-alone row, near the 76855 that assemble_rule pops at
# (d, N) = (24, 256) to pair the conjugate modes of its m = 103 (whole tie groups)
STREAM_ENTRIES = 76858
# eigenfunctions per point of the gram case, and its calls after the first
GRAM_MODES = 100
GRAM_CALLS = 3
# the cli case's subcommands and their flags, and its calls after the first
CLI_ARGV = {"cbc": ["--d", "3", "--n", "61"], "error-eval": ["--d", "3"],
            "approx-build": ["--d", "3", "--N", "16"]}
CLI_CALLS = 20

CASES = {
    "approx": [("approx", d, N, seed) for d, N in ((3, 1024), (3, 2048), (3, 4096),
                                                   (5, 512), (5, 1024), (5, 2048))
               for seed in (1, 2)],
    "spectral": [("spectral", d, n, H, route)
                 for d, n, H in ((4, 503, 12), (5, 251, 6), (5, 251, 12),
                                 (6, 1009, 6), (7, 1009, 6), (8, 1009, 6))
                 for route in ("worst", "mean")],
    "shifted-error": ([("route", "lattice-fft", 3, n) for n in (1009, 10007, 100003)]
                      + [("route", "lattice-fft", 2, n) for n in (1009, 100003)]
                      + [("route", "lattice-fft", 3, 1009, 1, [1, 1008, 635])]
                      + [("route", "lattice-fft", d, n, 2) for d, n in ALPHA2_Z]
                      + [("route", "lattice", d, n)
                         for d, n in ((3, 1009), (4, 2003), (4, 4001), (5, 2003))]
                      + [("cbc", 3, n, 64) for n in (1009, 10007, 20011, 100003)]
                      + [("cbc", d, n, 16) for d, n in ((5, 251), (4, 2003))]),
    "e2": [("e2", alpha, d, n) for alpha in (1, 2, 3)
           for d, n in ((3, 1009), (4, 1009), (5, 1009), (8, 127), (3, 10007))],
    "cbc-full": [("cbc-full", d, n) for d, n in ((5, 1009), (8, 127), (3, 1009), (5, 251), (10, 1009),
                                                 (12, 1009), (12, 61), (13, 61), (14, 61), (16, 61))],
    "cbc-partial": [("cbc-partial", d, s, 1009) for d, s in ((8, 2), (16, 2), (17, 2), (18, 2),
                                                             (12, 4), (24, 4), (10, 0))],
    "bound-constant": ([("bound-constant", d, None) for d in (3, 4, 5, 6, 7, 8, 12)]
                       + [("bound-constant", 8, [1, 2, 3, 4])]),
    "gram": [("gram", d, N, None) for d, N in ((3, 1024), (5, 512), (8, 512), (12, 256))]
            + [("gram", 6, 512, [1, 2, 3])],
    "approx-tau": [("approx-tau", tau) for tau in (1.5, 1.8, 1.9, 1.95)],
    "stream": [("stream-rule", d) for d in (12, 16, 24)] + [("stream", 24, STREAM_ENTRIES)],
    "ryser": ([("ryser", kind, s) for s in (3, 5, 8) for kind in ("kernel", "phase")]
              + [("digest",)]),
    "cli": [("cli", command) for command in CLI_ARGV],
}


def _spec(d: int, alpha: float = 1.0):
    from permqmc import KernelSpec, PermStructure, SpectralWeight
    return KernelSpec(SpectralWeight(alpha=alpha), PermStructure.full(d))


def _cap_address_space() -> None:
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP, hard))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _qw_sha256(cubature) -> str:
    """sha256 of the ``.qw`` file that ``approx-build --out`` would write."""
    from permqmc.lattice import save_cubature

    with tempfile.TemporaryDirectory() as tmp:
        qw = Path(tmp) / "rule.qw"
        save_cubature(cubature, qw)
        return hashlib.sha256(qw.read_bytes()).hexdigest()


def _approx(d: int, N: int, seed: int) -> dict:
    from permqmc import kernels
    from permqmc.approx import SymmetricBasis, assemble_rule

    work = {"gram_pairs": 0, "phi_pairs": 0, "sampler_pairs": 0}
    ryser, pair_values = kernels._ryser, SymmetricBasis._pair_values

    def counted_ryser(cols):
        work["gram_pairs"] += cols.shape[2]
        return ryser(cols)

    def counted_values(self, points, js, p):
        # Phi blocks pass a column of modes; the sampler one mode per point
        work["phi_pairs" if np.ndim(js) == 2 else "sampler_pairs"] += np.broadcast(js, p).size
        return pair_values(self, points, js, p)

    kernels._ryser, SymmetricBasis._pair_values = counted_ryser, counted_values
    res, wall = _timed(lambda: assemble_rule(_spec(d), TAU, N, seed=seed))
    return {"wall_s": wall, "qw_sha256": _qw_sha256(res.cubature), "nodes": res.cubature.n,
            "level_m": res.algorithm.m, "certified": res.certified, **work}


def _gram(d: int, N: int, inv: list | None) -> dict:
    from permqmc import KernelSpec, PermStructure, SpectralWeight
    from permqmc.approx import SymmetricBasis
    from permqmc.kernels import kernel_perminv_gram

    ps = PermStructure.full(d) if inv is None else PermStructure(d, tuple(inv))
    spec = KernelSpec(SpectralWeight(), ps)
    X = np.random.default_rng([d, N]).uniform(size=(N, d))
    basis = SymmetricBasis(spec)
    basis.ensure(GRAM_MODES)
    t0 = time.perf_counter()
    (gram, cert), gram_s = _timed(lambda: kernel_perminv_gram(X, X, spec))
    phi, phi_s = _timed(lambda: basis.eval_matrix(X, GRAM_MODES))
    gram_best = min(_timed(lambda: kernel_perminv_gram(X, X, spec))[1] for _ in range(GRAM_CALLS))
    phi_best = min(_timed(lambda: basis.eval_matrix(X, GRAM_MODES))[1] for _ in range(GRAM_CALLS))
    return {"wall_s": time.perf_counter() - t0, "gram_s": gram_s, "phi_s": phi_s,
            "gram_best_s": gram_best, "phi_best_s": phi_best,
            "gram_sha256": hashlib.sha256(gram.tobytes()).hexdigest(),
            "phi_sha256": hashlib.sha256(phi.tobytes()).hexdigest(),
            "certificate": cert}


def _spectral(d: int, n: int, H: int, route: str) -> dict:
    from permqmc.errors import mean_sq_error, worst_case_error_sq_spectral
    from permqmc.lattice import LatticeRule

    a = MULTIPLIER[n]
    shift = tuple(float(v) for v in np.random.default_rng(d).random(d))
    rule = LatticeRule(n, tuple(pow(a, j, n) for j in range(d)), shift=shift)
    spec = _spec(d)
    t0 = time.perf_counter()
    try:
        if route == "worst":
            rep = worst_case_error_sq_spectral(rule, spec, half_width=H).to_json()
        else:
            rep = mean_sq_error(rule, spec, "spectral", half_width=H).to_json()
    except ValueError as exc:
        return {"wall_s": time.perf_counter() - t0, "refused": str(exc)}
    rec = {"wall_s": time.perf_counter() - t0, "refused": None,
           "cert_exceeds_value": rep.pop("cert_exceeds_value", None)}
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    return {**rec, "report_sha256": digest,
            "value": rep["value"], "certificate": rep["certificate"]}


def _route(route: str, d: int, n: int, alpha: int = 1, z: list | None = None) -> dict:
    """``lattice-fft`` through ``worst_case_error_sq`` (its raw value,
    certificate and FFT count), the pair route as ``lattice_gram_mean`` (the
    unit space's mean) less 1; on the CBC vector of (d, n) unless z is given."""
    from permqmc.errors import worst_case_error_sq
    from permqmc.kernels import lattice_gram_mean
    from permqmc.lattice import LatticeRule

    spec = _spec(d, float(alpha))
    rule = (LatticeRule(n, tuple(z or CBC_Z[d, n]), SHIFT[:d]) if alpha == 1 else
            LatticeRule(n, ALPHA2_Z[d, n], tuple(float(v) for v in np.linspace(0.1, 0.7, d))))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if route == "lattice-fft":
        rep, wall = _timed(lambda: worst_case_error_sq(rule, spec))
        assert rep.details["route"] == route
        rec = {"value": rep.details["raw_value"], "certificate": rep.truncation_certificate,
               "ffts": rep.details["ffts"]}
    else:
        (mean, cert, pairs), wall = _timed(lambda: lattice_gram_mean(rule, spec))
        rec = {"value": mean - 1.0, "certificate": cert, "pairs": pairs}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if alpha != 1:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
        from oracles import lattice_error_sq_long_double
        rec["reference"] = lattice_error_sq_long_double(rule, spec.perm, alpha)
    return {"wall_s": wall, "minflt": faults, **rec}


def _cbc(d: int, n: int, trials: int) -> dict:
    from permqmc.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        cfg, res = Path(tmp) / "cfg.json", Path(tmp) / "cbc.json"
        cfg.write_text(json.dumps({"space": {"alpha": 1.0},
                                   "structure": {"d": d, "invariant": "full"}}))
        code, wall = _timed(lambda: main(["cbc", "--config", str(cfg), "--n", str(n), "--trials",
                                          str(trials), "--seed", "1", "--json", str(res)]))
        out = json.loads(res.read_text())
    keep = ("z", "shift", "achieved_E2", "achieved_e2_shifted",
            "achieved_e2_shifted_certificate", "per_step_certificate",
            "shift_trials_used", "shift_flagged")
    return {"wall_s": wall, "exit_code": code, **{k: out[k] for k in keep}}


def _cli(command: str) -> dict:
    from permqmc.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *CLI_ARGV[command], "--json", str(Path(tmp) / "out.json")]
        code, first = _timed(lambda: main(argv))
        digest = hashlib.sha256((Path(tmp) / "out.json").read_bytes()).hexdigest()
        walls = [_timed(lambda: main(argv))[1] for _ in range(CLI_CALLS)]
    return {"wall_s": first + sum(walls), "first_s": first, "call_s_median": float(np.median(walls)),
            "exit_code": code, "json_sha256": digest}


def _cbc_full(d: int, n: int) -> dict:
    from permqmc.cbc import cbc_construct

    spec = _spec(d)
    res, first = _timed(lambda: cbc_construct(spec, n))
    walls, t0 = [], time.perf_counter()
    while not walls or (len(walls) < CBC_CALLS and time.perf_counter() - t0 < CBC_SECONDS):
        walls.append(_timed(lambda: cbc_construct(spec, n))[1])
    values = [list(res.rule.z), res.per_step_objective, res.achieved_E2, res.achieved_E2_certificate]
    return {"wall_s": first + sum(walls), "first_s": first, "call_s_median": float(np.median(walls)),
            "calls": len(walls), "E2": res.achieved_E2,
            "values_sha256": hashlib.sha256(json.dumps(values).encode()).hexdigest(),
            "certificates_sha256": hashlib.sha256(json.dumps(res.per_step_certificate).encode()).hexdigest()}


def _cbc_partial(d: int, s: int, n: int) -> dict:
    from permqmc import KernelSpec, PermStructure, SpectralWeight
    from permqmc.cbc import cbc_construct

    spec = KernelSpec(SpectralWeight(), PermStructure(d, tuple(range(1, s + 1))))
    t0 = time.perf_counter()
    try:
        res = cbc_construct(spec, n)
    except ValueError as exc:
        return {"wall_s": time.perf_counter() - t0, "refused": str(exc)}
    return {"wall_s": time.perf_counter() - t0, "refused": None, "z": list(res.rule.z),
            "max_step_certificate": max(res.per_step_certificate), "E2": res.achieved_E2,
            "E2_certificate": res.achieved_E2_certificate}


def _e2(alpha: int, d: int, n: int) -> dict:
    from permqmc.errors import mean_sq_error
    from permqmc.lattice import LatticeRule

    spec, rule = _spec(d, float(alpha)), LatticeRule(n, E2_Z[alpha, d, n])
    rep, first = _timed(lambda: mean_sq_error(rule, spec))
    walls = [_timed(lambda: mean_sq_error(rule, spec))[1] for _ in range(E2_CALLS)]
    cert = rep.truncation_certificate
    return {"wall_s": first + sum(walls), "first_s": first, "call_s_median": float(np.median(walls)),
            "value": rep.details["raw_value"], "certificate": cert,
            "cert_over_value": cert / rep.value if rep.value > 0 else None}


def _bound_constant(d: int, inv: list | None) -> dict:
    from permqmc import KernelSpec, PermStructure, SpectralWeight
    from permqmc.errors import bound_constant

    _cap_address_space()
    ps = PermStructure.full(d) if inv is None else PermStructure(d, tuple(inv))
    t0 = time.perf_counter()
    try:
        enc = bound_constant(KernelSpec(SpectralWeight(), ps), 1.5, half_width=16)
    except MemoryError:
        return {"wall_s": time.perf_counter() - t0, "memory_error": True}
    return {"wall_s": time.perf_counter() - t0, "memory_error": False, "lo": enc.lo, "hi": enc.hi}


def _approx_tau(tau: float) -> dict:
    from permqmc.approx import assemble_rule

    _cap_address_space()
    t0 = time.perf_counter()
    try:
        res = assemble_rule(_spec(3), tau, 1024, seed=1)
    except (ValueError, RuntimeError, MemoryError) as exc:
        return {"wall_s": time.perf_counter() - t0, "refused": f"{type(exc).__name__}: {exc}"}
    return {"wall_s": time.perf_counter() - t0, "refused": None, "level_m": res.algorithm.m,
            "certified": res.certified}


def _stream_spec(d: int):
    from permqmc import KernelSpec, PermStructure, SpectralWeight
    return KernelSpec(SpectralWeight(), PermStructure(d, (1, 2, 3, 4)))


def _stream_work(es) -> dict:
    return {"pops": len(es._values), "pushes": len(es._values) + len(es._heap)}


def _stream_rule(d: int) -> dict:
    from permqmc.approx import assemble_rule

    res, wall = _timed(lambda: assemble_rule(_stream_spec(d), TAU, 256, seed=1))
    return {"wall_s": wall, "qw_sha256": _qw_sha256(res.cubature), "e_wor_sq": res.e_wor_sq,
            "e_wor_certificate": res.e_wor_certificate, "level_m": res.algorithm.m,
            **_stream_work(res.algorithm.basis.stream)}


def _stream(d: int, m: int) -> dict:
    from permqmc.spectrum import EigenSpectrum

    es = EigenSpectrum(_stream_spec(d))
    entries, wall = _timed(lambda: [es.entry(i) for i in range(m)])
    digest = hashlib.sha256(np.array([lam for lam, _ in entries]).tobytes()
                            + json.dumps([label for _, label in entries]).encode()).hexdigest()
    return {"wall_s": wall, "sha256": digest, **_stream_work(es)}


def _ryser_timing(kind: str, s: int) -> dict:
    from permqmc.symmetry import permanent_batch

    rng = np.random.default_rng(s)
    if kind == "kernel":
        A = rng.uniform(0.9, 1.1, size=(RYSER_BATCH, s, s))
    else:
        A = np.exp(2j * np.pi * rng.uniform(size=(RYSER_BATCH, s, s)))
    walls = [_timed(lambda: permanent_batch(A))[1] for _ in range(RYSER_CALLS)]
    return {"wall_s": sum(walls), "call_s_min": min(walls),
            "call_s_median": float(np.median(walls))}


def _ryser_digest() -> dict:
    """The sha256 of ``permanent_batch``'s values, dtype included, on seeded
    stacks: s = 0...8, real and complex."""
    from permqmc.symmetry import permanent_batch

    rng = np.random.default_rng(16)
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for s in range(9):
        for cplx in (False, True):
            A = rng.standard_normal((300, s, s))
            if cplx:
                A = A + 1j * rng.standard_normal((300, s, s))
            per = permanent_batch(A)
            digest.update(per.dtype.str.encode() + per.tobytes())
    return {"wall_s": time.perf_counter() - t0, "sha256": {"permanent_batch": digest.hexdigest()}}


RUNNERS = {"approx": _approx, "gram": _gram, "spectral": _spectral, "route": _route, "cbc": _cbc, "cli": _cli,
           "cbc-full": _cbc_full, "cbc-partial": _cbc_partial, "e2": _e2, "bound-constant": _bound_constant,
           "approx-tau": _approx_tau, "stream-rule": _stream_rule, "stream": _stream,
           "ryser": _ryser_timing, "digest": _ryser_digest}


def _child(run: list) -> dict:
    """Run one measurement in this process and return its record."""
    rec = {"run": run, **RUNNERS[run[0]](*run[1:])}
    rec["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec


def _spawn(src: str | None, run: tuple) -> dict:
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, __file__, "--child", json.dumps(run)],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(json.loads(sys.argv[2]))))
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("case", nargs="+", choices=sorted(CASES), help="one or more cases")
    p.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR",
                   help="a checkout's src directory; repeat to alternate between several")
    p.add_argument("--repeats", type=int, default=1, help="runs per grid point and checkout")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    checkouts = [tuple(c.split("=", 1)) for c in args.checkout] or [("current", None)]
    runs: dict[str, list] = {label: [] for label, _ in checkouts}
    for run in (run for case in args.case for run in CASES[case]):
        for _ in range(args.repeats):
            for label, src in checkouts:
                rec = _spawn(src, run)
                runs[label].append(rec)
                print(label, json.dumps(rec), file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"case": " ".join(args.case),
                   "machine": {"cpu": platform.machine(), "cores": os.cpu_count(),
                               "python": platform.python_version(), "numpy": np.__version__},
                   "runs": runs}, fh, indent=1)


if __name__ == "__main__":
    main()

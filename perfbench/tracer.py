"""Outside-in span tracer for permqmc.

``Tracer.install()`` rebinds each traced public function, at its defining
module and at every ``permqmc`` module that imported the name, to a wrapper
that records a span (name, start, end, parent, run id) plus a few work
counts.  Methods are patched on their class.  ``uninstall()`` restores the
originals, so untraced runs execute the unmodified code.  Spans stay in
memory until ``dump()``.

Wrappers pass arguments and results through untouched: tracing must never
change an output byte (checked by ``tests/test_tracer.py`` and by every
traced benchmark run).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def _rows(x) -> int:
    """Row count of a point set as ``np.atleast_2d`` sees it."""
    return np.atleast_2d(x).shape[0]


# Count functions receive the bound arguments (defaults applied) and the
# result, and return the work counts of one call.
def _power_kernel(a, r):
    return {"points": int(np.size(a["t"]))}


def _gram(a, r):
    return {"pairs": _rows(a["X"]) * _rows(a["Y"])}


def _permanent_batch(a, r):
    b, s = a["A"].shape[0], a["A"].shape[1]
    return {"matrices": b, "subset_terms": b * ((1 << s) - 1)}


def _eval_matrix(a, r):
    return {"evals": int(r.shape[0] * r.shape[1]), "points": int(r.shape[1])}


def _spectral(a, r):
    return {"freqs": (2 * a["half_width"] + 1) ** a["rule"].d - 1}


def _shift_search(a, r):
    return {"trials": r.trials_used, "certified": int(r.certified)}


def _build_sequence(a, r):
    return {"levels": sum(1 for alg in r if alg.m > 0)}


def _io_bytes(a, r):
    return {"bytes": os.path.getsize(a["path"])}


@dataclass(frozen=True)
class Site:
    """A traced callable: ``module.qualname``, reported under ``name``."""

    name: str
    module: str
    qualname: str
    count: object = None


SITES = (
    Site("kernels.power_kernel", "kernels", "power_kernel", _power_kernel),
    Site("kernels.kernel_perminv_gram", "kernels", "kernel_perminv_gram", _gram),
    Site("kernels.shift_invariant_profile", "kernels", "shift_invariant_profile"),
    Site("symmetry.permanent_batch", "symmetry", "permanent_batch", _permanent_batch),
    Site("errors.cbc_step_objectives", "errors", "cbc_step_objectives",
         lambda a, r: {"candidates": int(a["n"])}),
    Site("errors.worst_case_error_sq", "errors", "worst_case_error_sq",
         lambda a, r: {"nodes": int(a["rule"].n)}),
    Site("errors.worst_case_error_sq_spectral", "errors", "worst_case_error_sq_spectral",
         _spectral),
    Site("errors.mean_sq_error", "errors", "mean_sq_error"),
    Site("errors.bound_constant", "errors", "bound_constant"),
    Site("cbc.cbc_construct", "cbc", "cbc_construct"),
    Site("cbc.shift_search", "cbc", "shift_search", _shift_search),
    Site("approx.SymmetricBasis.eval_matrix", "approx", "SymmetricBasis.eval_matrix",
         _eval_matrix),
    Site("approx.SymmetricBasis.sample_density", "approx", "SymmetricBasis.sample_density",
         lambda a, r: {"accepted": int(a["count"])}),
    Site("approx.build_approx_sequence", "approx", "build_approx_sequence", _build_sequence),
    Site("approx.average_approx_error_sq", "approx", "average_approx_error_sq"),
    Site("approx.assemble_rule", "approx", "assemble_rule"),
    Site("spectrum.EigenSpectrum.ensure", "spectrum", "EigenSpectrum.ensure"),
    Site("spectrum.spectrum_tail_constants", "spectrum", "spectrum_tail_constants"),
    Site("integrands.invariance_defect", "integrands", "invariance_defect"),
    Site("lattice.io", "lattice", "save_lattice", _io_bytes),
    Site("lattice.io", "lattice", "load_lattice", _io_bytes),
    Site("lattice.io", "lattice", "save_cubature", _io_bytes),
    Site("lattice.io", "lattice", "load_cubature", _io_bytes),
    Site("cli", "cli", "main"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    run_id: int          # the op the span belongs to
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span recorder for one worker process; not thread-safe (the benchmark
    drives the CLI from a single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for site in SITES:
            importlib.import_module(f"permqmc.{site.module}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "permqmc" or k.startswith("permqmc."))]
        for site in SITES:
            owner = sys.modules[f"permqmc.{site.module}"]
            *cls_path, attr = site.qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(site, original)
            if cls_path:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._rebind(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, site: Site, fn):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(site.name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if site.count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = site.count(bound.arguments, result)
            return result

        return functools.wraps(fn)(traced)

    # -- output -----------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run_id": s.run_id,
                                     "counts": s.counts}, sort_keys=True) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics (see BENCHMARK.json) aggregated over all spans."""
        spans = self.spans
        child_time = self._child_time()
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            dur = s.end - s.start
            calls[s.name] += 1
            self_s[s.name] += dur - child_time[i]
            if not self._nested_in_same(i):
                total[s.name] += dur
            for k, v in s.counts.items():
                counts[f"{s.name}.{k}"] += v

        def under(child: str, parent: str) -> int:
            return sum(1 for s in spans
                       if s.name == child and s.parent >= 0 and spans[s.parent].name == parent)

        gram_calls = calls["kernels.kernel_perminv_gram"]
        sd = "approx.SymmetricBasis.sample_density"
        proposals = sum(spans[i].counts.get("points", 0) for i, s in enumerate(spans)
                        if s.name == "approx.SymmetricBasis.eval_matrix"
                        and s.parent >= 0 and spans[s.parent].name == sd)
        levels = counts["approx.build_approx_sequence.levels"]
        trials = counts["cbc.shift_search.trials"]
        ss_calls = calls["cbc.shift_search"]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "kernels.power_kernel.calls": calls["kernels.power_kernel"],
            "kernels.power_kernel.points": counts["kernels.power_kernel.points"],
            "kernels.power_kernel.self_s": self_s["kernels.power_kernel"],
            "errors.cbc_step_objectives.calls": calls["errors.cbc_step_objectives"],
            "errors.cbc_step_objectives.candidates":
                counts["errors.cbc_step_objectives.candidates"],
            "errors.cbc_step_objectives.self_s": self_s["errors.cbc_step_objectives"],
            "errors.cbc_step_objectives.total_s": total["errors.cbc_step_objectives"],
            "kernels.kernel_perminv_gram.calls": gram_calls,
            "kernels.kernel_perminv_gram.pairs": counts["kernels.kernel_perminv_gram.pairs"],
            "kernels.kernel_perminv_gram.self_s": self_s["kernels.kernel_perminv_gram"],
            "kernels.kernel_perminv_gram.total_s": total["kernels.kernel_perminv_gram"],
            "symmetry.permanent_batch.calls": calls["symmetry.permanent_batch"],
            "symmetry.permanent_batch.matrices": counts["symmetry.permanent_batch.matrices"],
            "symmetry.permanent_batch.subset_terms":
                counts["symmetry.permanent_batch.subset_terms"],
            "symmetry.permanent_batch.self_s": self_s["symmetry.permanent_batch"],
            "symmetry.permanent_batch.calls_per_gram":
                ratio(under("symmetry.permanent_batch", "kernels.kernel_perminv_gram"),
                      gram_calls),
            "errors.worst_case_error_sq.calls": calls["errors.worst_case_error_sq"],
            "errors.worst_case_error_sq.nodes": counts["errors.worst_case_error_sq.nodes"],
            "errors.worst_case_error_sq.total_s": total["errors.worst_case_error_sq"],
            "errors.mean_sq_error.total_s": total["errors.mean_sq_error"],
            "kernels.shift_invariant_profile.total_s": total["kernels.shift_invariant_profile"],
            "cbc.shift_search.trials": trials,
            "cbc.shift_search.certified_ratio":
                ratio(counts["cbc.shift_search.certified"], ss_calls),
            "cbc.shift_search.total_s": total["cbc.shift_search"],
            "cbc.cbc_construct.total_s": total["cbc.cbc_construct"],
            "approx.SymmetricBasis.eval_matrix.calls": calls["approx.SymmetricBasis.eval_matrix"],
            "approx.SymmetricBasis.eval_matrix.evals":
                counts["approx.SymmetricBasis.eval_matrix.evals"],
            "approx.SymmetricBasis.eval_matrix.self_s":
                self_s["approx.SymmetricBasis.eval_matrix"],
            "approx.SymmetricBasis.sample_density.total_s": total[sd],
            "approx.SymmetricBasis.sample_density.accept_ratio":
                ratio(counts[f"{sd}.accepted"], proposals),
            "approx.build_approx_sequence.total_s": total["approx.build_approx_sequence"],
            "approx.build_approx_sequence.draws_per_level":
                ratio(under("approx.average_approx_error_sq", "approx.build_approx_sequence"),
                      levels),
            "approx.average_approx_error_sq.total_s": total["approx.average_approx_error_sq"],
            "approx.assemble_rule.int_draws":
                under("errors.worst_case_error_sq", "approx.assemble_rule"),
            "spectrum.EigenSpectrum.ensure.total_s": total["spectrum.EigenSpectrum.ensure"],
            "spectrum.spectrum_tail_constants.total_s":
                total["spectrum.spectrum_tail_constants"],
            "errors.worst_case_error_sq_spectral.total_s":
                total["errors.worst_case_error_sq_spectral"],
            "errors.worst_case_error_sq_spectral.freqs":
                counts["errors.worst_case_error_sq_spectral.freqs"],
            "errors.bound_constant.total_s": total["errors.bound_constant"],
            "integrands.invariance_defect.total_s": total["integrands.invariance_defect"],
            "lattice.io.s": total["lattice.io"],
            "lattice.io.bytes": counts["lattice.io.bytes"],
            "cli.self_s": self_s["cli"],
        }

    def self_time_shares(self) -> dict[str, float]:
        """Share of the summed root-span time spent in each span's own code."""
        child_time = self._child_time()
        own: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            own[s.name] += s.end - s.start - child_time[i]
        whole = sum(s.end - s.start for s in self.spans if s.parent < 0) or 1.0
        return {k: v / whole for k, v in sorted(own.items(), key=lambda kv: -kv[1])}

    def _child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        return child_time

    def _nested_in_same(self, i: int) -> bool:
        name = self.spans[i].name
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


__all__ = ["SITES", "Site", "Span", "Tracer"]

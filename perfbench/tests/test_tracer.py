"""Self-tests of the benchmark's tracer and output checks.

    python3 -m pytest -q perfbench/tests

The byte-identity test runs every workload's op kinds at small sizes; every
``run.py --trace 1`` run repeats the same comparison at full size.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import permqmc  # noqa: E402,F401
from tracer import SITES, Span, Tracer  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import (WORKLOADS, approx_op, cbc_op, eval_op, integrate_op,  # noqa: E402
                       write_inputs)

SMALL_OPS = {
    "cbc-build": lambda i, inp, out: [cbc_op(3, 31, 0, i, inp, out)],
    "shift-search": lambda i, inp, out: [cbc_op(3, 31, 2, i, inp, out)],
    "approx-build": lambda i, inp, out: [approx_op(3, 16, 1.5, i, inp, out)],
    "certify": lambda i, inp, out: [
        eval_op(5, "lattice-d5.txt", 2, i, inp, out),
        eval_op(3, "weighted-d3.qw", None, i, inp, out),
        integrate_op(3, "weighted-d3.qw", i, inp, out),
    ],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_are_byte_identical(name, tmp_path):
    inputs = tmp_path / "inputs"
    write_inputs(name, 5, inputs)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    for op in SMALL_OPS[name](5, inputs, plain):
        assert run_op(op)[0] == 0, op.name
    tracer = Tracer()
    tracer.install()
    try:
        for op in SMALL_OPS[name](5, inputs, traced):
            assert run_op(op)[0] == 0, op.name
    finally:
        tracer.uninstall()
    assert tracer.spans, "no spans recorded"
    for op in SMALL_OPS[name](5, inputs, plain):
        for f in op.outputs:
            assert (plain / f).read_bytes() == (traced / f).read_bytes(), f


def test_uninstall_restores_every_binding():
    mods = [m for k, m in sys.modules.items() if k == "permqmc" or k.startswith("permqmc.")]
    before = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    classes = {(s.module, s.qualname) for s in SITES if "." in s.qualname}
    tracer = Tracer()
    tracer.install()
    assert permqmc.kernels.power_kernel is not before["permqmc.kernels", "power_kernel"]
    assert permqmc.errors.kernel_perminv_gram is not before["permqmc.errors", "kernel_perminv_gram"]
    assert permqmc.cbc.cbc_step_objectives is not before["permqmc.cbc", "cbc_step_objectives"]
    tracer.uninstall()
    after = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    assert after == before
    for module, qualname in classes:
        cls_name, attr = qualname.split(".")
        cls = getattr(sys.modules[f"permqmc.{module}"], cls_name)
        assert not hasattr(cls.__dict__[attr], "__wrapped__")


def test_self_time_subtracts_children_and_total_skips_nested_same_name():
    t = Tracer()
    t.spans[:] = [
        Span("cli", 0.0, 10.0, -1, 0),
        Span("kernels.kernel_perminv_gram", 1.0, 7.0, 0, 0, {"pairs": 4}),
        Span("symmetry.permanent_batch", 2.0, 5.0, 1, 0, {"matrices": 4, "subset_terms": 12}),
        Span("symmetry.permanent_batch", 5.0, 6.0, 1, 0, {"matrices": 4, "subset_terms": 12}),
        Span("kernels.power_kernel", 8.0, 9.0, 0, 0, {"points": 3}),
        Span("kernels.power_kernel", 8.2, 8.7, 4, 0, {"points": 3}),
    ]
    m = t.layer_metrics()
    assert m["cli.self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert m["kernels.kernel_perminv_gram.self_s"] == pytest.approx(6.0 - 4.0)
    assert m["kernels.kernel_perminv_gram.total_s"] == pytest.approx(6.0)
    assert m["symmetry.permanent_batch.calls_per_gram"] == 2
    assert m["symmetry.permanent_batch.subset_terms"] == 24
    assert m["kernels.power_kernel.calls"] == 2
    assert m["kernels.power_kernel.self_s"] == pytest.approx(0.5 + 0.5)
    assert m["kernels.power_kernel.points"] == 6


def test_check_rejects_values_outside_combined_certificates():
    op = eval_op(4, "lattice-d4.txt", 12, 0, Path("in"), Path("out"))
    ref = {"worst_case": [1.0e-6, 1e-10], "mean_shifted": [2.0e-6, 1e-10],
           "bound_constant": [0.08, 0.09], "flags_ok": True, "cert": [1.0e-6, 1e-10]}
    good = dict(ref, worst_case=[1.0e-6 + 1.5e-10, 1e-10])
    bad = dict(ref, worst_case=[1.0e-6 + 2.5e-10, 1e-10])
    assert checks.check(op, good, ref) == []
    assert checks.check(op, bad, ref)
    loose = dict(ref, cert=[1.0e-6, 2e-10])
    assert checks.cert_ratio(loose, ref) == pytest.approx(2.0)


def test_check_lets_a_searched_value_improve_but_not_worsen():
    op = approx_op(3, 1024, 1.5, 0, Path("in"), Path("out"))
    ref = {"e_wor_sq": [1e-4, 1e-9], "flags_ok": True, "cert": [1e-4, 1e-9]}
    assert checks.check(op, dict(ref, e_wor_sq=[0.5e-4, 1e-9]), ref) == []
    assert checks.check(op, dict(ref, e_wor_sq=[1.1e-4, 1e-9]), ref)
    assert checks.check(op, dict(ref, flags_ok=False), ref)

"""Output checks behind ``failed`` / ``fail_frac`` and the ``cert_rel`` metric.

An op passes when it exited 0, every certified flag it reports is true, and
each headline value agrees with the reference recorded from the seed commit
(``refs/<workload>.json``, written by ``record_refs.py``) for the same instance:

* a computed value lies within the combined certificates of its reference,
  ``|v - ref| <= cert + ref_cert``;
* a searched value (the CBC generating vector's error when z differs from
  the reference, the best shifted error, the accepted weighted rule's error)
  does not exceed ``ref + cert + ref_cert``.

Independent of the references, routes that the op reports side by side must
agree within their combined certificates, and ``integrate`` must stay within
its a priori bound.

``cert_ratio`` is the op's headline certificate over its headline squared
error (``achieved_E2``, ``e_wor_sq``, ``worst_case.value``, ``e_wor**2``),
divided by the same ratio of the reference: 1 at the seed commit, above 1
when a change loosens certificates.  The raw ratio is kept for reporting.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REFS_DIR = Path(__file__).with_name("refs")


def load_refs(workload) -> dict:
    """Reference headlines of one workload, keyed by ``ref_key`` then op name."""
    return json.loads((REFS_DIR / f"{workload.name}.json").read_text())


def ref_key(workload, instance: int) -> str:
    return str(instance) if workload.seeded else "any"


def headline(op, out_dir: Path) -> dict:
    """The values an op's check and reference use, read from its JSON output."""
    doc = json.loads((out_dir / op.outputs[-1]).read_text())
    if op.kind == "cbc":
        h = {"z": doc["z"], "E2": [doc["achieved_E2"], doc["achieved_E2_certificate"]],
             "flags_ok": not doc["shift_flagged"]}
        if doc["achieved_e2_shifted"] is not None:
            h["e2_shifted"] = doc["achieved_e2_shifted"]
        h["cert"] = h["E2"]
        return h
    if op.kind == "approx":
        return {"e_wor_sq": [doc["e_wor_sq"], doc["e_wor_certificate"]],
                "flags_ok": bool(doc["certified"]) and doc["nodes"] <= doc["N"],
                "cert": [doc["e_wor_sq"], doc["e_wor_certificate"]]}
    if op.kind == "eval":
        h = {"bound_constant": [doc["bound_constant"]["lo"], doc["bound_constant"]["hi"]],
             "flags_ok": True}
        for key in ("worst_case", "mean_shifted", "worst_case_spectral",
                    "mean_shifted_spectral"):
            if key in doc:
                h[key] = [doc[key]["value"], doc[key]["certificate"]]
                h["flags_ok"] &= not doc[key].get("degenerate", False)
        h["cert"] = h["worst_case"]
        return h
    if op.kind == "integrate":
        e2 = [doc["e_wor"] ** 2, doc["e_wor_certificate"]]
        return {"e_wor_sq": e2, "value": doc["value"], "abs_error": doc["abs_error"],
                "apriori_bound": doc["apriori_bound"],
                "flags_ok": "warning" not in doc, "cert": e2}
    raise ValueError(f"unknown op kind {op.kind!r}")


def _within(v, ref) -> bool:
    return abs(v[0] - ref[0]) <= v[1] + ref[1]


def _not_above(v, ref) -> bool:
    return v[0] <= ref[0] + v[1] + ref[1]


def check(op, h: dict, ref: dict) -> list[str]:
    """Reasons the op's headline fails; empty when it passes."""
    bad = []
    if not h["flags_ok"]:
        bad.append("a certified flag is false")
    # routes reported side by side
    for a, b in (("worst_case", "worst_case_spectral"), ("mean_shifted", "mean_shifted_spectral")):
        if a in h and b in h and not _within(h[a], h[b]):
            bad.append(f"{a} and {b} disagree beyond their certificates")
    if op.kind == "integrate" and h["abs_error"] > h["apriori_bound"] * (1 + 1e-12):
        bad.append("integration error exceeds its a priori bound")
    # reference values
    if op.kind == "cbc":
        same_z = h["z"] == ref["z"]
        if not (_within if same_z else _not_above)(h["E2"], ref["E2"]):
            bad.append(f"achieved_E2 {h['E2'][0]!r} vs reference {ref['E2'][0]!r}")
        if "e2_shifted" in ref:
            shifted_cert = ref["e2_shifted"][1]
            if not _not_above([h["e2_shifted"], shifted_cert], ref["e2_shifted"]):
                bad.append(f"e2_shifted {h['e2_shifted']!r} above reference")
    elif op.kind == "approx":
        if not _not_above(h["e_wor_sq"], ref["e_wor_sq"]):
            bad.append(f"e_wor_sq {h['e_wor_sq'][0]!r} above reference {ref['e_wor_sq'][0]!r}")
    elif op.kind == "eval":
        lo, hi = h["bound_constant"]
        rlo, rhi = ref["bound_constant"]
        if lo > rhi or hi < rlo:
            bad.append("bound_constant enclosure misses the reference")
        for key in ("worst_case", "mean_shifted", "worst_case_spectral", "mean_shifted_spectral"):
            if key in ref and not _within(h[key], ref[key]):
                bad.append(f"{key} {h[key][0]!r} vs reference {ref[key][0]!r}")
    elif op.kind == "integrate":
        if not _within(h["e_wor_sq"], ref["e_wor_sq"]):
            bad.append(f"e_wor^2 {h['e_wor_sq'][0]!r} vs reference {ref['e_wor_sq'][0]!r}")
        # the rule applied to the integrand: no kernel involved, so only
        # summation-order rounding may differ
        if abs(h["value"] - ref["value"]) > 1e-12 * (1.0 + abs(ref["value"])):
            bad.append(f"integral {h['value']!r} vs reference {ref['value']!r}")
    return bad


def raw_cert_ratio(h: dict) -> float:
    value, cert = h["cert"]
    return cert / value if value > 0 else math.inf


def cert_ratio(h: dict, ref: dict) -> float:
    return raw_cert_ratio(h) / raw_cert_ratio(ref)

"""Independent checks of each workload's outputs.

Every expected value here is computed with `fractions.Fraction` from the
closed forms of the model, not read from the program.  The one exception is
the prove-symbolic cross-check, which applies each identity's lhs - rhs by
direct polynomial evaluation (`b2dunkl.operators.apply`), a path that
shares nothing with the symbolic prover it is checked against.

`check(spec, outputs)` returns {operation index: [problem, ...]} for the
operations whose output is wrong; an empty dict means every output passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List

from workloads import IDENTITIES, REFUTED, SUITES, rat

_I_POWER = ("1/1", "0/1+1/1i", "-1/1", "0/1+-1/1i")   # i^k as printed


def gaussian(text: str):
    """'p/q' or 'p/q+r/si' -> (re, im) as Fractions."""
    if text.endswith("i"):
        re_part, im_part = text[:-1].split("+", 1)
        return Fraction(re_part), Fraction(im_part)
    return Fraction(text), Fraction(0)


# ---- closed forms ---------------------------------------------------------


def energy(d: int, k0, k1, w) -> Fraction:
    return 2 * w * (d + 2 * k0 + 2 * k1 + 1)


def quartic_level_one(k0, k1, w) -> Fraction:
    """Eigenvalue of the quartic invariant on z (and on zb)."""
    return -8 * w ** 2 * (k0 - k1) * (k0 + k1 + 1)


def j2_closed(a: int, b: int, k0, k1) -> Fraction:
    """Angular-invariant eigenvalue of the basis state (a, b)."""
    d = a - b
    if d % 2:
        return (abs(d) + 2 * k0 + 2 * k1) ** 2
    e = abs(d)
    if e % 4 == 0:                  # fully even or fully odd character
        n = e // 4
        return 16 * n * (n + k0 + k1)
    n = (e - 2) // 4                # the two mixed characters
    return 4 * (2 * n + 2 * k0 + 1) * (2 * n + 2 * k1 + 1)


def _labels(d: int) -> List[str]:
    return [f"{d - i},{i}" for i in range(d + 1)]


def _split(label: str):
    a, b = label.split(",")
    return int(a), int(b)


def _triple(strings):
    return tuple(Fraction(s) for s in strings)


def _params_doc(k0, k1, w) -> dict:
    return {"k0": rat(k0), "k1": rat(k1), "w": rat(w)}


# ---- verify-all -------------------------------------------------------------


def _case_counts(d: int) -> Dict[str, int]:
    """Cases per suite that a degree-d run must report."""
    return {"eigen": d + 1, "j2": d + 1, "rho1": d + 1, "h0": d + 4,
            "k": d + 6, "cai": 2, "kernel": len(IDENTITIES),
            "appendixA": d + 1, "superint": 2}


def _check_verify_all(spec, outputs, bad):
    _guard(bad, 0, _verify_report, spec, outputs[0])


def _verify_report(spec, output) -> List[str]:
    info = spec["info"]
    d = info["degree"]
    k0, k1, w = _triple(info["triple"])
    p = []
    doc = json.loads(output["stdout"])
    if doc["status"] != "pass":
        p.append("report status is not pass")
    if doc["max_degree"] != d or doc["params"] != _params_doc(k0, k1, w):
        p.append("report echoes the wrong degree or parameters")
    names = [s["suite"] for s in doc["suites"]]
    if names != list(SUITES):
        p.append(f"suites {names}, expected {list(SUITES)}")
    counts = _case_counts(d)
    for s in doc["suites"]:
        name = s["suite"]
        cases = {c["name"]: c for c in s["cases"]}
        if len(s["cases"]) != counts.get(name, -1):
            p.append(f"{name}: {len(s['cases'])} cases, expected "
                     f"{counts.get(name)}")
        failing = [c["name"] for c in s["cases"] if c["status"] != "pass"]
        if failing:
            p.append(f"{name}: failing cases {failing[:3]}")
        if name == "eigen":
            for deg in range(d + 1):
                m = re.fullmatch(r"(\d+) states at energy (\S+)",
                                 cases[f"level-{deg:02d}"]["detail"])
                if (not m or int(m.group(1)) != deg + 1
                        or Fraction(m.group(2)) != energy(deg, k0, k1, w)):
                    p.append(f"eigen level {deg}: energy or state count "
                             "differs from 2w(d + 2k0 + 2k1 + 1)")
        elif name == "j2":
            for deg in range(d + 1):
                m = re.fullmatch(r"eigenvalues (.*)",
                                 cases[f"level-{deg:02d}"]["detail"])
                want = sorted({j2_closed(a, b, k0, k1)
                               for a, b in map(_split, _labels(deg))})
                got = [Fraction(v) for v in m.group(1).split(", ")] \
                    if m else None
                if got != want:
                    p.append(f"j2 level {deg}: eigenvalues differ from the "
                             "closed form")
        elif name == "k":
            m = re.search(r"eigenvalue (\S+)$",
                          cases["coordinate-eigenvector"]["detail"])
            if not m or Fraction(m.group(1)) != quartic_level_one(k0, k1, w):
                p.append("coordinate eigenvalue differs from "
                         "-8w^2(k0 - k1)(k0 + k1 + 1)")
        elif name == "kernel":
            if sorted(cases) != sorted(IDENTITIES):
                p.append("kernel suite does not cover the 19 identities")
            for ident, c in cases.items():
                want = "refuted" if ident in REFUTED else "proven"
                if not c["detail"].startswith(want):
                    p.append(f"kernel: {ident} is not {want}")
    return p


# ---- prove-symbolic ---------------------------------------------------------


def direct_nonzero(spec) -> Dict[str, bool]:
    """For each identity, whether lhs - rhs applied by direct polynomial
    evaluation at the seeded numeric triple is nonzero on some seeded
    polynomial."""
    from b2dunkl.kernel import IDENTITIES as CATALOGUE
    from b2dunkl.operators import apply
    from b2dunkl.params import Params
    from b2dunkl.poly import MPoly
    from b2dunkl.scalars import QI

    info = spec["info"]
    params = Params.numeric(*_triple(info["oracle_triple"]))
    polys = [MPoly(("z", "zb"), {(a, b): QI(re, im)
                                 for a, b, re, im in rows})
             for rows in info["oracle_polys"]]
    out = {}
    for op in spec["ops"]:
        if op["kind"] != "prove":
            continue
        ident = CATALOGUE[op["identity"]]
        out[op["identity"]] = any(
            not (apply(ident.lhs, f, params)
                 - apply(ident.rhs, f, params)).is_zero() for f in polys)
    return out


def _check_proof(op, output, nonzero) -> List[str]:
    name = op["identity"]
    p = []
    text = output["stdout"]
    if name in REFUTED:
        head = "REFUTED\n"
        doc = json.loads(text[len(head):]) if text.startswith(head) else {}
        entries = doc.get("witness", {}).get("entries", [])
        if (doc.get("status") != "REFUTED" or doc.get("identity") != name
                or not entries
                or not all(e["amplitude"]["terms"] for e in entries)):
            p.append(f"{name}: expected a refutation with a non-empty "
                     "witness")
    elif text != "PROVEN\n":
        p.append(f"{name}: expected PROVEN, got {text[:40]!r}")
    if "error" in nonzero:
        p.append(f"{name}: direct application crashed: {nonzero['error']}")
    elif nonzero.get(name) != (name in REFUTED):
        p.append(f"{name}: direct application of lhs - rhs is "
                 f"{'nonzero' if nonzero.get(name) else 'zero'}, "
                 "disagreeing with the expected verdict")
    return p


def _check_appendix(spec, output) -> List[str]:
    d = spec["info"]["degree"]
    doc = json.loads(output["stdout"])
    suites = doc["suites"]
    if doc["status"] != "pass" or [s["suite"] for s in suites] != \
            ["appendixA"]:
        return ["appendixA report does not pass"]
    cases = suites[0]["cases"]
    p = []
    if [c["name"] for c in cases] != [f"degree-{i:02d}"
                                      for i in range(d + 1)]:
        p.append("appendixA does not report one case per degree")
    for i, c in enumerate(cases):
        m = re.match(r"(\d+) monomials", c["detail"])
        if c["status"] != "pass" or not m or int(m.group(1)) != i + 1:
            p.append(f"appendixA {c['name']}: not every monomial passes")
    return p


def _check_prove_symbolic(spec, outputs, bad):
    try:
        nonzero = direct_nonzero(spec)
    except (ArithmeticError, ValueError) as exc:
        nonzero = {"error": f"{type(exc).__name__}: {exc}"}
    for i, op in enumerate(spec["ops"]):
        if op["kind"] == "prove":
            _guard(bad, i, _check_proof, op, outputs[i], nonzero)
        else:
            _guard(bad, i, _check_appendix, spec, outputs[i])


# ---- table-sweep ------------------------------------------------------------


def _entries(doc) -> Dict[tuple, tuple]:
    return {(e["source"], e["target"]): (Fraction(e["re"]), Fraction(e["im"]))
            for e in doc["entries"]}


def _check_basis(doc, d, k0, k1, w) -> List[str]:
    p = []
    if [lv["degree"] for lv in doc["levels"]] != list(range(d + 1)):
        p.append("basis does not list every level")
    for lv in doc["levels"]:
        deg = lv["degree"]
        if Fraction(lv["energy"]) != energy(deg, k0, k1, w):
            p.append(f"basis level {deg}: wrong energy")
        labels = [s["label"] for s in lv["states"]]
        if labels != _labels(deg):
            p.append(f"basis level {deg}: labels {labels}")
        for s in lv["states"]:
            a, b = _split(s["label"])
            if s["rotation_phase"] != _I_POWER[(a - b) % 4]:
                p.append(f"basis {s['label']}: wrong rotation phase")
    return p


def _norm_ratios(doc) -> Dict[str, Fraction]:
    return {r["label"]: Fraction(r["norm_ratio_to_head"])
            for r in doc["rows"]}


def _check_norms(doc, d) -> List[str]:
    ratios = _norm_ratios(doc)
    if list(ratios) != _labels(d) or ratios[doc["head"]] != 1 \
            or any(v <= 0 for v in ratios.values()):
        return ["norms: rows are not positive ratios over the level"]
    return []


def _check_h0(doc, d) -> List[str]:
    p = []
    for (src, tgt) in _entries(doc):
        if src == tgt:
            p.append(f"h0 {src}: nonzero diagonal")
        elif (_split(src)[1] - _split(tgt)[1]) % 2 == 0:
            p.append(f"h0 {src}->{tgt}: keeps chain parity")
    if doc["basis"] != _labels(d):
        p.append("h0: wrong basis")
    return p


def _check_k(doc, d, ratios) -> List[str]:
    c = _entries(doc)
    zero = (Fraction(0), Fraction(0))
    p = []
    for j in _labels(d):
        for k in _labels(d):
            re_jk, im_jk = c.get((j, k), zero)
            re_kj, im_kj = c.get((k, j), zero)
            scale = ratios[j] / ratios[k]
            if (re_jk, im_jk) != (re_kj * scale, -im_kj * scale):
                p.append(f"k {j},{k}: C[j][k] != conj(C[k][j]) N_j/N_k")
    return p


def _check_j2(doc, d, k0, k1) -> List[str]:
    want = {}
    for label in _labels(d):
        value = j2_closed(*_split(label), k0, k1)
        if value:
            want[(label, label)] = (value, Fraction(0))
    return [] if _entries(doc) == want else \
        ["j2: table is not the diagonal of closed-form eigenvalues"]


def _check_apply(doc, op, d, k0, k1, w) -> List[str]:
    label = op["argv"][op["argv"].index("--label") + 1]
    e = energy(d, k0, k1, w)
    p = []
    expansion = [(x["label"], gaussian(x["coefficient"]))
                 for x in doc["expansion"]]
    if expansion != [(label, (e, Fraction(0)))]:
        p.append(f"Hhat expansion of {label} is not {{{label}: E_{d}}}")

    def terms(poly):
        return {tuple(t["exp"]): (Fraction(t["re"]), Fraction(t["im"]))
                for t in poly["terms"]}
    src, img = terms(doc["input"]), terms(doc["result"])
    if doc["input"]["vars"] != doc["result"]["vars"] or \
            img != {k: (e * re, e * im) for k, (re, im) in src.items()}:
        p.append(f"Hhat image of {label} is not E_{d} times the state")
    return p


def _check_level_one(doc, k0, k1, w) -> List[str]:
    lam = (quartic_level_one(k0, k1, w), Fraction(0))
    if _entries(doc) != {("1,0", "1,0"): lam, ("0,1", "0,1"): lam}:
        return ["degree-1 k diagonal differs from "
                "-8w^2(k0 - k1)(k0 + k1 + 1)"]
    return []


def _check_table_sweep(spec, outputs, bad):
    norms = {op["triple"]: outputs[i]
             for i, op in enumerate(spec["ops"]) if op["kind"] == "norms"}
    for i, op in enumerate(spec["ops"]):
        _guard(bad, i, _check_table_op, spec, op, outputs[i],
               norms[op["triple"]])


def _check_table_op(spec, op, output, norms_output) -> List[str]:
    d = spec["info"]["degree"]
    k0, k1, w = _triple(spec["info"]["triples"][op["triple"]])
    doc, kind = json.loads(output["stdout"]), op["kind"]
    p = []
    if doc.get("params") != _params_doc(k0, k1, w):
        p.append(f"{kind}: echoes the wrong parameters")
    if kind == "basis":
        p += _check_basis(doc, d, k0, k1, w)
    elif kind == "norms":
        p += _check_norms(doc, d)
    elif kind == "h0":
        p += _check_h0(doc, d)
    elif kind == "k":
        ratios = _norm_ratios(json.loads(norms_output["stdout"]))
        p += _check_k(doc, d, ratios)
    elif kind == "j2":
        p += _check_j2(doc, d, k0, k1)
    elif kind == "apply":
        p += _check_apply(doc, op, d, k0, k1, w)
    elif kind == "k1":
        p += _check_level_one(doc, k0, k1, w)
    return p


_CHECKS = {"verify-all": _check_verify_all,
           "prove-symbolic": _check_prove_symbolic,
           "table-sweep": _check_table_sweep}


def _guard(bad, index, fn, *args) -> None:
    """Record fn's problems for one operation; output too malformed to
    check is a problem too."""
    try:
        problems = fn(*args)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError,
            ZeroDivisionError) as exc:
        problems = [f"output could not be checked "
                    f"({type(exc).__name__}: {exc})"]
    if problems:
        bad[index] = problems


def check(spec, outputs) -> Dict[int, List[str]]:
    """Problems per operation index in one round's `outputs`."""
    bad: Dict[int, List[str]] = {}
    _CHECKS[spec["workload"]](spec, outputs, bad)
    return bad

"""Acceptance gate: end-to-end checks of the shipped behaviour.

Each test covers one acceptance criterion and prints a single
``criterion-NN: PASS/FAIL`` line with the measured facts.  Everything is
exact rational arithmetic; no tolerances appear anywhere.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import b2dunkl
from b2dunkl.basis import (BasisLabel, energy, enumerate_basis, group_action,
                           norm_ratio, psi)
from b2dunkl.group import ALL_ELEMENTS, act
from b2dunkl.kernel import IDENTITIES, IDENTITY_NAMES, prove_named
from b2dunkl.operators import apply_named
from b2dunkl.params import DEFAULT_PARAMS, EXTRA_PARAM_SETS
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI
from b2dunkl.spectra import (E1_DIAG_VARIANT, E2_DIAG_VARIANT,
                             adjudicate_mirror_diagonals, expand,
                             h0_shifted_expansion, khat_expansion, label_str,
                             predicted_h0, predicted_k)
from b2dunkl.weighted import verify_weighted_conjugation


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion-{num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c01_oscillator_spectrum_exact_to_degree_12():
    p = DEFAULT_PARAMS
    ok = True
    checked = 0
    for deg in range(13):
        e = 2 * p.omega() * (deg + 2 * p.k0 + 2 * p.k1 + 1)
        for lb in enumerate_basis(deg):
            f = psi(lb, p)
            if apply_named("Hhat", f, p) != e * f:
                ok = False
            checked += 1
    _report(1, ok, f"{checked} states through degree 12 at the default "
                   "parameter triple")


def _angular_prediction(lb: BasisLabel, p) -> Fraction:
    family, n, _ = lb.classify()
    if family in ("E0", "E3"):
        return Fraction(16) * n * (n + p.k0 + p.k1)
    if family in ("E1", "E2"):
        return 4 * (2 * n + 2 * p.k0 + 1) * (2 * n + 2 * p.k1 + 1)
    return (abs(lb.a - lb.b) + 2 * p.k0 + 2 * p.k1) ** 2


def test_c02_angular_invariant_spectrum_exact_to_degree_12():
    p = DEFAULT_PARAMS
    ok = True
    checked = 0
    for deg in range(13):
        for lb in enumerate_basis(deg):
            f = psi(lb, p)
            if apply_named("J2", f, p) != _angular_prediction(lb, p) * f:
                ok = False
            checked += 1
    _report(2, ok, f"{checked} states against the three closed-form "
                   "eigenvalue branches")


def test_c03_quarter_rotation_phases_exact_to_degree_10():
    p = DEFAULT_PARAMS
    from b2dunkl.group import rotation
    quarter = rotation(1)
    ok = True
    checked = 0
    for deg in range(11):
        for lb in enumerate_basis(deg):
            f = psi(lb, p)
            if act(quarter, f) != QI.i_power(lb.a - lb.b) * f:
                ok = False
            checked += 1
    _report(3, ok, f"{checked} states with phase i^(a-b)")


def test_c04_component_tables_match_closed_forms_to_degree_12():
    triples = (DEFAULT_PARAMS,) + EXTRA_PARAM_SETS
    ok = True
    entries = 0
    for p in triples:
        for deg in range(13):
            for src in enumerate_basis(deg):
                got = dict(h0_shifted_expansion(src, p))
                want = {t: QI(v) for t, v in predicted_h0(src, p).items()}
                for t in set(got) | set(want):
                    entries += 1
                    if got.get(t, QI(0)) != want.get(t, QI(0)):
                        ok = False

    p = DEFAULT_PARAMS
    structure = 0
    for deg in range(13):
        e_half = Fraction(1, 2) * energy(deg, p)
        for src in enumerate_basis(deg):
            row = dict(h0_shifted_expansion(src, p))
            if src in row:
                ok = False
            if any((src.b - t.b) % 2 == 0 for t in row):
                ok = False
            f = psi(src, p)
            other = apply_named("Hhat_2", f, p) - e_half * f
            if expand(other, deg, p) != {t: -c for t, c in row.items()}:
                ok = False
            structure += 3
    _report(4, ok, f"{entries} entries over 3 parameter triples; "
                   f"{structure} structure checks at the default triple")


def test_c05_quartic_internal_invariants_exact_to_degree_10():
    p = DEFAULT_PARAMS
    w2 = p.omega() ** 2
    ok = True
    states = 0
    for deg in range(11):
        e = energy(deg, p)
        labels = enumerate_basis(deg)
        rows = {lb: dict(khat_expansion(lb, p)) for lb in labels}
        kmap = {}
        for src in labels:
            states += 1
            f = psi(src, p)
            kf = apply_named("Khat", f, p)
            kmap[src] = kf
            if apply_named("Hhat", kf, p) != e * kf:
                ok = False
            hf = apply_named("Hhat", f, p)
            df = apply_named("Hhat_0", f, p) - Fraction(1, 2) * hf
            ddf = (apply_named("Hhat_0", df, p)
                   - Fraction(1, 2) * apply_named("Hhat", df, p))
            rhs = (Fraction(-1, 2) * apply_named("Hhat", hf, p)
                   + 2 * w2 * apply_named("J2", f, p)
                   + 2 * w2 * apply_named("R", f, p)
                   + 4 * ddf)
            if kf != rhs:
                ok = False
            for tgt in labels:
                cjk = rows[src].get(tgt, QI(0))
                ckj = rows[tgt].get(src, QI(0))
                if cjk != ckj.conj() * QI(norm_ratio(src, tgt, p)):
                    ok = False
        for src in labels:
            f = psi(src, p)
            for g in ALL_ELEMENTS:
                img, phase = group_action(g, src)
                if act(g, f) != phase * psi(img, p):
                    ok = False
                if act(g, kmap[src]) != phase * kmap[img]:
                    ok = False
    z = MPoly.var("z")
    lam = -8 * w2 * (p.k0 - p.k1) * (p.k0 + p.k1 + 1)
    if apply_named("Khat", z, p) != lam * z:
        ok = False
    _report(5, ok, f"{states} states: oscillator commutation, closed form, "
                   "norm-ratio pairing, all 8 group conjugations, and the "
                   "coordinate eigenvector")


def test_c06_quartic_tables_compared_entrywise_to_degree_12():
    p = DEFAULT_PARAMS
    mismatches = []
    checked = 0
    for deg in range(13):
        for src in enumerate_basis(deg):
            got = dict(khat_expansion(src, p))
            want = {t: QI(v) for t, v in predicted_k(src, p).items()}
            for t in sorted(set(got) | set(want)):
                checked += 1
                g, w = got.get(t, QI(0)), want.get(t, QI(0))
                if g != w:
                    mismatches.append(
                        f"{label_str(src)}->{label_str(t)}: {g} vs {w}")

    triples = (DEFAULT_PARAMS,) + EXTRA_PARAM_SETS
    verdicts = [adjudicate_mirror_diagonals(pr, 8) for pr in triples]
    stable = all(v["E1"] == {E1_DIAG_VARIANT}
                 and v["E2"] == {E2_DIAG_VARIANT} for v in verdicts)
    ok = not mismatches and stable
    detail = (f"{checked} entries, {len(mismatches)} mismatches; contested "
              f"diagonal signs resolve to the same variant at all 3 triples")
    if mismatches:
        detail += "; first: " + mismatches[0]
    _report(6, ok, detail)


def test_c07_identities_proven_symbolically_within_budget():
    start = time.perf_counter()
    square_sum = prove_named("component-square-sum")
    elapsed = time.perf_counter() - start
    proven = 0
    ok = square_sum.proven and elapsed < 60.0
    for name in IDENTITY_NAMES:
        if not IDENTITIES[name].provable:
            continue
        if prove_named(name).proven:
            proven += 1
        else:
            ok = False
    _report(7, ok, f"{proven} identities proven over symbolic couplings; "
                   f"square-sum identity in {elapsed:.2f}s")


def test_c08_angular_quartic_commutator_refuted_with_witness():
    res = prove_named("angular-quartic")
    ok = (not res.proven) and (not res.residual.is_zero())

    p = DEFAULT_PARAMS
    f = psi(BasisLabel(6, 1), p)
    comm = (apply_named("J2", apply_named("Khat", f, p), p)
            - apply_named("Khat", apply_named("J2", f, p), p))
    ok = ok and not comm.is_zero()
    nterms = len(expand(comm, 7, p))
    _report(8, ok, f"formal refutation with witness on "
                   f"{len(res.residual.parts)} group elements; commutator "
                   f"on state 6,1 expands over {nterms} basis states")


def test_c09_weighted_conjugation_identity_symbolic_within_budget():
    start = time.perf_counter()
    ok = True
    count = 0
    for deg in range(7):
        for a in range(deg + 1):
            mono = MPoly(("z", "zb"), {(a, deg - a): 1})
            if not verify_weighted_conjugation(mono):
                ok = False
            count += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(9, ok, f"{count} monomials through degree 6 with symbolic "
                   f"couplings in {elapsed:.2f}s")


def test_c10_full_verification_run_timed_and_byte_identical():
    base_env = {k: v for k, v in os.environ.items()
                if not k.startswith("B2DUNKL_")}
    # the child runs the package this process imported, however it was found
    package_root = os.path.dirname(os.path.dirname(b2dunkl.__file__))
    base_env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    argv = [sys.executable, "-m", "b2dunkl.cli", "verify",
            "--suite", "all", "--max-degree", "10"]
    outs = []
    codes = []
    times = []
    for seed in ("0", "42"):
        env = dict(base_env)
        env["PYTHONHASHSEED"] = seed
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=env)
        times.append(time.perf_counter() - start)
        codes.append(proc.returncode)
        outs.append(proc.stdout)
    ok = codes == [0, 0] and outs[0] == outs[1] and max(times) < 300.0
    status = "?"
    if ok:
        status = json.loads(outs[0].decode())["status"]
        ok = status == "pass"
    _report(10, ok, f"two fresh runs in {times[0]:.1f}s/{times[1]:.1f}s, "
                    f"byte-identical, overall status {status!r}")

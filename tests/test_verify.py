"""Report shape and error paths of the verification-suite layer."""

import json

import pytest

from b2dunkl import spectra, verify
from b2dunkl.basis import (BasisLabel, group_action, j2_eigenvalue, psi,
                           rho1_eigenvalue)
from b2dunkl.group import IDENTITY
from b2dunkl.kernel import IDENTITY_NAMES, prove_named
from b2dunkl.operators import apply_named
from b2dunkl.params import DEFAULT_PARAMS, Params
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI
from b2dunkl.verify import SUITE_ORDER, run_suite, run_suites
from b2dunkl.weighted import verify_weighted_conjugation


def test_suite_order_is_complete():
    assert SUITE_ORDER == ("eigen", "j2", "rho1", "h0", "k", "cai",
                           "kernel", "appendixA", "superint")


def test_eigen_suite_report_shape():
    rep = run_suite("eigen", DEFAULT_PARAMS, 3)
    assert rep.suite == "eigen"
    assert rep.max_degree == 3
    assert rep.passed
    blob = rep.to_json_dict()
    assert blob["status"] == "pass"
    assert [c["name"] for c in blob["cases"]] == [
        "level-00", "level-01", "level-02", "level-03"]
    assert all(c["status"] == "pass" for c in blob["cases"])
    json.dumps(blob)


def test_unknown_suite_rejected(monkeypatch):
    with pytest.raises(KeyError) as one:
        run_suite("bogus", DEFAULT_PARAMS, 2)
    # run_suites rejects the whole selection before it runs any suite
    ran = []
    monkeypatch.setattr(verify, "run_suite", lambda *a: ran.append(a))
    with pytest.raises(KeyError) as many:
        run_suites(["eigen", "bogus"], DEFAULT_PARAMS, 2)
    assert ran == []
    assert many.value.args == one.value.args == (
        "unknown suite 'bogus'; available: " + ", ".join(SUITE_ORDER)
        + ", all",)


def test_symbolic_params_rejected():
    with pytest.raises(ValueError):
        run_suite("eigen", Params.symbolic(), 2)


def test_non_generic_params_rejected():
    from fractions import Fraction
    bad = Params.numeric(Fraction(1, 2), Fraction(1, 2), Fraction(2, 3))
    with pytest.raises(ValueError):
        run_suite("eigen", bad, 13)


def test_run_suites_reorders_requests():
    reports = run_suites(["rho1", "eigen"], DEFAULT_PARAMS, 2)
    assert [r.suite for r in reports] == ["eigen", "rho1"]


def test_superint_suite_refutes_and_witnesses():
    rep = run_suite("superint", DEFAULT_PARAMS, 7)
    assert rep.passed
    names = [c.name for c in rep.cases]
    assert names == ["formal-refutation", "spectral-witness"]


def test_kernel_and_superint_share_one_refutation(monkeypatch):
    # one run is one image scope: the superint suite's refutation reuses
    # the kernel suite's images and takes no first-order step, the kernel
    # suite proves every identity exactly once, and the memo is empty after
    # the run
    from b2dunkl import kernel, verify
    proofs, steps = [], []
    first_order = kernel._first_order

    def counting(name):
        before = len(steps)
        res = prove_named(name)
        proofs.append((name, len(steps) - before))
        return res

    def counted_step(var, state, params):
        steps.append(var)
        return first_order(var, state, params)

    monkeypatch.setattr(verify, "prove_named", counting)
    monkeypatch.setattr(kernel, "_first_order", counted_step)
    reports = run_suites(["kernel", "superint"], DEFAULT_PARAMS, 0)
    assert all(r.passed for r in reports)
    assert sorted(name for name, _ in proofs[:-1]) == sorted(IDENTITY_NAMES)
    assert sum(n for _, n in proofs[:-1]) > 0
    assert proofs[-1] == ("angular-quartic", 0)
    with kernel.image_scope() as memo:
        assert memo == {}


# fault injection: each fault makes exactly one item of each named case
# wrong, through one name the suite looks up in `verify`, so a lone
# mismatch must fail its case and the run
_FAULT_LABEL = BasisLabel(2, 0)


def _off_for_label(fn, fault):
    """`fn`, with `fault` applied to its result for _FAULT_LABEL."""
    def patched(label, *args):
        out = fn(label, *args)
        return fault(out, label, *args) if label == _FAULT_LABEL else out
    return patched


def _extra_diagonal(row, label, params):
    return row + ((label, QI(1)),)


def _off_prediction(row, label, params):
    out = dict(row)
    out[label] = out.get(label, 0) + 1
    return out


def _swapped_image(g, label):
    img, phase = group_action(g, label)
    return (img.swap(), phase) if g == IDENTITY and label == _FAULT_LABEL \
        else (img, phase)


def _khat_off_on_fault_label(name, f, params):
    out = apply_named(name, f, params)
    if name == "Khat" and f == psi(_FAULT_LABEL, params):
        out = out + f
    return out


def _hhat_off_on_khat_image(name, f, params):
    out = apply_named(name, f, params)
    if name == "Hhat" and f == apply_named(
            "Khat", psi(_FAULT_LABEL, params), params):
        out = out + 1
    return out


def _imaginary_diagonal(row, label, params):
    out = dict(row)
    out[label] = out.get(label, QI(0)) + QI(0, 1)
    return tuple(out.items())


def _conjugation_off_on_z_zb(mono):
    return (mono != MPoly.var("z") * MPoly.var("zb")
            and verify_weighted_conjugation(mono))


FAULTS = {
    "eigen": ("eigen", "psi",
              _off_for_label(psi, lambda f, lb, pr: f + 1),
              {"level-02": "1/3 states failed: 2,0"}),
    "j2": ("j2", "j2_eigenvalue",
           _off_for_label(j2_eigenvalue, lambda lam, lb, pr: lam + 1),
           {"level-02": "1/3 states failed: 2,0"}),
    "rho1": ("rho1", "rho1_eigenvalue",
             _off_for_label(rho1_eigenvalue, lambda ph, lb: -ph),
             {"level-02": "1/3 states failed: 2,0"}),
    "h0": ("h0", "h0_shifted_expansion",
           _off_for_label(spectra.h0_shifted_expansion, _extra_diagonal),
           {"table-level-02": "1/3 entries failed: 2,0->2,0 computed 1/1 "
                              "predicted 0/1",
            "shift-removes-diagonal": "1/15 states failed: 2,0",
            "entries-flip-chain-parity": "1/15 states failed: 2,0->2,0",
            "opposite-component-reconstruction":
                "1/15 states failed: 2,0"}),
    "k-table": ("k", "predicted_k",
                _off_for_label(spectra.predicted_k, _off_prediction),
                {"table-level-02": "1/3 entries failed"}),
    "k-closed-form": ("k", "apply_named", _khat_off_on_fault_label,
                      {"closed-form-on-basis": "1/15 states failed: 2,0"}),
    "k-commutes": ("k", "apply_named", _hhat_off_on_khat_image,
                   {"hamiltonian-commutes": "1/15 states failed: 2,0"}),
    "k-equivariance": ("k", "group_action", _swapped_image,
                       {"group-equivariance":
                            "1/120 actions failed: 2,0 under rot0"}),
    "cai": ("cai", "khat_expansion",
            _off_for_label(spectra.khat_expansion, _imaginary_diagonal),
            {"norm-symmetry-quartic": "1/55 pairs failed: 2,0,2,0"}),
    "appendixA": ("appendixA", "verify_weighted_conjugation",
                  _conjugation_off_on_z_zb,
                  {"degree-02": "1/3 monomials failed: z^1 zb^1"}),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_one_wrong_prediction_fails_its_level(fault, monkeypatch, capsys):
    from b2dunkl import cli, verify
    suite, name, patched, want = FAULTS[fault]
    monkeypatch.setattr(verify, name, patched)
    code = cli.main(["verify", "--suite", suite, "--max-degree", "4"],
                    env={})
    assert code == 1
    (report,) = json.loads(capsys.readouterr().out)["suites"]
    failed = {c["name"]: c["detail"] for c in report["cases"]
              if c["status"] != "pass"}
    assert sorted(failed) == sorted(want)
    for case, prefix in want.items():
        assert failed[case].startswith(prefix), (case, failed[case])

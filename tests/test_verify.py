"""Report shape and error paths of the verification-suite layer."""

import json

import pytest

from b2dunkl.kernel import IDENTITY_NAMES, prove_named
from b2dunkl.params import DEFAULT_PARAMS, Params
from b2dunkl.verify import SUITE_ORDER, run_suite, run_suites


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


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("bogus", DEFAULT_PARAMS, 2)
    with pytest.raises(KeyError):
        run_suites(["eigen", "bogus"], DEFAULT_PARAMS, 2)


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


def test_one_wrong_prediction_fails_its_level(monkeypatch, capsys):
    # fault injection: a single wrong entry of the k table must fail its
    # level and the run, so the tally cannot pass a lone mismatch
    from b2dunkl import cli, spectra, verify
    from b2dunkl.basis import BasisLabel
    diagonal = BasisLabel(2, 0)

    def off_by_one(label, params):
        out = dict(spectra.predicted_k(label, params))
        if label == diagonal:
            out[diagonal] = out.get(diagonal, 0) + 1
        return out

    monkeypatch.setattr(verify, "predicted_k", off_by_one)
    code = cli.main(["verify", "--suite", "k", "--max-degree", "4"], env={})
    assert code == 1
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    failed = [c for c in suite["cases"] if c["status"] != "pass"]
    assert [c["name"] for c in failed] == ["table-level-02"]
    assert failed[0]["detail"].startswith("1/3 entries failed")

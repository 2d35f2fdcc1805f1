"""Command-line behaviour: output schemas, exit codes, env overrides,
and byte determinism of reports."""

import json

import pytest

from b2dunkl import operators, spectra
from b2dunkl.cli import main
from b2dunkl.operators import Commutator, Mul, expr_to_json, named
from b2dunkl.poly import ExactDivisionError, MPoly

Z = MPoly.var("z")
ZB = MPoly.var("zb")


def run(capsys, argv, env=None):
    code = main(argv, env=env or {})
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_k_level_one_has_the_single_coupling_cell(capsys):
    code, out, _ = run(capsys, ["table", "k", "--degree", "1"])
    assert code == 0
    blob = json.loads(out)
    assert blob["which"] == "k"
    assert blob["basis"] == ["1,0", "0,1"]
    # -8 w^2 (k0 - k1)(k0 + k1 + 1) at the default triple
    want = {"re": "9280/53361", "im": "0/1"}
    assert blob["entries"] == [
        {"source": "1,0", "target": "1,0", **want},
        {"source": "0,1", "target": "0,1", **want},
    ]


def test_table_j2_level_two_eigenvalues(capsys):
    code, out, _ = run(capsys, ["table", "j2", "--degree", "2"])
    assert code == 0
    blob = json.loads(out)
    entries = blob["entries"]
    assert all(e["source"] == e["target"] for e in entries)
    values = {e["source"]: e["re"] for e in entries}
    # 4 (2 k0 + 1)(2 k1 + 1) = 156/11 at defaults on both mixed states;
    # the invariant state sits at eigenvalue 0, so its cell is dropped
    assert values == {"2,0": "156/11", "0,2": "156/11"}
    assert all(e["im"] == "0/1" for e in entries)
    assert blob["basis"] == ["2,0", "1,1", "0,2"]


def test_table_norms_csv(capsys):
    code, out, _ = run(capsys, ["table", "norms", "--degree", "3",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,seed_norm_rel,norm_ratio_to_head"
    assert len(lines) == 5
    assert lines[1].startswith('"3,0"')
    assert lines[1].split(",")[-1] == "1/1"


def test_basis_command_levels_and_isotypes(capsys):
    code, out, _ = run(capsys, ["basis", "--degree", "2"])
    assert code == 0
    blob = json.loads(out)
    assert [lv["degree"] for lv in blob["levels"]] == [0, 1, 2]
    ground = blob["levels"][0]["states"][0]
    assert ground["polynomial"]["terms"] == [
        {"exp": [], "re": "1/1", "im": "0/1"}]
    top = blob["levels"][2]["states"]
    assert [st["label"] for st in top] == ["2,0", "1,1", "0,2"]
    assert [st["isotype"] for st in top] == ["chi1", "chi0", "chi2"]
    odd = blob["levels"][1]["states"]
    assert [st["isotype"] for st in odd] == ["plane", "plane"]
    assert [st["rotation_phase"] for st in odd] == ["0/1+1/1i", "0/1+-1/1i"]


def test_non_generic_parameters_exit_two(capsys):
    code, out, err = run(capsys, ["table", "h0", "--degree", "13",
                                  "--k0", "1/2", "--k1", "1/2"])
    assert code == 2
    assert "generic" in err
    code, _, err = run(capsys, ["basis", "--degree", "13",
                                "--k0", "1/2", "--k1", "1/2"])
    assert code == 2
    assert "generic" in err


def test_internal_arithmetic_error_exits_three(capsys, monkeypatch):
    # a crash must not read as a refutation (status 1)
    def broken(var, p, params):
        raise ExactDivisionError("nonzero remainder")

    monkeypatch.setattr(operators, "apply_dunkl", broken)
    code, out, err = run(capsys, ["apply", "--op", "T", "--label", "1,0"])
    assert code == 3
    assert out == ""
    assert err == ("b2dunkl: internal error: ExactDivisionError: "
                   "nonzero remainder\n")


def test_bad_rational_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "k", "--degree", "1", "--k0", "0.5"], env={})
    assert exc.value.code == 2


def test_negative_coupling_exits_two(capsys):
    code, _, err = run(capsys, ["table", "k", "--degree", "1",
                                "--k0=-1/2"])
    assert code == 2
    assert "nonnegative" in err


def test_env_overrides_and_flag_precedence(capsys):
    env = {"B2DUNKL_MAX_DEGREE": "1", "B2DUNKL_K0": "5/11"}
    code, out, _ = run(capsys, ["table", "k"], env=env)
    assert code == 0
    blob = json.loads(out)
    assert blob["degree"] == 1
    assert blob["params"]["k0"] == "5/11"
    # equal couplings kill the level-one diagonal entirely
    assert blob["entries"] == []
    # explicit flags win over the environment
    code, out, _ = run(capsys, ["table", "k", "--k0", "3/7"], env=env)
    blob = json.loads(out)
    assert blob["params"]["k0"] == "3/7"
    assert blob["entries"] != []


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "rho1",
                                "--max-degree", "4"])
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "pass"
    assert [s["suite"] for s in blob["suites"]] == ["rho1"]
    assert all(c["status"] == "pass"
               for s in blob["suites"] for c in s["cases"])


def test_verify_kernel_suite_lists_identities(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "kernel",
                                "--max-degree", "0"])
    assert code == 0
    blob = json.loads(out)
    names = [c["name"] for c in blob["suites"][0]["cases"]]
    assert "component-square-sum" in names
    assert "angular-quartic" in names


def test_verify_k_suite_passes_below_degree_two(capsys):
    # no mirror-family label exists below degree 2, so the contested
    # diagonal is adjudicated at degree 2 and must pass
    for degree in ("0", "1"):
        code, out, _ = run(capsys, ["verify", "--suite", "k",
                                    "--max-degree", degree])
        assert code == 0, degree
        cases = json.loads(out)["suites"][0]["cases"]
        adj = [c for c in cases
               if c["name"] == "contested-diagonal-adjudication"]
        assert [c["status"] for c in adj] == ["pass"]


def test_memoised_dunkl_report_matches_direct_quotient(capsys, monkeypatch):
    # the same process, once through the monomial memo and once through the
    # direct difference quotient, each from cold caches
    def direct_dunkl(var, p, params):
        quotients = operators.reflection_quotients(var, p, params)
        return sum((q for _, q in quotients), p.diff(var))

    argv = ["verify", "--suite", "k", "--max-degree", "4"]
    memo = operators._monomial_image
    caches = (memo, operators.monomial_quotients, spectra._level_solver,
              spectra.h0_shifted_expansion, spectra.khat_expansion,
              spectra.j2_expansion)
    outputs, memo_sizes = [], []
    for direct in (False, True):
        if direct:
            monkeypatch.setattr(operators, "apply_dunkl", direct_dunkl)
        for cache in caches:
            cache.cache_clear()
        code, out, _ = run(capsys, argv)
        assert code == 0
        outputs.append(out)
        memo_sizes.append(memo.cache_info().currsize)
    assert memo_sizes[0] and not memo_sizes[1]
    assert outputs[0] == outputs[1]


def test_verify_report_bytes_are_stable(capsys):
    argv = ["verify", "--suite", "eigen,rho1", "--max-degree", "3"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    blob = json.loads(out1)
    assert [s["suite"] for s in blob["suites"]] == ["eigen", "rho1"]


def test_verify_unknown_suite_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2
    assert "unknown suite" in err


def test_verify_csv_rows(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "superint",
                                "--max-degree", "7", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "suite,case,status,detail"
    assert any(line.startswith("superint,spectral-witness,pass")
               for line in lines)


def test_prove_name_and_expression(capsys):
    code, out, _ = run(capsys, ["prove", "--identity", "component-sum-02"])
    assert code == 0
    assert out == "PROVEN\n"

    expr = {
        "lhs": expr_to_json(Commutator(Mul(Z * ZB), named("T"))),
        "rhs": expr_to_json(Mul(-ZB)),
    }
    code, out, _ = run(capsys, ["prove", "--identity", json.dumps(expr)])
    assert code == 0
    assert out == "PROVEN\n"


def test_prove_refuted_emits_witness(capsys):
    code, out, _ = run(capsys, ["prove", "--identity", "angular-quartic"])
    assert code == 1
    assert out.startswith("REFUTED\n")
    blob = json.loads(out.split("\n", 1)[1])
    assert blob["status"] == "REFUTED"
    assert blob["witness"]["entries"]

    code, out, _ = run(capsys, ["prove", "--identity", "angular-quartic",
                                "--format", "json"])
    assert code == 1
    assert json.loads(out)["status"] == "REFUTED"


def test_prove_unknown_identity_exits_two(capsys):
    code, _, err = run(capsys, ["prove", "--identity", "made-up"])
    assert code == 2
    assert "unknown identity" in err


def test_prove_list(capsys):
    code, out, _ = run(capsys, ["prove", "--list"])
    assert code == 0
    names = out.strip().split("\n")
    assert "quartic-hamiltonian" in names
    assert names == sorted(names)


def test_apply_label_with_expansion(capsys):
    code, out, _ = run(capsys, ["apply", "--op", "Hhat", "--label", "1,0",
                                "--expand"])
    assert code == 0
    blob = json.loads(out)
    # psi_{1,0} = z is an eigenstate: E_1 = 2 w (gamma + 2) = 1160/231
    assert blob["expansion"] == [
        {"label": "1,0", "coefficient": "1160/231"}]
    assert blob["result"]["terms"][0]["re"] == "1160/231"


def test_apply_poly_input(capsys):
    poly = json.dumps(Z.to_json_dict())
    code, out, _ = run(capsys, ["apply", "--op", "J", "--poly", poly])
    assert code == 0
    blob = json.loads(out)
    # J z = (1 + gamma) z with gamma = 2 k0 + 2 k1 = 136/77
    assert blob["result"]["terms"] == [
        {"exp": [1], "re": "213/77", "im": "0/1"}]


def test_apply_negative_exponent_exits_two(capsys):
    poly = ('{"vars": ["z"], "terms": '
            '[{"exp": [-1], "re": "1/1", "im": "0/1"}]}')
    code, out, err = run(capsys, ["apply", "--op", "T", "--poly", poly])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("b2dunkl: error: ")


def test_apply_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, ["apply", "--op", "T"])
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, ["apply", "--op", "T", "--label", "1,0",
                                "--poly", "{}"])
    assert code == 2


def test_apply_unknown_operator_exits_two(capsys):
    code, _, err = run(capsys, ["apply", "--op", "Zeta", "--label", "1,0"])
    assert code == 2
    assert "operator" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--suite", "rho1",
                                "--max-degree", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    blob = json.loads(target.read_text())
    assert blob["status"] == "pass"

"""Command-line behaviour: output schemas, exit codes, env overrides,
and byte determinism of reports."""

import json
import os
import subprocess
import sys

import pytest

import b2dunkl
from b2dunkl import cli, operators, verify
from b2dunkl.cli import main
from b2dunkl.poly import ExactDivisionError, MPoly
from division_oracle import direct_dunkl
from memos import clear_memos

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


@pytest.mark.parametrize("argv", [
    ["table", "k", "--k0", "0.5"], ["verify", "--bogus"], ["apply"],
    ["--help"], ["table", "--help"], ["nope"]])
def test_usage_text_ignores_terminal_width(argv, monkeypatch, capsys):
    seen = set()
    for columns in ("40", "80", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(argv, env={})
        captured = capsys.readouterr()
        seen.add((captured.out, captured.err))
    assert len(seen) == 1


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


@pytest.mark.parametrize("argv", [
    ["basis", "--degree", "0"],
    ["table", "k", "--degree", "1"],
    ["verify", "--suite", "rho1", "--max-degree", "1"],
    ["prove", "--identity", "angular-quartic"],
    ["apply", "--op", "T", "--label", "1,0"],
])
def test_out_of_range_format_from_environment_exits_two(argv, capsys):
    # the flag's choices bind a value taken from the environment too
    code, out, err = run(capsys, argv, env={"B2DUNKL_FORMAT": "xml"})
    assert (code, out) == (2, "")
    assert err == ("b2dunkl: error: B2DUNKL_FORMAT: invalid choice: 'xml' "
                   "(choose from 'json', 'csv')\n")


def test_environment_change_between_calls_is_honoured(capsys, monkeypatch):
    for k0 in ("5/11", "1/3", "5/11"):
        monkeypatch.setenv("B2DUNKL_K0", k0)
        assert main(["basis", "--degree", "0"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["params"]["k0"] == k0


def test_unknown_environment_variable_changes_nothing(capsys):
    argv = ["table", "k", "--degree", "1"]
    code, out, err = run(capsys, argv, env={"B2DUNKL_K0": "1/3"})
    assert run(capsys, argv, env={"B2DUNKL_K0": "1/3",
                                  "B2DUNKL_FOO": "2"}) == (code, out, err)


@pytest.mark.parametrize("name, argv, value, other", [
    ("K0", ["table", "k", "--degree", "1"], "1/3", "2/5"),
    ("K1", ["table", "k", "--degree", "1"], "1/3", "2/5"),
    ("OMEGA", ["table", "k", "--degree", "1"], "3/4", "5/6"),
    ("MAX_DEGREE", ["table", "k"], "1", "2"),
    ("FORMAT", ["table", "k", "--degree", "1"], "csv", "json"),
    ("OUT", ["table", "k", "--degree", "1"], "env.json", "flag.json"),
    ("SUITE", ["verify", "--max-degree", "1"], "rho1", "eigen"),
])
def test_each_variable_sets_its_flag_and_the_flag_wins(name, argv, value,
                                                       other, capsys,
                                                       tmp_path):
    # the variable alone acts as its flag with the same value would, and
    # differs from the default; a flag given as well wins over it
    flag = "--" + name.lower().replace("_", "-")
    if name == "OUT":
        value, other = str(tmp_path / value), str(tmp_path / other)

    def outcome(env, extra):
        result = run(capsys, argv + extra, env=env)
        files = {path.name: path.read_text() for path in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            path.unlink()
        return result, files

    env = {"B2DUNKL_" + name: value}
    by_env = outcome(env, [])
    assert by_env == outcome({}, [flag, value])
    assert by_env != outcome({}, [])
    by_flag = outcome({}, [flag, other])
    assert outcome(env, [flag, other]) == by_flag != by_env


@pytest.mark.parametrize("name, value, message", [
    ("K0", "0.5", "not an exact rational literal: '0.5'"),
    ("K1", "x", "not an exact rational literal: 'x'"),
    ("OMEGA", "1/0", "not an exact rational literal: '1/0'"),
    ("MAX_DEGREE", "abc", "invalid int value: 'abc'"),
    ("FORMAT", "xml", "invalid choice: 'xml' (choose from 'json', 'csv')"),
])
def test_malformed_variable_is_one_error_line(name, value, message, capsys):
    # named as the variable it came from, with no usage text
    code, out, err = run(capsys, ["table", "k"],
                         env={"B2DUNKL_" + name: value})
    assert (code, out) == (2, "")
    assert err == f"b2dunkl: error: B2DUNKL_{name}: {message}\n"


def _run_child(code):
    package_root = os.path.dirname(os.path.dirname(b2dunkl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, text=True, check=True)
    return proc.stdout


def test_import_loads_no_dataclasses_inspect_ast_or_csv():
    # these cost milliseconds at every start; no command needs them
    code = ("import sys; before = set(sys.modules); import b2dunkl.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'csv'} "
            "& (set(sys.modules) - before)))")
    assert _run_child(code) == "[]\n"


def test_import_builds_no_parser_and_a_process_builds_one():
    code = ("import argparse, os; built = []; "
            "init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
            "import b2dunkl.cli as cli; at_import = len(built); "
            "argv = ['prove', '--list', '--out', os.devnull]; "
            "codes = [cli.main(argv, env={}) for _ in range(3)]; "
            "print(at_import, codes, cli._parser.cache_info().misses)")
    assert _run_child(code) == "0 [0, 0, 0] 1\n"


def test_shared_parser_gives_the_bytes_of_a_fresh_one(capsys, monkeypatch):
    # one process runs the commands in order on its one parser; each
    # gives the bytes of the same command on a parser built afresh
    steps = [
        (["verify", "--suite", "rho1", "--max-degree", "1"], {}),
        (["verify", "--max-degree", "1"], {}),
        (["table", "k", "--degree", "1", "--k0", "1/3"], {}),
        (["table", "k", "--degree", "1"], {}),
        (["table", "k", "--k0", "0.5"], {}),
        (["--help"], {}),
        (["basis", "--degree", "1"], {}),
        (["verify", "--max-degree", "1"], {"B2DUNKL_SUITE": "rho1"}),
        (["verify", "--max-degree", "1"], {"B2DUNKL_SUITE": "eigen"}),
        (["table", "k", "--k0", "0.5"], {"COLUMNS": "40"}),
        (["table", "k", "--k0", "0.5"], {"COLUMNS": "200"}),
    ]

    def replay(fresh):
        outcomes = []
        for argv, env in steps:
            # argparse reads COLUMNS from the process environment
            monkeypatch.setenv("COLUMNS", env.get("COLUMNS", "80"))
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv, env=env)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    cli._parser.cache_clear()
    shared = replay(fresh=False)
    assert replay(fresh=True) == shared
    codes = [code for code, _, _ in shared]
    assert codes == [0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 2]
    suites = [[s["suite"] for s in json.loads(shared[i][1])["suites"]]
              for i in (0, 1, 7, 8)]
    assert suites == [["rho1"], list(verify.SUITE_ORDER), ["rho1"],
                      ["eigen"]]
    k0 = [json.loads(shared[i][1])["params"]["k0"] for i in (2, 3)]
    assert k0 == ["1/3", "3/7"]
    assert shared[9] == shared[10]


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
    argv = ["verify", "--suite", "k", "--max-degree", "4"]
    memo = operators._monomial_image
    outputs, memo_sizes = [], []
    for direct in (False, True):
        if direct:
            monkeypatch.setattr(operators, "apply_dunkl", direct_dunkl)
        clear_memos()
        code, out, _ = run(capsys, argv)
        assert code == 0
        outputs.append(out)
        memo_sizes.append(memo.cache_info().currsize)
    assert memo_sizes[0] and not memo_sizes[1]
    assert outputs[0] == outputs[1]


def test_cold_memos_fill_without_division(capsys, monkeypatch):
    # every Dunkl memo fills from the closed-form quotients: from cold
    # caches, the same commands give the same bytes with division disabled
    def no_division(self, divisor):
        raise AssertionError("a Dunkl memo fill divided")

    commands = (["verify", "--suite", "k,kernel,superint",
                 "--max-degree", "4"],
                ["prove", "--identity", "angular-quartic"])
    reports = []
    for divide in (True, False):
        if not divide:
            monkeypatch.setattr(MPoly, "divide_linear", no_division)
        clear_memos()
        reports.append([run(capsys, argv) for argv in commands])
    assert [code for code, _, _ in reports[0]] == [0, 1]
    assert reports[1] == reports[0]


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


@pytest.mark.parametrize("selection", [",", "", " , "])
def test_verify_selection_naming_no_suite_exits_two(selection, capsys):
    code, out, err = run(capsys, ["verify", "--suite", selection])
    assert (code, out, err) == (2, "", "b2dunkl: error: no suite selected\n")


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
        "lhs": {"op": "commutator",
                "a": {"op": "mul", "poly": (Z * ZB).to_json_dict()},
                "b": {"op": "named", "name": "T"}},
        "rhs": {"op": "mul", "poly": (-ZB).to_json_dict()},
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


@pytest.mark.parametrize("argv", [
    ["--op", "T", "--label", "0,0"],
    ["--op", "J", "--poly", '{"vars": [], "terms": []}'],
])
def test_apply_zero_image_expands_to_nothing(argv, capsys):
    # the zero polynomial lies in every level, with no coordinates
    code, out, err = run(capsys, ["apply", *argv, "--expand"])
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert blob["result"] == {"vars": [], "terms": []}
    assert blob["expansion"] == []


def test_apply_json_op_echoes_its_input(capsys):
    # the report names the operator as given, not the registry tree that a
    # named node stands for
    op = {"op": "named", "name": "K"}
    code, out, _ = run(capsys, ["apply", "--op", json.dumps(op),
                                "--label", "2,1"])
    assert code == 0
    blob = json.loads(out)
    assert blob["operator"] == op
    code, out, _ = run(capsys, ["apply", "--op", "K", "--label", "2,1"])
    assert code == 0
    by_name = json.loads(out)
    assert by_name["operator"] == "K"
    assert blob["result"] == by_name["result"]
    assert blob["result"]["terms"]


def test_apply_poly_input(capsys):
    poly = json.dumps(Z.to_json_dict())
    code, out, _ = run(capsys, ["apply", "--op", "J", "--poly", poly])
    assert code == 0
    blob = json.loads(out)
    # J z = (1 + gamma) z with gamma = 2 k0 + 2 k1 = 136/77
    assert blob["result"]["terms"] == [
        {"exp": [1], "re": "213/77", "im": "0/1"}]


_RE_INT = ('{"vars": ["z"], "terms": '
           '[{"exp": [1], "re": 1, "im": "0"}]}')


@pytest.mark.parametrize("argv, message", [
    (["apply", "--op", "T", "--poly", _RE_INT],
     "bad polynomial JSON: not an exact rational literal: 1"),
    (["apply", "--op", "T", "--poly", '{"vars": ["z"], "terms": '
      '[{"exp": [1], "re": "1", "im": null}]}'],
     "bad polynomial JSON: not an exact rational literal: None"),
    (["apply", "--op", '{"op": "mul", "poly": ' + _RE_INT + "}",
      "--label", "1,0"],
     "bad operator JSON: not an exact rational literal: 1"),
    (["prove", "--identity",
      '{"lhs": {"op": "mul", "poly": ' + _RE_INT + "}}"],
     "bad identity JSON: not an exact rational literal: 1"),
    (["apply", "--op", "T", "--poly", '{"vars": ["z"], "terms": '
      '[{"exp": [true], "re": "1", "im": "0"}]}'],
     "bad polynomial JSON: exponents must be nonnegative integers, "
     "not [True]"),
    (["apply", "--op", "T", "--poly", '{"vars": "zb", "terms": '
      '[{"exp": [1, 0], "re": "1", "im": "0"}]}'],
     "bad polynomial JSON: vars must be a list of variable names"),
    (["apply", "--op", "T", "--poly", '{"vars": ["z"], "terms": '
      '[{"exp": [1, 2, 3], "re": "0", "im": "0"}]}'],
     "bad polynomial JSON: exponent arity mismatch"),
    (["apply", "--op", "T", "--poly", "5"],
     "bad polynomial JSON: polynomial must be a JSON object, not 5"),
    (["apply", "--op", "T", "--poly", "{}"],
     "bad polynomial JSON: polynomial lacks 'vars'"),
    (["apply", "--op", "T", "--poly", '{"vars": ["z"]}'],
     "bad polynomial JSON: polynomial lacks 'terms'"),
    (["apply", "--op", "T", "--poly", '{"vars": [5], "terms": []}'],
     "bad polynomial JSON: vars must be a list of variable names"),
    (["apply", "--op", "T", "--poly", '{"vars": ["z"], "terms": 5}'],
     "bad polynomial JSON: terms must be a list, not 5"),
    (["apply", "--op", "T", "--poly", '{"vars": ["z"], "terms": [5]}'],
     "bad polynomial JSON: a term must be an object with an 'exp' list, "
     "'re' and 'im', not 5"),
    (["apply", "--op", "T", "--poly", '{"vars": ["z"], "terms": '
      '[{"exp": 1, "re": "1", "im": "0"}]}'],
     "bad polynomial JSON: a term must be an object with an 'exp' list, "
     "'re' and 'im', not {'exp': 1, 're': '1', 'im': '0'}"),
    (["apply", "--op", '{"op": "mul", "poly": 5}', "--label", "1,0"],
     "bad operator JSON: polynomial must be a JSON object, not 5"),
    (["apply", "--op", "T", "--poly", '{"vars": ["z"], "terms": '
      '[{"exp": [[1]], "re": "1", "im": "0"}]}'],
     "bad polynomial JSON: exponents must be nonnegative integers, "
     "not [[1]]"),
], ids=["re-int", "im-null", "op-mul", "prove-lhs",
        "bool-exponent", "string-vars", "zero-term-arity", "not-an-object",
        "no-vars", "no-terms", "non-string-var", "terms-not-a-list",
        "term-not-an-object", "exp-not-a-list", "op-mul-not-an-object",
        "list-exponent"])
def test_malformed_polynomial_json_exits_two(argv, message, capsys):
    # a value of the wrong JSON type is a configuration error, never a
    # crash that exits 1 like a refutation
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("b2dunkl: error: ")
    assert err.endswith(message + "\n")


def test_apply_negative_exponent_exits_two(capsys):
    poly = ('{"vars": ["z"], "terms": '
            '[{"exp": [-1], "re": "1/1", "im": "0/1"}]}')
    code, out, err = run(capsys, ["apply", "--op", "T", "--poly", poly])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("b2dunkl: error: ")


def _nested_compose(depth):
    return ('{"op": "compose", "parts": [' * depth
            + '{"op": "named", "name": "T"}' + "]}" * depth)


@pytest.mark.parametrize("argv", [
    ["apply", "--op", "[" * 100_000, "--label", "1,0"],
    ["apply", "--op", _nested_compose(3000), "--label", "1,0"],
    ["prove", "--identity", '{"lhs": ' + _nested_compose(3000) + "}"],
], ids=["apply-brackets", "apply-compose", "prove-compose"])
def test_deeply_nested_input_exits_two(capsys, argv):
    # exhausting the recursion limit is a configuration error, never the
    # exit 1 of a mismatch or refutation
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("b2dunkl: error: input nested too deeply")


def test_apply_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, ["apply", "--op", "T"])
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, ["apply", "--op", "T", "--label", "1,0",
                                "--poly", "{}"])
    assert code == 2


def test_apply_unknown_operator_exits_two(capsys):
    # an argument that is neither a registry name nor JSON
    code, _, err = run(capsys, ["apply", "--op", "Zeta", "--label", "1,0"])
    assert code == 2
    names = ", ".join(operators.OPERATOR_NAMES)
    assert err.startswith(f"b2dunkl: error: --op must be one of {names} or "
                          "an operator JSON expression (")


# operator JSON that fails to build, and the reason it is refused for
MALFORMED_OPS = [
    ('{"op": "dunkl", "var": "x"}', "Dunkl direction must be z or zb"),
    ('{"op": "dunkl"}', "dunkl node lacks 'var'"),
    ('{"op": "nope"}', "unknown operator node 'nope'"),
    ("5", "operator node must be a JSON object, not 5"),
    ("[]", "operator node must be a JSON object, not []"),
    ("{}", "operator node lacks 'op'"),
    ('{"op": "sum", "parts": 5}', "sum node's 'parts' must be a list, not 5"),
    ('{"op": "compose", "parts": [{"op": "dunkl", "var": "z"}, 5]}',
     "operator node must be a JSON object, not 5"),
    ('{"op": "commutator", "a": {"op": "named", "name": "J"}}',
     "commutator node lacks 'b'"),
    ('{"op": "group", "element": 5}', "not a group element name: 5"),
    ('{"op": "group", "element": "ref4"}',
     "not a group element name: 'ref4'"),
    ('{"op": "named", "name": "nope"}',
     "unknown operator 'nope'; available: "
     + ", ".join(operators.OPERATOR_NAMES)),
    ('{"op": "named", "name": [1]}',
     "unknown operator [1]; available: "
     + ", ".join(operators.OPERATOR_NAMES)),
]
MALFORMED_IDS = ["bad-direction", "no-direction", "unknown-node",
                 "not-an-object", "list", "no-kind", "parts-not-a-list",
                 "part-not-an-object", "commutator-without-b",
                 "element-not-a-string", "unknown-element", "unknown-name",
                 "name-not-a-string"]


@pytest.mark.parametrize("op, reason", MALFORMED_OPS, ids=MALFORMED_IDS)
def test_json_op_that_fails_to_build_names_its_reason(op, reason, capsys):
    # well-formed JSON is an operator expression; the list of registry
    # names is for an argument that is neither a name nor JSON
    code, out, err = run(capsys, ["apply", "--op", op, "--label", "1,0"])
    assert (code, out) == (2, "")
    assert err == f"b2dunkl: error: bad operator JSON: {reason}\n"


@pytest.mark.parametrize("op, reason", MALFORMED_OPS, ids=MALFORMED_IDS)
def test_json_identity_that_fails_to_build_names_its_reason(op, reason,
                                                            capsys):
    code, out, err = run(capsys, ["prove", "--identity",
                                  '{"lhs": %s}' % op])
    assert (code, out) == (2, "")
    assert err == f"b2dunkl: error: bad identity JSON: {reason}\n"


@pytest.mark.parametrize("argv", [
    ["--op", "J", "--poly", '{"vars": ["z"], "terms": [{"exp": [2], '
     '"re": "1", "im": "0"}, {"exp": [1], "re": "1", "im": "0"}]}'],
    ["--op", '{"op": "mul", "poly": {"vars": [], "terms": '
     '[{"exp": [], "re": "1", "im": "0"}]}}', "--poly",
     '{"vars": ["z", "zb"], "terms": [{"exp": [1, 1], "re": "1", '
     '"im": "0"}]}'],
], ids=["mixed-degree", "right-degree"])
def test_image_outside_its_level_is_one_error_line(argv, capsys):
    # whether a monomial is out of reach or the top-degree part rebuilds
    # another polynomial, the message names the level only
    code, out, err = run(capsys, ["apply", *argv, "--expand"])
    assert (code, out) == (2, "")
    assert err == "b2dunkl: error: not an element of the degree-2 level\n"


def test_apply_unknown_group_element_exits_two(capsys):
    code, out, err = run(capsys, ["apply", "--op",
                                  '{"op": "group", "element": "rot7"}',
                                  "--label", "1,0"])
    assert (code, out) == (2, "")
    assert "not a group element name: 'rot7'" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--suite", "rho1",
                                "--max-degree", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    blob = json.loads(target.read_text())
    assert blob["status"] == "pass"


def test_unwritable_out_path_is_a_configuration_error(tmp_path, capsys):
    # a failed write exits 2, not 1, which would read as a verdict
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, ["table", "k", "--degree", "1",
                                  "--out", str(target)])
    assert (code, out) == (2, "")
    assert err == (f"b2dunkl: error: cannot write {target}: "
                   "No such file or directory\n")


@pytest.mark.parametrize("label", ["3", "1,2,3", "1,x", "-1,2"])
def test_malformed_label_names_the_expected_form(label, capsys):
    code, out, err = run(capsys, ["apply", "--op", "Hhat",
                                  f"--label={label}"])
    assert (code, out) == (2, "")
    assert err == (f"b2dunkl: error: bad label {label!r}: expected 'a,b' "
                   "with a and b nonnegative integers\n")


def test_apply_json_op_echoes_floats_it_ignores(capsys):
    # unknown keys of a JSON operator are ignored but echoed as given, and
    # they may hold any JSON value, floats among them
    op = {"op": "named", "name": "K", "note": 0.5, "scale": [1e-7, -2.5]}
    code, out, err = run(capsys, ["apply", "--op", json.dumps(op),
                                  "--label", "2,1"])
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert json.loads(out)["operator"] == op

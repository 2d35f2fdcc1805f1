"""Command-line surface: basis listings, coefficient tables, verification
suites, identity proofs and one-off operator applications.

All output is deterministic: rationals are rendered as "p/q" strings, no
timestamps or environment data appear, and repeated runs with the same
configuration produce byte-identical bytes.  Exit codes: 0 when everything
requested checks out, 1 when a verification or proof fails, 2 for
configuration errors (bad flags, bad rationals, malformed labels,
non-generic parameters, input nested too deeply, an ``--out`` path that
cannot be written), 3 for an internal arithmetic error (a division by
zero, or an exact division that left a remainder), which is a fault of
the program and not a verdict.

JSON reports go through this module's own writer, ``_json_text``, which
gives the bytes of ``json.dumps(obj, indent=2)`` in one pass instead of
through the standard library's pure-Python indenting encoder; that
encoder is the writer's oracle in the tests.

Every flag can also be set through an environment variable with the
``B2DUNKL_`` prefix (``B2DUNKL_K0``, ``B2DUNKL_MAX_DEGREE``, ...), read on
every call after parsing for each setting no flag gave; a malformed value
exits 2 naming its variable.  A process builds the parser once, on its
first ``main`` call, however many commands it runs.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional, Sequence

from .basis import energy, enumerate_basis, isotype, psi, rho1_eigenvalue
from .kernel import IDENTITY_NAMES, ZERO_OP, get_identity, prove
from .operators import apply as op_apply
from .operators import expr_from_json, named, OPERATOR_NAMES
from .params import DEFAULT_PARAMS, Params
from .poly import MPoly
from .scalars import format_rat, parse_rat
from .spectra import (h0_table, j2_table, k_table, label_str, norm_table,
                      parse_label)
from .verify import SUITE_ORDER, run_suites

_FORMATS = ("json", "csv")


class ConfigError(Exception):
    pass


def _rat(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _format(text: str) -> str:
    if text not in _FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from "
            + ", ".join(map(repr, _FORMATS)) + ")")
    return text


# each setting a B2DUNKL_ variable can give: (its text's reader, default)
_SETTINGS = {
    "k0": (_rat, DEFAULT_PARAMS.k0),
    "k1": (_rat, DEFAULT_PARAMS.k1),
    "omega": (_rat, DEFAULT_PARAMS.w),
    "max_degree": (int, None),
    "format": (_format, None),
    "out": (str, None),
    # an empty B2DUNKL_SUITE selects every suite, as no --suite does
    "suite": (lambda text: [text] if text else None, None),
}


def _fixed_width(prog: str) -> argparse.HelpFormatter:
    # usage and help text wrap at 78 columns, whatever the terminal
    return argparse.HelpFormatter(prog, width=78)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # argparse leaves a parser as it was while parsing (a fresh namespace,
    # copied append defaults, formatters made per message), so the one
    # parser a process builds serves every later call
    parser = argparse.ArgumentParser(
        prog="b2dunkl", formatter_class=_fixed_width,
        description="Exact tables, verification suites and identity proofs "
                    "for the square-symmetric Dunkl oscillator.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k0", type=_rat,
                        help="first reflection coupling, exact p/q")
    common.add_argument("--k1", type=_rat,
                        help="second reflection coupling, exact p/q")
    common.add_argument("--omega", type=_rat,
                        help="oscillator frequency, exact p/q")
    common.add_argument("--max-degree", "--degree", dest="max_degree",
                        type=int, help="degree bound (alias: --degree)")
    common.add_argument("--format", choices=_FORMATS,
                        help="output format (default json; prove defaults "
                             "to a plain verdict)")
    common.add_argument("--out",
                        help="write output to this path instead of stdout")

    add_parser = functools.partial(sub.add_parser, parents=[common],
                                   formatter_class=_fixed_width)
    p = add_parser("basis", help="list basis states up to a degree")
    p.set_defaults(handler=_cmd_basis, default_degree=4)

    p = add_parser("table", help="one level of an exact coefficient table")
    p.add_argument("which", choices=("h0", "k", "j2", "norms"))
    p.set_defaults(handler=_cmd_table, default_degree=4)

    p = add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append",
                   help="suite id or 'all'; repeat or comma-separate "
                        "(default: all)")
    p.set_defaults(handler=_cmd_verify, default_degree=8)

    p = add_parser("prove", help="prove or refute an operator identity")
    p.add_argument("--identity",
                   help="catalogued identity name, or a JSON object "
                        '{"lhs": expr, "rhs": expr}')
    p.add_argument("--list", action="store_true", dest="list_identities",
                   help="list catalogued identity names and exit")
    p.set_defaults(handler=_cmd_prove)

    p = add_parser("apply", help="apply an operator to a polynomial or state")
    p.add_argument("--op", required=True,
                   help="operator name or JSON expression")
    p.add_argument("--label", help="basis state 'a,b' to act on")
    p.add_argument("--poly", help="polynomial JSON to act on")
    p.add_argument("--expand", action="store_true",
                   help="also expand the image over the basis level")
    p.set_defaults(handler=_cmd_apply)

    return parser


def _params_from(args) -> Params:
    return Params.numeric(args.k0, args.k1, args.omega)


def _fill_settings(args, env) -> None:
    given = vars(args)
    for name, (reader, default) in _SETTINGS.items():
        # a flag on the command line wins; B2DUNKL_SUITE serves verify only
        if given.get(name, "") is not None:
            continue
        var = "B2DUNKL_" + name.upper()
        text = env.get(var)
        try:
            given[name] = default if text is None else reader(text)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{var}: {exc}") from None
        except ValueError:      # from int; worded as argparse words it
            raise ConfigError(f"{var}: invalid int value: {text!r}") from None


def _degree_from(args) -> int:
    deg = args.max_degree if args.max_degree is not None \
        else args.default_degree
    if deg < 0:
        raise ConfigError("degree bound must be nonnegative")
    return deg


def _emit(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: "
                              f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, written in one recursive
    pass.  With ``indent`` set the standard library encodes in pure Python
    through generators; this writes dicts (string keys), lists, tuples,
    strings, ints, bools and None itself, quoting strings with the C
    ``encode_basestring_ascii``, and hands any other leaf (a float that a
    user's ``--op`` carries) to ``json.dumps``."""
    out: List[str] = []
    _write_json(obj, "\n", out.append)
    return "".join(out)


def _write_json(obj, newline: str, put) -> None:
    # a container writes its string members itself; only a bare string
    # at the top reaches the json.dumps leaf below
    if isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if type(value) is str:
                put(f"{sep}{_quote(key)}: {_quote(value)}")
            else:
                put(f"{sep}{_quote(key)}: ")
                _write_json(value, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            if type(value) is str:
                put(sep + _quote(value))
            else:
                put(sep)
                _write_json(value, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif type(obj) is int:
        put(int.__repr__(obj))
    else:
        put(json.dumps(obj))


def _emit_json(obj, args) -> None:
    _emit(_json_text(obj) + "\n", args)


def _emit_csv(rows: Sequence[Sequence[str]], args) -> None:
    import csv      # here, not at the top: no JSON command loads it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    _emit(buf.getvalue(), args)


# ---- commands --------------------------------------------------------------


def _cmd_basis(args) -> int:
    params = _params_from(args)
    degree = _degree_from(args)
    params.require_generic(degree)
    as_csv = args.format == "csv"
    keys = ("label", "family", "isotype", "rotation_phase")
    rows = [["degree", *keys, "energy", "polynomial"]]
    levels = []
    for deg in range(degree + 1):
        e = format_rat(energy(deg, params))
        states = []
        for lb in enumerate_basis(deg):
            iso = isotype(lb)
            fields = (label_str(lb), lb.family,
                      "plane" if iso is None else f"chi{iso}",
                      str(rho1_eigenvalue(lb)))
            f = psi(lb, params)
            if as_csv:
                rows.append([str(deg), *fields, e, str(f)])
            else:
                states.append({**dict(zip(keys, fields)),
                               "polynomial": f.to_json_dict()})
        levels.append({"degree": deg, "energy": e, "states": states})
    if as_csv:
        _emit_csv(rows, args)
    else:
        _emit_json({"command": "basis", "max_degree": degree,
                    "params": params.to_json_dict(), "levels": levels}, args)
    return 0


def _cmd_table(args) -> int:
    params = _params_from(args)
    degree = _degree_from(args)
    if args.which == "norms":
        data = norm_table(degree, params)
        if args.format == "csv":
            rows = data["rows"]
            _emit_csv([list(rows[0])] + [list(r.values()) for r in rows],
                      args)
        else:
            _emit_json({"command": "table", "which": "norms", **data}, args)
        return 0
    maker = {"h0": h0_table, "k": k_table, "j2": j2_table}[args.which]
    table = maker(degree, params)
    if args.format == "csv":
        _emit_csv(table.to_csv_rows(), args)
    else:
        _emit_json({"command": "table", "which": args.which,
                    **table.to_json_dict()}, args)
    return 0


def _parse_suites(raw: Optional[List[str]]) -> List[str]:
    if not raw:
        return list(SUITE_ORDER)
    names: List[str] = []
    for chunk in raw:
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                continue
            if part == "all":
                names.extend(SUITE_ORDER)
            else:
                names.append(part)
    if not names:
        raise ConfigError("no suite selected")
    return names


def _cmd_verify(args) -> int:
    params = _params_from(args)
    degree = _degree_from(args)
    suites = _parse_suites(args.suite)
    reports = run_suites(suites, params, degree)
    ok = all(r.passed for r in reports)
    if args.format == "csv":
        rows = [["suite", "case", "status", "detail"]]
        for rep in reports:
            for case in rep.cases:
                rows.append([rep.suite, case.name,
                             "pass" if case.passed else "fail",
                             case.detail])
        _emit_csv(rows, args)
    else:
        _emit_json({
            "command": "verify",
            "max_degree": degree,
            "params": params.to_json_dict(),
            "status": "pass" if ok else "fail",
            "suites": [rep.to_json_dict() for rep in reports],
        }, args)
    return 0 if ok else 1


def _identity_from_arg(text: str):
    if text in IDENTITY_NAMES:
        ident = get_identity(text)
        return ident.name, ident.lhs, ident.rhs
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise ConfigError(
            f"unknown identity {text!r}; catalogued names: "
            + ", ".join(IDENTITY_NAMES)
            + '; or pass a JSON object {"lhs": ..., "rhs": ...}') from None
    if not isinstance(obj, dict):
        raise ConfigError("identity JSON must be an object")
    try:
        if "lhs" in obj:
            lhs = expr_from_json(obj["lhs"])
            rhs_obj = obj.get("rhs")
            rhs = expr_from_json(rhs_obj) if rhs_obj is not None else ZERO_OP
        else:
            lhs = expr_from_json(obj)
            rhs = ZERO_OP
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad identity JSON: {exc}") from None
    return None, lhs, rhs


def _cmd_prove(args) -> int:
    if args.list_identities:
        _emit("\n".join(IDENTITY_NAMES) + "\n", args)
        return 0
    if args.identity is None:
        raise ConfigError("prove needs --identity (or --list)")
    name, lhs, rhs = _identity_from_arg(args.identity)
    result = prove(lhs, rhs, name=name)
    if args.format == "csv":
        rows = [["identity", "status"],
                [name or "<expression>", result.status]]
        _emit_csv(rows, args)
    elif args.format == "json":
        _emit_json(result.to_json_dict(), args)
    elif result.proven:
        _emit("PROVEN\n", args)
    else:
        _emit("REFUTED\n" + _json_text(result.to_json_dict()) + "\n", args)
    return 0 if result.proven else 1


def _cmd_apply(args) -> int:
    params = _params_from(args)
    if (args.label is None) == (args.poly is None):
        raise ConfigError("apply needs exactly one of --label or --poly")
    if args.op in OPERATOR_NAMES:
        expr = named(args.op)
        op_blob = args.op
    else:
        try:
            op_blob = json.loads(args.op)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"--op must be one of {', '.join(OPERATOR_NAMES)} or an "
                f"operator JSON expression ({exc})") from None
        try:
            expr = expr_from_json(op_blob)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad operator JSON: {exc}") from None
    if args.label is not None:
        label = parse_label(args.label)
        params.require_generic(label.degree)
        source = psi(label, params)
    else:
        try:
            source = MPoly.from_json_dict(json.loads(args.poly))
        except (json.JSONDecodeError, KeyError, ValueError,
                TypeError) as exc:
            raise ConfigError(f"bad polynomial JSON: {exc}") from None
    image = op_apply(expr, source, params)
    out = {
        "command": "apply",
        "operator": op_blob,
        "params": params.to_json_dict(),
        "input": source.to_json_dict(),
        "result": image.to_json_dict(),
    }
    if args.expand:
        from .spectra import expand
        degree = image.total_degree()
        params.require_generic(degree)
        # the zero polynomial lies in every level, with no coordinates
        coeffs = expand(image, degree, params) if degree >= 0 else {}
        out["expansion"] = [
            {"label": label_str(lb), "coefficient": str(c)}
            for lb, c in coeffs.items()
        ]
    _emit_json(out, args)
    return 0


def main(argv: Optional[Sequence[str]] = None,
         env: Optional[dict] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _fill_settings(args, os.environ if env is None else env)
        return args.handler(args)
    except (ConfigError, ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"b2dunkl: error: {msg}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"b2dunkl: error: input nested too deeply ({exc})",
              file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"b2dunkl: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

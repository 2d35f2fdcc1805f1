"""Golden output manifest: argv, exit code and SHA-256 of stdout and stderr
for a fixed set of `b2dunkl` commands.

`tests/golden_manifest.json` pins the byte output of the verification
suites, the 19 catalogued proofs, the benchmark's table-sweep command
lines of seeds 1-3, JSON operator commands, every CSV output, each form
of `prove --identity`, squared-norm tables up to degree 40, the default
and comma-separated suite lists, the configuration errors that exit 2
(malformed polynomial JSON among them), images that `apply --expand`
finds outside their level, a malformed zero term, JSON `--op`
expressions that fail to build, a JSON group element, a polynomial and
a group element of the wrong JSON type, an unknown named operator, a
polynomial that repeats an exponent, and settings read from the
environment, one of them malformed and one overridden by its flag.  It
also pins the hatted components Hhat_1 and Hhat_3, which no suite applies, a hatted operator on a polynomial with spectator
variables, a table value above 10^30, the h0, k and j2 tables at
degree 12 at the high-height triple, z times z^(2^31), whose
exponent is past the limit of a packed exponent field, and an operator
whose extra keys echo a string with a quote, a backslash, a newline and
a non-ASCII letter, 1e300, -0.0, true, false, null, [] and {}.  An entry may
carry an ``env`` dict, the environment its command runs with (empty when
absent).
A refactor that must keep outputs byte-identical regenerates nothing:
`tests/test_golden.py` replays the committed manifest.  Regenerate it
only when an output is meant to change:

    PYTHONPATH=src python tests/golden_manifest.py --write

The table-sweep command lines are copied from `bench/workloads.build` when
the manifest is written, so replaying it never imports `bench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from typing import List, Optional, Sequence

from b2dunkl import cli
from b2dunkl.kernel import IDENTITY_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "golden_manifest.json")
BENCH = os.path.join(os.path.dirname(HERE), "bench")

TABLE_SWEEP_SEEDS = (1, 2, 3)

_DUNKL_Z = {"op": "dunkl", "var": "z"}
# Sum(T, T o T): the two parts share T x
JSON_SUM_OP = {"op": "sum", "parts": [
    _DUNKL_Z, {"op": "compose", "parts": [_DUNKL_Z, _DUNKL_Z]}]}
JSON_COMMUTATOR = {"lhs": {"op": "commutator",
                           "a": {"op": "named", "name": "J2"},
                           "b": {"op": "named", "name": "Khat"}}}
# a bare expression, proved equal to zero
JSON_BARE = {"op": "commutator", "a": {"op": "named", "name": "Hcal"},
             "b": {"op": "named", "name": "J"}}
JSON_LHS_RHS = {"lhs": {"op": "sum", "parts": [
    {"op": "named", "name": "H_0"}, {"op": "named", "name": "H_2"}]},
    "rhs": {"op": "named", "name": "Hcal"}}
# the high-height triple of ROADMAP's baseline
HIGH_HEIGHT = ["--k0", "9973/10007", "--k1", "7919/8081",
               "--omega", "4999/5003"]
NEGATIVE_EXPONENT = {"vars": ["z"], "terms": [
    {"exp": [-1], "re": "1/1", "im": "0/1"}]}
# coefficients and exponents of the wrong JSON type
INTEGER_COEFFICIENT = {"vars": ["z"], "terms": [
    {"exp": [1], "re": 1, "im": "0"}]}
BOOLEAN_EXPONENT = {"vars": ["z"], "terms": [
    {"exp": [True], "re": "1", "im": "0"}]}
# the level test of apply --expand: z^2 + z mixes two degrees, and z zb has
# the right degree and parity but lies outside the degree-2 level
Z2_PLUS_Z = {"vars": ["z"], "terms": [
    {"exp": [2], "re": "1", "im": "0"}, {"exp": [1], "re": "1", "im": "0"}]}
IDENTITY_MUL = {"op": "mul", "poly": {"vars": [], "terms": [
    {"exp": [], "re": "1", "im": "0"}]}}
Z_ZB = {"vars": ["z", "zb"], "terms": [{"exp": [1, 1], "re": "1", "im": "0"}]}
# a zero term whose exponent lists more variables than vars
ZERO_TERM_BAD_ARITY = {"vars": ["z"], "terms": [
    {"exp": [1, 2, 3], "re": "0", "im": "0"}]}
# spectator variables u, k0, which every Dunkl step treats as constants
SPECTATOR_POLY = {"vars": ["z", "zb", "u", "k0"], "terms": [
    {"exp": [3, 1, 1, 0], "re": "2/3", "im": "-1/5"},
    {"exp": [0, 2, 0, 1], "re": "7/1", "im": "0/1"}]}
# two terms with one exponent, which add up
REPEATED_EXPONENT = {"vars": ["z"], "terms": [
    {"exp": [1], "re": "1", "im": "0"}, {"exp": [1], "re": "2", "im": "0"}]}
# z, and z^(2^31), the first power whose exponent needs 32 bits
Z_POLY = {"vars": ["z"], "terms": [{"exp": [1], "re": "1", "im": "0"}]}
Z_2_31 = {"vars": ["z"], "terms": [{"exp": [2 ** 31], "re": "1", "im": "0"}]}
# a valid mul node with extra keys, which expr_from_json ignores and apply
# echoes: each kind of JSON leaf an operator can carry into a report
ECHOED_LEAVES = {"op": "mul", "poly": Z_POLY,
                 "text": "\u00e9 \" \\ \n", "big": 1e300,
                 "negative_zero": -0.0, "yes": True, "no": False,
                 "nothing": None, "empty_list": [], "empty_object": {}}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _table_sweep() -> List[List[str]]:
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return [op["argv"] for seed in TABLE_SWEEP_SEEDS
            for op in workloads.build("table-sweep", seed)["ops"]]


def commands() -> List[List[str]]:
    return ([["verify", "--suite", "all", "--max-degree", "10"],
             ["verify", "--suite", "appendixA", "--max-degree", "12"]]
            + [["prove", "--identity", name] for name in IDENTITY_NAMES]
            + _table_sweep()
            + [["apply", "--op", json.dumps(JSON_SUM_OP), "--label", "3,1"],
               ["prove", "--format", "json", "--identity",
                json.dumps(JSON_COMMUTATOR)]]
            # CSV output
            + [["basis", "--degree", "3", "--format", "csv"]]
            + [["table", which, "--degree", "4", "--format", "csv"]
               for which in ("h0", "k", "j2", "norms")]
            + [["verify", "--suite", "eigen,k", "--max-degree", "3",
                "--format", "csv"],
               ["prove", "--identity", "angular-quartic", "--format", "csv"],
               ["prove", "--list"]]
            # each form of --identity
            + [["prove", "--format", "json", "--identity",
                "component-sum-02"],
               ["prove", "--identity", json.dumps(JSON_BARE)],
               ["prove", "--format", "json", "--identity",
                json.dumps(JSON_LHS_RHS)]]
            # squared norms at high degree: numerators of 200+ digits
            + [["table", "norms", "--degree", str(deg)] + HIGH_HEIGHT
               for deg in (24, 40)]
            + [["table", "norms", "--degree", "12", "--format", "csv"],
               ["verify", "--suite", "cai", "--max-degree", "12"]]
            # hatted components no suite applies, a polynomial with
            # spectators, and a table value of about 8.5e32
            + [["apply", "--op", "Hhat_1", "--label", "5,2", "--expand"]
               + HIGH_HEIGHT,
               ["apply", "--op", "Hhat_3", "--label", "2,5", "--expand"]
               + HIGH_HEIGHT,
               ["apply", "--op", "Khat", "--poly",
                json.dumps(SPECTATOR_POLY)],
               ["table", "k", "--degree", "4", "--omega", "100000000"]]
            # coefficient tables down to chain position j = 6
            + [["table", which, "--degree", "12"] + HIGH_HEIGHT
               for which in ("h0", "k", "j2")]
            # the default suite list, and an empty chunk in a suite list
            + [["verify", "--max-degree", "1"],
               ["verify", "--suite", ",eigen,", "--max-degree", "1"]]
            # configuration errors: exit 2
            + [["verify", "--suite", "eigen", "--k0", "0", "--k1", "0",
                "--max-degree", "4"],
               ["verify", "--suite", "all", "--k0", "1/4", "--k1", "3/4",
                "--max-degree", "4"],
               ["verify", "--suite", "nope"],
               ["table", "k", "--k0", "0.5"],
               ["prove"],
               ["prove", "--identity", "[1]"],
               ["prove", "--identity", '{"lhs": {"op": "nope"}}'],
               ["apply", "--op", "T", "--poly",
                json.dumps(NEGATIVE_EXPONENT)]]
            + [["apply", "--op", "T", "--poly", json.dumps(poly)]
               for poly in (INTEGER_COEFFICIENT, BOOLEAN_EXPONENT)]
            + [["apply", "--op", "J", "--poly", json.dumps(Z2_PLUS_Z),
                "--expand"],
               ["apply", "--op", json.dumps(IDENTITY_MUL), "--poly",
                json.dumps(Z_ZB), "--expand"],
               ["apply", "--op", "T", "--poly",
                json.dumps(ZERO_TERM_BAD_ARITY)],
               ["apply", "--op", json.dumps({"op": "mul",
                                             "poly": INTEGER_COEFFICIENT}),
                "--label", "1,0"]]
            # operator JSON that is not an object, lacks a key or has
            # parts that are not a list, and a JSON group element
            + [["apply", "--op", op, "--label", "1,0"]
               for op in ("5", '{"op": "dunkl"}',
                          '{"op": "sum", "parts": 5}')]
            + [["apply", "--op", '{"op": "group", "element": "ref1"}',
                "--label", "2,1"]]
            # a polynomial that is not an object or lacks its keys, a group
            # element that is not a string, and an unknown named operator
            + [["apply", "--op", "T", "--poly", poly] for poly in ("5", "{}")]
            + [["apply", "--op", op, "--label", "1,0"]
               for op in ('{"op": "group", "element": 5}',
                          '{"op": "named", "name": "nope"}')]
            + [["apply", "--op", "J", "--poly",
                json.dumps(REPEATED_EXPONENT)]]
            # an exponent of 2^31 times z
            + [["apply", "--op", json.dumps({"op": "mul", "poly": Z_POLY}),
                "--poly", json.dumps(Z_2_31)]]
            # extra keys of an operator, echoed: every kind of JSON leaf
            + [["apply", "--op", json.dumps(ECHOED_LEAVES), "--poly",
                json.dumps(Z_POLY)]])


# commands run with settings from the environment: (env, argv)
ENV_COMMANDS = (
    ({"B2DUNKL_SUITE": "eigen"}, ["verify", "--max-degree", "2"]),
    ({"B2DUNKL_MAX_DEGREE": "-1"}, ["basis"]),
    ({"B2DUNKL_K0": "0.5"}, ["table", "k", "--degree", "1"]),
    ({"B2DUNKL_FORMAT": "csv"}, ["table", "k", "--degree", "1"]),
    ({"B2DUNKL_K0": "1/3"}, ["table", "k", "--degree", "1", "--k0", "3/7"]),
)


def entry(argv: Sequence[str], env: Optional[dict] = None) -> dict:
    """Run one command in-process, with an empty environment unless `env`
    is given; returns its manifest entry.  An argparse error exits through
    SystemExit, whose code is recorded as the exit code; the CLI wraps its
    usage text at a fixed width, whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv), env=env or {})
        except SystemExit as exc:
            rc = exc.code
    got = {"argv": list(argv), "rc": rc,
           "stdout_sha256": _sha(out.getvalue()),
           "stderr_sha256": _sha(err.getvalue())}
    if env:
        got["env"] = env
    return got


def load() -> List[dict]:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def changed() -> List[str]:
    """Replay every entry; the commands, abridged, whose exit code or
    output differs from their record."""
    return [" ".join(want["argv"])[:120] for want in load()
            if entry(want["argv"], want.get("env")) != want]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the manifest from the current code")
    if not parser.parse_args().write:
        parser.error("nothing to do; pass --write to regenerate "
                     "(tests/test_golden.py replays the manifest)")
    entries = ([entry(argv) for argv in commands()]
               + [entry(argv, env) for env, argv in ENV_COMMANDS])
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump({"commands": entries}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} commands to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

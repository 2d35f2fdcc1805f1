"""Self-tests of the benchmark.

    python3 bench/selftest.py

Runs every workload at its smoke size (one untraced and one traced round),
checks that the outputs pass every oracle and that every declared metric is
measured, then perturbs single values in those outputs (a table
coefficient, an energy, a proof verdict, ...) and checks that each
perturbation is reported as a failed operation.  Takes about half a minute,
most of it in the verify-all smoke round.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles      # noqa: E402
import run          # noqa: E402
import workloads    # noqa: E402

SEED = 3


def _edit_json(result, edit):
    doc = json.loads(result["stdout"])
    edit(doc)
    result["stdout"] = json.dumps(doc, indent=2) + "\n"


def _bump(text: str) -> str:
    return workloads.rat(Fraction(text) + 1)


class SmokeRuns(unittest.TestCase):
    specs = {}
    rounds = {}

    @classmethod
    def setUpClass(cls):
        run._prepare()
        for name in workloads.WORKLOADS:
            spec = workloads.build(name, SEED, "smoke")
            cls.specs[name] = spec
            cls.rounds[name] = run.measure(spec, 0, trace=True, probes=1)

    # ---- helpers -------------------------------------------------------

    def reference(self, name):
        return copy.deepcopy(self.rounds[name][1][0][1]["results"])

    def op_index(self, name, kind, identity=None):
        return next(i for i, op in enumerate(self.specs[name]["ops"])
                    if op["kind"] == kind
                    and identity in (None, op.get("identity")))

    def failed_ops(self, name, results):
        """Indices of the operations `evaluate` reports as failed."""
        _, failed, problems = run.evaluate(
            self.specs[name], [(False, {"results": results})])
        ops = {int(p.split(" op ")[1].split()[0]) for p in problems}
        self.assertEqual(failed, len(ops))
        return ops

    # ---- the unperturbed runs -------------------------------------------

    def test_smoke_runs_pass_every_oracle(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                attempted, failed, problems = run.evaluate(
                    self.specs[name], self.rounds[name][1])
                self.assertEqual(problems, [])
                self.assertEqual(attempted,
                                 2 * len(self.specs[name]["ops"]))

    def test_every_declared_metric_is_measured(self):
        e2e, layers = run._declared_metrics()
        for name in workloads.WORKLOADS:
            setups, rounds = self.rounds[name]
            values = run.end_to_end(setups, rounds)
            values.update(run.per_layer(self.specs[name], rounds, SEED,
                                        0.002))
            for metric in e2e + layers:
                with self.subTest(workload=name, metric=metric["name"]):
                    self.assertIn(metric["name"], values)
            for metric in e2e:
                self.assertGreater(values[metric["name"]], 0)

    def test_direct_application_separates_the_refuted_identity(self):
        spec = self.specs["prove-symbolic"]
        self.assertEqual(
            oracles.direct_nonzero(spec),
            {op["identity"]: op["identity"] in workloads.REFUTED
             for op in spec["ops"] if op["kind"] == "prove"})

    # ---- verify-all ------------------------------------------------------

    def test_wrong_energy_in_verify_report_fails(self):
        res = self.reference("verify-all")

        def edit(doc):
            case = doc["suites"][0]["cases"][1]
            head, value = case["detail"].rsplit(" ", 1)
            case["detail"] = f"{head} {_bump(value)}"
        _edit_json(res[0], edit)
        self.assertEqual(self.failed_ops("verify-all", res), {0})

    def test_flipped_kernel_verdict_in_verify_report_fails(self):
        res = self.reference("verify-all")

        def edit(doc):
            kernel = next(s for s in doc["suites"] if s["suite"] == "kernel")
            case = next(c for c in kernel["cases"]
                        if c["name"] == "angular-quartic")
            case["detail"] = "proven"
        _edit_json(res[0], edit)
        self.assertEqual(self.failed_ops("verify-all", res), {0})

    # ---- prove-symbolic --------------------------------------------------

    def test_flipped_refutation_fails(self):
        res = self.reference("prove-symbolic")
        i = self.op_index("prove-symbolic", "prove", "angular-quartic")
        res[i].update(rc=0, stdout="PROVEN\n")
        self.assertEqual(self.failed_ops("prove-symbolic", res), {i})

    def test_flipped_proof_fails(self):
        res = self.reference("prove-symbolic")
        i = next(i for i, op in enumerate(self.specs["prove-symbolic"]["ops"])
                 if op["kind"] == "prove"
                 and op["identity"] not in workloads.REFUTED)
        res[i]["stdout"] = "REFUTED\n{}\n"
        self.assertEqual(self.failed_ops("prove-symbolic", res), {i})

    def test_failing_appendix_monomial_fails(self):
        res = self.reference("prove-symbolic")
        i = self.op_index("prove-symbolic", "appendixA")
        _edit_json(res[i], lambda doc: doc["suites"][0]["cases"][-1]
                   .update(detail="0 monomials"))
        self.assertEqual(self.failed_ops("prove-symbolic", res), {i})

    # ---- table-sweep ------------------------------------------------------

    def test_perturbed_quartic_coefficient_fails(self):
        res = self.reference("table-sweep")
        i = self.op_index("table-sweep", "k")

        def edit(doc):
            entry = next(e for e in doc["entries"]
                         if e["source"] != e["target"])
            entry["re"] = _bump(entry["re"])
        _edit_json(res[i], edit)
        self.assertEqual(self.failed_ops("table-sweep", res), {i})

    def test_perturbed_level_one_diagonal_fails(self):
        res = self.reference("table-sweep")
        i = self.op_index("table-sweep", "k1")

        def edit(doc):
            for entry in doc["entries"]:
                entry["re"] = _bump(entry["re"])
        _edit_json(res[i], edit)
        self.assertEqual(self.failed_ops("table-sweep", res), {i})

    def test_wrong_hamiltonian_eigenvalue_fails(self):
        res = self.reference("table-sweep")
        i = self.op_index("table-sweep", "apply")

        def edit(doc):
            row = doc["expansion"][0]
            row["coefficient"] = _bump(row["coefficient"])
        _edit_json(res[i], edit)
        self.assertEqual(self.failed_ops("table-sweep", res), {i})

    def test_wrong_angular_eigenvalue_fails(self):
        res = self.reference("table-sweep")
        i = self.op_index("table-sweep", "j2")
        _edit_json(res[i], lambda doc: doc["entries"][-1].update(
            re=_bump(doc["entries"][-1]["re"])))
        self.assertEqual(self.failed_ops("table-sweep", res), {i})

    def test_h0_diagonal_entry_fails(self):
        res = self.reference("table-sweep")
        i = self.op_index("table-sweep", "h0")
        _edit_json(res[i], lambda doc: doc["entries"].append(
            {"source": "1,1", "target": "1,1", "re": "1/1", "im": "0/1"}))
        self.assertEqual(self.failed_ops("table-sweep", res), {i})

    # ---- cross-round checks ---------------------------------------------

    def test_other_bytes_crash_and_exit_status_fail(self):
        ref = self.reference("table-sweep")
        other = copy.deepcopy(ref)
        other[0]["stdout"] += " "
        other[1].update(rc=None, crash="ZeroDivisionError: Fraction(0, 0)")
        other[2]["rc"] = 1
        _, failed, problems = run.evaluate(
            self.specs["table-sweep"],
            [(False, {"results": ref}), (True, {"results": other})])
        self.assertEqual(failed, 3)
        self.assertIn("differs from the first round (traced)", problems[0])
        self.assertIn("crashed", problems[1])
        self.assertIn("exit status 1", problems[2])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.build(name, 7),
                             workloads.build(name, 7))
        self.assertNotEqual(workloads.build("table-sweep", 7),
                            workloads.build("table-sweep", 8))

    def test_drawn_triples_have_the_stated_heights(self):
        for seed in range(20):
            spec = workloads.build("table-sweep", seed)
            for i, triple in enumerate(spec["info"]["triples"]):
                values = [Fraction(v) for v in triple]
                self.assertTrue(workloads.is_generic(*values[:2]))
                for v in values:
                    if i % 2:
                        self.assertGreaterEqual(v.denominator, 10 ** 6)
                        self.assertGreaterEqual(v.numerator, 10 ** 6)
                    else:
                        self.assertLess(v.denominator, 20)

    def test_without_program_sources_the_run_fails(self):
        bare = run.RESULTS / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "bench").mkdir(parents=True)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for f in HERE.glob("*.py"):
                shutil.copy(f, bare / "bench")
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "table-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

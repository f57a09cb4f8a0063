"""Self-tests of the benchmark; run from the root of a checkout with

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, installed_wrappers  # noqa: E402
from worker import Phases  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _outputs(workload: str, seed: int, count: int):
    phases = Phases({"workload": workload, "seed": seed})
    for op in workloads.ops(workload, seed, count):
        yield op, phases.output(op, phases.run_op(op))


def _breaking_letter(g: int, v: int) -> str:
    return next(
        f"t_{{d_{i}}}" for i in range(1, g - 1) if (v & checker.mask((i, i + 2))).bit_count() % 2
    )


class InputGeneration(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            first = workloads.ops(name, 11, 60)
            again = workloads.ops(name, 11, 60)
            self.assertEqual(json.dumps(first, sort_keys=True), json.dumps(again, sort_keys=True))
            self.assertEqual(
                workloads.input_digest(name, 11, 60), workloads.input_digest(name, 11, 60)
            )

    def test_other_seed_other_bytes(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(
                workloads.input_digest(name, 11, 60), workloads.input_digest(name, 12, 60)
            )

    def test_parts_are_independent_streams(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.ops(name, 11, 30), workloads.ops(name, 11, 30, part=0))
            self.assertNotEqual(
                workloads.input_digest(name, 11, 60, 1), workloads.input_digest(name, 11, 60, 2)
            )

    def test_every_block_holds_every_cell_once(self):
        def cell(op):
            return json.dumps([op["kind"], op["g"], op.get("family"), op.get("length")])

        for name, w in workloads.WORKLOADS.items():
            size = workloads.block_size(name)
            self.assertEqual(w.trace_ops % size, 0)
            stream = workloads.ops(name, 5, 2 * size)
            first, second = sorted(map(cell, stream[:size])), sorted(map(cell, stream[size:]))
            self.assertEqual(first, second)
            self.assertEqual(len(set(first)), len(set(workloads._cells(name))))


class NominalSpeed(unittest.TestCase):
    def test_scaling_and_pauses(self):
        sampler = speed.Sampler()
        # a host at half the nominal speed, sampled every 0.1 s
        sampler.starts = [0.1 * k for k in range(20)]
        sampler.ends = [t + 2 * speed.NOMINAL_S for t in sampler.starts]
        pauses = 3 * 2 * speed.NOMINAL_S  # the samples at 1.0, 1.1 and 1.2 s
        self.assertAlmostEqual(sampler.paused(0.95, 1.25), pauses)
        self.assertAlmostEqual(sampler.nominal(0.95, 1.25), (0.3 - pauses) / 2)
        self.assertAlmostEqual(sampler.nominal(3.0, 3.01), 0.01 / 2)

    def test_sampler_samples_and_restores_the_timer(self):
        previous = signal.getsignal(signal.SIGALRM)
        with speed.Sampler() as sampler:
            start = run.monotonic()
            while run.monotonic() - start < 0.3:
                pass
        self.assertGreater(len(sampler.starts), 2)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class CheckerCatchesBadOutput(unittest.TestCase):
    def assertPasses(self, op, out):
        self.assertIsNone(checker.check_op(op, out), op)

    def assertCaught(self, op, out):
        self.assertIsNotNone(checker.check_op(op, out), op)

    def test_real_outputs_pass(self):
        for name in workloads.WORKLOADS:
            for op, out in _outputs(name, 3, workloads.block_size(name)):
                self.assertPasses(op, out)

    def test_flipped_verdict(self):
        for op, out in _outputs("decide", 3, 16):
            self.assertCaught(op, {**out, "extendable": not out["extendable"]})

    def test_wrong_witness(self):
        caught = 0
        for op, out in _outputs("decide", 3, 32):
            if out["extendable"]:
                continue
            g, cols = op["g"], out["matrix"]
            kept = next(
                v
                for v in range(1, 1 << min(g, 16))
                if checker.q_value(g, v) == checker.q_value(g, checker.apply_cols(cols, v))
            )
            self.assertCaught(op, {**out, "witness": kept})
            self.assertCaught(op, {**out, "witness": None})
            caught += 1
        self.assertGreater(caught, 0)

    def test_tampered_certificates(self):
        for name in ("group", "reduce"):
            for op, out in _outputs(name, 3, workloads.block_size(name)):
                if op["kind"] == "factorize":
                    if out["labels"]:
                        self.assertCaught(op, {**out, "labels": out["labels"][1:]})
                    self.assertCaught(op, {**out, "labels": ["t_{d_1}"] + out["labels"]})
                    continue
                end = out["final_pair"][0] if op["kind"] == "pair" else out.get("end")
                if end is None:
                    end = checker.mask(out["terminal"])
                if end == 0:
                    continue  # every word fixes the zero class
                # a last move whose axis pairs to 1 with the end class
                extra = _breaking_letter(op["g"], end)
                tampered = {**out, "word": f"{extra} {out['word']}".strip()}
                if "moves" in out:
                    tampered["moves"] = out["moves"] + [extra]
                self.assertCaught(op, tampered)

    def test_unknown_letter_is_a_failure(self):
        op, out = next(_outputs("reduce", 3, 1))
        self.assertCaught(op, {**out, "word": "t_{b_1} " + out.get("word", "")})

    def test_lemma_known_answers(self):
        argv = ["verify-lemma", "4.8", "-g", "7", "--workers", "1"]
        good = {
            "ok": True,
            "detail": {
                "equal": True,
                "complete": True,
                "closure_order": 40320,
                "enumerated_order": 40320,
                "diameter": 9,
            },
        }
        self.assertIsNone(checker.check_lemma(argv, 0, good))
        wrong_order = json.loads(json.dumps(good))
        wrong_order["detail"]["closure_order"] = wrong_order["detail"]["enumerated_order"] = 40319
        self.assertIsNotNone(checker.check_lemma(argv, 0, wrong_order))
        wrong_diameter = json.loads(json.dumps(good))
        wrong_diameter["detail"]["diameter"] = 8
        self.assertIsNotNone(checker.check_lemma(argv, 0, wrong_diameter))
        self.assertIsNotNone(checker.check_lemma(argv, 1, good))
        self.assertIsNotNone(checker.check_lemma(argv, 0, {**good, "ok": False}))


class MetricNames(unittest.TestCase):
    def test_names_and_declaration(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared_e2e = [m["name"] for m in spec["end_to_end"]]
        declared_layers = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(declared_e2e, [name for name, _ in run.END_TO_END])
        self.assertEqual(declared_layers, [m["name"] for m in LAYER_METRICS])
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS)
        )
        for name in declared_e2e + declared_layers + [w["name"] for w in spec["workloads"]]:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(set(declared_e2e + declared_layers)), len(declared_e2e + declared_layers))


class Tracing(unittest.TestCase):
    def test_wrappers_removed(self):
        import crosscap.cli  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "crosscap"]
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        from crosscap import f2core, words

        init_before = vars(f2core.H1Matrix)["__init__"]
        tracer = Tracer()
        with tracer:
            self.assertIn("crosscap.words.parse_word", installed_wrappers())
            self.assertIn("crosscap.groupops.parse_word", installed_wrappers())
            words.decide_extendable(words.parse_word("t_{a_1} t_{d_2}", f2core.Genus(5)))
        self.assertEqual(installed_wrappers(), [])
        after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        self.assertIs(vars(f2core.H1Matrix)["__init__"], init_before)
        layers = tracer.layer_metrics(1)
        self.assertEqual(layers["words.parse_word.calls"], 1)
        self.assertEqual(layers["gmform.preserves_q.witness_found"], 1)
        self.assertGreater(layers["f2core.H1Matrix.built"], 0)

    def test_traced_counts_repeat(self):
        def counts():
            base = {"root": str(ROOT), "workload": "group", "seed": 4, "seconds": 1}
            result = run.spawn({**base, "mode": "trace"}, run.monotonic() + 170)
            self.assertEqual(result["failed"], 0, result["reasons"])
            return {
                k: v
                for k, v in result["layers"].items()
                if not k.endswith("self_s") and not k.startswith("trace.")
            }

        first, second = counts(), counts()
        self.assertEqual(first, second)
        self.assertEqual(first["groupops.subgroup_closure.elements"], 40320)


class Checkout(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

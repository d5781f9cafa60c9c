"""Self-tests of the benchmark: `python3 -m pytest bench/test_bench.py`."""

from __future__ import annotations

import json
import random
import re
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wk  # noqa: E402
from netfence import cli, semantics, simplefw  # noqa: E402


def small_wide(seed=3):
    return gen.wide_ruleset(random.Random(seed), random.Random("wide-0"), 40, 1)


class TempDirTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.work = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()


class GeneratorTests(TempDirTest):
    def test_rulesets_are_byte_identical_for_a_seed(self):
        for make in (lambda r: wk.wide_input(r, 0), lambda r: wk.return_input(r, 0, k=5)):
            self.assertEqual(make(random.Random(7)), make(random.Random(7)))
            self.assertNotEqual(make(random.Random(7)), make(random.Random(8)))

    def test_synthesis_inputs_are_byte_identical_for_a_seed(self):
        def files(seed, sub):
            wk.synth_workload(seed, self.work / sub)
            return {p.relative_to(self.work / sub): p.read_bytes()
                    for p in sorted((self.work / sub).rglob("*")) if p.is_file()}

        first = files(5, "a")
        self.assertTrue(first)
        self.assertEqual(first, files(5, "b"))
        self.assertNotEqual(first, files(6, "c"))

    def test_wide_ruleset_has_the_requested_shape(self):
        text = gen.wide_ruleset(random.Random(1), random.Random("wide-0"), 200, 8)
        # 200 rules, plus one RETURN per custom chain
        self.assertEqual(sum(line.startswith("-A ") for line in text.splitlines()),
                         200 + gen.CHAINS)
        # the pool has 200 sets; a few appear only as the /24 of a negated source
        self.assertGreaterEqual(len(set(wk.hot_addresses(text))), 180)

    def test_seeds_change_addresses_but_not_layouts(self):
        def layout(text):
            return [re.sub(r"\d+\.\d+\.\d+\.\d+", "A", line) for line in text.splitlines()]

        self.assertEqual(layout(wk.wide_input(random.Random(1), 0)),
                         layout(wk.wide_input(random.Random(2), 0)))
        self.assertNotEqual(layout(wk.wide_input(random.Random(1), 0)),
                            layout(wk.wide_input(random.Random(1), 1)))


class TracerTests(unittest.TestCase):
    def snapshot(self):
        import netfence.invariants
        import netfence.wordinterval

        names = {}
        for name, mod in sys.modules.items():
            if name.startswith("netfence"):
                names.update({(name, k): v for k, v in vars(mod).items()})
        for cls in (netfence.wordinterval.WordInterval, netfence.invariants.ConfiguredInvariant):
            names.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return names

    def test_self_times_fit_in_wall_time_and_unwrapping_restores(self):
        before = self.snapshot()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.iptables"
            path.write_text(small_wide())
            tracer = tracing.Tracer()
            with tracer:
                self.assertIsNot(cli.analyze_pipeline, before[("netfence.cli", "analyze_pipeline")])
                start = time.perf_counter()
                with open(Path(tmp) / "stdout", "w") as out:
                    sys.stdout, saved = out, sys.stdout
                    try:
                        code = cli.main(["analyze", "--input", str(path), "--emit", "json",
                                         "--out-dir", str(Path(tmp) / "out")])
                    finally:
                        sys.stdout = saved
                wall = time.perf_counter() - start
        self.assertEqual(code, 0)
        self.assertEqual(self.snapshot(), before)
        self.assertFalse(tracer.missing)
        self.assertLessEqual(sum(tracer.self_s.values()), wall)
        self.assertEqual(tracer.calls["cli.main"], 1)
        self.assertEqual(tracer.calls["analysis.ip_partition"], 2)
        self.assertGreater(tracer.calls["wordinterval.intersect"], 0)
        spans = {s[0]: s for s in tracer.spans}
        pipeline = [s for s in tracer.spans if s[1] == "cli.analyze_pipeline"]
        self.assertEqual(spans[pipeline[0][4]][1], "cli.main")
        metrics = tracing.layer_metrics(tracer)
        self.assertGreater(metrics["analysis.ip_partition.blocks"][0], 1)

    def test_a_cycle_that_repeats_a_job_is_timed_whole(self):
        with tempfile.TemporaryDirectory() as tmp:
            case = wk.wide_case("w", Path(tmp), small_wide())
            wl = wk.Workload()
            wl.analyses = [case]
            case.evaluators = {}
            wl.cycle = [case.job, case.job, case.job]
            metrics = run.traced_metrics(wl, wk.Ledger(), speed.Speed(), tracing)
        self.assertEqual(len(case.job.walls), 6)
        self.assertAlmostEqual(metrics["trace.traced_s"][0], sum(case.job.walls[3:]))
        self.assertLessEqual(metrics["trace.self_s_total"][0], metrics["trace.traced_s"][0])
        self.assertEqual(metrics["analysis.ip_partition.calls"][0], 6)

    def test_recursion_gets_one_span(self):
        calls = []

        def fact(n):
            calls.append(n)
            return 1 if n <= 1 else n * module.fact(n - 1)

        module = type(sys)("netfence.fake")
        module.fact = fact
        sys.modules["netfence.fake"] = module
        try:
            tracer = tracing.Tracer([("netfence.fake", "fact")])
            with tracer:
                self.assertEqual(module.fact(5), 120)
            self.assertIs(module.fact, fact)
        finally:
            del sys.modules["netfence.fake"]
        self.assertEqual(tracer.calls["fake.fact"], 1)
        self.assertEqual(len(calls), 5)


class CheckTests(TempDirTest):
    def wide_case(self):
        case = wk.AnalysisCase("w", self.work, small_wide(), ["eth0", "eth1", "eth3"])
        case.prepare(random.Random(2))
        self.assertEqual(case.oracle_problems, [])
        return case

    def test_a_flipped_matrix_edge_is_caught(self):
        case = self.wide_case()
        text = case.expected_files["matrix-upper.json"]
        simple = case.refs["upper"]["simple"]
        self.assertEqual(wk.check_matrix(text, simple, random.Random(0)), [])
        data = json.loads(text)
        reps = sorted(data["classes"])
        edge = [reps[0], reps[-1]]
        if edge in data["edges"]:
            data["edges"].remove(edge)
        else:
            data["edges"].append(edge)
        self.assertTrue(wk.check_matrix(json.dumps(data), simple, random.Random(0)))

    def test_a_dropped_simple_rule_is_caught(self):
        case = self.wide_case()
        upper = case.refs["upper"]["simple"]
        exact = case.verdicts["semantics.bigstep_evaluator"]
        for p, verdict in zip(case.packets, exact):
            if verdict != semantics.ALLOW:
                continue
            first = next(i for i, r in enumerate(upper) if r.match.matches(p))
            dropped = upper[:first] + upper[first + 1:]
            if simplefw.simple_fw_eval(dropped, p) != semantics.ALLOW:
                break
        else:
            self.fail("no sampled packet depends on a single simple rule")
        lower = case.refs["lower"]["simple"]
        case.verdicts["simplefw.simple_fw_eval"] = [
            (simplefw.simple_fw_eval(dropped, q), simplefw.simple_fw_eval(lower, q))
            for q in case.packets]
        self.assertTrue(case.check_sandwich())

    def test_a_wrong_spoofing_verdict_is_caught(self):
        case = wk.return_case("r", self.work, *wk.return_input(random.Random(4), 0, k=2))
        case.prepare(random.Random(1))
        outcome = wk.run_cli(case.job.argv, case.job.out_dir)
        self.assertEqual(outcome.code, 2)
        self.assertEqual(case.check_outcome(outcome), [])
        iface = next(i for i, ok in case.spoofing.items() if ok)
        outcome.stdout = outcome.stdout.replace(f"{iface}: CERTIFIED", f"{iface}: FAIL")
        self.assertTrue(case.check_outcome(outcome))


class FailureTests(TempDirTest):
    def test_failed_synthesis_checks_reach_the_result_line(self):
        # Both synthesis jobs fail their first check, so no round-trip
        # analysis is set up and no packet is classified.
        ledger = wk.Ledger()
        with mock.patch.object(wk.SynthesisCase, "check_outcome",
                               lambda case, outcome: ["corrupted output"]):
            wl = wk.synth_workload(1, self.work)
            wl.prepare(ledger)
            wk.run_probes(wl, ledger)
            self.assertEqual(wl.analyses, [])
            metrics = run.timed_metrics(wl, ledger, speed.Speed(), 0, 0.1)
        self.assertEqual(metrics["classify_pps"][0], 0.0)
        self.assertGreater(metrics["synthesize_s"][0], 0)
        self.assertGreater(metrics["peak_rss_mb"][0], 0)
        result = run.result_line(ledger, metrics)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 4)
        self.assertEqual(ledger.known, [])
        self.assertTrue(all("corrupted output" in p for p in ledger.problems))

    def test_known_failure_is_reported_but_not_counted(self):
        ledger = wk.Ledger()
        wl = wk.synth_workload(1, self.work)
        wl.prepare(ledger)
        counted = ledger.attempted
        wk.run_probes(wl, ledger)
        self.assertEqual((ledger.attempted, ledger.failed), (counted, 0))
        self.assertEqual(len(ledger.known), 1)
        self.assertIn("TooLargeForBruteForce", ledger.known[0])

    def test_other_probe_failures_are_wrong_outputs(self):
        ledger = wk.Ledger()
        wl = wk.synth_workload(1, self.work)
        wl.prepare(ledger)
        wl.probes = [(job, known, "no such signature") for job, known, _ in wl.probes]
        wk.run_probes(wl, ledger)
        self.assertEqual((ledger.failed, ledger.wrong_outputs), (1, 1))
        self.assertEqual(ledger.known, [])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

Runs every workload at a tiny N, untraced and traced, and checks that every
metric BENCHMARK.json names is printed with its unit and that no operation
failed.  A negative case runs query-mix against a deliberately wrong range
oracle and expects every checked range query to count as failed.

Run from the root of a checkout:  python3 perfbench/test/selftest.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
TINY = ["--nodes", "300"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, declared, text, result):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            pattern = r"^%s\s+\S+\s+%s$" % (re.escape(m["name"]),
                                            re.escape(m["unit"]))
            self.assertTrue(any(re.match(pattern, l) for l in text),
                            "%s not printed with its unit" % m["name"])

    def test_every_workload_prints_every_metric(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    text, result = run(w["name"], trace)
                    self.check_metrics(self.spec[key], text, result)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    self.assertTrue(any(l.startswith("failed_frac 0 ")
                                        for l in text))
                    if trace == 0:
                        self.assertTrue(any(l.startswith("host speed:")
                                            for l in text))
                        for m in self.spec["end_to_end"]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])

    def test_wrong_oracle_answer_counts_as_failure(self):
        _, result = run("query-mix", 0, "--wrong-oracle")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()

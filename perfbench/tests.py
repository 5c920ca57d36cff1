#!/usr/bin/env python3
"""Tests of the benchmark itself, on seconds-long (tiny) inputs.

    python3 perfbench/tests.py

Builds pb_engine the way run.py does, then checks that the timing
decorators forward without perturbing, that metric names and units are
well formed, that the digest follows the seed, and that the binary
carries none of the serial harness.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, seed, trace):
    """One tiny benchmark run; returns (digest, result line)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    assert out.returncode == 0, out.stdout + out.stderr
    digest = next(l.split()[2] for l in lines if l.startswith("run digest "))
    return digest, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(run.SPEC) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_decorators_forward_topology_calls(self):
        # Wrapped and bare topologies answer delay() identically on sampled
        # router pairs; nested spans leave the parent's self time.
        out = subprocess.run([run.ENGINE, "--selftest"], capture_output=True,
                             text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_traced_run_has_untraced_digest(self):
        # run.py fails the run when a decorated repetition digests
        # differently from a bare one.
        for w in self.workloads:
            with self.subTest(workload=w):
                digest, result = bench(w, 5, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(digest, bench(w, 5, 0)[0])

    def test_metric_names_and_units(self):
        names = set()
        for kind in ("end_to_end", "per_layer"):
            for m in self.spec[kind]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
                self.assertNotIn(m["name"], names)
                names.add(m["name"])
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        w = self.workloads[0]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            _, result = bench(w, 1, trace)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in self.spec[kind]})
            for m in self.spec[kind]:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertIsInstance(got["value"], (int, float))
            self.assertGreaterEqual(result["attempted"], 1)

    def test_digest_follows_seed(self):
        w = self.workloads[0]
        first, _ = bench(w, 1, 0)
        self.assertEqual(first, bench(w, 1, 0)[0])
        self.assertNotEqual(first, bench(w, 2, 0)[0])

    @unittest.skipIf(shutil.which("nm") is None, "nm not installed")
    def test_links_no_serial_harness(self):
        syms = subprocess.run(["nm", "-C", run.ENGINE], capture_output=True,
                              text=True, check=True).stdout
        for name in ("overlay::OverlayDriver", "net::Network::",
                     "ScriptedAdversary", "AdversaryController",
                     "apps::WebCacheService"):
            self.assertNotIn(name, syms)


if __name__ == "__main__":
    unittest.main()

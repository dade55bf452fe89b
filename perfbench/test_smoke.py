#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload run.py knows (the
BENCHMARK.json ones and the hand-run translate-paced), traced and
untraced, for a fraction of a second each.

    python3 perfbench/test_smoke.py        (about a minute; builds first)

Asserts the output contract: the last stdout line is one JSON object
with exactly correct/attempted/failed/metrics, every metric that
BENCHMARK.json names for the mode is present with its unit, nothing
failed, and the traced run reports failed_ratio = 0.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the workload list)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError("run.py %s --trace %d exited %d:\n%s" % (workload, trace, p.returncode, p.stderr))
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        stamp, r = bench(workload, trace)
        self.assertEqual(sorted(stamp), sorted(["nproc", "ocaml", "backend", "default_backend", "commit",
                                                "source_sha256", "loadavg1", "calib_ms", "steal_s",
                                                "steal_share"]))
        self.assertEqual(sorted(r), ["attempted", "correct", "failed", "metrics"])
        self.assertIs(r["correct"], True)
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(r["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = r["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float, m["name"])
        if trace:
            self.assertEqual(r["metrics"]["failed_ratio"]["value"], 0.0)
        else:
            for m in wanted:
                self.assertGreater(r["metrics"][m["name"]]["value"], 0.0, m["name"])


def add(workload, trace):
    setattr(Smoke, "test_%s_trace%d" % (workload.replace("-", "_"), trace),
            lambda self: self.check(workload, trace))


for w in run.WORKLOADS:
    for t in (0, 1):
        add(w, t)

if __name__ == "__main__":
    unittest.main(verbosity=2)

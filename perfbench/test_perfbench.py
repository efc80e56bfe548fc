#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root (builds perfbench first if needed):

    python3 perfbench/test_perfbench.py

- the metric catalog compiled into the binary matches BENCHMARK.json
  (name, unit, better-direction, end-to-end vs per-layer), and
  BENCHMARK.json keeps its fixed set of fields and bounds;
- a smoke-size run of every workload, untraced and traced, passes its
  answer checks, emits exactly the declared metrics, and a traced run
  writes a loadable Chrome trace-event file.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def perfbench(args, timeout=170):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)


class CatalogTest(unittest.TestCase):
    def test_catalog_matches_benchmark_json(self):
        exe = run.build(run.build_dir())
        out = subprocess.run([exe, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout
        emitted = json.loads(out)
        declared = [dict(m, kind="end_to_end") for m in SPEC["end_to_end"]]
        declared += [dict(m, kind="per_layer") for m in SPEC["per_layer"]]
        strip = [{k: m[k] for k in ("name", "unit", "better", "kind")}
                 for m in declared]
        self.assertEqual(emitted, strip)

    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in e2e.values()),
                         e2e["setup_s"]["bound"])
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        r = perfbench(["--workload", workload, "--seed", "7", "--seconds",
                       "2", "--trace", str(trace), "--smoke"])
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        kind = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC[kind]})
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0.0, name)
            return
        path = os.path.join(os.path.dirname(run.build_dir()), "traces",
                            f"{workload}-seed7.trace.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(events)
        self.assertTrue(all(e["ph"] == "X" for e in events))

    def test_kb_compile(self):
        self.check("kb_compile", 0)
        self.check("kb_compile", 1)

    def test_offline_batch(self):
        self.check("offline_batch", 0)
        self.check("offline_batch", 1)


if __name__ == "__main__":
    unittest.main()

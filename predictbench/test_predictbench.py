#!/usr/bin/env python3
"""Self-test of predictbench's determinism: run from the checkout root with

    python3 predictbench/test_predictbench.py

It builds the benchmark like run.py does, then asserts that two runs with
the same seed send identical request lists, report identical sample counts
and identical exact metrics (pred_err_pct, predict_sim_s, build_sim_s), and
that another seed changes the request list. Runs use --seconds 1, the
shortest list, so the whole test takes well under a minute.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT = ("pred_err_pct", "predict_sim_s", "build_sim_s")
BINARY = None


def invoke(seed, *extra):
    args = [BINARY, "--workload", "cold_predict", "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--out-dir", run.build_dir()]
    done = subprocess.run(args + list(extra), capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise AssertionError("predictbench failed:\n" + done.stderr)
    return done.stdout


def result(seed):
    """(context, result) of one measured run."""
    lines = invoke(seed).splitlines()
    context = json.loads(
        next(l for l in lines if l.startswith("# context "))[10:])
    return context, json.loads(lines[-1])


class PredictbenchDeterminism(unittest.TestCase):

    def test_request_list_is_a_function_of_the_seed(self):
        first = invoke(5, "--list-requests")
        self.assertGreater(len(first.splitlines()), 0)
        self.assertEqual(first, invoke(5, "--list-requests"))
        self.assertNotEqual(first, invoke(6, "--list-requests"))

    def test_same_seed_gives_same_counts_and_exact_metrics(self):
        context_a, result_a = result(5)
        context_b, result_b = result(5)
        for r in (result_a, result_b):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
        self.assertEqual(context_a["requests"], context_b["requests"])
        self.assertEqual(context_a["samples"], context_b["samples"])
        self.assertEqual(result_a["attempted"], result_b["attempted"])
        for name in EXACT:
            self.assertEqual(result_a["metrics"][name]["value"],
                             result_b["metrics"][name]["value"], name)


if __name__ == "__main__":
    BINARY = run.build()
    if BINARY is None:
        sys.exit(2)
    unittest.main()

"""Self-tests for the benchmark, on tiny pools and short runs.

    python3 perfbench/selftest.py

Named so that a plain `pytest` run of the repository does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LPRecorder  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"certify": {"pool": 8, "count_ops": 4},
        "probe": {"pool": 2, "count_ops": 1},
        "band": {"pool": 6, "count_ops": 2}}
SECONDS = 0.2


def tiny(name):
    return run.WORKLOADS[name](**TINY[name])


class TinyRuns(unittest.TestCase):

    def test_every_named_metric_with_its_unit(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    _, result = run.measure(tiny(name), 1, SECONDS, trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace:
                        self.assertEqual(
                            result["metrics"]["failed_ratio"]["value"], 0)
                        self.assertLessEqual(
                            result["metrics"]["lp.repeat_ratio"]["value"], 1)

    def test_second_seed_changes_inputs_not_outcomes(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                lib = run.load_library()
                self.assertNotEqual(tiny(name).generate(lib, 1),
                                    tiny(name).generate(lib, 2))
                for seed in (1, 2):
                    _, result = run.measure(tiny(name), seed, SECONDS, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)

    def test_digest_repeats_on_the_same_seed(self):
        # the counting pass of a traced run always holds count_ops ops
        infos = [run.measure(tiny("certify"), 3, SECONDS, 1)[0]
                 for _ in range(2)]
        self.assertEqual({i["digest_ops"] for i in infos},
                         {TINY["certify"]["count_ops"]})
        self.assertEqual(len({i["digest"] for i in infos}), 1)

    def test_lp_counts_cover_the_op_not_its_check(self):
        # a band op below the fit frontier and its check both decide
        # consistency, with the same programs; only the op's are counted
        lib = run.load_library()
        band = run.WORKLOADS["band"](pool=len(run.WORKLOADS["band"].ladder))
        item = next(i for i in band.generate(lib, 1) if i[0] == "below")
        recorder = LPRecorder(lib)
        recorder.install()
        try:
            with recorder.recording():
                out = band.op(lib, band.prepare(item))
            self.assertIsNone(band.check(lib, item, out))
        finally:
            recorder.uninstall()
        self.assertGreaterEqual(recorder.calls, 1)
        self.assertEqual(recorder.repeats, 0)

    def test_without_the_package_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "band", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

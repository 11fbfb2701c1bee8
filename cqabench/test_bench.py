#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 cqabench/test_bench.py

They build the benchmark binary (as run.py does) and check that the
request streams are seeded, that served_mix repeats its share, that
every request family holds at least 10% of its workload, that metric
names are well formed, and that the count metrics of a traced run repeat
exactly for one seed.
"""

import collections
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("exact_cold", "mc_poly", "served_mix")
COUNT_METRICS = ("constraint.qe_atoms", "volume.sweep_sections",
                 "runtime.points_per_req", "approx.fallback_atom_frac",
                 "served.wire_bytes")


def stream(workload, seed, count):
    """(fingerprint, family, repeat_of) for the first `count` requests."""
    out = subprocess.run(
        [run.BINARY, "fingerprints", "--workload", workload, "--seed",
         str(seed), "--count", str(count)],
        check=True, capture_output=True, text=True).stdout
    rows = []
    for line in out.splitlines():
        fp, family, repeat_of = line.split()
        rows.append((fp, family, int(repeat_of)))
    return rows


def traced_metrics(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert out.returncode == 0 and last["correct"], out.stdout[-2000:]
    return {k: v["value"] for k, v in last["metrics"].items()}


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_fingerprints(self):
        for w in WORKLOADS:
            self.assertEqual(stream(w, 5, 300), stream(w, 5, 300), w)

    def test_new_seed_new_fingerprints(self):
        for w in WORKLOADS:
            a = {fp for fp, _, _ in stream(w, 5, 300)}
            b = {fp for fp, _, _ in stream(w, 6, 300)}
            self.assertFalse(a & b, w)

    def test_cold_workloads_never_repeat(self):
        for w in ("exact_cold", "mc_poly"):
            rows = stream(w, 7, 3000)
            self.assertEqual(len({fp for fp, _, _ in rows}), len(rows), w)
            self.assertTrue(all(r < 0 for _, _, r in rows), w)

    def test_served_mix_repeat_share(self):
        rows = stream("served_mix", 7, 4000)
        repeats = [(i, r) for i, (_, _, r) in enumerate(rows) if r >= 0]
        share = len(repeats) / len(rows)
        self.assertGreater(share, 0.27)
        self.assertLess(share, 0.33)
        for i, r in repeats:
            self.assertLess(r, i)
            self.assertEqual(rows[i][0], rows[r][0])
        firsts = [fp for fp, _, r in rows if r < 0]
        self.assertEqual(len(set(firsts)), len(firsts))

    def test_every_family_is_a_tenth_of_its_workload(self):
        for w in WORKLOADS:
            rows = stream(w, 8, 4000)
            counts = collections.Counter(f for _, f, _ in rows)
            for family, n in counts.items():
                self.assertGreaterEqual(n / len(rows), 0.10, (w, family))

    def test_metric_names(self):
        spec = run.spec()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, run.METRIC_NAME)

    def test_counts_repeat_exactly(self):
        for w in WORKLOADS:
            first = traced_metrics(w, 9)
            second = traced_metrics(w, 9)
            for name in COUNT_METRICS:
                self.assertEqual(first[name], second[name], (w, name))


if __name__ == "__main__":
    unittest.main()

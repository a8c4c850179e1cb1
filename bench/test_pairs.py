#!/usr/bin/env python3
"""Unit tests of bench/pairs.py's notes-line parser and medians sentence.

    python3 bench/test_pairs.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pairs  # noqa: E402

# Notes printed by `perfbench/run.py --workload cast-rush --seed 1
# --seconds 5 --trace 0` ahead of its result object.
CAPTURED = [
    "# 125 votes attempted, 0 failed; 125 latency samples, 7 beyond p95",
    "# set-ups: 0.043 0.012 0.012 0.013 0.008 s; cast 0.628 s (idle 0.000 s); results 0.234 s",
    "# run.votes_per_s=199.11/s run.cast_p50_ms=129.9ms run.cast_p95_ms=147.9ms run.results_s=0.234s",
    "# wall_s 0.949532",
]


class NotesLine(unittest.TestCase):
    def test_captured_line(self):
        # the unit runs straight into the value: "199.11/s" is 199.1 then "1/s"
        self.assertEqual(
            pairs.notes_metrics(CAPTURED),
            {"run.votes_per_s": 199.1, "run.cast_p50_ms": 129.9,
             "run.cast_p95_ms": 147.9, "run.results_s": 0.234})

    def test_exponent_values(self):
        line = "# run.votes_per_s=1.234e+041/s run.results_s=1e-05s"
        self.assertEqual(pairs.notes_metrics([line]),
                         {"run.votes_per_s": 1.234e4, "run.results_s": 1e-5})

    def test_other_lines_ignored(self):
        self.assertEqual(pairs.notes_metrics(["# wall_s 1.0", "run.results_s=2s", "{}"]), {})

    def test_direction_without_better(self):
        spec = pairs.spec_of(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
        for name, better in [("run.votes_per_s", "higher"), ("run.cast_p50_ms", "lower"),
                             ("run.cast_p95_ms", "lower"), ("run.results_s", "lower")]:
            self.assertEqual(pairs.better_of(spec, name, None), better)
        self.assertEqual(pairs.better_of(spec, "run.results_s", "higher"), "higher")



class MediansSentence(unittest.TestCase):
    def test_change_ahead(self):
        self.assertEqual(pairs.medians_sentence(20.0, 10.0, "lower"),
                         "Medians 2.00x apart in the change's favour")
        self.assertEqual(pairs.medians_sentence(10.0, 20.0, "higher"),
                         "Medians 2.00x apart in the change's favour")

    def test_parent_ahead(self):
        # cast-trickle peak RSS: parent 12.24, change 12.29 MB, lower is better
        self.assertEqual(pairs.medians_sentence(12.24, 12.29, "lower"),
                         "Medians 1.00x apart in the parent's favour")
        self.assertEqual(pairs.medians_sentence(20.0, 10.0, "higher"),
                         "Medians 2.00x apart in the parent's favour")

    def test_equal(self):
        self.assertEqual(pairs.medians_sentence(3.5, 3.5, "lower"), "Medians equal")


if __name__ == "__main__":
    unittest.main()

"""Tests of the result check in run.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def good_line(expected):
    return json.dumps({
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {n: {"value": 1.25, "unit": u} for n, u in expected.items()},
    })


class ValidateTest(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH, encoding="utf-8") as f:
            self.spec = json.load(f)
        self.e2e = run.expected_metrics(self.spec, trace=False)
        self.layers = run.expected_metrics(self.spec, trace=True)

    def test_every_mode_names_its_catalogue(self):
        self.assertIn("setup_s", self.e2e)
        self.assertEqual(self.e2e["setup_s"], "s")
        self.assertIn("pconf.specialize_us", self.layers)
        self.assertFalse(set(self.e2e) & set(self.layers))

    def test_a_complete_result_passes(self):
        result = run.validate(good_line(self.e2e), self.e2e)
        self.assertEqual(result["attempted"], 10)

    def test_defects_are_refused(self):
        ok = json.loads(good_line(self.e2e))
        name = next(iter(self.e2e))

        def broken(mutate):
            r = json.loads(json.dumps(ok))
            mutate(r)
            return json.dumps(r)

        cases = {
            "missing metric": broken(lambda r: r["metrics"].pop(name)),
            "extra metric": broken(lambda r: r["metrics"].update(x={"value": 1, "unit": "s"})),
            "wrong unit": broken(lambda r: r["metrics"][name].update(unit="h")),
            "string value": broken(lambda r: r["metrics"][name].update(value="1")),
            "extra key": broken(lambda r: r.update(notes="x")),
            "zero attempted": broken(lambda r: r.update(attempted=0)),
            "fractional failed": broken(lambda r: r.update(failed=0.5)),
            "boolean attempted": broken(lambda r: r.update(attempted=True)),
            "non-boolean correct": broken(lambda r: r.update(correct=1)),
            "NaN": good_line(self.e2e).replace("1.25", "NaN", 1),
            "duplicate key": good_line(self.e2e).replace('"failed": 0', '"failed": 0, "failed": 0'),
            "not JSON": "correct: true",
        }
        for what, line in cases.items():
            with self.assertRaises(ValueError, msg=what):
                run.validate(line, self.e2e)


if __name__ == "__main__":
    unittest.main()

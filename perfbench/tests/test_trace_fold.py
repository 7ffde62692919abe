"""trace_fold on a hand-built nested trace.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import trace_fold  # noqa: E402


def span(name, ts, dur, tid=1):
    return {"name": name, "cat": "test", "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": tid}


class TraceFoldTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # root [0,100) holds a [10,30) and b [40,90); b holds leaf [50,60).
        folded = trace_fold.fold([
            span("root", 0, 100), span("a", 10, 20), span("b", 40, 50), span("leaf", 50, 10),
        ])
        self.assertEqual(folded["root"]["self_us"], 30)
        self.assertEqual(folded["a"]["self_us"], 20)
        self.assertEqual(folded["b"]["self_us"], 40)
        self.assertEqual(folded["leaf"]["self_us"], 10)
        self.assertEqual(folded["root"]["total_us"], 100)

    def test_repeated_names_sum_and_count(self):
        folded = trace_fold.fold([
            span("outer", 0, 50), span("step", 0, 10), span("step", 20, 10), span("step", 60, 5),
        ])
        self.assertEqual(folded["step"]["count"], 3)
        self.assertEqual(folded["step"]["self_us"], 25)
        self.assertEqual(folded["outer"]["self_us"], 30)

    def test_other_threads_are_not_children(self):
        folded = trace_fold.fold([span("main", 0, 100, tid=1), span("worker", 10, 80, tid=2)])
        self.assertEqual(folded["main"]["self_us"], 100)
        self.assertEqual(folded["worker"]["self_us"], 80)

    def test_child_rounded_past_parent_end_is_clipped(self):
        # Microsecond rounding: the child ends one tick after its parent.
        folded = trace_fold.fold([span("parent", 0, 10), span("child", 5, 6)])
        self.assertEqual(folded["parent"]["self_us"], 5)
        self.assertEqual(folded["child"]["self_us"], 6)

    def test_siblings_that_touch_are_not_nested(self):
        folded = trace_fold.fold([span("first", 0, 10), span("second", 10, 10)])
        self.assertEqual(folded["first"]["self_us"], 10)
        self.assertEqual(folded["second"]["self_us"], 10)

    def test_loads_tracer_documents(self):
        document = {"traceEvents": [span("x", 0, 7), {"name": "meta", "ph": "M"}],
                    "displayTimeUnit": "ms"}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(document, f)
        try:
            events = trace_fold.load_events(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual([e["name"] for e in events], ["x"])


if __name__ == "__main__":
    unittest.main()
